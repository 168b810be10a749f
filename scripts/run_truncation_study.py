#!/usr/bin/env python3
"""Compare finite-basis and kernel (infinite-basis) interior estimators.

Runs the kernel estimator and the finite expansion at increasing truncation
orders on the same scenario, printing mean NMSE per order so the convergence
of the finite method toward the kernel method is visible.  Every order's
scenario is read by the config parser before the first sweep runs, so a
value it rejects exits 2 with `config error: ...`, as the CLI does.

Usage:
    python scripts/run_truncation_study.py [--freq F] [--orders N] [--seed S]
"""

import argparse

from soundfield.harness import ConfigError, ScenarioConfig, run_sweep


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--freq", default=300.0, type=float)
    ap.add_argument("--orders", default=12, type=int, help="max truncation order")
    ap.add_argument("--trials", default=10, type=int)
    ap.add_argument("--seed", default=0, type=int)
    args = ap.parse_args()

    scenario = {
        "estimator": "DM-infinite",
        "frequencies": [args.freq],
        "array": {"type": "spherical", "t": 7, "radius": 1.0},
        "field": {"type": "plane_wave", "direction": [0.4, -0.3, 0.6]},
        "snr_db": 30.0,
        "trials": args.trials,
        "seed": args.seed,
    }
    try:
        base = ScenarioConfig.from_dict(scenario)
        finite = [ScenarioConfig.from_dict(dict(scenario, estimator="DM-finite", order_n0=n0))
                  for n0 in range(1, args.orders + 1)]
    except ConfigError as exc:
        ap.exit(2, f"config error: {exc}\n")
    kernel_db = run_sweep(base)[0].nmse_mean_db
    print(f"kernel estimator: {kernel_db:7.2f} dB")

    for cfg in finite:
        db = run_sweep(cfg)[0].nmse_mean_db
        print(f"finite order {cfg.order_n0:2d}:  {db:7.2f} dB   (gap {db - kernel_db:+.2f} dB)")


if __name__ == "__main__":
    main()
