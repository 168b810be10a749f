#!/usr/bin/env python3
"""Run the interior-field estimation comparison across estimators.

Sweeps the 64-microphone spherical array (radius 1 m) over a frequency grid
for each estimator and writes one CSV per estimator plus a combined summary
of per-frequency mean NMSE to an output directory.

Usage:
    python scripts/run_estimation_sweep.py [-o OUTDIR] [--trials N] [--seed S]
"""

import argparse
import pathlib

from soundfield.harness import ScenarioConfig, ESTIMATORS, run_sweep, sweep_csv

FREQUENCIES = [100.0, 200.0, 300.0, 310.0, 400.0, 500.0]


def base_config(estimator: str, trials: int, seed: int) -> ScenarioConfig:
    return ScenarioConfig.from_dict(
        {
            "estimator": estimator,
            "frequencies": FREQUENCIES,
            "array": {"type": "spherical", "t": 7, "radius": 1.0},
            "field": {"type": "plane_wave", "direction": [0.4, -0.3, 0.6]},
            "snr_db": 30.0,
            "trials": trials,
            "seed": seed,
        }
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-o", "--outdir", default="results/sweep", type=pathlib.Path)
    ap.add_argument("--trials", default=10, type=int)
    ap.add_argument("--seed", default=0, type=int)
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    summary = {}
    for est in ESTIMATORS:
        cfg = base_config(est, args.trials, args.seed)
        records = run_sweep(cfg)
        (args.outdir / f"sweep_{est}.csv").write_text(sweep_csv(records))
        summary[est] = {
            f: next(r.nmse_mean_db for r in records if r.frequency == f)
            for f in FREQUENCIES
        }
        print(f"{est}: " + "  ".join(f"{f:.0f}Hz {summary[est][f]:6.2f}dB" for f in FREQUENCIES))

    lines = ["frequency_hz," + ",".join(ESTIMATORS)]
    for f in FREQUENCIES:
        lines.append(f"{f:.17g}," + ",".join(f"{summary[e][f]:.17g}" for e in ESTIMATORS))
    (args.outdir / "summary_mean_nmse_db.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {args.outdir}/summary_mean_nmse_db.csv")


if __name__ == "__main__":
    main()
