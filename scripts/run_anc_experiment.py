#!/usr/bin/env python3
"""Regional active noise control: multipoint vs kernel-weighted adaptation.

Runs the frequency-domain LMS controller against a single-tone primary
source with 24 error microphones on a square contour and 12 secondary
sources, once with the plain multipoint cost (identity weighting) and once
with the kernel-interpolation regional weighting; reports the acoustic power
remaining over the interior region and the final cost for each.  The LMS
updates (20000 by default) are evaluated in closed form, not one at a
time.  The optional config has the `anc` schema of the README; an unknown
key or a bad value exits 2.

Usage:
    python scripts/run_anc_experiment.py [-o OUT.csv] [--config FILE]
"""

import argparse
import json
import pathlib
import sys

from soundfield.harness import ConfigError, anc_experiment


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", type=pathlib.Path)
    ap.add_argument("-o", "--output", default="results/anc.csv", type=pathlib.Path)
    args = ap.parse_args()

    try:
        obj = json.loads(args.config.read_text()) if args.config else {}
        out, csv_text = anc_experiment(obj)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        ap.exit(2, f"config error: {exc}\n")
    for name in ("multipoint", "kernel"):
        res = out[name]
        print(
            f"{name:10s}  regional power {res['regional_power_db']:7.3f} dB"
            f"   final cost {res['final_cost']:.6e}"
        )

    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(csv_text)
    print(f"wrote {args.output}", file=sys.stderr)


if __name__ == "__main__":
    main()
