#!/usr/bin/env python3
"""Weighted vs plain pressure matching for directional field synthesis.

Reproduces the synthesis comparison: 32 secondary sources on two square
contours drive a plane wave across a 1 m square region; reports the regional
reproduction error of plain pressure matching (PM) and kernel-weighted
pressure matching (WPM) per frequency and writes the CSV.

Usage:
    python scripts/run_synthesis_experiment.py [-o OUT.csv] [--config FILE]
"""

import argparse
import json
import pathlib
import sys

from soundfield.harness import ConfigError, wpm_experiment

DEFAULT = {"frequencies": [100.0, 300.0, 500.0, 700.0, 900.0], "eta": 1e-3, "reg": 1e-3}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", type=pathlib.Path)
    ap.add_argument("-o", "--output", default="results/synthesis.csv", type=pathlib.Path)
    args = ap.parse_args()

    try:
        obj = json.loads(args.config.read_text()) if args.config else {}
        if isinstance(obj, dict):  # anything else is reported by wpm_experiment
            obj = {**DEFAULT, **obj}
        rows, csv_text = wpm_experiment(obj)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        ap.exit(2, f"config error: {exc}\n")
    for f, pm_db, wpm_db in rows:
        marker = "WPM better" if wpm_db < pm_db else "PM better"
        print(f"{f:6.0f} Hz   PM {pm_db:7.2f} dB   WPM {wpm_db:7.2f} dB   ({marker})")

    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(csv_text)
    print(f"wrote {args.output}", file=sys.stderr)


if __name__ == "__main__":
    main()
