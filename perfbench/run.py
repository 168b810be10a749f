"""Run one workload of the soundfield benchmark and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload estimate-suite --seed 0 --seconds 30 --trace 0

Each iteration runs in a fresh process (``child.py``), so every iteration
pays the interpreter start, the imports and the cold ``lru_cache`` tables
exactly as a command-line invocation does.  Iterations run one at a time
until the next one would end after ``--seconds``; at least
``MIN_ITERATIONS`` run.  Each metric is the median over the iterations.

With ``--trace 1`` every iteration is traced and the per-layer metrics
are lower medians over them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Raw per-iteration
results, the environment and the traced spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_ITERATIONS = 3
TIME_LIMIT_S = 170.0  # a run must end within 180 s
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_iteration(args, run_id, index, traced, time_left):
    """Run one child process; returns its result dict, or None if it crashed."""
    out_dir = OUT / run_id / f"it{index:02d}-{'traced' if traced else 'plain'}"
    out_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), args.workload, str(args.seed),
           "1" if traced else "0", run_id, str(out_dir)]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd + [repr(t_spawn)], stdout=sys.stderr, timeout=time_left)
    except subprocess.TimeoutExpired:
        print(f"iteration {index} killed after {time_left:.0f} s", file=sys.stderr)
        return None
    if proc.returncode == 3:
        sys.exit(f"set-up failed in iteration {index}; nothing measured")
    if proc.returncode != 0:
        print(f"iteration {index} exited with status {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads((out_dir / "result.json").read_text(encoding="utf-8"))
    result["duration_s"] = time.monotonic() - t_spawn
    return result


def run_iterations(args, run_id):
    """Iterations until the time is up; returns (results, crashed count)."""
    start = time.monotonic()
    results, crashed, durations = [], 0, []
    while True:
        elapsed = time.monotonic() - start
        longest = max(durations, default=0.0)
        enough = len(durations) >= MIN_ITERATIONS
        if (enough and elapsed + longest > args.seconds) or elapsed + longest > TIME_LIMIT_S:
            break
        t0 = time.monotonic()
        result = run_iteration(args, run_id, len(durations), bool(args.trace),
                               TIME_LIMIT_S - elapsed)
        durations.append(time.monotonic() - t0)
        if result is None:
            crashed += 1
        else:
            results.append(result)
    return results, crashed


def environment(args, results):
    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "variant": workloads.variant(args.seed),
    }
    if results:
        env.update(results[0]["env"])
    return env


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("--seconds must be positive")
    if not (ROOT / "src" / "soundfield" / "__init__.py").is_file():
        sys.exit(f"no soundfield sources under {ROOT / 'src'}")
    if not workloads.ref_path(args.workload).is_file():
        sys.exit(f"missing reference outputs {workloads.ref_path(args.workload)}")

    shutil.rmtree(OUT, ignore_errors=True)
    run_id = uuid.uuid4().hex[:12]
    results, crashed = run_iterations(args, run_id)
    if not results:
        sys.exit("no iteration completed; nothing measured")

    attempted = sum(r["attempted"] for r in results) + crashed
    failed = sum(len(r["failures"]) for r in results) + crashed
    for r in results:
        for name, problems in r["failures"]:
            print(f"FAILED {name}: {'; '.join(problems)}", file=sys.stderr)

    if args.trace:
        units = {name: unit for name, unit, _ in tracing.per_layer_spec()}
        values = {name: statistics.median_low(r["layers"][name] for r in results)
                  for name in units}
    else:
        units = END_TO_END
        values = {name: statistics.median(r[name] for r in results) for name in units}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    env = environment(args, results)
    summary = {
        "run_id": run_id, "env": env, "iterations_completed": len(results),
        "crashed_iterations": crashed,
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "iterations": results,
    }
    (OUT / run_id / "result.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed} (variant {env['variant']})  "
          f"run {run_id}  iterations {len(results)} {'traced' if args.trace else 'plain'}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        measured = ""
        if name in results[0]["measured"]:
            value = statistics.median(r["measured"][name] for r in results)
            measured = f"  (measured {value:.6g} s)"
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}{measured}")
    print(f"  {'error_rate':<52} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} operations failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
