"""One iteration of a workload in a fresh process.

Usage: child.py WORKLOAD SEED TRACE RUN_ID OUT_DIR T_SPAWN

Set-up (imports, input generation, reference loading) runs first; then the
operations run and are checked against the references.  The result goes to
OUT_DIR/result.json.  T_SPAWN is the parent's ``time.monotonic()`` just
before it started this process, so set-up time includes interpreter start.
Timings are in reference seconds (see ``speed.py``); the measured seconds
are recorded beside them.  Exit status 3 means set-up failed and nothing
was measured.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import speed  # noqa: E402  (stdlib only; starts probing before the imports)

PROBE = speed.SpeedProbe()
PROBE.start()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_FAILED = 3
SRC = Path(__file__).resolve().parent.parent / "src"


def blas_threads():
    """Thread count of each OpenBLAS library loaded in this process, if known."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    out = {}
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def main(argv):
    workload, seed, trace, run_id, out_dir, t_spawn = argv
    seed, trace, t_spawn, out_dir = int(seed), trace == "1", float(t_spawn), Path(out_dir)
    try:
        sys.path.insert(0, str(SRC))
        import soundfield.cli  # noqa: F401  (pulls in every module)

        if not Path(soundfield.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"soundfield imported from {soundfield.__file__}, not {SRC}")
        import tracing
        import workloads

        inputs = workloads.generate(workload, seed)
        ops = workloads.operations(workload, inputs, out_dir)
        refs = workloads.load_refs(workload, seed)
        if trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            caches_before = tracing.cache_stats()
    except Exception as exc:
        print(f"set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return SETUP_FAILED

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.monotonic()
    if trace:
        root = tracer.open(tracing.ROOT)
    attempted, failures = workloads.run_operations(ops, refs)
    if trace:
        tracer.close(root)
    t1 = time.monotonic()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    PROBE.stop()

    wall_ref, wall = PROBE.convert(t0, t1)
    setup_ref, setup = PROBE.convert(t_spawn, t0)
    cpu = (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime)
    cpu -= PROBE.probe_seconds(t0, t1)
    result = {
        "trace": trace,
        "attempted": attempted,
        "failures": failures,
        "wall_s": wall_ref,
        "setup_s": setup_ref,
        "cpu_s": cpu * wall_ref / wall,
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "measured": {"wall_s": wall, "setup_s": setup, "cpu_s": cpu,
                     "process_start_s": T_START - t_spawn,
                     "probe_ticks": len(PROBE.cal)},
        "env": environment(),
    }
    if trace:
        tracer.attach("speed.probe", PROBE.starts, PROBE.ends)
        layers = tracing.layer_metrics(tracer, caches_before, tracing.cache_stats(),
                                       tracing.wrapper_cost())
        gap = abs(layers.pop("trace.self_sum_s") - layers["trace.wall_s"])
        if gap > 1e-6:
            print(f"self times miss the traced wall time by {gap:.3g} s", file=sys.stderr)
            return 1
        result["layers"] = layers
        tracing.save_spans(tracer, out_dir / "spans.npz", run_id)
    (out_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
