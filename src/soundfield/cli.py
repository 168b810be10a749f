"""Command-line interface.

Subcommands:
  sweep      run a frequency sweep scenario and write a results CSV
  field      dump true/estimated field values on a plane grid to CSV
  forbidden  list forbidden frequencies of an open spherical array
  synth      run the pressure-matching vs weighted-pressure-matching experiment
  anc        run the multipoint vs kernel-weighted ANC experiment

Exit codes: 0 on success, 2 on configuration validation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import json
import os
import sys

from .boundary import forbidden_frequencies, scan_grid
from .harness import (
    _COUNT,
    _NON_NEGATIVE,
    _NUMBER,
    _POSITIVE,
    PLANES,
    SOUND_SPEED,
    ConfigError,
    ScenarioConfig,
    _csv,
    _fmt,
    anc_experiment,
    dump_field,
    run_sweep,
    sweep_csv,
    wpm_experiment,
)


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


class _Output:
    """The text stream of `path` (stdout for None or "-"), opened at the
    first write, so that a run rejected before it writes leaves no file."""

    def __init__(self, path):
        self.path = path
        self.fh = None

    def write(self, text):
        if self.fh is None:
            self.fh = (sys.stdout if self.path in (None, "-") else
                       open(self.path, "w", encoding="utf-8", newline="\n"))
        self.fh.write(text)

    def close(self):
        if self.fh not in (None, sys.stdout):
            self.fh.close()


def _write(text, path):
    out = _Output(path)
    try:
        out.write(text)
    finally:
        out.close()


def cmd_sweep(args):
    cfg = ScenarioConfig.from_dict(_read_json(args.config))
    records = run_sweep(cfg)
    _write(sweep_csv(records), args.output)
    return 0


def _check_flags(args, readers):
    """Check each flag by the reader of a config value; argparse has already
    made it an int or a float."""
    for flag, read in readers.items():
        read(f"--{flag}", getattr(args, flag))


def cmd_field(args):
    _check_flags(args, {"freq": _POSITIVE, "spacing": _POSITIVE, "extent": _NON_NEGATIVE,
                        "offset": _NUMBER, "trial": _COUNT})
    cfg = ScenarioConfig.from_dict(_read_json(args.config))
    out = _Output(args.output)
    try:
        dump_field(cfg, args.freq, out, plane=args.plane, extent=args.extent,
                   spacing=args.spacing, offset=args.offset,
                   include_estimate=not args.truth_only, trial=args.trial)
    finally:
        out.close()
    return 0


def cmd_forbidden(args):
    _check_flags(args, {"radius": _POSITIVE, "c": _POSITIVE, "fmax": _POSITIVE,
                        "numax": _COUNT})
    _, points = scan_grid(args.radius, args.c, args.fmax)
    if (args.numax + 1) * points > 10**7:  # Bessel values: 80 MB of doubles
        flag = "--fmax" if points > 41 else "--numax"  # 41: the smallest kR grid
        raise ConfigError(f"{flag}: the scan of (numax + 1) degrees x {points} kR points "
                          "would exceed 1e7 Bessel values; lower --fmax, --radius or --numax")
    pairs = forbidden_frequencies(args.radius, args.c, args.numax, args.fmax)
    _write(_csv("frequency_hz,degree", ([_fmt(f), str(nu)] for f, nu in pairs)), args.output)
    return 0


def cmd_experiment(run, args):
    """`synth` or `anc`: the CSV of the experiment `run` on the config."""
    _, text = run(_read_json(args.config))
    _write(text, args.output)
    return 0


@functools.cache
def build_parser():
    """The parser of every subcommand, built once per process."""
    p = argparse.ArgumentParser(
        prog="soundfield",
        description="Interior sound field estimation and control simulations.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sweep", help="run a frequency-sweep scenario")
    sp.add_argument("config", help="scenario JSON file")
    sp.add_argument("-o", "--output", default="-", help="output CSV path (default stdout)")
    sp.set_defaults(func=cmd_sweep)

    fp = sub.add_parser("field", help="dump field values on a plane grid")
    fp.add_argument("config", help="scenario JSON file")
    fp.add_argument("--freq", type=float, required=True, help="frequency in Hz")
    fp.add_argument("--plane", default="xy", choices=tuple(PLANES))
    fp.add_argument("--extent", type=float, default=2.0, help="side length of the grid (m)")
    fp.add_argument("--spacing", type=float, default=0.1, help="grid spacing (m)")
    fp.add_argument("--offset", type=float, default=0.0, help="offset along the plane normal (m)")
    fp.add_argument("--trial", type=int, default=0, help="noise trial index used for the estimate")
    fp.add_argument("--truth-only", action="store_true", help="omit the estimated field")
    fp.add_argument("-o", "--output", default="-")
    fp.set_defaults(func=cmd_field)

    gp = sub.add_parser("forbidden", help="list forbidden frequencies of an open sphere")
    gp.add_argument("--radius", type=float, required=True, help="array radius (m)")
    gp.add_argument("--c", type=float, default=SOUND_SPEED, help="speed of sound (m/s)")
    gp.add_argument("--numax", type=int, required=True, help="maximum degree scanned")
    gp.add_argument("--fmax", type=float, required=True, help="upper frequency bound (Hz)")
    gp.add_argument("-o", "--output", default="-")
    gp.set_defaults(func=cmd_forbidden)

    yp = sub.add_parser("synth", help="pressure matching vs weighted pressure matching")
    yp.add_argument("config", help="experiment JSON file")
    yp.add_argument("-o", "--output", default="-")
    yp.set_defaults(func=functools.partial(cmd_experiment, wpm_experiment))

    ap = sub.add_parser("anc", help="multipoint vs kernel-weighted active noise control")
    ap.add_argument("config", help="experiment JSON file")
    ap.add_argument("-o", "--output", default="-")
    ap.set_defaults(func=functools.partial(cmd_experiment, anc_experiment))
    return p


@functools.cache
def _openblas_thread_controls():
    """(get, set, stop) functions of each OpenBLAS loaded in this process.

    get and set are the thread-count functions; stop is the library's
    `blas_thread_shutdown_`, which ends its worker threads, or None unless
    the library exports it and runs its own thread pool (not OpenMP).  Empty
    where /proc/self/maps is missing (not Linux) or no OpenBLAS exports get
    and set.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("openblas_{}_num_threads", "openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads", "scipy_openblas_{}_num_threads64_"):
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                parallel = getattr(lib, name.format("get").replace("num_threads", "parallel"), None)
                stop = getattr(lib, "blas_thread_shutdown_", None)
                if parallel is None or parallel() != 1:  # 1: pthreads pool
                    stop = None
                elif stop is not None:
                    stop.argtypes, stop.restype = [], ctypes.c_int
                controls.append((get, put, stop))
                break
    return tuple(controls)


@contextlib.contextmanager
def _single_threaded_blas():
    """Run OpenBLAS on one thread inside the block, then restore each old count.

    The CLI's matrices are small (at most a few thousand by 64), where a second
    BLAS thread spins and saves no time.  A user's OPENBLAS_NUM_THREADS or
    OMP_NUM_THREADS wins.

    An idle OpenBLAS worker busy-waits for about 2**28 clock cycles (0.1 s
    on a 2-core x86-64 VM) after it starts or finishes a job, and a lower
    thread count does not stop it.  So the workers are also shut down before
    the block, and again after the old count is set back, since setting a
    count starts them; OpenBLAS starts them on its next threaded call, as it
    does after a fork.
    """
    user_set = "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ
    controls = () if user_set else _openblas_thread_controls()
    old = [get() for get, _, _ in controls]
    for _, put, stop in controls:
        put(1)
        if stop is not None:
            stop()
    try:
        yield
    finally:
        for (_, put, stop), n in zip(controls, old):
            put(n)
            if stop is not None:
                stop()


def main(argv=None):
    args = build_parser().parse_args(argv)
    with _single_threaded_blas():
        try:
            return args.func(args)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
