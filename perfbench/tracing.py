"""Spans around the program's public functions, recorded from outside.

Each listed function is replaced by a wrapper in every ``soundfield``
module that binds it, so a call made through ``from .x import f`` is seen
as well as one made through the defining module, and nested calls form
parent/child spans.  Spans stay in memory until the run ends.

The Gaunt and 3j tables are not wrapped (they are called hundreds of
thousands of times); their ``lru_cache`` statistics are read before and
after the run instead.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import sys
import time

import numpy as np

PACKAGE = "soundfield"
# Functions wrapped per module.  The harness runners (run_sweep,
# estimate_field, wpm_experiment, anc_experiment) are wrapped too, so that
# cli.main's self time is argument parsing and CSV writing only.
TRACED = {
    "specfun": ("sph_harm_matrix", "sph_jn_all", "wigner_D"),
    "wavefuncs": ("translation_matrix", "regular_swf_matrix", "translate_coeffs",
                  "rotate_coeffs", "plane_wave_coeffs"),
    "observation": ("add_noise", "rigid_sphere_observation", "observe_plane_wave",
                    "observe_point_source"),
    "boundary": ("estimate_coeffs", "radial_response", "forbidden_frequencies"),
    "discrete": ("kernel_matrix", "build_observation_matrix", "representer_matrix",
                 "extract_expansion", "solve_tikhonov", "solve_kernel"),
    "applications": ("anc_lms_run", "fxlms_weighted_run", "region_weighting",
                     "transfer_matrix", "pm_drive", "wpm_drive"),
    "harness": ("prepare_estimator", "observe_field", "nmse", "ball_grid", "sweep_csv",
                "dump_field", "run_sweep", "estimate_field", "wpm_experiment",
                "anc_experiment"),
    "cli": ("main",),
}
# The per-trial closure returned by harness.prepare_estimator.
ESTIMATOR_APPLY = "harness.estimator_apply"
WRAPPED = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns] + [ESTIMATOR_APPLY]
ROOT = "trace.root"

# Work counted per call, from (arguments, keyword arguments, result).
WORK = {
    "specfun.sph_harm_matrix": ("values", lambda a, kw, r: r.size),
    "wavefuncs.regular_swf_matrix": ("values", lambda a, kw, r: r.size),
    "wavefuncs.translation_matrix": ("entries", lambda a, kw, r: r.size),
    "applications.anc_lms_run": (
        "iterations", lambda a, kw, r: kw["iters"] if "iters" in kw else a[5]),
    "applications.fxlms_weighted_run": (
        "samples", lambda a, kw, r: np.shape(kw["x"] if "x" in kw else a[2])[0]),
}
RATES = ("iterations", "samples")
CACHES = {"specfun.gaunt": "gaunt", "specfun.wigner_3j": "wigner_3j"}


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
    names.insert(names.index("harness.prepare_estimator") + 1, ESTIMATOR_APPLY)
    spec = []
    for name in names:
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
        if name in WORK:
            key = WORK[name][0]
            spec.append((f"{name}.{key}_per_s", "1/s", "higher") if key in RATES
                        else (f"{name}.{key}", "count", "lower"))
    spec += [
        ("specfun.gaunt.hits", "count", "higher"),
        ("specfun.gaunt.misses", "count", "lower"),
        ("specfun.gaunt.cache_entries", "count", "lower"),
        ("specfun.wigner_3j.misses", "count", "lower"),
        ("specfun.wigner_3j.cache_entries", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return spec


class Tracer:
    """In-memory span store: parallel lists indexed by span id."""

    def __init__(self):
        self.names = []
        self.name_of = []
        self.start = []
        self.end = []
        self.parent = []
        self.work = {}
        self._ids = {}
        self._stack = [-1]

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name):
        idx = len(self.start)
        self.name_of.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.monotonic())
        return idx

    def close(self, idx):
        self.end[idx] = time.monotonic()
        self._stack.pop()

    def attach(self, name, starts, ends):
        """Add closed spans under the innermost span that contains each.

        For intervals recorded outside the tracer, such as the speed
        probe's ticks, which run from a signal handler between any two
        bytecodes.  Spans must be closed, and [start, end] must not
        straddle a span boundary.
        """
        first = len(self.start)
        for s, e in zip(starts, ends):
            i = bisect.bisect_right(self.start, s, hi=first) - 1
            while i >= 0 and self.end[i] < e:
                i = self.parent[i]
            if i >= 0:
                self.name_of.append(self._name_id(name))
                self.parent.append(i)
                self.start.append(s)
                self.end.append(e)

    def wrap(self, name, fn, work=None, wrap_result=None):
        self._name_id(name)
        if work is not None:
            count = work[1]
            self.work[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if work is not None:
                self.work[name] += count(args, kwargs, result)
            if wrap_result is not None:
                result = self.wrap(wrap_result, result)
            return result

        return traced


def install(tracer):
    """Wrap every TRACED function in each module of the package that binds it.

    Returns the replaced bindings as (module, attribute, original) triples
    for :func:`uninstall`.
    """
    layers = {short: importlib.import_module(f"{PACKAGE}.{short}") for short in TRACED}
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    patched = []
    for short, names in TRACED.items():
        mod = layers[short]
        for fname in names:
            orig = getattr(mod, fname)
            full = f"{short}.{fname}"
            wrapped = tracer.wrap(
                full, orig, work=WORK.get(full),
                wrap_result=ESTIMATOR_APPLY if full == "harness.prepare_estimator" else None)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)
                        patched.append((m, attr, orig))
    tracer._name_id(ESTIMATOR_APPLY)
    return patched


def uninstall(patched):
    for module, attr, orig in patched:
        setattr(module, attr, orig)


def cache_stats():
    """{"specfun.gaunt": CacheInfo, ...} of the Gaunt and 3j lru_caches."""
    spec = sys.modules[f"{PACKAGE}.specfun"]
    return {full: getattr(spec, attr).cache_info() for full, attr in CACHES.items()}


def self_times(start, end, parent):
    """Span duration minus the durations of its child spans.

    Spans come from one thread's call stack, so children of a span never
    overlap each other and lie inside it.
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


def wrapper_cost(calls=20000, repeats=5):
    """Seconds one traced call adds to a call: wrapped minus plain, per call.

    Timed on a no-op function with a throw-away tracer; the lowest of
    `repeats` timings of each is taken.
    """
    def noop():
        return None

    wrapped = Tracer().wrap(ROOT, noop)
    best = {}
    for fn in (noop, wrapped):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - t0)
        best[fn] = min(times)
    return (best[wrapped] - best[noop]) / calls


def layer_metrics(tracer, caches_before, caches_after, cost_per_call):
    """Per-layer metrics of one traced iteration.

    ``trace.overhead_s`` is `cost_per_call` (see :func:`wrapper_cost`)
    times the number of wrapped calls.
    """
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls = [0] * len(tracer.names)
    self_s = [0.0] * len(tracer.names)
    dur = [0.0] * len(tracer.names)
    for i, nid in enumerate(tracer.name_of):
        calls[nid] += 1
        self_s[nid] += selfs[i]
        dur[nid] += tracer.end[i] - tracer.start[i]
    out = {}
    for nid, name in enumerate(tracer.names):
        if name == ROOT:
            continue
        out[f"{name}.calls"] = calls[nid]
        out[f"{name}.self_s"] = self_s[nid]
    for name, total in tracer.work.items():
        key = WORK[name][0]
        if key in RATES:
            seconds = dur[tracer.names.index(name)]
            out[f"{name}.{key}_per_s"] = total / seconds if seconds > 0 else 0.0
        else:
            out[f"{name}.{key}"] = total
    for name, after in caches_after.items():
        before = caches_before[name]
        if name == "specfun.gaunt":
            out[f"{name}.hits"] = after.hits - before.hits
        out[f"{name}.misses"] = after.misses - before.misses
        out[f"{name}.cache_entries"] = after.currsize
    roots = [i for i, nid in enumerate(tracer.name_of) if tracer.names[nid] == ROOT]
    out["trace.wall_s"] = sum(tracer.end[i] - tracer.start[i] for i in roots)
    out["trace.unattributed_s"] = sum(selfs[i] for i in roots)
    wrapped = sum(calls[tracer._ids[name]] for name in WRAPPED if name in tracer._ids)
    out["trace.overhead_s"] = cost_per_call * wrapped
    out["trace.self_sum_s"] = sum(selfs)
    return out


def save_spans(tracer, path, run_id):
    """Write the spans of one traced iteration as a compressed .npz file."""
    np.savez_compressed(
        path, run_id=np.array(run_id), names=np.array(tracer.names),
        name=np.array(tracer.name_of, dtype=np.int32),
        start=np.array(tracer.start), end=np.array(tracer.end),
        parent=np.array(tracer.parent, dtype=np.int64))
