"""Workload inputs, operations and the reference check of their outputs.

Inputs come from the workload seed alone, through ``random.Random`` so they
do not depend on the NumPy version.  Seeds are folded onto a bank of
``N_VARIANTS`` input variants; the outputs of every variant were computed
once and are stored in ``refs/<workload>.npz`` (see ``make_refs.py``).

An operation is a call into the program's public entry points
(``soundfield.cli.main`` or a public library function) that returns its
outputs as a dict of arrays.  Module attributes are looked up at call time
so that the traced run's wrappers are seen.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

WORKLOADS = ("estimate-suite", "kernel-directional", "translate-high-order", "anc-control")
N_VARIANTS = 8
REF_DIR = Path(__file__).resolve().parent / "refs"

# Outputs agree with the reference when |out - ref| <= RTOL |ref| + ATOL * scale
# element-wise, scale being the largest magnitude in the reference array
# (at least 1).  Loose enough for reordered floating-point sums, such as a
# batched BLAS-3 rewrite of a per-pair loop; tight enough to catch any
# change of the numbers themselves.
RTOL = 1e-6
ATOL = 1e-9

ESTIMATORS = ("BM-omni", "BM-first", "BM-rigid", "DM-finite", "DM-infinite")
SWEEP_FREQS = [100.0, 200.0, 300.0, 400.0, 500.0]
KERNEL_FREQS = [200.0, 400.0]
SOUND_SPEED = 340.65
FXLMS_SAMPLES = 20000
FXLMS_FS = 4000.0
FXLMS_F0 = 700.0
FXLMS_MAX_DB = 1.0


class OperationFailed(Exception):
    """An operation's output is wrong or its exit status is non-zero."""


def variant(seed):
    return seed % N_VARIANTS


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

def _unit(rng):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(x * x for x in v))
        if n > 1e-6:
            return [x / n for x in v]


def _field(rng):
    if rng.random() < 0.5:
        return {"type": "plane_wave", "direction": _unit(rng)}
    r = rng.uniform(1.5, 3.0)
    return {"type": "point_source", "position": [r * x for x in _unit(rng)]}


def _sweep_config(rng, estimator, frequencies, array, field):
    return {
        "estimator": estimator,
        "frequencies": frequencies,
        "array": array,
        "field": field,
        "snr_db": rng.choice([20.0, 30.0, 40.0]),
        "trials": 10,
        "seed": rng.randrange(1000),
        "order": 7,
        "order_n0": 7,
        "reg": 1e-3,
        "directivity_a": 0.5,
    }


def generate(workload, seed):
    """JSON-serialisable inputs of one workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    v = variant(seed)
    rng = random.Random(f"{workload}/{v}")
    if workload == "estimate-suite":
        sphere = {"type": "spherical", "t": 7, "radius": 1.0}
        sweeps = {e: _sweep_config(rng, e, SWEEP_FREQS, sphere, _field(rng))
                  for e in ESTIMATORS}
        return {
            "sweeps": sweeps,
            "field": {
                "config": _sweep_config(rng, ESTIMATORS[v % 5], SWEEP_FREQS,
                                        sphere, _field(rng)),
                "freq": round(rng.uniform(100.0, 500.0), 3),
                "plane": rng.choice(["xy", "xz", "yz"]),
                "spacing": 0.2,
            },
            "forbidden": {"radius": round(rng.uniform(0.5, 1.5), 4),
                          "numax": 7, "fmax": 500.0},
        }
    if workload == "kernel-directional":
        array = {"type": "spherical", "t": 7, "radius": 1.0, "kind": "first_order"}
        sweeps = {}
        for e in ("DM-infinite", "DM-finite"):
            cfg = _sweep_config(rng, e, KERNEL_FREQS, array, _field(rng))
            cfg["directivity_a"] = round(rng.uniform(0.3, 0.7), 4)
            sweeps[e] = cfg
        return {"sweeps": sweeps}
    if workload == "translate-high-order":
        order = 12
        n = (order + 1) ** 2
        return {
            "order": order,
            "k": 2.0 * math.pi * rng.uniform(200.0, 600.0) / SOUND_SPEED,
            "coeffs_re": [rng.gauss(0.0, 1.0) for _ in range(n)],
            "coeffs_im": [rng.gauss(0.0, 1.0) for _ in range(n)],
            "displacements": [[rng.uniform(0.1, 0.5) * x for x in _unit(rng)]
                              for _ in range(4)],
            "rotations": [{"axis": _unit(rng), "angle": rng.uniform(0.1, math.pi)}
                          for _ in range(4)],
        }
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    synth_az = rng.uniform(0.0, 2.0 * math.pi)
    return {
        "anc": {"frequency": 700.0, "iterations": 20000, "reg": 1e-3,
                "primary_source": [3.0 * math.cos(azimuth), 3.0 * math.sin(azimuth), 0.0]},
        "synth": {"frequencies": [100.0, 300.0, 500.0, 700.0, 900.0], "eta": 1e-3,
                  "reg": 1e-3, "direction": [math.cos(synth_az), math.sin(synth_az), 0.0]},
        "fxlms": {"primary_source": [3.0, 0.0, 0.0]},
    }


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def read_csv(path):
    """Columns of a CSV file: float arrays where every cell parses, else str."""
    with open(path, encoding="utf-8") as fh:
        header, *rows = [line.split(",") for line in fh.read().splitlines()]
    cols = {}
    for j, name in enumerate(header):
        cells = [r[j] for r in rows]
        try:
            cols[name] = np.array([float(c) if c else math.nan for c in cells])
        except ValueError:
            cols[name] = np.array(cells)
    return cols


def _cli(argv, out_path):
    from soundfield import cli

    try:
        status = cli.main(argv + ["-o", str(out_path)])
    except SystemExit as exc:
        status = exc.code
    if status != 0:
        raise OperationFailed(f"soundfield {argv[0]} exited with status {status}")
    return read_csv(out_path)


def _write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def operations(workload, inputs, workdir):
    """List of (name, callable) for one iteration; each callable returns outputs."""
    workdir = Path(workdir)
    ops = []
    if workload in ("estimate-suite", "kernel-directional"):
        for est, cfg in inputs["sweeps"].items():
            path = _write_json(workdir / f"sweep-{est}.json", cfg)
            ops.append((f"sweep-{est}", lambda p=path, e=est: _cli(
                ["sweep", p], workdir / f"sweep-{e}.csv")))
    if workload == "estimate-suite":
        fld = inputs["field"]
        path = _write_json(workdir / "field.json", fld["config"])
        ops.append(("field", lambda: _cli(
            ["field", path, "--freq", repr(fld["freq"]), "--plane", fld["plane"],
             "--spacing", repr(fld["spacing"])], workdir / "field.csv")))
        fb = inputs["forbidden"]
        ops.append(("forbidden", lambda: _cli(
            ["forbidden", "--radius", repr(fb["radius"]), "--numax", str(fb["numax"]),
             "--fmax", repr(fb["fmax"])], workdir / "forbidden.csv")))
    elif workload == "translate-high-order":
        ops.extend(_translation_ops(inputs))
    elif workload == "anc-control":
        anc = _write_json(workdir / "anc.json", inputs["anc"])
        synth = _write_json(workdir / "synth.json", inputs["synth"])
        ops.append(("anc", lambda: _cli(["anc", anc], workdir / "anc.csv")))
        ops.append(("synth", lambda: _cli(["synth", synth], workdir / "synth.csv")))
        ops.append(("fxlms", _fxlms_op(inputs["fxlms"])))
    return ops


def _translation_ops(inputs):
    from soundfield import specfun, wavefuncs

    coeffs = np.asarray(inputs["coeffs_re"]) + 1j * np.asarray(inputs["coeffs_im"])
    cset = wavefuncs.CoefficientSet(order=inputs["order"], origin=np.zeros(3), coeffs=coeffs)
    k = inputs["k"]
    ops = []
    for i, d in enumerate(inputs["displacements"]):
        ops.append((f"translate-{i}", lambda d=d: {
            "coeffs": wavefuncs.translate_coeffs(cset, np.asarray(d), k).coeffs}))
    for i, r in enumerate(inputs["rotations"]):
        rot = specfun.rotation_matrix(r["axis"], r["angle"])
        ops.append((f"rotate-{i}", lambda rot=rot: {
            "coeffs": wavefuncs.rotate_coeffs(cset, rot).coeffs}))
    return ops


def _fxlms_op(spec):
    """Kernel-weighted FxLMS on the single-tone geometry of the unit tests.

    The geometry is the same for every seed: with ``FXLMS_SAMPLES`` samples
    the adaptation has converged for this primary source position, not for
    every other one.

    Every transfer function is realised as a 2-tap FIR filter matched to
    its complex gain at the tone.  Besides matching the stored outputs, the
    adapted filter must leave a regional power within ``FXLMS_MAX_DB`` of
    the frequency-domain optimum.
    """
    from soundfield import applications as apps
    from soundfield import wavefuncs

    def run():
        k = 2 * math.pi * FXLMS_F0 / SOUND_SPEED
        prim = np.asarray(spec["primary_source"], dtype=float)
        mics = apps.square_boundary_points(1.0, 8, outward_shift=0.03)
        src = apps.square_boundary_points(2.0, 4)
        region, cell = apps.square_grid(1.0, 0.1)
        G = apps.transfer_matrix(src, mics, k)
        d_freq = wavefuncs.green(mics, prim, k)
        A = apps.region_weighting(mics, region, cell, k, 1e-3)
        W_opt = -np.linalg.solve(G.conj().T @ A @ G, G.conj().T @ A @ d_freq)
        Gr = apps.transfer_matrix(src, region, k)
        up = wavefuncs.green(region, prim, k)
        p_opt = float(np.sum(np.abs(up + Gr @ W_opt) ** 2) * cell)

        n = np.arange(FXLMS_SAMPLES)
        x = np.cos(2 * math.pi * FXLMS_F0 / FXLMS_FS * n)
        zm1 = np.exp(-1j * 2 * math.pi * FXLMS_F0 / FXLMS_FS)

        def two_tap(c):
            b = c.imag / zm1.imag
            return np.stack([c.real - b * zm1.real, b], axis=-1)

        G_fir = np.moveaxis(two_tap(G), -1, 0)
        d_taps = two_tap(d_freq)
        x_del = np.concatenate([[0.0], x[:-1]])
        d_sig = (d_taps[:, 0][:, None] * x + d_taps[:, 1][:, None] * x_del).T
        A_taps = apps.weighting_taps(lambda f: A, 64, 4)
        W, e = apps.fxlms_weighted_run(G_fir, A_taps, x, d_sig, mu=5e-2, filt_len=2)
        W_cplx = W[0, :, 0] + W[1, :, 0] * zm1
        p_td = float(np.sum(np.abs(up + Gr @ W_cplx) ** 2) * cell)
        gap_db = 10 * abs(math.log10(p_td / p_opt))
        if not gap_db <= FXLMS_MAX_DB:
            raise OperationFailed(
                f"FxLMS steady state {gap_db:.3f} dB from the optimum (limit {FXLMS_MAX_DB})")
        return {"W": W, "e_tail": e[-64:], "p_td": np.array([p_td])}

    return run


# ---------------------------------------------------------------------------
# Reference check
# ---------------------------------------------------------------------------

def ref_path(workload):
    return REF_DIR / f"{workload}.npz"


def ref_key(v, op, name):
    return f"v{v:02d}::{op}::{name}"


def load_refs(workload, seed):
    """Reference outputs of one seed's variant: {op: {name: array}}."""
    v = variant(seed)
    prefix = f"v{v:02d}::"
    refs = {}
    with np.load(ref_path(workload), allow_pickle=False) as npz:
        for key in npz.files:
            if key.startswith(prefix):
                _, op, name = key.split("::")
                refs.setdefault(op, {})[name] = npz[key]
    return refs


def mismatches(out, ref):
    """Descriptions of every way `out` differs from `ref` beyond tolerance."""
    problems = []
    if set(out) != set(ref):
        problems.append(f"outputs {sorted(out)} != reference {sorted(ref)}")
    for name in sorted(set(out) & set(ref)):
        a, b = np.asarray(out[name]), np.asarray(ref[name])
        if a.shape != b.shape:
            problems.append(f"{name}: shape {a.shape} != {b.shape}")
        elif b.dtype.kind == "U" or a.dtype.kind == "U":
            if not np.array_equal(a, b):
                problems.append(f"{name}: text differs")
        else:
            finite = np.abs(b[np.isfinite(b)])
            scale = max(1.0, float(finite.max())) if finite.size else 1.0
            ok = np.isclose(a, b, rtol=RTOL, atol=ATOL * scale, equal_nan=True)
            if not ok.all():
                worst = float(np.nanmax(np.abs(a - b)))
                problems.append(f"{name}: {int((~ok).sum())} values off, max |diff| {worst:.3g}")
    return problems


def run_operations(ops, refs):
    """Run and check each operation; returns (attempted, failures)."""
    failures = []
    for name, fn in ops:
        try:
            problems = mismatches(fn(), refs.get(name, {}))
        except OperationFailed as exc:
            problems = [str(exc)]
        except Exception as exc:  # an operation that raises counts as failed
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append((name, problems))
    return len(ops), failures
