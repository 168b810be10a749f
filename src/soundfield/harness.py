"""Scenario-driven simulation runner: frequency sweeps, NMSE evaluation,
field-grid dumps and the synthesis/ANC experiment drivers used by the CLI.

A scenario is a single JSON document; see :class:`ScenarioConfig`.  All
randomness is drawn from ``numpy.random.default_rng(seed + trial)`` so every
record is reproducible independently; outputs are byte-identical for
identical config and seed.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import applications as apps
from .boundary import estimate_coeffs, radial_response
from .discrete import (
    SphericalBasis,
    build_observation_matrix,
    eval_finite,
    eval_kernel,
    kernel_matrix,
    solve_kernel,
    solve_tikhonov,
)
from .observation import (
    ArrayConfig,
    add_noise,
    observe_plane_wave,
    observe_point_source,
    rigid_sphere_observation,
    spherical_array,
)
from .wavefuncs import (
    CoefficientSet,
    green,
    plane_wave,
    plane_wave_coeffs,
    singular_swf_matrix,
)

NMSE_FLOOR_DB = -300.0

ESTIMATORS = ("BM-omni", "BM-first", "BM-rigid", "DM-finite", "DM-infinite")


class ConfigError(ValueError):
    """Invalid scenario configuration; message includes the field path."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# Config checks shared by the scenario, synth and anc configs.
# A rule is (what the value must be, test it must pass).
_POSITIVE = ("a positive number", lambda v: v > 0)
_NON_NEGATIVE = ("a number >= 0", lambda v: v >= 0)
_SPACING = ("a number in (0, 1] (metres, on the 1 m square region)", lambda v: 0 < v <= 1)
_MULTIPLE_OF_4 = ("a positive multiple of 4", lambda v: v > 0 and v % 4 == 0)


def _checked(path, value, rule, integer=False):
    """`value` as a float (an int if `integer`) when it is a finite number
    passing `rule`.

    Otherwise raises ConfigError "<path>: must be <rule[0]>".  JSON true and
    false are not numbers here.
    """
    expect, ok = rule
    kinds = int if integer else (int, float)
    try:
        good = (not isinstance(value, bool) and isinstance(value, kinds)
                and math.isfinite(value) and ok(value))
    except OverflowError:  # an integer beyond the float range
        good = False
    if not good:
        raise ConfigError(f"{path}: must be {expect}")
    return value if integer else float(value)


def _require_object(obj):
    if not isinstance(obj, dict):
        raise ConfigError("top level: must be a JSON object")


def _field(obj, key, default, rule, integer=False):
    """obj[key], or `default` when absent, checked by :func:`_checked`."""
    return _checked(key, obj.get(key, default), rule, integer)


def _vector_field(obj, key, default, nonzero=False):
    """obj[key], or `default` when absent, as a (3,) float array."""
    value = obj.get(key, default)
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"{key}: must be a list of 3 numbers")
    for i, v in enumerate(value):
        _checked(f"{key}[{i}]", v, ("a number", lambda v: True))
    if nonzero and not any(value):
        raise ConfigError(f"{key}: must be a nonzero 3-vector")
    return np.asarray(value, dtype=float)


@dataclass
class ScenarioConfig:
    estimator: str
    frequencies: list
    array: ArrayConfig
    field_spec: dict
    c: float = 340.65
    snr_db: float = 30.0
    seed: int = 0
    trials: int = 10
    order: int = 7          # truncation order N for boundary estimators
    order_n0: int = 7       # basis truncation N0 for DM-finite
    origin: tuple = (0.0, 0.0, 0.0)
    reg: float = 1e-3
    directivity_a: float = 0.5
    eval_radius: float = 1.0
    eval_spacing: float = 0.1

    @classmethod
    def from_json(cls, text):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(obj)

    @classmethod
    def from_dict(cls, obj):
        def need(key):
            if key not in obj:
                raise ConfigError(f"missing required field '{key}'")
            return obj[key]

        estimator = need("estimator")
        if estimator not in ESTIMATORS:
            raise ConfigError(
                f"estimator: unknown value {estimator!r}; expected one of {ESTIMATORS}"
            )
        freqs = need("frequencies")
        if not isinstance(freqs, list) or not freqs:
            raise ConfigError("frequencies: must be a non-empty list of Hz values")
        for i, f in enumerate(freqs):
            if not isinstance(f, (int, float)) or f <= 0:
                raise ConfigError(f"frequencies[{i}]: must be a positive number")

        arr_obj = need("array")
        try:
            array = _array_from_dict(arr_obj, estimator, obj)
        except ValueError as exc:
            raise ConfigError(f"array: {exc}") from exc

        fs = obj.get("field", {"type": "plane_wave", "direction": [1.0, 0.0, 0.0]})
        if fs.get("type") not in ("plane_wave", "point_source"):
            raise ConfigError("field.type: must be 'plane_wave' or 'point_source'")
        if fs["type"] == "plane_wave":
            d = np.asarray(fs.get("direction", [1.0, 0.0, 0.0]), dtype=float)
            if d.shape != (3,) or not np.linalg.norm(d) > 0:
                raise ConfigError("field.direction: must be a nonzero 3-vector")
        else:
            p = np.asarray(fs.get("position", []), dtype=float)
            if p.shape != (3,):
                raise ConfigError("field.position: must be a 3-vector")

        kwargs = {}
        for key, name in [
            ("c", "c"), ("snr_db", "snr_db"), ("seed", "seed"),
            ("trials", "trials"), ("order", "order"), ("order_n0", "order_n0"),
            ("reg", "reg"), ("directivity_a", "directivity_a"),
        ]:
            if key in obj:
                kwargs[name] = obj[key]
        for key, least in (("order", 0), ("order_n0", 0), ("trials", 1)):
            rule = (f"an integer >= {least}", lambda v: v >= least)
            _checked(key, kwargs.get(key, least), rule, integer=True)
        if "origin" in obj:
            kwargs["origin"] = tuple(float(v) for v in obj["origin"])
        grid = obj.get("eval_grid", {})
        kwargs["eval_radius"] = float(grid.get("radius", 1.0))
        kwargs["eval_spacing"] = float(grid.get("spacing", 0.1))
        if kwargs["eval_spacing"] <= 0:
            raise ConfigError("eval_grid.spacing: must be positive")
        return cls(
            estimator=estimator, frequencies=[float(f) for f in freqs],
            array=array, field_spec=fs, **kwargs,
        )


def _array_from_dict(obj, estimator, root):
    """Build an ArrayConfig from its JSON form or a spherical-design spec."""
    if "mics" in obj:
        return ArrayConfig.from_json(json.dumps(obj))
    if obj.get("type") == "spherical":
        t = int(obj.get("t", 7))
        radius = float(obj.get("radius", 1.0))
        kind = {"BM-omni": "omni", "BM-first": "first_order",
                "BM-rigid": "omni"}.get(estimator, obj.get("kind", "omni"))
        if "kind" in obj:
            kind = obj["kind"]
        mount = "rigid" if estimator == "BM-rigid" else obj.get("mount", "open")
        a = root.get("directivity_a", 0.5) if kind == "first_order" else None
        return spherical_array(t, radius, mount=mount, kind=kind, a=a)
    raise ValueError("must contain 'mics' or be {'type': 'spherical', ...}")


# ---------------------------------------------------------------------------
# Field truth and observation
# ---------------------------------------------------------------------------

def _truth_eval(field_spec, pts, k):
    if field_spec["type"] == "plane_wave":
        d = np.asarray(field_spec.get("direction", [1, 0, 0]), dtype=float)
        d = d / np.linalg.norm(d)
        return plane_wave(pts, d, k)
    return green(pts, np.asarray(field_spec["position"], float), k)


def _truth_coeffs(field_spec, order, k):
    if field_spec["type"] == "plane_wave":
        d = np.asarray(field_spec.get("direction", [1, 0, 0]), dtype=float)
        d = d / np.linalg.norm(d)
        return plane_wave_coeffs(order, d, k)
    pos = np.asarray(field_spec["position"], float)
    return CoefficientSet(
        order=order, origin=np.zeros(3), coeffs=singular_swf_matrix(order, pos, k)
    )


def observe_field(array, field_spec, k, c=None):
    """Noiseless microphone signals of the configured array for the truth field."""
    if array.mount == "rigid":
        kR = k * array.radius
        order = int(math.ceil(kR)) + 20
        truth = _truth_coeffs(field_spec, order, k)
        dirs = array.positions / array.radius
        return rigid_sphere_observation(truth.coeffs, order, dirs, k, array.radius)
    out = np.zeros(len(array.mics), dtype=complex)
    if field_spec["type"] == "plane_wave":
        d = np.asarray(field_spec.get("direction", [1, 0, 0]), dtype=float)
        d = d / np.linalg.norm(d)
        for m, mic in enumerate(array.mics):
            out[m] = observe_plane_wave(mic, d, k)
    else:
        pos = np.asarray(field_spec["position"], float)
        for m, mic in enumerate(array.mics):
            out[m] = observe_point_source(mic, pos, k)
    return out


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def _bm_kind(estimator):
    return {"BM-omni": "omni", "BM-first": "first_order", "BM-rigid": "rigid"}[estimator]


def prepare_estimator(cfg, k, pts):
    """Precompute per-frequency matrices; returns signals -> values at pts.

    The returned closure performs only the per-trial solve and a matrix
    product, so trial loops stay cheap on large evaluation grids.
    """
    from .wavefuncs import regular_swf_matrix
    from .discrete import representer_matrix

    array = cfg.array
    pts = np.asarray(pts, dtype=float)
    if cfg.estimator.startswith("BM-"):
        kind = _bm_kind(cfg.estimator)
        pos = array.positions
        radius = float(np.mean(np.linalg.norm(pos, axis=1)))
        dirs = pos / np.linalg.norm(pos, axis=1, keepdims=True)
        a = cfg.directivity_a if kind == "first_order" else None
        E = regular_swf_matrix(cfg.order, pts, k)

        def run(signals):
            cset = estimate_coeffs(signals, dirs, kind, k, radius, cfg.order, a=a)
            return E @ cset.coeffs

        return run
    if cfg.estimator == "DM-finite":
        basis = SphericalBasis(order=cfg.order_n0, origin=np.asarray(cfg.origin))
        B = build_observation_matrix(array.mics, basis, k)
        E = basis.eval_matrix(pts, k)
        return lambda signals: E @ solve_tikhonov(B, signals, cfg.reg)
    if cfg.estimator == "DM-infinite":
        K = kernel_matrix(array.mics, k)
        R = representer_matrix(array.mics, pts, k)
        return lambda signals: R @ solve_kernel(K, signals, cfg.reg)
    raise ConfigError(f"estimator: unknown value {cfg.estimator!r}")


def estimate_field(cfg, signals, k):
    """Run the configured estimator; returns a callable pts -> estimate."""
    array = cfg.array
    if cfg.estimator.startswith("BM-"):
        kind = _bm_kind(cfg.estimator)
        pos = array.positions
        radius = float(np.mean(np.linalg.norm(pos, axis=1)))
        dirs = pos / np.linalg.norm(pos, axis=1, keepdims=True)
        cset = estimate_coeffs(
            signals, dirs, kind, k, radius, cfg.order,
            a=cfg.directivity_a if kind == "first_order" else None,
        )
        return lambda pts: cset.evaluate(pts, k), cset
    if cfg.estimator == "DM-finite":
        basis = SphericalBasis(order=cfg.order_n0, origin=np.asarray(cfg.origin))
        B = build_observation_matrix(array.mics, basis, k)
        coeffs = solve_tikhonov(B, signals, cfg.reg)
        return lambda pts: eval_finite(coeffs, basis, pts, k), coeffs
    if cfg.estimator == "DM-infinite":
        K = kernel_matrix(array.mics, k)
        alpha = solve_kernel(K, signals, cfg.reg)
        return lambda pts: eval_kernel(alpha, array.mics, pts, k), alpha
    raise ConfigError(f"estimator: unknown value {cfg.estimator!r}")


# ---------------------------------------------------------------------------
# NMSE and sweeps
# ---------------------------------------------------------------------------

def nmse(estimate_vals, truth_vals):
    """10 log10( sum |est - truth|^2 / sum |truth|^2 ), floored at -300 dB."""
    truth_vals = np.asarray(truth_vals)
    estimate_vals = np.asarray(estimate_vals)
    denom = float(np.sum(np.abs(truth_vals) ** 2))
    if denom == 0.0:
        raise ValueError("truth field is identically zero on the grid")
    num = float(np.sum(np.abs(estimate_vals - truth_vals) ** 2))
    if num == 0.0:
        return NMSE_FLOOR_DB
    return max(10.0 * math.log10(num / denom), NMSE_FLOOR_DB)


def ball_grid(radius, spacing):
    """All grid points at `spacing` intervals inside a centered ball."""
    n = int(math.floor(radius / spacing))
    ax = np.arange(-n, n + 1) * spacing
    pts = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    return pts[np.linalg.norm(pts, axis=1) <= radius + 1e-12]


@dataclass
class ResultRecord:
    frequency: float
    estimator: str
    trial: int
    seed: int
    nmse_db: float
    nmse_mean_db: float
    min_radial_response: float
    wall_time_s: float


def run_sweep(cfg):
    """Simulate, estimate and evaluate NMSE for every (frequency, trial)."""
    grid = ball_grid(cfg.eval_radius, cfg.eval_spacing)
    records = []
    for f in cfg.frequencies:
        k = 2.0 * math.pi * f / cfg.c
        truth_vals = _truth_eval(cfg.field_spec, grid, k)
        clean = observe_field(cfg.array, cfg.field_spec, k)
        diag = float("nan")
        if cfg.estimator.startswith("BM-"):
            radius = float(np.mean(np.linalg.norm(cfg.array.positions, axis=1)))
            kind = _bm_kind(cfg.estimator)
            A = radial_response(
                kind, cfg.order, k * radius,
                a=cfg.directivity_a if kind == "first_order" else None,
            )
            diag = float(np.min(np.abs(A)))
        estimator = prepare_estimator(cfg, k, grid)
        freq_records = []
        for trial in range(cfg.trials):
            t0 = time.perf_counter()
            rng = np.random.default_rng(cfg.seed + trial)
            signals = add_noise(clean, cfg.snr_db, rng)
            val = nmse(estimator(signals), truth_vals)
            freq_records.append(
                ResultRecord(
                    frequency=f, estimator=cfg.estimator, trial=trial,
                    seed=cfg.seed + trial, nmse_db=val, nmse_mean_db=0.0,
                    min_radial_response=diag,
                    wall_time_s=time.perf_counter() - t0,
                )
            )
        mean_db = float(np.mean([r.nmse_db for r in freq_records]))
        for r in freq_records:
            r.nmse_mean_db = mean_db
        records.extend(freq_records)
    records.sort(key=lambda r: (r.frequency, r.trial))
    return records


def _fmt(x):
    return format(float(x), ".17g")


def sweep_csv(records):
    lines = ["frequency_hz,estimator,trial,seed,nmse_db,nmse_mean_db,min_radial_response"]
    for r in records:
        lines.append(
            ",".join(
                [
                    _fmt(r.frequency), r.estimator, str(r.trial), str(r.seed),
                    _fmt(r.nmse_db), _fmt(r.nmse_mean_db),
                    _fmt(r.min_radial_response),
                ]
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Field dumps
# ---------------------------------------------------------------------------

PLANES = {"xy": (0, 1, 2), "xz": (0, 2, 1), "yz": (1, 2, 0)}


def plane_grid(plane, extent, spacing, offset=0.0):
    """Grid on an axis plane; `extent` is the full side length."""
    if plane not in PLANES:
        raise ConfigError(f"plane: must be one of {sorted(PLANES)}")
    n = int(math.ceil(extent / spacing)) + 1
    ax = -extent / 2.0 + spacing * np.arange(n)
    U, V = np.meshgrid(ax, ax, indexing="ij")
    i, j, kk = PLANES[plane]
    pts = np.zeros(U.shape + (3,))
    pts[..., i] = U
    pts[..., j] = V
    pts[..., kk] = offset
    return pts.reshape(-1, 3)


def dump_field(cfg, frequency, plane="xy", extent=2.0, spacing=0.1, offset=0.0,
               include_estimate=True, trial=0):
    """CSV text of the true (and optionally estimated) field on a plane grid."""
    k = 2.0 * math.pi * frequency / cfg.c
    pts = plane_grid(plane, extent, spacing, offset)
    truth_vals = _truth_eval(cfg.field_spec, pts, k)
    mean_pow = float(np.mean(np.abs(truth_vals) ** 2))
    est_vals = None
    if include_estimate:
        clean = observe_field(cfg.array, cfg.field_spec, k)
        rng = np.random.default_rng(cfg.seed + trial)
        signals = add_noise(clean, cfg.snr_db, rng)
        evaluator, _ = estimate_field(cfg, signals, k)
        est_vals = evaluator(pts)
    lines = ["x,y,z,re_true,im_true,re_est,im_est,norm_err"]
    for i, p in enumerate(pts):
        row = [_fmt(p[0]), _fmt(p[1]), _fmt(p[2]),
               _fmt(truth_vals[i].real), _fmt(truth_vals[i].imag)]
        if est_vals is None:
            row += ["", "", ""]
        else:
            err = abs(est_vals[i] - truth_vals[i]) ** 2 / mean_pow
            row += [_fmt(est_vals[i].real), _fmt(est_vals[i].imag), _fmt(err)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Synthesis (weighted pressure matching) experiment
# ---------------------------------------------------------------------------

def wpm_experiment(obj):
    """Run the PM vs WPM comparison; returns records and CSV text.

    Geometry defaults mirror the reference setup: 32 sources on two 2 m
    square borders at z = +-0.2 m, a 1 m square target region at z = 0
    sampled at 0.05 m (441 points), 36 control points on a 0.2 m subgrid.
    """
    _require_object(obj)
    c = _field(obj, "c", 340.65, _POSITIVE)
    freqs = obj.get("frequencies")
    if not isinstance(freqs, list) or not freqs:
        raise ConfigError("frequencies: must be a non-empty list of Hz values")
    freqs = [_checked(f"frequencies[{i}]", f, _POSITIVE) for i, f in enumerate(freqs)]
    eta = _field(obj, "eta", 1e-3, _NON_NEGATIVE)
    lam = _field(obj, "reg", 1e-3, _NON_NEGATIVE)
    direction = _vector_field(
        obj, "direction", [math.cos(-math.pi / 4), math.sin(-math.pi / 4), 0.0],
        nonzero=True,
    )
    direction = direction / np.linalg.norm(direction)
    eval_spacing = _field(obj, "eval_spacing", 0.05, _SPACING)
    quad_spacing = _field(obj, "quad_spacing", 0.02, _SPACING)
    control_spacing = _field(obj, "control_spacing", 0.2, _SPACING)
    src = np.vstack(
        [
            apps.square_boundary_points(2.0, 16, z=0.2),
            apps.square_boundary_points(2.0, 16, z=-0.2),
        ]
    )
    region, _ = apps.square_grid(1.0, eval_spacing)
    quad, cell = apps.square_grid(1.0, quad_spacing, midpoint=True)
    ctrl, _ = apps.square_grid(1.0, control_spacing)
    rows = []
    for f in freqs:
        k = 2.0 * math.pi * f / c
        G = apps.transfer_matrix(src, ctrl, k)
        Ge = apps.transfer_matrix(src, region, k)
        u_ctrl = plane_wave(ctrl, direction, k)
        u_eval = plane_wave(region, direction, k)
        W = apps.region_weighting(ctrl, quad, cell, k, lam)
        W = W * (len(ctrl) / float(np.trace(W).real))
        d_pm = apps.pm_drive(G, u_ctrl, eta)
        d_wpm = apps.wpm_drive(G, u_ctrl, eta, W)
        denom = float(np.mean(np.abs(u_eval) ** 2))
        err_pm = float(np.mean(np.abs(Ge @ d_pm - u_eval) ** 2)) / denom
        err_wpm = float(np.mean(np.abs(Ge @ d_wpm - u_eval) ** 2)) / denom
        rows.append((f, 10 * math.log10(err_pm), 10 * math.log10(err_wpm)))
    lines = ["frequency_hz,pm_region_mse_db,wpm_region_mse_db"]
    for f, a, b in rows:
        lines.append(",".join([_fmt(f), _fmt(a), _fmt(b)]))
    return rows, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Spatial ANC experiment
# ---------------------------------------------------------------------------

def anc_experiment(obj):
    """Kernel-weighted vs multipoint ANC at a single tone; returns records/CSV.

    Geometry defaults: 24 error microphones on a 1 m square boundary with
    alternating 0.03 m outward shifts, 12 secondary sources on a 2 m square,
    primary point source outside, 700 Hz tone, free-field transfer
    functions evaluated in the z = 0 plane.
    """
    _require_object(obj)
    c = _field(obj, "c", 340.65, _POSITIVE)
    f = _field(obj, "frequency", 700.0, _POSITIVE)
    lam = _field(obj, "reg", 1e-3, _NON_NEGATIVE)
    iters = _field(obj, "iterations", 20000, ("an integer >= 1", lambda v: v >= 1), integer=True)
    prim = _vector_field(obj, "primary_source", [3.0, 0.0, 0.0])
    num_mics = _field(obj, "num_error_mics", 24, _MULTIPLE_OF_4, integer=True)
    shift = _field(obj, "outward_shift", 0.03, _NON_NEGATIVE)
    num_src = _field(obj, "num_sources", 12, _MULTIPLE_OF_4, integer=True)
    spacing = _field(obj, "eval_spacing", 0.05, _SPACING)
    # LMS converges for 0 < mu < 2 / max eig(G^H A G) with the unit reference
    mu_scale = _field(obj, "mu_scale", 1.0, ("a number in (0, 2)", lambda v: 0 < v < 2))
    k = 2.0 * math.pi * f / c
    mics = apps.square_boundary_points(1.0, num_mics, outward_shift=shift)
    src = apps.square_boundary_points(2.0, num_src)
    region, cell = apps.square_grid(1.0, spacing, midpoint=True)
    G = apps.transfer_matrix(src, mics, k)
    Gr = apps.transfer_matrix(src, region, k)
    d = green(mics, prim, k)
    up = green(region, prim, k)
    x = np.array([1.0 + 0.0j])
    p0 = float(np.sum(np.abs(up) ** 2) * cell)
    out = {}
    for name, A in [
        ("multipoint", np.eye(len(mics))),
        ("kernel", apps.region_weighting(mics, region, cell, k, lam)),
    ]:
        eig = float(np.linalg.eigvalsh(G.conj().T @ A @ G).max())
        mu = mu_scale / eig
        W, costs = apps.anc_lms_run(G, A, d, x, mu, iters, record_cost=True)
        u = up + Gr @ (W @ x)
        out[name] = {
            "regional_power_db": 10 * math.log10(float(np.sum(np.abs(u) ** 2) * cell) / p0),
            "final_cost": float(costs[-1]),
            "costs": costs,
        }
    lines = ["weighting,regional_power_db,final_cost"]
    for name in ("multipoint", "kernel"):
        lines.append(
            ",".join([name, _fmt(out[name]["regional_power_db"]), _fmt(out[name]["final_cost"])])
        )
    return out, "\n".join(lines) + "\n"
