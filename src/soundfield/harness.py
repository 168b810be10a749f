"""Scenario-driven simulation runner: frequency sweeps, NMSE evaluation,
field-grid dumps and the synthesis/ANC experiment drivers used by the CLI.

A scenario is a single JSON document; see :class:`ScenarioConfig`.  All
randomness is drawn from ``numpy.random.default_rng(seed + trial)`` so every
record is reproducible independently; outputs are byte-identical for
identical config and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import applications as apps
from .boundary import analysis_matrix, radial_response
from .discrete import (
    Representers,
    SphericalBasis,
    build_observation_matrix,
    kernel_matrix,
    solve_kernel,
    solve_tikhonov,
)
from .observation import (
    MIC_KINDS,
    T_DESIGNS,
    ArrayConfig,
    Mics,
    add_noise,
    noise_std,
    plane_wave_observations,
    point_source_observations,
    rigid_sphere_observation,
    spherical_array,
    unit_noise,
)
from .specfun import degrees_orders, sph_hn_all
from .wavefuncs import green, plane_wave, swf_angular, swf_radial

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
_NUMBER = ("a number", lambda v: True)
_COUNT = ("an integer >= 0", lambda v: v >= 0)
_AT_LEAST_1 = ("an integer >= 1", lambda v: v >= 1)
_UNIT_INTERVAL = ("a number in [0, 1]", lambda v: 0 <= v <= 1)
# Twice a radius or a position must square to a finite number (below about
# 6.7e153), so that the squared distance of any two configured points is too.
_RADIUS = ("a positive number below about 6.7e153",
           lambda v: v > 0 and (2.0 * v) * (2.0 * v) < math.inf)
_T_DESIGN = (f"one of {', '.join(map(str, T_DESIGNS))} (the embedded t-designs)",
             lambda v: v in T_DESIGNS)
_MOUNTS = ("open", "rigid")
# Optional scalar fields of a scenario: (key, rule, integer).
_SCENARIO_FIELDS = (
    ("c", _POSITIVE, False),
    ("snr_db", _NUMBER, False),
    ("seed", _COUNT, True),
    ("trials", _AT_LEAST_1, True),
    ("order", _COUNT, True),
    ("order_n0", _COUNT, True),
    ("reg", _NON_NEGATIVE, False),
    ("directivity_a", _UNIT_INTERVAL, False),
)


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


class _ConfigObject:
    """One JSON object of a config, read key by key.

    Every key the parser asks for is recorded, so :meth:`close` rejects
    exactly the keys it never read.  `path` prefixes key names in messages
    (empty at the top level).
    """

    def __init__(self, obj, path=""):
        if not isinstance(obj, dict):
            raise ConfigError(f"{path or 'top level'}: must be a JSON object")
        self.obj = obj
        self.path = path
        self._read = set()

    def key_path(self, key):
        return f"{self.path}.{key}" if self.path else key

    def __contains__(self, key):
        self._read.add(key)
        return key in self.obj

    def get(self, key, default=None):
        self._read.add(key)
        return self.obj.get(key, default)

    def close(self):
        """Raise ConfigError naming the first key that was never read."""
        unknown = sorted(set(self.obj) - self._read)
        if unknown:
            raise ConfigError(
                f"{self.key_path(unknown[0])}: unknown key; expected one of "
                f"{', '.join(sorted(self._read))}")


def _field(obj, key, default, rule, integer=False):
    """obj[key], or `default` when absent, checked by :func:`_checked`."""
    return _checked(obj.key_path(key), obj.get(key, default), rule, integer)


def _vector_field(obj, key, default, nonzero=False):
    """obj[key], or `default` when absent, as a (3,) float array.

    ``(2v).(2v)`` must be finite, as for `_RADIUS`.  With `nonzero`, its
    squared norm must be above 0 and finite, so that it can be normalised.
    """
    path = obj.key_path(key)
    value = obj.get(key, default)
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"{path}: must be a list of 3 numbers")
    for i, v in enumerate(value):
        _checked(f"{path}[{i}]", v, _NUMBER)
    if nonzero and not 0.0 < sum(float(v) * float(v) for v in value) < math.inf:
        raise ConfigError(f"{path}: must be a nonzero 3-vector")
    if not sum((2.0 * float(v)) * (2.0 * float(v)) for v in value) < math.inf:
        raise ConfigError(f"{path}: must have a norm below about 6.7e153")
    return np.asarray(value, dtype=float)


def _unit_field(obj, key, default):
    """obj[key], or `default` when absent, as a unit (3,) float array."""
    v = _vector_field(obj, key, default, nonzero=True)
    return v / np.linalg.norm(v)


def _frequencies(value):
    """The `frequencies` list: non-empty, of positive Hz values."""
    if not isinstance(value, list) or not value:
        raise ConfigError("frequencies: must be a non-empty list of Hz values")
    return [_checked(f"frequencies[{i}]", f, _POSITIVE) for i, f in enumerate(value)]


def _choice(obj, key, default, choices):
    """obj[key], or `default` when absent, when it is one of `choices`."""
    value = obj.get(key, default)
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(
            f"{obj.key_path(key)}: must be one of {', '.join(map(repr, choices))}")
    return value


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
    def from_dict(cls, obj):
        top = _ConfigObject(obj)

        def need(key):
            if key not in top:
                raise ConfigError(f"missing required field '{key}'")
            return top.get(key)

        estimator = need("estimator")
        if estimator not in ESTIMATORS:
            raise ConfigError(
                f"estimator: unknown value {estimator!r}; expected one of {ESTIMATORS}"
            )
        freqs = _frequencies(need("frequencies"))

        kwargs = {
            key: _checked(key, top.get(key), rule, integer)
            for key, rule, integer in _SCENARIO_FIELDS if key in top
        }
        kwargs["origin"] = tuple(_vector_field(top, "origin", [0.0, 0.0, 0.0]))
        grid = _ConfigObject(top.get("eval_grid", {}), "eval_grid")
        kwargs["eval_radius"] = _field(grid, "radius", 1.0, _POSITIVE)
        kwargs["eval_spacing"] = _field(grid, "spacing", 0.1, _POSITIVE)
        grid.close()

        array = _array_from_dict(_ConfigObject(need("array"), "array"), estimator,
                                 kwargs.get("directivity_a", cls.directivity_a))
        fs = _field_spec(top.get("field", {"type": "plane_wave"}), kwargs["eval_radius"], array)
        top.close()
        return cls(
            estimator=estimator, frequencies=freqs, array=array, field_spec=fs, **kwargs,
        )


def _field_spec(obj, eval_radius, array):
    """The checked `field` spec: its `type` and the unit `direction` of a
    plane wave or the `position` of a point source, as a float array.

    A point source must lie outside the evaluation ball, since the interior
    model assumes a source-free region; outside a rigid sphere, since the
    incident field's expansion about its center diverges on it; and off
    every mic, where its field is infinite.
    """
    spec = _ConfigObject(obj, "field")
    kind = spec.get("type")
    if kind == "plane_wave":
        out = {"type": kind, "direction": _unit_field(spec, "direction", [1.0, 0.0, 0.0])}
    elif kind == "point_source":
        pos = _vector_field(spec, "position", None)
        out, dist = {"type": kind, "position": pos}, float(np.linalg.norm(pos))
        if dist <= eval_radius:
            raise ConfigError(
                f"field.position: must lie outside eval_grid.radius ({eval_radius:g} m); "
                "the region must be source-free")
        if array.mount == "rigid" and dist <= array.radius:
            raise ConfigError(
                f"field.position: must lie outside the rigid sphere (radius {array.radius:g} m), "
                "where the incident field's expansion about its center converges")
        tol = 1e-9 * max(1.0, dist)
        hits = np.flatnonzero(np.linalg.norm(array.mics.pos - pos, axis=1) <= tol)
        if hits.size:
            raise ConfigError(
                f"field.position: must lie away from every mic, not within {tol:g} m "
                f"of mic {hits[0]}; the field is infinite there")
    else:
        raise ConfigError("field.type: must be 'plane_wave' or 'point_source'")
    spec.close()
    return out


# Each boundary estimator's mic kind and mount, and the kind of radial
# response (see radial_response) it divides by; on any other array its
# estimate is meaningless.
_BM_MODELS = {"BM-omni": ("omni", "open", "omni"),
              "BM-first": ("first_order", "open", "first_order"),
              "BM-rigid": ("omni", "rigid", "rigid")}


def _require_kind(model, model_kind, kinds, kind_path):
    """Reject the first of the mic `kinds` (an array) that `model` does not
    model; `kind_path(i)` is the field path of entry i."""
    bad = np.flatnonzero(kinds != model_kind)
    if bad.size:
        raise ConfigError(f"{kind_path(bad[0])}: {model} models {model_kind} mics only, "
                          f"not {str(kinds[bad[0]])!r}")


def _require_sphere(model, mics_path, pos, radius, tol):
    """Reject the first mic at the origin or off the sphere of `radius`
    (within `tol`) about it."""
    radii = np.linalg.norm(pos, axis=1)
    bad = np.flatnonzero((radii == 0.0) | (np.abs(radii - radius) > tol))
    if bad.size:
        raise ConfigError(f"{mics_path}[{bad[0]}].pos: {model} models mics on one sphere "
                          f"about the origin, not at radius {radii[bad[0]]:g}")


def _require_bm_model(estimator, mount_path, mount, kinds, kind_path):
    """Reject an array that boundary estimator `estimator` does not model."""
    model_kind, model_mount, _ = _BM_MODELS[estimator]
    _require_kind(estimator, model_kind, kinds, kind_path)
    if mount != model_mount:
        raise ConfigError(f"{mount_path}: {estimator} models the {model_mount} mount only, "
                          f"not {mount!r}")


def _array_from_dict(spec, estimator, directivity_a):
    """Build an ArrayConfig from its explicit mic list or a spherical-design spec."""
    if "mics" in spec:
        array, kinds = _explicit_array(spec)
        mics_path = spec.key_path("mics")
        if estimator in _BM_MODELS:
            _require_bm_model(estimator, spec.key_path("mount"), array.mount, kinds,
                              lambda i: f"{mics_path}[{i}].kind")
            # one sphere about the origin: radii within 1e-9 of their median
            median = np.median(np.linalg.norm(array.mics.pos, axis=1))
            _require_sphere(estimator, mics_path, array.mics.pos, median, 1e-9 * median)
        if estimator == "BM-first":
            # it divides by one radial response: one omni weight, outward axes
            mics = array.mics
            outward = mics.pos / np.linalg.norm(mics.pos, axis=1)[:, None]
            bad_a = mics.a != mics.a[0]
            bad = np.flatnonzero(bad_a | np.any(np.abs(mics.axes - outward) > 1e-9, axis=1))
            if bad.size:
                i = bad[0]
                raise ConfigError(f"{mics_path}[{i}].a: BM-first models one a on all mics"
                                  if bad_a[i] else
                                  f"{mics_path}[{i}].y: BM-first models outward axes only")
        return array
    if spec.get("type") != "spherical":
        raise ConfigError(f"{spec.path}: must contain 'mics' or be "
                          "{'type': 'spherical', ...}")
    t = _field(spec, "t", 7, _T_DESIGN, integer=True)
    radius = _field(spec, "radius", 1.0, _RADIUS)
    kind = _choice(spec, "kind", "first_order" if estimator == "BM-first" else "omni",
                   MIC_KINDS)
    mount = _choice(spec, "mount", "open", _MOUNTS)
    spec.close()
    if estimator == "BM-rigid":
        mount = "rigid"
    kinds, kind_path = np.array([kind]), lambda i: spec.key_path("kind")
    if estimator in _BM_MODELS:
        _require_bm_model(estimator, spec.key_path("mount"), mount, kinds, kind_path)
    if mount == "rigid":
        _require_kind("the rigid mount", "omni", kinds, kind_path)
    return spherical_array(t, radius, mount=mount, kind=kind, a=directivity_a)


def _explicit_array(spec):
    """The `{"mount", "mics", "radius"}` form of an array, checked key by key.

    Returns the ArrayConfig and the mic kinds.  A mic gives `y` exactly when
    its kind is directional and `a` exactly when it is first-order.
    """
    mount = _choice(spec, "mount", None, _MOUNTS)
    radius = _field(spec, "radius", None, _RADIUS) if "radius" in spec else None
    mics_path = spec.key_path("mics")
    entries = spec.get("mics")
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"{mics_path}: must be a non-empty list of mic objects")
    pos, kinds, axes, weights = [], [], [], []
    for i, entry in enumerate(entries):
        mic = _ConfigObject(entry, f"{mics_path}[{i}]")
        pos.append(_vector_field(mic, "pos", None))
        kind = _choice(mic, "kind", "omni", MIC_KINDS)
        takes = {"y": kind != "omni", "a": kind == "first_order"}
        for key, wanted in takes.items():
            if (key in mic) != wanted:
                raise ConfigError(f"{mic.key_path(key)}: " + (
                    "required" if wanted else "not taken") + f" by {kind} mics")
        kinds.append(kind)
        axes.append(_vector_field(mic, "y", None, nonzero=True) if takes["y"] else np.zeros(3))
        weights.append(_field(mic, "a", None, _UNIT_INTERVAL) if takes["a"] else None)
        mic.close()
    spec.close()
    kinds = np.array(kinds)
    if mount == "rigid":
        if radius is None:
            raise ConfigError(f"{spec.key_path('radius')}: required for the rigid mount")
        _require_kind("the rigid mount", "omni", kinds, lambda i: f"{mics_path}[{i}].kind")
        _require_sphere("the rigid mount", mics_path, np.array(pos), radius,
                        1e-9 * max(1.0, radius))
    return ArrayConfig(mount=mount, mics=Mics(pos, kinds, axes, weights), radius=radius), kinds


# ---------------------------------------------------------------------------
# Field truth and observation
# ---------------------------------------------------------------------------

def _truth_eval(field_spec, pts, k):
    if field_spec["type"] == "plane_wave":
        return plane_wave(pts, field_spec["direction"], k)
    return green(pts, field_spec["position"], k)


def _rigid_truth_order(array, k):
    """Truncation order of the incident field on a rigid sphere: ceil(kR) + 20."""
    return int(math.ceil(k * array.radius)) + 20


def observe_field(array, field_spec, k):
    """Noiseless microphone signals of the configured array for the truth field.

    On a rigid sphere the incident field's coefficients about its center are
    ``g_nu Yhat_{nu,mu}(x0)^*`` up to :func:`_rigid_truth_order` (see
    :func:`rigid_sphere_observation`): ``g_nu = 1`` about the arrival
    direction for a plane wave, ``g_nu = (ik/4pi) i^nu h_nu(k|r_s|)`` about
    ``r_s/|r_s|`` for a point source at r_s.
    """
    if array.mount != "rigid":
        if field_spec["type"] == "plane_wave":
            return plane_wave_observations(array.mics, field_spec["direction"], k)
        return point_source_observations(array.mics, field_spec["position"], k)
    nu = np.arange(_rigid_truth_order(array, k) + 1)
    if field_spec["type"] == "plane_wave":
        g, axis = np.ones(nu.size), field_spec["direction"]
    else:
        pos = field_spec["position"]
        dist = np.linalg.norm(pos)
        g = (1j * k / (4.0 * np.pi)) * (1j ** nu.astype(float)) * sph_hn_all(nu[-1], k * dist)
        axis = pos / dist
    return rigid_sphere_observation(g, axis, array.mics.pos / array.radius, k, array.radius)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

class Estimator:
    """The configured estimator at fixed points `pts`.

    It keeps only what its kind needs that does not depend on frequency or
    trial: for BM the radii and harmonics of the points (`basis`, see
    :func:`swf_angular`), the array radius and its `analysis` matrix; for
    DM-finite the `basis` about `origin`; for DM-infinite the mics'
    `representers` at the points.
    """

    def __init__(self, cfg, pts):
        self.cfg = cfg
        self.model = _BM_MODELS.get(cfg.estimator)
        # `_at` is the kind's method, unbound (prepare_estimator passes the
        # estimator): a bound one would be a reference cycle that keeps the
        # grid harmonics until a gc pass.
        if self.model:
            pos = cfg.array.mics.pos
            norms = np.linalg.norm(pos, axis=1)
            self.order = cfg.order
            self.radius = float(np.mean(norms))
            self.basis = swf_angular(cfg.order, pts)
            self.analysis = analysis_matrix(cfg.order, pos / norms[:, None])
            self._at = Estimator._boundary_at
        elif cfg.estimator == "DM-finite":
            self.order = cfg.order_n0
            self.basis = swf_angular(cfg.order_n0, pts - np.asarray(cfg.origin))
            self._at = Estimator._finite_at
        else:
            self.representers = Representers(cfg.array.mics, pts)
            self._at = Estimator._kernel_at

    def response(self, k):
        """A BM estimator's radial response A_nu, nu = 0..order, at k, with
        the mics' own omni weight; None for the DM estimators."""
        if self.model:
            return radial_response(self.model[2], self.order, k * self.radius,
                                   a=self.cfg.array.mics.a[0])
        return None

    def _expansion(self, k):
        rad, Y = self.basis
        return swf_radial(self.order, rad, k) * Y

    def _boundary_at(self, k):
        A = self.response(k)[degrees_orders(self.order)[0]][:, None]
        E = self._expansion(k)
        return lambda signals: E @ ((self.analysis @ signals) / A)

    def _finite_at(self, k):
        basis = SphericalBasis(order=self.order, origin=self.cfg.origin)
        B = build_observation_matrix(self.cfg.array.mics, basis, k)
        E = self._expansion(k)
        return lambda signals: E @ solve_tikhonov(B, signals, self.cfg.reg)

    def _kernel_at(self, k):
        K = kernel_matrix(self.cfg.array.mics, k)
        R = self.representers.matrix(k)
        return lambda signals: R @ solve_kernel(K, signals, self.cfg.reg)


def prepare_estimator(est, k):
    """The :class:`Estimator` `est` at wavenumber k.

    Returns a callable mapping a block of signals (M, T), one column per
    trial, to the estimates at the points (Q, T).  The k-dependent matrices
    are built here once per frequency; the callable makes one solve and
    one matrix product for all trials.
    """
    return est._at(est, k)


def estimate_field(cfg, signals, k, pts):
    """The configured estimator's values at `pts` from one signal vector."""
    return prepare_estimator(Estimator(cfg, pts), k)(np.asarray(signals)[:, None])[:, 0]


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
    """All grid points at `spacing` intervals inside a centered ball.

    The enclosing cube, built first, must hold at most 1e7 points; the
    ratio is tested for ``inf`` before ``floor``.
    """
    ratio = radius / spacing
    if not (math.isfinite(ratio) and (2 * math.floor(ratio) + 1) ** 3 <= 10**7):
        raise ConfigError("eval_grid.spacing: too fine; the grid would exceed 1e7 points")
    n = math.floor(ratio)
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


def run_sweep(cfg):
    """Simulate, estimate and evaluate NMSE for every (frequency, trial).

    What does not depend on frequency is computed once: the
    :class:`Estimator` on the grid and the unit noise of each trial (drawn
    from ``default_rng(seed + trial)``).  Each frequency then fits all
    trials as one block.
    """
    grid = ball_grid(cfg.eval_radius, cfg.eval_spacing)
    est = Estimator(cfg, grid)
    trials = range(cfg.trials)
    noise = np.stack([
        unit_noise(len(cfg.array.mics), np.random.default_rng(cfg.seed + t)) for t in trials
    ], axis=1)
    records = []
    for f in cfg.frequencies:
        k = 2.0 * math.pi * f / cfg.c
        truth_vals = _truth_eval(cfg.field_spec, grid, k)
        clean = observe_field(cfg.array, cfg.field_spec, k)
        signals = clean[:, None] + noise_std(clean, cfg.snr_db) * noise
        estimates = prepare_estimator(est, k)(signals)
        A = est.response(k)
        diag = float("nan") if A is None else float(np.min(np.abs(A)))
        vals = [nmse(estimates[:, t], truth_vals) for t in trials]
        mean_db = float(np.mean(vals))
        records.extend(
            ResultRecord(
                frequency=f, estimator=cfg.estimator, trial=t, seed=cfg.seed + t,
                nmse_db=v, nmse_mean_db=mean_db, min_radial_response=diag,
            )
            for t, v in zip(trials, vals)
        )
    records.sort(key=lambda r: (r.frequency, r.trial))
    return records


def _fmt(x):
    return format(float(x), ".17g")


def _csv(header, rows):
    """CSV text: the `header` line, then each row of formatted cells."""
    return "\n".join([header, *(",".join(row) for row in rows)]) + "\n"


def sweep_csv(records):
    return _csv("frequency_hz,estimator,trial,seed,nmse_db,nmse_mean_db,min_radial_response",
                ([_fmt(r.frequency), r.estimator, str(r.trial), str(r.seed), _fmt(r.nmse_db),
                  _fmt(r.nmse_mean_db), _fmt(r.min_radial_response)] for r in records))


# ---------------------------------------------------------------------------
# Field dumps
# ---------------------------------------------------------------------------

PLANES = {"xy": (0, 1, 2), "xz": (0, 2, 1), "yz": (1, 2, 0)}


def plane_grid(plane, extent, spacing, offset=0.0):
    """Grid on an axis plane; `extent` is the full side length.  It must
    hold at most 1e7 points; the ratio is tested for ``inf`` before ``ceil``."""
    if plane not in PLANES:
        raise ConfigError(f"plane: must be one of {sorted(PLANES)}")
    ratio = extent / spacing
    if not (math.isfinite(ratio) and (math.ceil(ratio) + 1) ** 2 <= 10**7):
        raise ConfigError("--spacing: too fine; the grid would exceed 1e7 points")
    n = math.ceil(ratio) + 1
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
        signals = add_noise(clean, cfg.snr_db, np.random.default_rng(cfg.seed + trial))
        est_vals = estimate_field(cfg, signals, k, pts)
    rows = []
    for i, p in enumerate(pts):
        row = [_fmt(p[0]), _fmt(p[1]), _fmt(p[2]),
               _fmt(truth_vals[i].real), _fmt(truth_vals[i].imag)]
        if est_vals is None:
            row += ["", "", ""]
        else:
            err = abs(est_vals[i] - truth_vals[i]) ** 2 / mean_pow
            row += [_fmt(est_vals[i].real), _fmt(est_vals[i].imag), _fmt(err)]
        rows.append(row)
    return _csv("x,y,z,re_true,im_true,re_est,im_est,norm_err", rows)


# ---------------------------------------------------------------------------
# Synthesis (weighted pressure matching) experiment
# ---------------------------------------------------------------------------

def wpm_experiment(obj):
    """Run the PM vs WPM comparison; returns records and CSV text.

    Geometry defaults mirror the reference setup: 32 sources on two 2 m
    square borders at z = +-0.2 m, a 1 m square target region at z = 0
    sampled at 0.05 m (441 points), 36 control points on a 0.2 m subgrid.
    """
    obj = _ConfigObject(obj)
    c = _field(obj, "c", 340.65, _POSITIVE)
    freqs = _frequencies(obj.get("frequencies"))
    eta = _field(obj, "eta", 1e-3, _NON_NEGATIVE)
    lam = _field(obj, "reg", 1e-3, _NON_NEGATIVE)
    direction = _unit_field(obj, "direction",
                            [math.cos(-math.pi / 4), math.sin(-math.pi / 4), 0.0])
    eval_spacing = _field(obj, "eval_spacing", 0.05, _SPACING)
    quad_spacing = _field(obj, "quad_spacing", 0.02, _SPACING)
    control_spacing = _field(obj, "control_spacing", 0.2, _SPACING)
    obj.close()
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
    return rows, _csv("frequency_hz,pm_region_mse_db,wpm_region_mse_db",
                      ([_fmt(f), _fmt(a), _fmt(b)] for f, a, b in rows))


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
    obj = _ConfigObject(obj)
    c = _field(obj, "c", 340.65, _POSITIVE)
    f = _field(obj, "frequency", 700.0, _POSITIVE)
    lam = _field(obj, "reg", 1e-3, _NON_NEGATIVE)
    iters = _field(obj, "iterations", 20000, ("an integer >= 1", lambda v: v >= 1), integer=True)
    prim = _vector_field(obj, "primary_source", [3.0, 0.0, 0.0])
    num_mics = _field(obj, "num_error_mics", 24, _MULTIPLE_OF_4, integer=True)
    shift = _field(obj, "outward_shift", 0.03, _NON_NEGATIVE)
    num_src = _field(obj, "num_sources", 12, _MULTIPLE_OF_4, integer=True)
    spacing = _field(obj, "eval_spacing", 0.05, _SPACING)
    # The field model assumes a source-free target region.
    gap = math.hypot(max(abs(prim[0]) - 0.5, 0.0), max(abs(prim[1]) - 0.5, 0.0), prim[2])
    if gap < spacing:
        raise ConfigError(
            f"primary_source: must be at least eval_spacing ({spacing:g} m) away from "
            "the 1 m target square at z = 0")
    # LMS converges for 0 < mu < 2 / max eig(G^H A G) with the unit reference
    mu_scale = _field(obj, "mu_scale", 1.0, ("a number in (0, 2)", lambda v: 0 < v < 2))
    obj.close()
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
        W, costs = apps.anc_lms_run(G, A, d, x, mu, iters)
        u = up + Gr @ (W @ x)
        out[name] = {
            "regional_power_db": 10 * math.log10(float(np.sum(np.abs(u) ** 2) * cell) / p0),
            "final_cost": float(costs[-1]),
            "costs": costs,
        }
    return out, _csv("weighting,regional_power_db,final_cost",
                     ([name, _fmt(out[name]["regional_power_db"]), _fmt(out[name]["final_cost"])]
                      for name in ("multipoint", "kernel")))
