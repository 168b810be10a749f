"""Scenario-driven simulation runner: frequency sweeps, NMSE evaluation,
field-grid dumps and the synthesis/ANC experiment drivers used by the CLI.

A scenario is a single JSON document; see :class:`ScenarioConfig`.  All
randomness is drawn from ``numpy.random.default_rng(seed + trial)`` so every
record is reproducible independently; outputs are byte-identical for
identical config and seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import applications as apps
from .boundary import analysis_matrix, radial_response
from .discrete import (
    Representers,
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
    load_t_design,
    noise_std,
    plane_wave_observations,
    point_source_observations,
    rigid_sphere_observation,
    unit_noise,
)
from .specfun import degrees_orders, harmonic_rows, num_coeffs, sph_hn_all, sph_jn_all
from .wavefuncs import _green_of_distance, green, plane_wave

NMSE_FLOOR_DB = -300.0

ESTIMATORS = ("BM-omni", "BM-first", "BM-rigid", "DM-finite", "DM-infinite")
SOUND_SPEED = 340.65  # m/s, the default c of every config and of `forbidden --c`

# The memory budget: every array whose size a config sets is held to this
# many bytes (see _check_fit_sizes, wpm_experiment and anc_experiment), and
# an evaluation block's arrays, about max((order+1)^2, M, trials) complex
# values per point, and an expansion's radial tables with their Bessel
# evaluation are too (see Estimator.block_rows and Estimator.evaluate).
BLOCK_BYTES = 32 * 2**20
# Evaluation walks its points in blocks whose widest real per-point array,
# the (order+1)^2 harmonic rows or the M mic distances, takes about this
# many bytes, so that a block's arrays stay in a core's L2 cache across the
# frequencies (512 points at order 7 or at 64 mics).
_CACHE_BYTES = 256 * 2**10
# Bytes of one complex value, the unit of the block budget.
_VALUE_BYTES = 16
# The largest mic signal power times the noise's 10^(-snr_db/10): 1e28 below
# the float range, for the sums over mics, trials and points and the solve's gain.
_POWER_MAX = 1e280
# The largest k r at which sph_jn_all and sph_hn_all were checked against
# mpmath; see _wavenumbers.
_KR_MAX = 2000.0


class ConfigError(ValueError):
    """Invalid scenario configuration; message includes the field path."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# Each JSON object of a config is read by its table of (key, default, read)
# rows: read(path, value) returns the checked value or raises ConfigError
# naming `path`.  A None default leaves an absent key None; _REQUIRED rejects it.
_REQUIRED = object()


def _rule(expect, ok, integer=False):
    """The reader of a finite number passing `ok`, returned as a float (an
    int if `integer`); anything else raises ConfigError "<path>: must be
    <expect>".  JSON true and false are not numbers here."""
    kinds = int if integer else (int, float)

    def read(path, value):
        try:
            good = (not isinstance(value, bool) and isinstance(value, kinds)
                    and math.isfinite(value) and ok(value))
        except OverflowError:  # an integer beyond the float range
            good = False
        if not good:
            raise ConfigError(f"{path}: must be {expect}")
        return value if integer else float(value)

    return read


def _choice(*choices):
    """The reader of one of the strings `choices`."""
    def read(path, value):
        if not isinstance(value, str) or value not in choices:
            raise ConfigError(f"{path}: must be one of {', '.join(map(repr, choices))}")
        return value

    return read


# Complex values within the block budget; a count whose square stays within it.
_BUDGET = BLOCK_BYTES // _VALUE_BYTES
_SQUARE_BUDGET = math.isqrt(_BUDGET)
_BUDGET_NAME = f"the {BLOCK_BYTES >> 20} MB block budget"

_POSITIVE = _rule("a positive number", lambda v: v > 0)
_NON_NEGATIVE = _rule("a number >= 0", lambda v: v >= 0)
_NUMBER = _rule("a number", lambda v: True)
_COUNT = _rule("an integer >= 0", lambda v: v >= 0, integer=True)
_AT_LEAST_1 = _rule("an integer >= 1", lambda v: v >= 1, integer=True)
_UNIT_INTERVAL = _rule("a number in [0, 1]", lambda v: 0 <= v <= 1)
# A grid of the 1 m square has whole cells: 1 / spacing lines or cells per side.
_SPACING = _rule("a number in (0, 1] that divides 1 (metres, on the 1 m square region)",
                 lambda v: 0 < v <= 1 and apps._whole(1 / v))
# Twice a radius or a position must square to a finite number (below about
# 6.7e153), so that the squared distance of any two configured points is too.
_RADIUS = _rule("a positive number below about 6.7e153",
                lambda v: v > 0 and (2.0 * v) * (2.0 * v) < math.inf)
# K has a unit diagonal, so beyond about 1/eps K + reg I rounds to reg I;
# the weighting P^H inner P, of order 1/reg^2, leaves the float range near
# reg = 1e150.
_KERNEL_REG = _rule("a number in [0, 1e15]", lambda v: 0 <= v <= 1e15)
_SQUARE_COUNT = _rule(
    f"a positive multiple of 4 up to {_SQUARE_BUDGET}, so that the square matrices "
    f"stay within {_BUDGET_NAME}", lambda v: 0 < v <= _SQUARE_BUDGET and v % 4 == 0, integer=True)
_MOUNTS = _choice("open", "rigid")
_MIC_KIND = _choice(*MIC_KINDS)


def _vector(path, value, nonzero=False):
    """A list of 3 numbers as a (3,) float array.

    ``(2v).(2v)`` must be finite, as for `_RADIUS`.  With `nonzero`, its
    squared norm must be above 0 and finite, so that it can be normalised.
    """
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"{path}: must be a list of 3 numbers")
    v = [_NUMBER(f"{path}[{i}]", x) for i, x in enumerate(value)]
    if nonzero and not 0.0 < sum(x * x for x in v) < math.inf:
        raise ConfigError(f"{path}: must be a nonzero 3-vector")
    if not sum((2.0 * x) * (2.0 * x) for x in v) < math.inf:
        raise ConfigError(f"{path}: must have a norm below about 6.7e153")
    return np.asarray(v)


_axis = functools.partial(_vector, nonzero=True)


def _unit(path, value):
    """A nonzero 3-vector, normalised."""
    v = _axis(path, value)
    return v / np.linalg.norm(v)


def _list_of(read, what):
    """The reader of a non-empty list of `what`, each entry read by `read`."""
    def read_list(path, value):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: must be a non-empty list of {what}")
        return [read(f"{path}[{i}]", entry) for i, entry in enumerate(value)]

    return read_list


_frequencies = _list_of(_POSITIVE, "Hz values")


def _read(obj, rows, path=""):
    """The values of the JSON object `obj`, a dict read by its table `rows`.

    A row (key, default, read) gives read(key path, value), of the key's
    value or else of `default`; an absent key stays None when `default` is
    None and is rejected when it is _REQUIRED.  A non-object `obj` and a
    key with no row are rejected before any row is read.  `path` prefixes
    key names in messages (empty at the top level).
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'top level'}: must be a JSON object")
    keys = [key for key, _, _ in rows]
    prefix = f"{path}." if path else ""
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]}: unknown key; expected one of "
                          f"{', '.join(sorted(keys))}")
    values = {}
    for key, default, read in rows:
        key_path = prefix + key
        if key in obj:
            values[key] = read(key_path, obj[key])
        elif default is _REQUIRED:
            raise ConfigError(f"{key_path}: required")
        else:
            values[key] = None if default is None else read(key_path, default)
    return values


def _object(rows):
    """The reader of a JSON object by its table `rows` (see :func:`_read`)."""
    return lambda path, value: _read(value, rows, path)


def _array(path, value):
    """The `array` object: the explicit form when it gives `mics`, else the
    spherical-design form."""
    explicit = isinstance(value, dict) and "mics" in value
    return _read(value, _EXPLICIT if explicit else _SPHERICAL, path)


def _field(path, value):
    """The `field` object, read by the table of its `type`."""
    kind = value.get("type") if isinstance(value, dict) else "plane_wave"  # _read rejects it
    return _read(value, _FIELDS[_FIELD_TYPE(f"{path}.type", kind)], path)


_EVAL_GRID = (("radius", 1.0, _POSITIVE), ("spacing", 0.1, _POSITIVE))
_SPHERICAL = (
    ("type", _REQUIRED, _choice("spherical")),
    ("t", 7, _rule(f"one of {', '.join(map(str, T_DESIGNS))} (the embedded t-designs)",
                   lambda v: v in T_DESIGNS, integer=True)),
    ("radius", 1.0, _RADIUS),
    ("kind", None, _MIC_KIND),  # None: the kind the estimator models, else omni
    ("mount", None, _MOUNTS),  # None: the mount the estimator models, else open
)
_MIC = (
    ("pos", _REQUIRED, _vector),
    ("kind", "omni", _MIC_KIND),
    ("y", None, _axis),
    ("a", None, _UNIT_INTERVAL),
)
_EXPLICIT = (
    ("mount", _REQUIRED, _MOUNTS),
    ("mics", _REQUIRED, _list_of(_object(_MIC), "mic objects")),
    ("radius", None, _RADIUS),
)
_FIELD_TYPE = _choice("plane_wave", "point_source")
_FIELDS = {"plane_wave": (("type", _REQUIRED, _FIELD_TYPE),
                          ("direction", [1.0, 0.0, 0.0], _unit)),
           "point_source": (("type", _REQUIRED, _FIELD_TYPE),
                            ("position", _REQUIRED, _vector))}
_SCENARIO = (
    ("estimator", _REQUIRED, _choice(*ESTIMATORS)),
    ("frequencies", _REQUIRED, _frequencies),
    ("array", _REQUIRED, _array),
    ("field", {"type": "plane_wave"}, _field),
    ("c", SOUND_SPEED, _POSITIVE),
    # the noise variance 10^(-snr_db/10) times the signal power stays finite
    ("snr_db", 30.0, _rule(f"a number >= {NMSE_FLOOR_DB:g} (dB)", lambda v: v >= NMSE_FLOOR_DB)),
    ("seed", 0, _COUNT),
    ("trials", 10, _AT_LEAST_1),
    ("order", 7, _COUNT),  # truncation order N of the boundary estimators
    ("order_n0", 7, _COUNT),  # basis truncation N0 of DM-finite
    ("origin", [0.0, 0.0, 0.0], _vector),
    ("reg", 1e-3, _NON_NEGATIVE),
    ("directivity_a", 0.5, _UNIT_INTERVAL),
    ("eval_grid", {}, _object(_EVAL_GRID)),
)
_SYNTH = (
    ("frequencies", _REQUIRED, _frequencies),
    ("c", SOUND_SPEED, _POSITIVE),
    # The rings at z = +-0.2 give G exactly duplicated columns, so G^H W G +
    # eta I is singular unless eta shows against G^H W G, whose norm is at
    # most trace(W) |G|^2, about 3e5 on the finest control grid.
    ("eta", 1e-3, _rule("a number >= 1e-9", lambda v: v >= 1e-9)),
    ("reg", 1e-3, _KERNEL_REG),
    ("direction", [math.cos(-math.pi / 4), math.sin(-math.pi / 4), 0.0], _unit),
    ("eval_spacing", 0.05, _SPACING),
    ("quad_spacing", 0.02, _SPACING),
    ("control_spacing", 0.2, _SPACING),
)
_ANC = (
    ("c", SOUND_SPEED, _POSITIVE),
    ("frequency", 700.0, _POSITIVE),
    ("reg", 1e-3, _KERNEL_REG),
    # a run's work does not grow with it; the cap keeps its 1..iterations costs in budget
    ("iterations", 20000, _rule(f"an integer in [1, {_BUDGET}], so that the cost trajectory "
                                f"fits {_BUDGET_NAME}", lambda v: 1 <= v <= _BUDGET,
                                integer=True)),
    ("primary_source", [3.0, 0.0, 0.0], _vector),
    ("num_error_mics", 24, _SQUARE_COUNT),
    ("outward_shift", 0.03, _NON_NEGATIVE),
    ("num_sources", 12, _SQUARE_COUNT),
    ("eval_spacing", 0.05, _SPACING),
    # LMS converges for 0 < mu < 2 / max eig(G^H A G) with the unit reference
    ("mu_scale", 1.0, _rule("a number in (0, 2)", lambda v: 0 < v < 2)),
)


def _wavenumbers(freqs, c, lengths):
    """The k = 2 pi f / c of each (path, f) of `freqs`.

    Rejects, naming the frequency's path, a k that is not a positive
    finite number, or that fails :func:`_check_kr` over `lengths`.
    """
    out = []
    for path, f in freqs:
        k = 2.0 * math.pi * f / c
        if not 0.0 < k < math.inf:
            raise ConfigError(f"{path}: the wavenumber 2 pi f / c must be a positive finite "
                              f"number, not {k:g}")
        _check_kr(path, k, lengths)
        out.append(k)
    return out


def _check_kr(path, k, lengths):
    """Reject, naming `path`, a wavenumber k whose k r exceeds _KR_MAX at
    the farthest of the (path, r) `lengths`, which is named too."""
    far_path, far = max(lengths, key=lambda item: item[1])
    if k * far > _KR_MAX:
        raise ConfigError(f"{path}: k r must be at most {_KR_MAX:g}, not {k * far:.3g}, "
                          f"at the farthest configured point ({far_path}, {far:g} m)")


def _check_budget(values, path, what):
    """Reject, naming `path`, a config whose `what` would hold more complex
    values than the block budget."""
    if values > _BUDGET:
        raise ConfigError(f"{path}: too fine; {what} would exceed {_BUDGET_NAME}")


def _check_wavenumbers(cfg, freqs):
    """The k of each (path, f) of `freqs` (see :func:`_wavenumbers`), checked
    over the mics, a point source and DM-finite's origin (:func:`run_sweep`
    and :func:`dump_field` check k r on their grids).  Also rejects a k
    at which ``1 / (k d)`` overflows for the distance d of a point source from
    its nearest mic; at which directional mics' signal power, at most
    ``((1 + 1/(k d)) / (4 pi d))^2``, times ``10^(-snr_db/10)`` passes
    _POWER_MAX; or at which a radial response the run divides by or sums is 0
    or not finite: a BM estimator's A_nu, nu <= order, on the mics' mean
    radius (one :func:`_bm_response` table for all ks, returned with them),
    and on a rigid mount the rigid response up to the truth's order, k by k.
    """
    pos = cfg.array.mics.pos
    norms = np.linalg.norm(pos, axis=1)
    far = int(np.argmax(norms))
    explicit = cfg.explicit_array
    lengths = [(f"array.mics[{far}].pos" if explicit else "array.radius", float(norms[far]))]
    near = math.inf  # the distance d of a point source from its nearest mic
    if cfg.field_spec["type"] == "point_source":
        src = cfg.field_spec["position"]
        lengths.append(("field.position", float(np.linalg.norm(src))))
        near = float(np.min(np.linalg.norm(pos - src, axis=1)))
    if cfg.estimator == "DM-finite":
        lengths.append(("origin", float(np.linalg.norm(cfg.origin))))
    ks = _wavenumbers(freqs, cfg.c, lengths)
    bm = _bm_response(cfg, ks)
    noise_scale = max(1.0, 10.0 ** (-cfg.snr_db / 10.0))
    for (path, _), k, A_bm in zip(freqs, ks, bm):
        if not (k * near > 0.0 and 1.0 / (k * near) < math.inf):
            raise ConfigError(f"{path}: 1 / (k d) must be finite, not inf at k = {k:g}, for the "
                              f"distance d = {near:g} m of field.position from its nearest mic")
        near_field = (1.0 + 1.0 / (k * near)) / (4.0 * math.pi * near)
        if cfg.array.mics.b.any() and not near_field * near_field * noise_scale <= _POWER_MAX:
            raise ConfigError(f"{path}: directional mics' near-field factor (1 + 1/(k d)) / "
                              f"(4 pi d) = {near_field:.3g} at k = {k:g}, d = {near:g} m, squared "
                              f"and times max(1, 10^(-snr_db/10)), must be at most {_POWER_MAX:g}")
        checks = [] if A_bm is None else [
            (A_bm, float(np.mean(norms)), "array.mics" if explicit else "array.radius")]
        if cfg.array.mount == "rigid":
            radius = cfg.array.radius
            with np.errstate(all="ignore"):  # NaN: A_0 at kR = 0, as in _bm_response
                A = (radial_response("rigid", _rigid_truth_order(cfg.array, k), k * radius)
                     if k * radius else [math.nan])
            checks.append((A, radius, "array.radius"))
        for A, radius, radius_path in checks:
            bad = np.flatnonzero(~np.isfinite(A) | (A == 0))
            if bad.size:
                raise ConfigError(
                    f"{path}: the radial response A_{bad[0]} at kR = {k * radius:g} "
                    f"({radius_path}, R = {radius:g} m) must be finite and nonzero")
    return ks, bm


@dataclass
class ScenarioConfig:
    """A sweep scenario, as :meth:`from_dict` reads it from its JSON object
    by the `_SCENARIO` table."""

    estimator: str
    frequencies: list
    array: ArrayConfig
    field_spec: dict
    c: float
    snr_db: float
    seed: int
    trials: int
    order: int
    order_n0: int
    origin: np.ndarray
    reg: float
    eval_radius: float
    eval_spacing: float
    explicit_array: bool  # the `array` object lists its mics
    wavenumbers: list = field(init=False)  # the k of each frequency, set by from_dict
    responses: list = field(init=False)  # and its _bm_response column

    @classmethod
    def from_dict(cls, obj):
        values = _read(obj, _SCENARIO)
        grid, spec = values.pop("eval_grid"), values.pop("array")
        array = _array_config(spec, values["estimator"], values.pop("directivity_a"))
        field_spec = values.pop("field")
        if field_spec["type"] == "point_source":
            _check_source(field_spec["position"], grid["radius"], array)
        cfg = cls(array=array, field_spec=field_spec, eval_radius=grid["radius"],
                  eval_spacing=grid["spacing"], explicit_array="mics" in spec, **values)
        _check_fit_sizes(cfg)
        cfg.wavenumbers, cfg.responses = _check_wavenumbers(
            cfg, [(f"frequencies[{i}]", f) for i, f in enumerate(cfg.frequencies)])
        return cfg


def _check_fit_sizes(cfg):
    """Reject, naming the key to lower, a scenario whose fit-stage arrays
    would hold more than BLOCK_BYTES of complex values: a BM estimator's
    (order+1)^2 x M analysis matrix, DM-finite's M x (order_n0+1)^2
    observation matrix (4 times that for directional mics, whose rows also
    gather the functions of degree order_n0 + 1), DM-infinite's M x M Gram
    matrix, and the noise, signals and fitted weights of all trials,
    max((order+1)^2, M) x trials.
    """
    limit, budget = _BUDGET, f"so that the fit's values stay within {_BUDGET_NAME}"
    mics = cfg.array.mics
    m = len(mics)
    coeffs = 0
    if cfg.estimator == "DM-infinite":
        if m * m > limit:
            raise ConfigError(f"array.mics: must hold at most {math.isqrt(limit)} mics "
                              f"for DM-infinite, {budget}")
    else:
        key = "order_n0" if cfg.estimator == "DM-finite" else "order"
        coeffs = num_coeffs(getattr(cfg, key))
        per_mic = 4 if key == "order_n0" and mics.b.any() else 1
        if coeffs * m * per_mic > limit:
            most = math.isqrt(limit // (m * per_mic)) - 1
            raise ConfigError(f"{key}: must be at most {most} with {m} mics, {budget}")
    width = max(coeffs, m)
    if cfg.trials * width > limit:
        raise ConfigError(f"trials: must be at most {limit // width}, {budget}")


def _check_source(pos, eval_radius, array):
    """Reject a point source at `pos` inside the evaluation ball, since the
    interior model assumes a source-free region; inside a rigid sphere,
    since the incident field's expansion about its center diverges on it;
    or on a mic, where its field is infinite.
    """
    dist = float(np.linalg.norm(pos))
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


# Each boundary estimator's mic kind and mount, and the kind of radial
# response (see radial_response) it divides by; on any other array its
# estimate is meaningless.
_BM_MODELS = {"BM-omni": ("omni", "open", "omni"),
              "BM-first": ("first_order", "open", "first_order"),
              "BM-rigid": ("omni", "rigid", "rigid")}


def _require_kind(model, model_kind, kinds, where):
    """Reject the first of the mic `kinds` (an array) that `model` does not
    model; `where(i, key)` is the field path of mic i's `key`."""
    bad = np.flatnonzero(kinds != model_kind)
    if bad.size:
        raise ConfigError(f"{where(bad[0], 'kind')}: {model} models {model_kind} mics only, "
                          f"not {str(kinds[bad[0]])!r}")


def _require_sphere(model, pos, radius, tol, sphere, where):
    """Reject the first mic at the origin or off the sphere of `radius`
    (within `tol`) about it; `sphere` names that radius."""
    radii = np.linalg.norm(pos, axis=1)
    bad = np.flatnonzero((radii == 0.0) | (np.abs(radii - radius) > tol))
    if bad.size:
        raise ConfigError(f"{where(bad[0], 'pos')}: {model} models mics on one sphere "
                          f"about the origin, not at radius {radii[bad[0]]:g} "
                          f"({sphere} {radius:g})")


def _array_config(spec, estimator, directivity_a):
    """The checked ArrayConfig of the read `array` object.  The spherical form
    is the list of its t-design's mics at `radius`, of one kind, with outward
    axes and `a = directivity_a`; an absent kind or mount is the estimator's
    (omni, open for DM).  Every list passes one check sequence: each mic's `y`
    and `a`, a rigid `radius`, the BM kind and mount, the rigid mount, one BM
    sphere, BM-first's `a` and axes."""
    model = _BM_MODELS.get(estimator, ("omni", "open"))
    if "mics" in spec:
        mics = spec["mics"]
        kinds = np.array([mic["kind"] for mic in mics])
        for i, (mic, kind) in enumerate(zip(mics, kinds)):
            for key, wanted in (("y", kind != "omni"), ("a", kind == "first_order")):
                if (mic[key] is not None) != wanted:
                    raise ConfigError(f"array.mics[{i}].{key}: " + (
                        "required" if wanted else "not taken") + f" by {kind} mics")
        pos = np.array([mic["pos"] for mic in mics])
        axes = [np.zeros(3) if mic["y"] is None else mic["y"] for mic in mics]
        a = [mic["a"] for mic in mics]
        where = lambda i, key: f"array.mics[{i}].{key}"
    else:
        dirs = load_t_design(spec["t"])
        pos, axes, a = spec["radius"] * dirs, dirs, directivity_a
        kinds = np.full(len(dirs), spec["kind"] or model[0])
        # one kind and one a; the radius sets the positions and axes
        where = lambda i, key: "array.kind" if key == "kind" else "array.radius"
    mount, radius = spec["mount"] or model[1], spec["radius"]
    if mount == "rigid" and radius is None:
        raise ConfigError("array.radius: required for the rigid mount")
    if estimator in _BM_MODELS:
        _require_kind(estimator, model[0], kinds, where)
        if mount != model[1]:
            raise ConfigError(f"array.mount: {estimator} models the {model[1]} mount only, "
                              f"not {mount!r}")
    if mount == "rigid":
        _require_kind("the rigid mount", "omni", kinds, where)
        _require_sphere("the rigid mount", pos, radius, 1e-9 * max(1.0, radius), "array.radius",
                        where)
    if estimator in _BM_MODELS:
        # radii within 1e-9 of their median, taken without np.median (it imports numpy.ma)
        radii = np.sort(np.linalg.norm(pos, axis=1))
        median = 0.5 * (radii[(len(radii) - 1) // 2] + radii[len(radii) // 2])
        _require_sphere(estimator, pos, median, 1e-9 * median, "their median radius", where)
    mics = Mics(pos, kinds, axes, a)
    if estimator == "BM-first":
        # it divides by one radial response: one omni weight, outward axes
        outward = mics.pos / np.linalg.norm(mics.pos, axis=1)[:, None]
        bad_a = mics.a != mics.a[0]
        bad = np.flatnonzero(bad_a | np.any(np.abs(mics.axes - outward) > 1e-9, axis=1))
        if bad.size:
            i = bad[0]
            raise ConfigError(f"{where(i, 'a')}: BM-first models one a on all mics, that of "
                              f"{where(0, 'a')} ({mics.a[0]:g})" if bad_a[i] else
                              f"{where(i, 'y')}: BM-first models outward axes only")
    return ArrayConfig(mount=mount, mics=mics, radius=radius)


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

def _block_rows(width):
    """Points per block when each point takes `width` complex values."""
    return max(1, BLOCK_BYTES // (_VALUE_BYTES * width))


def _bm_response(cfg, ks):
    """A BM estimator's radial response A_nu, nu <= order, on the mics' mean
    radius with their own omni weight: a column per k of `ks`, from one call,
    warnings off and NaN for the rigid A_0 = i / (0 inf) at kR = 0, which
    radial_response rejects, for :func:`_check_wavenumbers` to reject; DM: None."""
    model = _BM_MODELS.get(cfg.estimator)
    if model is None:
        return [None] * len(ks)
    mics = cfg.array.mics
    kR = np.multiply(ks, float(np.mean(np.linalg.norm(mics.pos, axis=1))))
    A = np.full((cfg.order + 1, kR.size), np.nan, dtype=complex)
    ok = (kR != 0.0) | (model[2] != "rigid")
    with np.errstate(all="ignore"):
        A[:, ok] = radial_response(model[2], cfg.order, kR[ok], a=float(mics.a[0]))
    return list(A.T)


class Estimator:
    """The configured estimator, fitted per frequency and evaluated in blocks
    of points.

    It keeps only what depends on neither frequency, trial nor point: for BM
    its `analysis` matrix; for BM and DM-finite the `order` and `origin` of
    the expansion (`order` is None for DM-infinite).
    :func:`prepare_estimator` fits it at one frequency, BM by its column of
    the sweep's :func:`_bm_response` table, and :meth:`evaluate` gives the
    fits' estimates at points, block by block: weights times real basis terms.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.model = _BM_MODELS.get(cfg.estimator)
        self.order = None
        if self.model:
            pos = cfg.array.mics.pos
            self.order, self.origin = cfg.order, np.zeros(3)
            self.analysis = analysis_matrix(cfg.order, pos / np.linalg.norm(pos, axis=1)[:, None])
        elif cfg.estimator == "DM-finite":
            self.order, self.origin = cfg.order_n0, cfg.origin

    def block_rows(self, trials):
        """Points per block for `trials` columns of estimates.

        A block holds _CACHE_BYTES of a point's widest real array: its
        (order+1)^2 harmonic rows, or for DM-infinite its M mic distances.
        Where it gives fewer points, the budget rule sets the block instead:
        BLOCK_BYTES at max(w, M, trials) complex values per point, with w
        (order+1)^2 (the rows and their scaled copy) or for DM-infinite 2 M,
        4 M for directional mics (the real (Q, M) arrays of its Bessel
        evaluation).  So 32768 trials at order 7 take blocks of 64 points.
        """
        mics = self.cfg.array.mics
        real = width = len(mics) if self.order is None else num_coeffs(self.order)
        if self.order is None:
            width *= 4 if mics.b.any() else 2
        return min(max(1, _CACHE_BYTES // (8 * real)),
                   _block_rows(max(width, len(mics), trials)))

    def at(self, pts):
        """What a block of points `pts` (Q, 3) needs at every k: for
        DM-infinite the mics' :class:`Representers` there; otherwise the
        :func:`harmonic_rows` of the points' directions about `origin` (at
        the origin the zero vector's; j_nu(0) = 0 for nu > 0)."""
        if self.order is None:
            return Representers(self.cfg.array.mics, pts)
        rel = pts - self.origin
        rad = np.linalg.norm(rel, axis=1)
        return harmonic_rows(self.order, rel / np.where(rad > 0, rad, 1.0)[:, None])

    def evaluate(self, pts, ks, weights, rows):
        """Yield the estimates at the points `pts` (Q, 3) from the weights
        `weights[i]` (., T) that :func:`prepare_estimator` fitted at
        `ks[i]`, in blocks of `rows` points and, within a block, k by k:
        ``(block, i, out)`` with `block` the slice of `pts` and `out` the
        real (2T, Q_b) estimates, rows :T the real and T: the imaginary
        parts (see :func:`_complex`).

        Every estimator takes this one path, in real arithmetic: a block's
        :meth:`at` is computed once for all k, and at each k `out` sums in
        place each real basis term (W_d, Q_b) times its weights (2T, W_d),
        stacked once per fit (:meth:`_stacked`).  The terms are DM-infinite's
        :meth:`Representers.terms` ``a j0`` and ``j1 proj``, transposed, or
        an expansion's harmonic rows, degree nu's times ``j_nu(k r)`` at the
        radii about `origin`, from a table of at most BLOCK_BYTES / 4 (its
        :func:`sph_jn_all` call's working arrays take about three times
        that): the distinct radii of a span of as many blocks as fit at
        every k (all of `pts` on the grids of `configs/`), or, where one
        block at every k does not fit, one block at as many k."""
        stacked = [self._stacked(w) for w in weights]
        if self.order is not None:
            table, per_k = BLOCK_BYTES // 4, 8 * (self.order + 1) * rows
            chunk = min(len(ks), max(1, table // per_k))
            span = rows * max(1, table // (per_k * len(ks)))  # rows if chunk < len(ks)
            nu, _ = degrees_orders(self.order)
        for start in range(0, len(pts), rows):
            block = slice(start, start + rows)
            at = self.at(pts[block])
            for i, k in enumerate(ks):
                if self.order is None:
                    terms = (row.T for row in at.terms(k))
                else:
                    if start % span == 0 and i % chunk == 0:
                        radii, inverse = np.unique(
                            np.linalg.norm(pts[start:start + span] - self.origin, axis=1),
                            return_inverse=True)
                        radial = sph_jn_all(self.order, np.multiply.outer(ks[i:i + chunk], radii))
                    cols = inverse[start % span:][:rows]  # the block's radii in the table
                    terms = [radial[:, i % chunk].take(cols, axis=1).take(nu, axis=0)]
                    terms[0] *= at
                out = functools.reduce(np.ndarray.__iadd__,
                                       (w @ b for w, b in zip(stacked[i], terms)))
                del terms  # with DM-infinite's Bessel table, before out is yielded
                yield block, i, out
            del at  # before the next block's is built

    def _stacked(self, w):
        """The real (2T, W_d) weights, real over imaginary parts, of the basis
        terms of :meth:`evaluate` from a fit's weights w (., T): DM-infinite's
        alpha for ``a j0`` and ``-i alpha`` for ``j1 proj``; an expansion's w of
        ``i^{-nu} Yhat_{nu,mu}``, times ``i^{-nu}``, give ``w_m + (-1)^m w_{-m}`` on
        row (nu, m), ``i (w_m - (-1)^m w_{-m})`` on (nu, -m), m > 0, and w_0 on (nu, 0)."""
        if self.order is None:
            return [np.concatenate([w.real.T, w.imag.T]), np.concatenate([w.imag.T, -w.real.T])]
        nu, mu = degrees_orders(self.order)
        w = w * (1j ** -nu.astype(float))[:, None]
        s = (-1.0) ** mu
        own, mirror = np.where(mu < 0, -1j * s, 1.0), np.where(mu < 0, 1j, np.where(mu > 0, s, 0.0))
        w = own[:, None] * w + mirror[:, None] * w[nu * nu + nu - mu]
        return [np.concatenate([w.real.T, w.imag.T])]


def prepare_estimator(est, k, A):
    """The fit of the :class:`Estimator` `est` at wavenumber k.

    Builds the k-dependent operator once (BM: its :func:`_bm_response` column
    `A` at k on the coefficient layout, None for DM;
    DM-finite: the observation matrix B; DM-infinite: the Gram matrix K) and
    returns the callable mapping a block of signals S (M, T), one column per
    trial, to the weights :meth:`Estimator.evaluate` takes: BM
    ``analysis @ S / A``, DM-finite ``solve_tikhonov(B, S)`` and DM-infinite
    ``solve_kernel(K, S)``, one solve for all trials.
    """
    cfg = est.cfg
    if est.model:
        A = A[degrees_orders(est.order)[0]][:, None]
        return lambda signals: (est.analysis @ signals) / A
    if est.order is not None:
        B = build_observation_matrix(cfg.array.mics, est.origin, est.order, k)
        return lambda signals: solve_tikhonov(B, signals, cfg.reg)
    K = kernel_matrix(cfg.array.mics, k)
    return lambda signals: solve_kernel(K, signals, cfg.reg)


def _noise(cfg, trials):
    """The unit noise (M, len(trials)), trial t's column from ``default_rng(seed + t)``."""
    m = len(cfg.array.mics)
    return np.stack([unit_noise(m, np.random.default_rng(cfg.seed + t)) for t in trials], axis=1)


def _fit(est, k, A, noise):
    """The weights (., T) that `est` fits at k (and BM response `A`) to the
    truth's mic signals plus the unit `noise` (M, T) at the configured SNR."""
    cfg = est.cfg
    clean = observe_field(cfg.array, cfg.field_spec, k)
    return prepare_estimator(est, k, A)(clean[:, None] + noise_std(clean, cfg.snr_db) * noise)


def estimate_field(cfg, signals, k, pts):
    """The configured estimator's values at `pts` (Q, 3) from one signal vector."""
    est = Estimator(cfg)
    A, = _bm_response(cfg, [k])
    weights = prepare_estimator(est, k, A)(np.asarray(signals)[:, None])
    return np.concatenate([_complex(out)[0] for _, _, out in
                           est.evaluate(pts, [k], [weights], est.block_rows(1))])


def _complex(out):
    """The complex estimates (T, Q) of a real (2T, Q) block of
    :meth:`Estimator.evaluate`."""
    trials = len(out) // 2
    vals = np.empty((trials, out.shape[1]), dtype=complex)
    vals.real, vals.imag = out[:trials], out[trials:]
    return vals


# ---------------------------------------------------------------------------
# NMSE and sweeps
# ---------------------------------------------------------------------------

def _nmse_db(num, den):
    """10 log10(num / den), floored at -300 dB, for error power `num` and
    truth power `den`."""
    if den == 0.0:
        raise ValueError("truth field is identically zero on the grid")
    if num == 0.0:
        return NMSE_FLOOR_DB
    return max(10.0 * math.log10(num / den), NMSE_FLOOR_DB)


def nmse(estimate_vals, truth_vals):
    """10 log10( sum |est - truth|^2 / sum |truth|^2 ), floored at -300 dB."""
    truth_vals = np.asarray(truth_vals)
    estimate_vals = np.asarray(estimate_vals)
    return _nmse_db(float(np.sum(np.abs(estimate_vals - truth_vals) ** 2)),
                    float(np.sum(np.abs(truth_vals) ** 2)))


def _check_length(path, value):
    """Reject a grid length whose double squares to inf, as for `_RADIUS`:
    then no squared distance between a grid point and a configured point
    overflows."""
    if not (2.0 * value) * (2.0 * value) < math.inf:
        raise ConfigError(f"{path}: must put every grid point within about 6.7e153 m "
                          "of the origin")


def ball_grid(radius, spacing):
    """All grid points at `spacing` intervals inside a centered ball.

    The enclosing cube must hold at most 1e7 points; the ratio is tested for
    ``inf`` before ``floor``.  As in :func:`plane_grid`, a ratio within 1e-9
    (relative) of whole is that whole n, and a point is inside within 1e-9
    relative of the larger of the radius and n spacings, so the outer shell
    stays.  The cube is scanned one x-slab at a time, so only the grid
    itself is held.
    """
    ratio = radius / spacing
    if math.isfinite(ratio):
        n = round(ratio) if apps._whole(ratio) else math.floor(ratio)
    if not (math.isfinite(ratio) and (2 * n + 1) ** 3 <= 10**7):
        raise ConfigError("eval_grid.spacing: too fine; the grid would exceed 1e7 points "
                          "within eval_grid.radius")
    _check_length("eval_grid.radius", radius)
    ax = np.arange(-n, n + 1) * spacing
    reach = max(radius, n * spacing) * (1.0 + 1e-9)
    slab = np.empty(((2 * n + 1) ** 2, 3))
    slab[:, 1:] = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)
    inside = []
    for x in ax:
        slab[:, 0] = x
        inside.append(slab[np.linalg.norm(slab, axis=1) <= reach])
    return np.concatenate(inside)


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

    The unit noise of every trial (see :func:`_noise`) is drawn once, and
    every frequency is fitted first (see :func:`_fit`), all trials as one
    block, BM by the config's `responses`.  :meth:`Estimator.evaluate` then
    walks the grid in blocks of :meth:`Estimator.block_rows` points, small
    enough to stay in cache across the frequencies, and computes an
    expansion's radial functions once per span of blocks (the whole grid
    when their table fits the budget).  Each block's real estimates and
    truth at each frequency add to each (frequency, trial)'s NMSE numerator
    and denominator, in real arithmetic: the squares of the real and
    imaginary parts of the error and of the truth.
    """
    grid = ball_grid(cfg.eval_radius, cfg.eval_spacing)
    ks = cfg.wavenumbers
    for i, k in enumerate(ks):
        _check_kr(f"frequencies[{i}]", k, [("eval_grid.radius", cfg.eval_radius)])
    est = Estimator(cfg)
    trials = range(cfg.trials)
    noise = _noise(cfg, trials)
    weights = [_fit(est, k, A, noise) for k, A in zip(ks, cfg.responses)]
    T = cfg.trials
    num = np.zeros((len(ks), T))
    den = np.zeros(len(ks))
    for block, i, out in est.evaluate(grid, ks, weights, est.block_rows(T)):
        truth = _truth_eval(cfg.field_spec, grid[block], ks[i])
        out[:T] -= truth.real
        out[T:] -= truth.imag
        out *= out
        num[i] += np.sum(out[:T], axis=1) + np.sum(out[T:], axis=1)
        den[i] += np.sum(truth.real * truth.real) + np.sum(truth.imag * truth.imag)
    records = []
    for i, (f, A) in enumerate(zip(cfg.frequencies, cfg.responses)):
        diag = float("nan") if A is None else float(np.min(np.abs(A)))
        vals = [_nmse_db(n, den[i]) for n in num[i]]
        mean_db = float(np.mean(vals))
        records.extend(ResultRecord(frequency=f, estimator=cfg.estimator, trial=t,
                                    seed=cfg.seed + t, nmse_db=v, nmse_mean_db=mean_db,
                                    min_radial_response=diag) for t, v in zip(trials, vals))
    records.sort(key=lambda r: (r.frequency, r.trial))
    return records


def _fmt(x):
    return format(float(x), ".17g")


def _csv_rows(rows):
    """CSV lines, each ending in a newline, of rows of formatted cells."""
    return "".join(",".join(row) + "\n" for row in rows)


def _csv(header, rows):
    """CSV text: the `header` line, then each row of formatted cells."""
    return header + "\n" + _csv_rows(rows)


def sweep_csv(records):
    return _csv("frequency_hz,estimator,trial,seed,nmse_db,nmse_mean_db,min_radial_response",
                ([_fmt(r.frequency), r.estimator, str(r.trial), str(r.seed), _fmt(r.nmse_db),
                  _fmt(r.nmse_mean_db), _fmt(r.min_radial_response)] for r in records))


# ---------------------------------------------------------------------------
# Field dumps
# ---------------------------------------------------------------------------

PLANES = {"xy": (0, 1, 2), "xz": (0, 2, 1), "yz": (1, 2, 0)}
# A field row's 8 formatted cells take about as much memory as this many
# complex values while its block's text is built.
_CSV_ROW_WIDTH = 32


def plane_grid(plane, extent, spacing, offset):
    """Grid on an axis plane; `extent` is the full side length.  It must
    hold at most 1e7 points; the ratio is tested for ``inf`` before ``ceil``.
    Every point must lie within about 6.7e153 m of the origin.  Each axis
    has ``floor(extent/spacing) + 1`` lines, centred, within ``+-extent/2``;
    a ratio within 1e-9 of whole runs from ``-extent/2`` to ``+extent/2``."""
    ratio = extent / spacing
    if not (math.isfinite(ratio) and (math.ceil(ratio) + 1) ** 2 <= 10**7):
        raise ConfigError("--spacing: too fine; the grid would exceed 1e7 points")
    half = extent / 2.0
    _check_length("--extent", math.hypot(half, half))
    _check_length("--offset", math.hypot(half, half, offset))
    whole = apps._whole(ratio)
    n = round(ratio) if whole else math.floor(ratio)
    ax = spacing * np.arange(n + 1) - (half if whole else spacing * n / 2.0)
    U, V = np.meshgrid(ax, ax, indexing="ij")
    i, j, kk = PLANES[plane]
    pts = np.zeros(U.shape + (3,))
    pts[..., i] = U
    pts[..., j] = V
    pts[..., kk] = offset
    return pts.reshape(-1, 3)


def dump_field(cfg, frequency, out, plane, extent, spacing, offset, include_estimate, trial):
    """Write to the text stream `out` the CSV of the true (and optionally
    estimated) field on a plane grid.

    `frequency` passes the rule of the config's frequencies, and k r the
    bound at the grid's farthest point; the fit is the sweep's of trial
    `trial`.  The rows are then evaluated and written block by block.
    Nothing is written before the frequency and grid are checked.
    """
    (k,), (A,) = _check_wavenumbers(cfg, [("--freq", frequency)])
    pts = plane_grid(plane, extent, spacing, offset)
    # No point lies farther than a corner of the square; the flag named sets
    # the larger part of its distance.
    half = extent / 2.0
    flag = "--offset" if abs(offset) > math.hypot(half, half) else "--extent"
    _check_kr("--freq", k, [(flag, math.hypot(half, half, offset))])
    truth_vals = _truth_eval(cfg.field_spec, pts, k)
    mean_pow = float(np.mean(np.abs(truth_vals) ** 2))
    rows = _block_rows(_CSV_ROW_WIDTH)
    if include_estimate:
        est = Estimator(cfg)
        weights = _fit(est, k, A, _noise(cfg, [trial]))
        rows = min(rows, est.block_rows(1))
        estimates = est.evaluate(pts, [k], [weights], rows)
    pad = [] if include_estimate else ["", "", ""]
    out.write("x,y,z,re_true,im_true,re_est,im_est,norm_err\n")
    for start in range(0, len(pts), rows):
        block = slice(start, start + rows)
        p, truth = pts[block], truth_vals[block]
        cols = [p[:, 0], p[:, 1], p[:, 2], truth.real, truth.imag]
        if include_estimate:
            vals = _complex(next(estimates)[2])[0]
            cols += [vals.real, vals.imag, np.abs(vals - truth) ** 2 / mean_pow]
        out.write(_csv_rows([_fmt(x) for x in row] + pad
                            for row in zip(*(c.tolist() for c in cols))))


# ---------------------------------------------------------------------------
# Synthesis (weighted pressure matching) experiment
# ---------------------------------------------------------------------------

def wpm_experiment(obj):
    """Run the PM vs WPM comparison; returns records and CSV text.

    Geometry defaults mirror the reference setup: 32 sources on two 2 m
    square borders at z = +-0.2 m, a 1 m square target region at z = 0
    sampled at 0.05 m (441 points), 36 control points on a 0.2 m subgrid.
    """
    v = _read(obj, _SYNTH)
    src = np.vstack([apps.square_boundary_points(2.0, 16, z=z) for z in (0.2, -0.2)])
    n_ctrl = apps.square_grid_side(1.0, v["control_spacing"]) ** 2
    n_quad = apps.square_grid_side(1.0, v["quad_spacing"], midpoint=True) ** 2
    n_eval = apps.square_grid_side(1.0, v["eval_spacing"]) ** 2
    _check_budget(n_ctrl * n_ctrl, "control_spacing", "the control points' kernel matrices")
    _check_budget(n_quad * n_ctrl, "quad_spacing",
                  "the quadrature points times the control points (control_spacing)")
    _check_budget(n_eval * len(src), "eval_spacing",
                  f"the evaluation points times the {len(src)} sources")
    far = float(np.max(np.linalg.norm(src, axis=1)))
    freqs = [(f"frequencies[{i}]", f) for i, f in enumerate(v["frequencies"])]
    ks = _wavenumbers(freqs, v["c"], [("the sources", far)])
    region, _ = apps.square_grid(1.0, v["eval_spacing"])
    quad, cell = apps.square_grid(1.0, v["quad_spacing"], midpoint=True)
    ctrl, _ = apps.square_grid(1.0, v["control_spacing"])
    rows = []
    # one geometry per run: neither the quadrature radii nor the source distances depend on k
    weightings = apps._region_weightings(ctrl, quad, cell, ks, v["reg"])
    d_ctrl, d_eval = (np.linalg.norm(p[:, None, :] - src, axis=-1) for p in (ctrl, region))
    for f, k, W in zip(v["frequencies"], ks, weightings):
        G = _green_of_distance(d_ctrl, k)
        Ge = _green_of_distance(d_eval, k)
        u_ctrl = plane_wave(ctrl, v["direction"], k)
        u_eval = plane_wave(region, v["direction"], k)
        W = W * (len(ctrl) / float(np.trace(W).real))
        d_pm = apps.pm_drive(G, u_ctrl, v["eta"])
        d_wpm = apps.wpm_drive(G, u_ctrl, v["eta"], W)
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
    v = _read(obj, _ANC)
    prim, shift, spacing = v["primary_source"], v["outward_shift"], v["eval_spacing"]
    # The field model assumes a source-free target region.
    gap = math.hypot(max(abs(prim[0]) - 0.5, 0.0), max(abs(prim[1]) - 0.5, 0.0), prim[2])
    if gap < spacing:
        raise ConfigError(
            f"primary_source: must be at least eval_spacing ({spacing:g} m) away from "
            "the 1 m target square at z = 0")
    n_region = apps.square_grid_side(1.0, spacing, midpoint=True) ** 2
    _check_budget(n_region * max(v["num_error_mics"], v["num_sources"]), "eval_spacing",
                  "the region points times num_error_mics or num_sources")
    lengths = [("primary_source", math.hypot(*prim)),
               ("outward_shift", math.hypot(0.5, 0.5) + shift),
               ("the sources", math.hypot(1.0, 1.0))]
    k, = _wavenumbers([("frequency", v["frequency"])], v["c"], lengths)
    mics = apps.square_boundary_points(1.0, v["num_error_mics"], outward_shift=shift)
    src = apps.square_boundary_points(2.0, v["num_sources"])
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
        ("kernel", apps.region_weighting(mics, region, cell, k, v["reg"])),
    ]:
        eig = float(np.linalg.eigvalsh(G.conj().T @ A @ G).max())
        n = v["iterations"]
        W, (cost,) = apps.anc_lms_run(G, A, d, x, v["mu_scale"] / eig, n, [n])
        u = up + Gr @ (W @ x)
        out[name] = {
            "regional_power_db": 10 * math.log10(float(np.sum(np.abs(u) ** 2) * cell) / p0),
            "final_cost": float(cost),
        }
    return out, _csv("weighting,regional_power_db,final_cost",
                     ([name, _fmt(out[name]["regional_power_db"]), _fmt(out[name]["final_cost"])]
                      for name in ("multipoint", "kernel")))
