import gc
import io
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from soundfield import applications as apps
from soundfield import harness, specfun
from soundfield.boundary import estimate_coeffs
from soundfield.cli import main as cli_main
from soundfield.discrete import (
    build_observation_matrix,
    kernel_matrix,
    representer_matrix,
    solve_kernel,
    solve_tikhonov,
)
from soundfield.harness import (
    ESTIMATORS,
    ConfigError,
    Estimator,
    ScenarioConfig,
    ball_grid,
    dump_field,
    estimate_field,
    nmse,
    observe_field,
    plane_grid,
    prepare_estimator,
    run_sweep,
    sweep_csv,
)
from soundfield.observation import (
    Mics,
    add_noise,
    load_t_design,
    observe_plane_wave,
    observe_point_source,
)
from soundfield.wavefuncs import green, plane_wave, plane_wave_coeffs, regular_swf_matrix

from oracles import harmonic_rigid_sphere_observation, singular_swf_matrix, spherical_array

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _base_config(**over):
    cfg = {
        "estimator": "DM-infinite",
        "frequencies": [200.0],
        "array": {"type": "spherical", "t": 5, "radius": 0.5, "kind": "omni"},
        "field": {"type": "plane_wave", "direction": [1, 0, 0]},
        "trials": 2,
        "seed": 7,
        "eval_grid": {"radius": 0.5, "spacing": 0.25},
    }
    cfg.update(over)
    return cfg


# ---------------------------------------------------------------------------
# NMSE
# ---------------------------------------------------------------------------

def test_nmse_perfect_estimate_floors():
    truth = np.array([1 + 1j, 2.0, -3j])
    assert nmse(truth, truth) == -300.0


def test_nmse_simple_value():
    truth = np.array([1.0 + 0j, 1.0])
    est = np.array([1.1 + 0j, 1.0])
    assert nmse(est, truth) == pytest.approx(10 * math.log10(0.01 / 2))


def test_nmse_zero_truth_raises():
    with pytest.raises(ValueError):
        nmse(np.array([1.0 + 0j]), np.zeros(1, dtype=complex))


def test_nmse_scale_invariant(rng):
    truth = rng.normal(size=50) + 1j * rng.normal(size=50)
    est = truth + 0.1 * (rng.normal(size=50) + 1j * rng.normal(size=50))
    assert nmse(3.7 * est, 3.7 * truth) == pytest.approx(nmse(est, truth))


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

def test_ball_grid_default_size():
    # 0.1 m spacing inside the unit ball
    assert len(ball_grid(1.0, 0.1)) == 4169


@pytest.mark.parametrize("scale", [1e-3, 0.3, 0.7, 1.0, 3.0, 7.0, 1e3])
def test_ball_grid_keeps_its_outer_shell_at_any_scale(scale):
    # 0.7 / 0.07 and 3 / (0.1 * 3) are 9.999999999999998, whose floor
    # dropped the 6 axis points of the outer shell
    assert len(ball_grid(scale, 0.1 * scale)) == 4169


def test_ball_grid_within_radius():
    pts = ball_grid(0.7, 0.2)
    assert np.all(np.linalg.norm(pts, axis=1) <= 0.7 + 1e-12)


def test_plane_grid_size_and_plane():
    pts = plane_grid("xz", extent=2.0, spacing=0.5, offset=0.3)
    n = math.ceil(2.0 / 0.5) + 1
    assert len(pts) == n * n
    assert np.allclose(pts[:, 1], 0.3)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_config_missing_estimator():
    cfg = _base_config()
    del cfg["estimator"]
    with pytest.raises(ConfigError, match="estimator"):
        ScenarioConfig.from_dict(cfg)


def test_config_bad_estimator():
    with pytest.raises(ConfigError, match="estimator"):
        ScenarioConfig.from_dict(_base_config(estimator="nope"))


def test_config_empty_frequencies():
    with pytest.raises(ConfigError, match="frequencies"):
        ScenarioConfig.from_dict(_base_config(frequencies=[]))


def test_config_negative_frequency():
    with pytest.raises(ConfigError, match=r"frequencies\[1\]"):
        ScenarioConfig.from_dict(_base_config(frequencies=[100.0, -5.0]))


def test_config_bad_field_type():
    with pytest.raises(ConfigError, match="field.type"):
        ScenarioConfig.from_dict(_base_config(field={"type": "wibble"}))


def test_config_point_source_needs_position():
    with pytest.raises(ConfigError, match="field.position"):
        ScenarioConfig.from_dict(_base_config(field={"type": "point_source"}))


def test_config_defaults():
    cfg = ScenarioConfig.from_dict(_base_config())
    assert cfg.c == 340.65
    assert cfg.snr_db == 30.0
    assert cfg.trials == 2
    assert cfg.reg == 1e-3
    assert cfg.order == 7 and cfg.order_n0 == 7


def test_config_explicit_mic_list_reads_every_key():
    # the explicit form of a first-order spherical array builds the same mics
    ref = spherical_array(5, 0.5, kind="first_order", a=0.3).mics
    mics = [{"pos": p.tolist(), "kind": "first_order", "y": y.tolist(), "a": 0.3}
            for p, y in zip(ref.pos, ref.axes)]
    cfg = ScenarioConfig.from_dict(
        _base_config(estimator="DM-infinite", array={"mount": "open", "mics": mics}))
    assert cfg.array.mount == "open"
    got = cfg.array.mics
    assert np.array_equal(got.a, np.full(12, 0.3)) and np.array_equal(got.pos, ref.pos)
    assert np.allclose(got.axes, ref.axes) and np.array_equal(got.b, 0.7 * got.axes)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_run_sweep_records_sorted_and_seeded():
    cfg = ScenarioConfig.from_dict(
        _base_config(frequencies=[300.0, 100.0], trials=3)
    )
    records = run_sweep(cfg)
    assert len(records) == 6
    keys = [(r.frequency, r.trial) for r in records]
    assert keys == sorted(keys)
    for r in records:
        assert r.seed == cfg.seed + r.trial
        assert r.nmse_db <= 0.0
    # per-frequency mean is consistent
    for f in (100.0, 300.0):
        group = [r for r in records if r.frequency == f]
        assert group[0].nmse_mean_db == pytest.approx(
            np.mean([r.nmse_db for r in group])
        )


def test_sweep_deterministic_csv():
    cfg_dict = _base_config()
    a = sweep_csv(run_sweep(ScenarioConfig.from_dict(cfg_dict)))
    b = sweep_csv(run_sweep(ScenarioConfig.from_dict(json.loads(json.dumps(cfg_dict)))))
    assert a == b


def test_sweep_high_snr_beats_low_snr():
    # Accuracy at 120 dB SNR must be far better than at 0 dB SNR
    hi = run_sweep(
        ScenarioConfig.from_dict(_base_config(snr_db=120.0, frequencies=[50.0], trials=1))
    )[0]
    lo = run_sweep(
        ScenarioConfig.from_dict(_base_config(snr_db=0.0, frequencies=[50.0], trials=1))
    )[0]
    assert hi.nmse_db < -40.0
    assert hi.nmse_db < lo.nmse_db - 20.0


FIELDS = {
    "plane_wave": {"type": "plane_wave", "direction": [0.3, -0.5, 0.8]},
    "point_source": {"type": "point_source", "position": [1.1, 0.9, -0.7]},
}
# Every estimator with each mic kind it allows.
ESTIMATOR_KINDS = [
    ("BM-omni", "omni"), ("BM-first", "first_order"), ("BM-rigid", "omni"),
    ("DM-finite", "omni"), ("DM-finite", "first_order"),
    ("DM-infinite", "omni"), ("DM-infinite", "first_order"),
]


def _oracle_config(estimator, kind, field):
    return ScenarioConfig.from_dict(_base_config(
        estimator=estimator, frequencies=[150.0, 420.0], trials=3, seed=5,
        array={"type": "spherical", "t": 5, "radius": 0.5, "kind": kind},
        field=field, order=2, order_n0=3, snr_db=25.0, directivity_a=0.4,
        origin=[0.05, -0.02, 0.03] if estimator == "DM-finite" else [0.0, 0.0, 0.0],
    ))


def _reference_nmse(cfg, kind, fs):
    """NMSE per (frequency, trial), one trial at a time from the public
    primitives, for the field spec `fs` as configured."""
    grid = ball_grid(cfg.eval_radius, cfg.eval_spacing)
    mics = cfg.array.mics
    pos = mics.pos
    one_mics = [Mics(p, kind, p, cfg.array.mics.a[0]) for p in pos]
    norms = np.linalg.norm(pos, axis=1)
    out = []
    for f in cfg.frequencies:
        k = 2.0 * math.pi * f / cfg.c
        rigid_order = math.ceil(k * 0.5) + 20
        if fs["type"] == "plane_wave":
            d = np.asarray(fs["direction"], float)
            d = d / np.linalg.norm(d)
            truth = plane_wave(grid, d, k)
            clean = np.array([observe_plane_wave(m, d, k) for m in one_mics])
            incident = plane_wave_coeffs(rigid_order, d).coeffs
        else:
            src = np.asarray(fs["position"], float)
            truth = green(grid, src, k)
            clean = np.array([observe_point_source(m, src, k) for m in one_mics])
            incident = singular_swf_matrix(rigid_order, src, k)
        if cfg.array.mount == "rigid":
            clean = harmonic_rigid_sphere_observation(incident, rigid_order, pos / 0.5, k, 0.5)
        for t in range(cfg.trials):
            s = add_noise(clean, cfg.snr_db, np.random.default_rng(cfg.seed + t))
            if cfg.estimator.startswith("BM-"):
                kind = {"BM-omni": "omni", "BM-first": "first_order",
                        "BM-rigid": "rigid"}[cfg.estimator]
                cset = estimate_coeffs(s, pos / norms[:, None], kind, k, norms.mean(),
                                       cfg.order, a=cfg.array.mics.a[0])
                est = regular_swf_matrix(cfg.order, grid, k) @ cset.coeffs
            elif cfg.estimator == "DM-finite":
                B = build_observation_matrix(mics, cfg.origin, cfg.order_n0, k)
                c = solve_tikhonov(B, s, cfg.reg)
                est = regular_swf_matrix(cfg.order_n0, grid - cfg.origin, k) @ c
            else:
                alpha = solve_kernel(kernel_matrix(mics, k), s, cfg.reg)
                est = representer_matrix(mics, grid, k) @ alpha
            out.append(nmse(est, truth))
    return out


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("estimator, kind", ESTIMATOR_KINDS)
def test_sweep_matches_per_trial_reference(estimator, kind, field):
    cfg = _oracle_config(estimator, kind, FIELDS[field])
    records = run_sweep(cfg)
    ref = _reference_nmse(cfg, kind, FIELDS[field])
    assert len(records) == len(ref) == 6
    for r, want in zip(records, ref):
        assert abs(r.nmse_db - want) <= 1e-9
    for f in cfg.frequencies:
        group = [r.nmse_db for r in records if r.frequency == f]
        assert all(r.nmse_mean_db == np.mean(group) for r in records if r.frequency == f)


def _grid_harmonics_count(monkeypatch, cfg):
    """The directions of the harmonic_rows calls on blocks of grid points,
    summed over a sweep."""
    sizes = _count_grid_harmonics(monkeypatch)
    run_sweep(cfg)
    monkeypatch.undo()
    return sum(sizes)


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_grid_harmonics_once_per_sweep(monkeypatch, estimator):
    # The grid (515 points, two blocks at order 7) takes its harmonics block
    # by block, each direction once whatever the number of frequencies; the
    # mics' own harmonics are not counted.  DM-infinite's closed-form
    # representers need none at all.
    array = {"type": "spherical", "t": 5, "radius": 0.5}
    if estimator.startswith("DM-"):
        array["kind"] = "first_order"

    def cfg(freqs):
        return ScenarioConfig.from_dict(_base_config(
            estimator=estimator, frequencies=freqs, trials=2, array=array,
            eval_grid={"radius": 0.5, "spacing": 0.1},
        ))

    grid_size = len(ball_grid(0.5, 0.1))
    once = _grid_harmonics_count(monkeypatch, cfg([200.0]))
    assert once == (0 if estimator == "DM-infinite" else grid_size)
    assert _grid_harmonics_count(monkeypatch, cfg([100.0, 200.0, 300.0, 400.0])) == once


def _estimates(est, pts, k, weights):
    """The complex estimates (T, Q) that est.evaluate gives at one k."""
    blocks = est.evaluate(pts, [k], [weights], est.block_rows(weights.shape[1]))
    return np.concatenate([harness._complex(out) for _, _, out in blocks], axis=1)


# (estimator, mic kind, origin, trials, order): each expansion at four
# orders, and the kernel estimate, which has no order, on omni and on
# first-order mics
EVALUATE_CASES = [
    *(pytest.param(estimator, "omni", origin, trials, order,
                   id=f"{estimator}-origin{i}-{trials}-{order}")
      for i, (estimator, origin) in enumerate([("BM-omni", [0.0, 0.0, 0.0]),
                                               ("DM-finite", [0.1, -0.2, 0.05])])
      for trials in (1, 3) for order in (0, 1, 7, 12)),
    *(pytest.param("DM-infinite", kind, [0.1, -0.2, 0.05], trials, None,
                   id=f"DM-infinite-{kind}-{trials}")
      for kind in ("omni", "first_order") for trials in (1, 3)),
]


@pytest.mark.parametrize("estimator, kind, origin, trials, order", EVALUATE_CASES)
def test_evaluate_matches_regular_swf_matrix(rng, estimator, kind, origin, trials, order):
    # the real basis terms and stacked weights give the complex estimate's
    # values: an expansion's at its origin and next to the axis through it
    # too, the kernel's at the mics too
    over = {"BM-omni": {"order": order},
            "DM-finite": {"order_n0": order, "origin": origin}}.get(estimator, {})
    array = {"type": "spherical", "t": 5, "radius": 0.5, "kind": kind}
    est = Estimator(ScenarioConfig.from_dict(_base_config(estimator=estimator, array=array,
                                                          **over)))
    mics = est.cfg.array.mics
    axis = [[1e-9, 0.0, 0.3], [0.0, -1e-12, -0.2], [0.0, 0.0, 0.4], [0.0, 0.0, -0.4]]
    pts = np.vstack([ball_grid(0.5, 0.25), axis, 0.4 * rng.normal(size=(20, 3))]) + origin
    k = 3.7
    if order is None:
        pts = np.vstack([pts, mics.pos])
        basis = representer_matrix(mics, pts, k)
    else:
        basis = regular_swf_matrix(order, pts - origin, k)
    n = basis.shape[1]
    weights = rng.normal(size=(n, trials)) + 1j * rng.normal(size=(n, trials))
    ref = (basis @ weights).T
    assert np.max(np.abs(_estimates(est, pts, k, weights) - ref)) <= 1e-13 * np.max(
        np.abs(ref))


def test_bm_response_table_computed_once_per_sweep(monkeypatch):
    # one radial_response call on the whole frequency list serves the
    # config's check, the fits and the records, however many frequencies
    # (here more than the 64 that a per-frequency cache held); a field dump
    # makes one call for its one k
    calls = []
    orig = harness.radial_response

    def counting(*args, **kwargs):
        calls.append(np.shape(args[2]))
        return orig(*args, **kwargs)

    monkeypatch.setattr(harness, "radial_response", counting)
    freqs = np.linspace(100.0, 400.0, 100).tolist()
    cfg = ScenarioConfig.from_dict(_base_config(
        estimator="BM-first", frequencies=freqs, trials=1,
        array={"type": "spherical", "t": 5, "radius": 0.5}))
    run_sweep(cfg)
    assert 1 <= len(calls) <= 2 and all(shape == (100,) for shape in calls)
    calls.clear()
    _dump(cfg, 300.0, extent=1.0, spacing=0.5)
    assert calls == [(1,)]


@pytest.mark.parametrize("estimator", ["BM-rigid", "DM-finite"])
def test_rigid_response_at_kr_zero_is_a_config_error(estimator):
    # on a tiny rigid sphere k R underflows to 0, where radial_response
    # rejects the rigid kind; the config check names it as a response that
    # is not finite
    array = {"type": "spherical", "t": 5, "radius": 1e-150, "mount": "rigid"}
    with pytest.raises(ConfigError, match=r"^frequencies\[0\]: the radial response A_0 at "
                                          r"kR = 0 \(array.radius, R = 1e-150 m\)"):
        ScenarioConfig.from_dict(_base_config(estimator=estimator, frequencies=[1e-173],
                                              array=array))


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_estimate_field_recovers_a_low_frequency_plane_wave(estimator):
    # the library entry point fits one signal vector at its own k (BM with
    # its one-column response table) and evaluates it at the points given
    cfg = ScenarioConfig.from_dict(_base_config(
        estimator=estimator, order=2, order_n0=2,
        array={"type": "spherical", "t": 5, "radius": 0.5}))
    k = cfg.wavenumbers[0]
    pts = ball_grid(0.3, 0.1)
    vals = estimate_field(cfg, observe_field(cfg.array, cfg.field_spec, k), k, pts)
    assert nmse(vals, harness._truth_eval(cfg.field_spec, pts, k)) < -30.0


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_estimator_freed_without_gc(estimator):
    # a reference cycle through the estimator would hold what it keeps (the
    # analysis matrix) until a gc pass
    array = {"type": "spherical", "t": 5, "radius": 0.5}
    cfg = ScenarioConfig.from_dict(_base_config(estimator=estimator, array=array))
    gc.disable()
    try:
        est = Estimator(cfg)
        A, = harness._bm_response(cfg, [2.0])
        weights = prepare_estimator(est, 2.0, A)(np.ones((12, 1)))
        _estimates(est, ball_grid(0.5, 0.25), 2.0, weights)
        ref = weakref.ref(est)
        del est
        assert ref() is None
    finally:
        gc.enable()


def _count_grid_harmonics(monkeypatch):
    """Record the number of directions of each harmonic_rows call made by
    Estimator.at: those on blocks of points, not on the mics."""
    orig, orig_at = specfun.harmonic_rows, harness.Estimator.at
    inside, sizes = [False], []

    def counting(order, dirs):
        if inside[0]:
            sizes.append(np.size(dirs) // 3)
        return orig(order, dirs)

    def at(self, pts):
        inside[0] = True
        try:
            return orig_at(self, pts)
        finally:
            inside[0] = False

    for mod in [m for name, m in sys.modules.items() if name.startswith("soundfield")]:
        if getattr(mod, "harmonic_rows", None) is orig:
            monkeypatch.setattr(mod, "harmonic_rows", counting)
    monkeypatch.setattr(harness.Estimator, "at", at)
    return sizes


def _count_blocks(monkeypatch):
    """Record the number of points of each block the estimator is evaluated on."""
    orig = harness.Estimator.at
    sizes = []

    def at(self, pts):
        sizes.append(len(pts))
        return orig(self, pts)

    monkeypatch.setattr(harness.Estimator, "at", at)
    return sizes


# A cache budget of 100 points per block at 12 mics (DM-infinite), 18 at
# (7 + 1)^2 = 64 harmonic rows
SMALL_CACHE = 8 * 12 * 100
# 100 points per block at 64 complex values per point ((7 + 1)^2 harmonics)
SMALL_BUDGET = 16 * 64 * 100


def _blocked_config(estimator, frequencies=(150.0, 300.0, 420.0)):
    array = {"type": "spherical", "t": 5, "radius": 0.5}
    if estimator.startswith("DM-"):
        array["kind"] = "first_order"
    return ScenarioConfig.from_dict(_base_config(
        estimator=estimator, frequencies=list(frequencies), trials=3, array=array,
        eval_grid={"radius": 0.5, "spacing": 0.1}, origin=[0.05, -0.02, 0.03],
        field=FIELDS["point_source"]))


def _assert_same_records(one, split):
    assert len(split) == len(one)
    for a, b in zip(one, split):
        assert (a.frequency, a.trial) == (b.frequency, b.trial)
        assert abs(a.nmse_db - b.nmse_db) <= 1e-12
        assert abs(a.nmse_mean_db - b.nmse_mean_db) <= 1e-12
        assert a.min_radial_response == b.min_radial_response or math.isnan(
            a.min_radial_response)


def _check_sweep_in_blocks(monkeypatch, estimator, constant, small):
    """Split the grid by setting the block constant `constant` to `small`:
    that changes only the summation order of the NMSE sums, and each block's
    harmonics are computed once for all frequencies."""
    cfg = _blocked_config(estimator)
    monkeypatch.setattr(harness, "_CACHE_BYTES", harness.BLOCK_BYTES)
    one = run_sweep(cfg)
    monkeypatch.undo()
    monkeypatch.setattr(harness, constant, small)
    blocks = _count_blocks(monkeypatch)
    harmonics = _count_grid_harmonics(monkeypatch)
    split = run_sweep(cfg)
    grid_size = len(ball_grid(cfg.eval_radius, cfg.eval_spacing))
    assert len(blocks) >= 3 and sum(blocks) == grid_size
    assert harmonics == ([] if estimator == "DM-infinite" else blocks)
    assert len(one) == 9
    _assert_same_records(one, split)


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_sweep_in_blocks_matches_one_block(monkeypatch, estimator):
    _check_sweep_in_blocks(monkeypatch, estimator, "_CACHE_BYTES", SMALL_CACHE)


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_sweep_in_budget_blocks_matches_one_block(monkeypatch, estimator):
    # the budget rule splits the grid with the cache rule at its default: the
    # rule that keeps 32768-trial sweeps at 64-point blocks
    _check_sweep_in_blocks(monkeypatch, estimator, "BLOCK_BYTES", SMALL_BUDGET)


@pytest.mark.parametrize("estimator, array", [
    ("BM-omni", {"type": "spherical", "t": 7, "radius": 1.0}),
    ("DM-infinite", {"type": "spherical", "t": 7, "radius": 1.0, "kind": "first_order"}),
])
def test_sweep_memory_is_bounded_by_the_block(estimator, array):
    # On the default grid (4169 points) a sweep's peak is a few of a block's
    # per-point arrays and a few grid-sized coordinate arrays: less than
    # one grid-wide array of the (7+1)^2 harmonic rows or the 64 mic distances
    cfg = ScenarioConfig.from_dict(_base_config(
        estimator=estimator, order=7, trials=10, array=array, frequencies=[200.0, 400.0],
        eval_grid={"radius": 1.0, "spacing": 0.1}))
    grid = ball_grid(1.0, 0.1)
    bound = 6 * harness._CACHE_BYTES + 3 * grid.nbytes
    assert len(cfg.array.mics) == 64 and bound < 8 * 64 * len(grid)
    run_sweep(cfg)  # cached responses and tables
    tracemalloc.start()
    try:
        run_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, peak / bound


def test_off_centre_sweep_memory_holds_radial_tables_to_the_budget(monkeypatch):
    # About an off-centre origin nearly every point of the default grid has
    # its own radius, so one radial table of the whole grid at 20 frequencies
    # would outgrow the (here 1 MB) budget; the tables and their Bessel
    # evaluation are held to it
    monkeypatch.setattr(harness, "BLOCK_BYTES", 2**20)
    origin = [0.0123, -0.0371, 0.0257]
    cfg = ScenarioConfig.from_dict(_base_config(
        estimator="DM-finite", order_n0=7, trials=10, origin=origin,
        array={"type": "spherical", "t": 7, "radius": 1.0},
        frequencies=list(np.linspace(100.0, 500.0, 20)),
        eval_grid={"radius": 1.0, "spacing": 0.1}))
    grid = ball_grid(1.0, 0.1)
    whole = 8 * 8 * 20 * len(np.unique(np.linalg.norm(grid - origin, axis=1)))
    bound = harness.BLOCK_BYTES + 6 * harness._CACHE_BYTES + 3 * grid.nbytes
    assert bound < whole
    run_sweep(cfg)  # cached responses and tables
    tracemalloc.start()
    try:
        run_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, peak / bound


def _count_radial_tables(monkeypatch):
    """Record the degree and the arguments of each sph_jn_all call the
    harness makes."""
    orig, args = harness.sph_jn_all, []

    def counting(nmax, x, *rest):
        args.append((nmax, np.array(x)))
        return orig(nmax, x, *rest)

    monkeypatch.setattr(harness, "sph_jn_all", counting)
    return args


# A table of (7 + 1) degrees takes 8 * 8 bytes per radius and k.  With
# blocks of 18 points (SMALL_CACHE) at 20 k, a quarter of the budget holds
# the tables of 4 blocks; with blocks of 100 points (SMALL_BUDGET) it holds
# one block's at 4 of the k.
@pytest.mark.parametrize("cache, budget, k_per_table", [
    (SMALL_CACHE, 4 * 4 * 64 * 20 * 18, {20}),
    (None, SMALL_BUDGET, {4}),
], ids=["spans", "chunks"])
@pytest.mark.parametrize("estimator", ESTIMATORS[:4])
def test_radial_tables_stay_within_the_budget(monkeypatch, estimator, cache, budget,
                                              k_per_table):
    cfg = _blocked_config(estimator, np.linspace(100.0, 420.0, 20))
    one = run_sweep(cfg)
    if cache:
        monkeypatch.setattr(harness, "_CACHE_BYTES", cache)
    monkeypatch.setattr(harness, "BLOCK_BYTES", budget)
    args = _count_radial_tables(monkeypatch)
    harmonics = _count_grid_harmonics(monkeypatch)
    split = run_sweep(cfg)
    assert len(args) >= 3
    assert max(8 * (nmax + 1) * x.size for nmax, x in args) <= budget // 4
    assert {len(x) for _, x in args} == k_per_table
    assert sum(harmonics) == len(ball_grid(0.5, 0.1))
    _assert_same_records(one, split)


@pytest.mark.parametrize("frequencies", [[300.0], [100.0, 200.0, 300.0, 420.0]])
@pytest.mark.parametrize("estimator", ESTIMATORS[:4])
def test_expansion_sweep_takes_one_radial_bessel_call(monkeypatch, estimator, frequencies):
    # j_nu(k r) on the grid's distinct radii about the origin, at every
    # frequency in one call, however many blocks the grid takes, when that
    # table fits the budget
    cfg = _blocked_config(estimator, frequencies)
    origin = np.zeros(3) if estimator.startswith("BM-") else cfg.origin
    radii = np.unique(np.linalg.norm(ball_grid(0.5, 0.1) - origin, axis=1))
    args = _count_radial_tables(monkeypatch)
    monkeypatch.setattr(harness, "_CACHE_BYTES", SMALL_CACHE)
    blocks = _count_blocks(monkeypatch)
    run_sweep(cfg)
    assert len(blocks) >= 3
    (nmax, x), = args
    assert nmax == (cfg.order if estimator.startswith("BM-") else cfg.order_n0)
    assert np.array_equal(x, np.multiply.outer(cfg.wavenumbers, radii))


# 64-point blocks of the (7 + 1) degrees of _blocked_config at 8 k: 8 * 8 * 64
# bytes per block and k, so a quarter of these budgets holds the table (and
# the test counts the tables) of the whole grid, of a span of 4 of its 9
# blocks, of one block at 4 of the k and of one block at one k
TABLE_REGIMES = [(harness.BLOCK_BYTES, 1, {8}), (2**19, 3, {8}), (2**16, 18, {4}),
                 (2**13, 72, {1})]


@pytest.mark.parametrize("estimator", ["BM-first", "BM-omni", "DM-finite", "DM-infinite"])
def test_evaluate_is_bitwise_the_same_in_every_table_regime(monkeypatch, estimator):
    # the block size is fixed, so only the radial tables change: each
    # j_nu(k r) is the same sph_jn_all value in any table, and every
    # product and sum the same operation on the same numbers
    cfg = _blocked_config(estimator, np.linspace(100.0, 420.0, 8))
    est = Estimator(cfg)
    noise = harness._noise(cfg, range(cfg.trials))
    weights = [harness._fit(est, k, A, noise) for k, A in zip(cfg.wavenumbers, cfg.responses)]
    grid = ball_grid(0.5, 0.1)
    assert len(grid) // 64 == 8
    estimates = []
    for budget, tables, k_per_table in TABLE_REGIMES:
        monkeypatch.setattr(harness, "BLOCK_BYTES", budget)
        args = _count_radial_tables(monkeypatch)
        estimates.append(list(est.evaluate(grid, cfg.wavenumbers, weights, 64)))
        if estimator == "DM-infinite":
            assert args == []
        else:
            assert len(args) == tables and {len(x) for _, x in args} == k_per_table
        monkeypatch.undo()
    first = estimates[0]
    assert len(first) == 9 * 8
    for other in estimates[1:]:
        assert [(b, i) for b, i, _ in other] == [(b, i) for b, i, _ in first]
        assert all(np.array_equal(a, b) for (_, _, a), (_, _, b) in zip(first, other))


# ---------------------------------------------------------------------------
# Field dumps
# ---------------------------------------------------------------------------

def _dump(cfg, frequency, **kwargs):
    out = io.StringIO()
    flags = dict(plane="xy", extent=2.0, spacing=0.1, offset=0.0, include_estimate=True,
                 trial=0)
    dump_field(cfg, frequency, out, **dict(flags, **kwargs))
    return out.getvalue()


def test_dump_field_columns_and_norm_err():
    cfg = ScenarioConfig.from_dict(_base_config())
    text = _dump(cfg, 200.0, plane="xy", extent=1.0, spacing=0.5)
    lines = text.strip().split("\n")
    assert lines[0] == "x,y,z,re_true,im_true,re_est,im_est,norm_err"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 9
    truth = np.array([float(r[3]) + 1j * float(r[4]) for r in rows])
    est = np.array([float(r[5]) + 1j * float(r[6]) for r in rows])
    mean_pow = np.mean(np.abs(truth) ** 2)
    for i, r in enumerate(rows):
        assert float(r[7]) == pytest.approx(
            abs(est[i] - truth[i]) ** 2 / mean_pow, rel=1e-12
        )


def test_dump_field_truth_only_empty_est_columns():
    cfg = ScenarioConfig.from_dict(_base_config())
    text = _dump(cfg, 200.0, include_estimate=False, extent=1.0, spacing=0.5)
    for ln in text.strip().split("\n")[1:]:
        parts = ln.split(",")
        assert parts[5] == "" and parts[6] == "" and parts[7] == ""


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_dump_field_in_blocks_matches_one_block(monkeypatch, estimator):
    cfg = _blocked_config(estimator)
    kwargs = {"plane": "xz", "extent": 1.0, "spacing": 0.1, "offset": 0.05}
    monkeypatch.setattr(harness, "_CACHE_BYTES", harness.BLOCK_BYTES)
    one = np.array([ln.split(",") for ln in _dump(cfg, 300.0, **kwargs).splitlines()[1:]],
                   dtype=float)
    monkeypatch.setattr(harness, "_CACHE_BYTES", SMALL_CACHE // 4)
    blocks = _count_blocks(monkeypatch)
    harmonics = _count_grid_harmonics(monkeypatch)
    text = _dump(cfg, 300.0, **kwargs)
    split = np.array([ln.split(",") for ln in text.splitlines()[1:]], dtype=float)
    assert len(blocks) >= 3 and sum(blocks) == len(one) == 121
    assert harmonics == ([] if estimator == "DM-infinite" else blocks)
    assert text.splitlines()[0] == "x,y,z,re_true,im_true,re_est,im_est,norm_err"
    scale = np.max(np.abs(one), axis=0)
    assert np.all(np.abs(split - one) <= 1e-12 * scale)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_sweep_and_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_base_config()))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli_main(["sweep", str(cfg), "-o", str(out1)]) == 0
    assert cli_main(["sweep", str(cfg), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header.startswith("frequency_hz,estimator,trial,seed,nmse_db")


def test_cli_commands_in_one_process_match_separate_runs(tmp_path):
    # the parser is built once per process: each command, run after the
    # others in this process, writes what it writes in a process of its own
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_base_config(estimator="BM-omni", order=2)))
    field = ["field", str(cfg), "--freq", "200", "--extent", "1.0", "--spacing", "0.5"]
    runs = {"field-flags": field + ["--plane", "xz", "--offset", "0.1", "--truth-only"],
            "field": field, "sweep": ["sweep", str(cfg)],
            "forbidden": ["forbidden", "--radius", "0.5", "--numax", "3", "--fmax", "1000"]}
    for name, argv in runs.items():
        proc = subprocess.run([sys.executable, "-m", "soundfield.cli", *argv,
                               "-o", str(tmp_path / f"{name}-alone.csv")],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    for name, argv in runs.items():
        assert cli_main(argv + ["-o", str(tmp_path / f"{name}.csv")]) == 0
    for name in runs:
        assert (tmp_path / f"{name}.csv").read_bytes() == (
            tmp_path / f"{name}-alone.csv").read_bytes()


def test_cli_invalid_config_exit_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(_base_config(estimator="bogus")))
    assert cli_main(["sweep", str(cfg)]) == 2


@pytest.mark.parametrize("estimator", ["DM-finite", "BM-omni"])
@pytest.mark.parametrize("key", ["order", "order_n0", "trials"])
@pytest.mark.parametrize("value", [-1, "7", 2.5, True, None])
def test_cli_integer_fields_exit_2(tmp_path, capsys, estimator, key, value):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(_base_config(estimator=estimator, **{key: value})))
    assert cli_main(["sweep", str(cfg)]) == 2
    assert f"config error: {key}:" in capsys.readouterr().err


def _mic_list(mount, kinds, a=0.5):
    """The 12-mic t = 5 array of radius 0.5 as an explicit list; omni except
    for the mics in `kinds` ({index: kind}), which point outward and take
    omni weight `a` when first-order."""
    dirs = load_t_design(5)
    mics = [{"pos": [0.5 * float(v) for v in x]} for x in dirs]
    for i, kind in kinds.items():
        mics[i].update(kind=kind, y=[float(v) for v in dirs[i]],
                       **({"a": a} if kind == "first_order" else {}))
    return {"mount": mount, "radius": 0.5, "mics": mics}


def _first_order_list(a=0.9, changes=()):
    """The outward first-order t = 5 list with omni weight `a`, then mic i's
    entries updated by ``dict(changes)[i]``."""
    array = _mic_list("open", {i: "first_order" for i in range(12)}, a=a)
    for i, entries in dict(changes).items():
        array["mics"][i].update(entries)
    return array


def _moved_mic(array, i, scale):
    """`array` with mic i's position scaled by `scale`."""
    array = dict(array)
    array["mics"] = [dict(m) for m in array["mics"]]
    array["mics"][i]["pos"] = [scale * v for v in array["mics"][i]["pos"]]
    return array


def _near_field_config(estimator, kind, frequency, snr_db):
    """The t = 5 array of radius 0.5 of directional mics, `directivity_a`
    0.5, and a point source at [2, 1, 0.5]."""
    return _base_config(estimator=estimator, frequencies=[frequency], snr_db=snr_db,
                        directivity_a=0.5,
                        array={"type": "spherical", "t": 5, "radius": 0.5, "kind": kind},
                        field={"type": "point_source", "position": [2.0, 1.0, 0.5]})


ANC_BASE = {"frequency": 700, "primary_source": [3.0, 0.0, 0.0], "iterations": 5}
SYNTH_BASE = {"frequencies": [100, 300], "eta": 0.001, "reg": 0.001}


@pytest.mark.parametrize(
    "command, config, field",
    [
        ("anc", dict(ANC_BASE, iterations=0), "iterations"),
        ("anc", dict(ANC_BASE, iterations="x"), "iterations"),
        ("anc", dict(ANC_BASE, iterations=2.5), "iterations"),
        ("anc", dict(ANC_BASE, num_error_mics=10), "num_error_mics"),
        ("anc", dict(ANC_BASE, primary_source=[1, 2]), "primary_source"),
        ("anc", [ANC_BASE], "top level"),
        ("anc", dict(ANC_BASE, frequency=-5), "frequency"),
        ("anc", dict(ANC_BASE, reg=-1), "reg"),
        ("synth", dict(SYNTH_BASE, frequencies=["a"]), "frequencies[0]"),
        ("synth", dict(SYNTH_BASE, frequencies=[-100]), "frequencies[0]"),
        ("synth", dict(SYNTH_BASE, quad_spacing=0), "quad_spacing"),
        ("synth", dict(SYNTH_BASE, direction=[0, 0, 0]), "direction"),
        ("synth", [SYNTH_BASE], "top level"),
        ("anc", dict(ANC_BASE, primary_source=[0.025, 0.025, 0.0]), "primary_source"),
        ("anc", dict(ANC_BASE, primary_source=[0.5, 0.52, 0.04]), "primary_source"),
        ("sweep", _base_config(snr_db="x"), "snr_db"),
        ("sweep", _base_config(c=0), "c"),
        ("sweep", _base_config(seed=1.5), "seed"),
        ("sweep", _base_config(seed=-1), "seed"),
        ("sweep", _base_config(eval_grid={"radius": -1}), "eval_grid.radius"),
        ("sweep", _base_config(eval_grid={"spacing": 0}), "eval_grid.spacing"),
        ("sweep", _base_config(eval_grid=[0.5]), "eval_grid"),
        ("sweep", _base_config(frequencies=[True]), "frequencies[0]"),
        ("sweep", _base_config(reg=-1), "reg"),
        ("sweep", _base_config(directivity_a=1.5), "directivity_a"),
        ("sweep", _base_config(origin=["a", 0, 0]), "origin[0]"),
        ("sweep", [_base_config()], "top level"),
        ("sweep", _base_config(array={"mics": [{"pos": [0.1, 0, 0]}]}), "array"),
        ("sweep", _base_config(array={"mount": "open", "mics": []}), "array"),
        ("sweep", _base_config(array="x"), "array"),
        # unknown keys, at every level the parser reads
        ("sweep", _base_config(trails=3), "trails: unknown key"),
        ("sweep", _base_config(field_spec=FIELDS["plane_wave"]), "field_spec: unknown key"),
        ("sweep", _base_config(eval_grid={"radius": 0.5, "spacng": 0.1}),
         "eval_grid.spacng: unknown key"),
        ("sweep", _base_config(field=dict(FIELDS["plane_wave"], position=[2, 0, 0])),
         "field.position: unknown key"),
        ("sweep", _base_config(array={"type": "spherical", "t": 5, "knd": "omni"}),
         "array.knd: unknown key"),
        ("synth", dict(SYNTH_BASE, etta=0.1), "etta: unknown key"),
        ("anc", dict(ANC_BASE, iteration=5), "iteration: unknown key"),
        # the field spec
        ("sweep", _base_config(field="x"), "field: must be a JSON object"),
        ("sweep", _base_config(field=None), "field: must be a JSON object"),
        ("sweep", _base_config(field={"type": "plane_wave", "direction": ["a", 0, 0]}),
         "field.direction[0]"),
        ("sweep", _base_config(field={"type": "plane_wave", "direction": [0, 0]}),
         "field.direction"),
        ("sweep", _base_config(field={"type": "point_source", "position": [0.1, 0, 0]}),
         "field.position"),
        ("sweep", _base_config(field={"type": "point_source", "position": [0, 0.5, 0]}),
         "field.position"),
        # spherical array values
        ("sweep", _base_config(array={"type": "spherical", "t": 5, "radius": -0.5}),
         "array.radius: must be a positive number"),
        ("sweep", _base_config(array={"type": "spherical", "t": "5"}), "array.t: must be one of"),
        ("sweep", _base_config(array={"type": "spherical", "t": 4}), "array.t: must be one of"),
        ("sweep", _base_config(array={"type": "spherical", "t": 5, "kind": "cardioid"}),
         "array.kind: must be one of"),
        ("sweep", _base_config(array={"type": "spherical", "t": 5, "mount": "floating"}),
         "array.mount: must be one of"),
        # explicit mic lists, key by key
        ("sweep", _base_config(array={"mount": "open", "mics": [
            {"pos": [0.5, 0, 0], "kidn": "x"}, {"pos": [0, 0.5, 0]}]}),
         "array.mics[0].kidn: unknown key"),
        ("sweep", _base_config(array={"mount": "open", "radus": 1, "mics": [
            {"pos": [0.5, 0, 0]}]}), "array.radus: unknown key"),
        ("sweep", _base_config(array={"mount": "open", "mics": [
            {"pos": [0.5, 0, 0]}, {"pos": [0, 0.5]}]}), "array.mics[1].pos: must be a list"),
        ("sweep", _base_config(array={"mount": "open", "mics": [
            {"pos": [0.5, 0, 0], "kind": "cardioid"}]}), "array.mics[0].kind: must be one of"),
        ("sweep", _base_config(array={"mount": "open", "mics": [
            {"pos": [0.5, 0, 0], "kind": "first_order", "y": [1, 0, 0]}]}),
         "array.mics[0].a: required by first_order mics"),
        ("sweep", _base_config(array={"mount": "open", "mics": [
            {"pos": [0.5, 0, 0], "kind": "first_order", "y": [1, 0, 0], "a": 2}]}),
         "array.mics[0].a: must be a number in [0, 1]"),
        ("sweep", _base_config(array={"mount": "open", "mics": [
            {"pos": [0.5, 0, 0], "kind": "bidirectional", "y": [0, 0, 0]}]}),
         "array.mics[0].y: must be a nonzero 3-vector"),
        ("sweep", _base_config(array={"mount": "open", "mics": ["x"]}),
         "array.mics[0]: must be a JSON object"),
        ("sweep", _base_config(array={"mount": "open", "mics": {"pos": [0.5, 0, 0]}}),
         "array.mics: must be a non-empty list"),
        ("sweep", _base_config(array={"mount": "open", "radius": 0, "mics": [
            {"pos": [0.5, 0, 0]}]}), "array.radius: must be a positive number"),
        # a point source on a mic, exactly or within 1e-9 |position|
        ("sweep", _base_config(array={"mount": "open", "mics": [
            {"pos": [2, 0, 0]}, {"pos": [0, 0.5, 0]}, {"pos": [0, 0, 0.5]}]},
            field={"type": "point_source", "position": [2, 0, 0]}),
         "field.position: must lie away from every mic, not within 2e-09 m of mic 0"),
        ("sweep", _base_config(array={"type": "spherical", "t": 5, "radius": 2.0},
                               field={"type": "point_source",
                                      "position": [float(v) * 2.0 + 1e-9
                                                   for v in load_t_design(5)[3]]}),
         "field.position: must lie away from every mic, not within 2e-09 m of mic 3"),
        # a missing y or a
        ("sweep", _base_config(array={"mount": "open", "mics": [
            {"pos": [0.5, 0, 0], "kind": "first_order", "a": 0.5}]}),
         "array.mics[0].y: required by first_order mics"),
        ("sweep", _base_config(array={"mount": "open", "mics": [
            {"pos": [0.5, 0, 0]}, {"pos": [0, 0.5, 0], "kind": "bidirectional"}]}),
         "array.mics[1].y: required by bidirectional mics"),
        # keys a mic's kind does not take
        ("sweep", _base_config(array={"mount": "open", "mics": [
            {"pos": [0.5, 0, 0], "a": 0.5}]}), "array.mics[0].a: not taken by omni mics"),
        ("sweep", _base_config(array={"mount": "open", "mics": [
            {"pos": [0.5, 0, 0], "y": [1, 0, 0]}]}), "array.mics[0].y: not taken by omni mics"),
        ("sweep", _base_config(array={"mount": "open", "mics": [
            {"pos": [0.5, 0, 0], "kind": "bidirectional", "y": [1, 0, 0], "a": 0.5}]}),
         "array.mics[0].a: not taken by bidirectional mics"),
        # vectors whose squared norm underflows to 0 or overflows
        ("sweep", _base_config(array={"mount": "open", "mics": [
            {"pos": [0.5, 0, 0], "kind": "bidirectional", "y": [1e-200, 0, 0]}]}),
         "array.mics[0].y: must be a nonzero 3-vector"),
        ("sweep", _base_config(array={"mount": "open", "mics": [
            {"pos": [0.5, 0, 0], "kind": "bidirectional", "y": [1e300, 1e300, 0]}]}),
         "array.mics[0].y: must be a nonzero 3-vector"),
        ("sweep", _base_config(field={"type": "plane_wave", "direction": [1e-200, 0, 0]}),
         "field.direction: must be a nonzero 3-vector"),
        ("synth", dict(SYNTH_BASE, direction=[1e-200, 0, 0]), "direction: must be a nonzero"),
        # the rigid mount: omni mics on the sphere of the given radius
        ("sweep", _base_config(array={"mount": "rigid", "mics": [{"pos": [0.5, 0, 0]}]}),
         "array.radius: required for the rigid mount"),
        ("sweep", _base_config(array={"type": "spherical", "t": 5, "mount": "rigid",
                                      "kind": "first_order"}),
         "array.kind: the rigid mount models omni mics only, not 'first_order'"),
        ("sweep", _base_config(array=_mic_list("rigid", {2: "bidirectional"})),
         "array.mics[2].kind: the rigid mount models omni mics only, not 'bidirectional'"),
        ("sweep", _base_config(array=_moved_mic(_mic_list("rigid", {}), 7, 1.0 + 1e-8)),
         "array.mics[7].pos: the rigid mount models mics on one sphere"),
        # positions and radii whose double squares to inf
        ("sweep", _base_config(array={"mount": "open", "mics": [
            {"pos": [1e200, 0, 0]}, {"pos": [0, 0.5, 0]}]}),
         "array.mics[0].pos: must have a norm below about 6.7e153"),
        ("sweep", _base_config(array={"type": "spherical", "t": 5, "radius": 1e200}),
         "array.radius: must be a positive number below about 6.7e153"),
        ("sweep", _base_config(array={"mount": "rigid", "radius": 1e200, "mics": [
            {"pos": [0.5, 0, 0]}]}), "array.radius: must be a positive number below"),
        ("sweep", _base_config(field={"type": "point_source", "position": [1e200, 0, 0]}),
         "field.position: must have a norm below"),
        ("sweep", _base_config(field={"type": "plane_wave", "direction": [1e154, 0, 0]}),
         "field.direction: must have a norm below"),
        ("sweep", _base_config(origin=[1e200, 0, 0]), "origin: must have a norm below"),
        ("anc", dict(ANC_BASE, primary_source=[1e200, 0, 0]),
         "primary_source: must have a norm below"),
        # a point source inside or on the rigid sphere, either form
        ("sweep", _base_config(estimator="BM-rigid",
                               array={"type": "spherical", "t": 7, "radius": 1.0},
                               field={"type": "point_source", "position": [0.8, 0, 0]}),
         "field.position: must lie outside the rigid sphere (radius 1 m)"),
        ("sweep", _base_config(array=_mic_list("rigid", {}), eval_grid={"radius": 0.4},
                               field={"type": "point_source", "position": [0, 0.3, 0.4]}),
         "field.position: must lie outside the rigid sphere (radius 0.5 m)"),
        # sizes beyond the 32 MB block budget, rejected before they are allocated
        ("synth", dict(SYNTH_BASE, quad_spacing=1e-308),
         "quad_spacing: too fine; the quadrature points times the control points"),
        ("anc", dict(ANC_BASE, iterations=4 * 10**9),
         "iterations: must be an integer in [1, 2097152]"),
        ("anc", dict(ANC_BASE, num_error_mics=4 * 10**9),
         "num_error_mics: must be a positive multiple of 4 up to 1448"),
        # scalars whose run overflows, divides by 0 or meets a singular matrix
        ("sweep", _base_config(snr_db=-3084), "snr_db: must be a number >= -300 (dB)"),
        ("synth", dict(SYNTH_BASE, eta=1e-308), "eta: must be a number >= 1e-9"),
        ("anc", dict(ANC_BASE, reg=1e100), "reg: must be a number in [0, 1e15]"),
        ("anc", dict(ANC_BASE, outward_shift=1e308),
         "frequency: k r must be at most 2000, not inf, at the farthest configured point "
         "(outward_shift, 1e+308 m)"),
        # wavenumbers: not finite, k r beyond 2000, a radial response of 0
        ("sweep", _base_config(c=1e-308),
         "frequencies[0]: the wavenumber 2 pi f / c must be a positive finite number"),
        ("synth", dict(SYNTH_BASE, frequencies=[100, 1e308]),
         "frequencies[1]: the wavenumber 2 pi f / c must be a positive finite number"),
        ("sweep", _base_config(array={"type": "spherical", "t": 5, "radius": 6.7e153}),
         "frequencies[0]: k r must be at most 2000, not 2.47e+154, at the farthest configured "
         "point (array.radius, 6.7e+153 m)"),
        ("anc", dict(ANC_BASE, frequency=6.7e153), "frequency: k r must be at most 2000"),
        ("sweep", _base_config(estimator="BM-omni", c=6.7e153),
         "frequencies[0]: the radial response A_3 at kR = 9.37789e-152 (array.radius, "
         "R = 0.5 m) must be finite and nonzero"),
        # the rigid truth's degrees beyond the BM order overflow
        ("sweep", _base_config(estimator="BM-rigid", c=1e30,
                               array={"type": "spherical", "t": 5, "radius": 0.5}),
         "frequencies[0]: the radial response A_"),
        # a point source's observation divides by k d, whose inverse overflows
        # at a subnormal k
        *(("sweep", _base_config(estimator=estimator, frequencies=[1e-308],
                                 field={"type": "point_source", "position": [2.0, 1.0, 0.5]}),
           "frequencies[0]: 1 / (k d) must be finite, not inf at k = 1.84447e-310, for the "
           "distance d = 1.88038 m of field.position from its nearest mic")
          for estimator in ("DM-infinite", "DM-finite")),
        # directional mics observe a point source's near field, up to
        # (1 + 1/(k d)) / (4 pi d): squared and times the noise scale it
        # overflows at 1e-160 Hz, or at 1e-150 Hz with snr_db -300
        *(("sweep", _near_field_config(estimator, kind, frequency, snr_db),
           "frequencies[0]: directional mics' near-field factor (1 + 1/(k d)) / (4 pi d) = ")
          for estimator in ("DM-infinite", "DM-finite")
          for kind in ("first_order", "bidirectional")
          for frequency, snr_db in ((1e-160, 30), (1e-150, -300))),
        # spacings that leave a part cell on the 1 m square
        ("synth", dict(SYNTH_BASE, quad_spacing=0.3), "quad_spacing: must be a number in (0, 1] that divides 1"),
        ("synth", dict(SYNTH_BASE, quad_spacing=0.15), "quad_spacing: must be a number in (0, 1] that divides 1"),
        ("synth", dict(SYNTH_BASE, control_spacing=0.3), "control_spacing: must be a number in (0, 1] that divides 1"),
        ("anc", dict(ANC_BASE, eval_spacing=0.3), "eval_spacing: must be a number in (0, 1] that divides 1"),
    ],
)
def test_cli_experiment_configs_exit_2(tmp_path, capsys, command, config, field):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    assert cli_main([command, str(cfg), "-o", str(tmp_path / "out.csv")]) == 2
    assert f"config error: {field}" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "estimator, array, field",
    [
        ("BM-first", {"type": "spherical", "t": 5, "radius": 0.5, "kind": "omni"}, "array.kind"),
        ("BM-first", _mic_list("open", {}), "array.mics[0].kind"),
        ("BM-first", _mic_list("open", {i: "first_order" for i in range(11)}),
         "array.mics[11].kind"),
        ("BM-omni", {"type": "spherical", "t": 5, "kind": "first_order"}, "array.kind"),
        ("BM-omni", {"type": "spherical", "t": 5, "mount": "rigid"}, "array.mount"),
        ("BM-omni", _mic_list("open", {3: "bidirectional"}), "array.mics[3].kind"),
        ("BM-omni", _mic_list("rigid", {}), "array.mount"),
        ("BM-rigid", {"type": "spherical", "t": 5, "kind": "first_order"}, "array.kind"),
        ("BM-rigid", _mic_list("open", {}), "array.mount"),
        ("BM-rigid", _mic_list("open", {0: "first_order"}), "array.mics[0].kind"),
        # one radial response: one omni weight and outward axes
        ("BM-first", _first_order_list(changes={5: {"a": 0.5}}), "array.mics[5].a"),
        ("BM-first", _first_order_list(changes={0: {"a": 0.5}}), "array.mics[1].a"),
        ("BM-first", _first_order_list(changes={3: {"y": (-load_t_design(5)[3]).tolist()}}),
         "array.mics[3].y"),
        ("BM-first", _first_order_list(changes={7: {"y": [0.0, 0.0, 1.0]}}), "array.mics[7].y"),
        # mics on one sphere about the origin, checked before the axes
        ("BM-omni", _moved_mic(_mic_list("open", {}), 0, 1.3), "array.mics[0].pos"),
        ("BM-omni", _moved_mic(_mic_list("open", {}), 7, 1.0 + 1e-8), "array.mics[7].pos"),
        ("BM-omni", {"mount": "open", "mics": [{"pos": [0.0, 0.0, 0.0]}] * 4},
         "array.mics[0].pos"),
        ("BM-first", _moved_mic(_first_order_list(), 4, 0.0), "array.mics[4].pos"),
        ("BM-first", _moved_mic(_first_order_list(), 2, 0.8), "array.mics[2].pos"),
        # a spherical form's given mount is checked like a list's
        ("BM-rigid", {"type": "spherical", "t": 5, "radius": 0.5, "mount": "open"}, "array.mount"),
    ],
)
def test_cli_bm_estimator_on_unmodelled_array_exit_2(tmp_path, capsys, estimator, array,
                                                     field):
    # a boundary estimator divides by the radial response of one mic kind and
    # mount; on any other array it would report a meaningless NMSE
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(_base_config(estimator=estimator, array=array)))
    assert cli_main(["sweep", str(cfg), "-o", str(tmp_path / "out.csv")]) == 2
    assert f"config error: {field}: {estimator} models" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("estimator, array", [
    ("BM-omni", _mic_list("open", {})),
    ("BM-first", _mic_list("open", {i: "first_order" for i in range(12)})),
    ("BM-rigid", _mic_list("rigid", {})),
    # the spherical form without a mount takes the estimator's
    ("BM-rigid", {"type": "spherical", "t": 5, "radius": 0.5}),
    ("BM-omni", _moved_mic(_mic_list("open", {}), 7, 1.0 + 1e-12)),
])
def test_cli_bm_estimator_on_modelled_array(tmp_path, estimator, array):
    cfg = tmp_path / "ok.json"
    cfg.write_text(json.dumps(_base_config(estimator=estimator, array=array)))
    assert cli_main(["sweep", str(cfg), "-o", str(tmp_path / "out.csv")]) == 0


def test_cli_bm_first_explicit_list_matches_spherical_spec(tmp_path):
    # BM-first divides by the radial response of the mics' own omni weight,
    # so the explicit list with a = 0.9 is the spherical spec at
    # directivity_a 0.9 (the config's default 0.5 plays no part)
    out = {}
    for name, extra in [
        ("list", {"array": _first_order_list(a=0.9)}),
        ("spec", {"array": {"type": "spherical", "t": 5, "radius": 0.5},
                  "directivity_a": 0.9}),
    ]:
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(_base_config(
            estimator="BM-first", order=2, eval_grid={"radius": 0.5, "spacing": 0.1},
            **extra)))
        out[name] = tmp_path / f"{name}.csv"
        assert cli_main(["sweep", str(cfg), "-o", str(out[name])]) == 0
    assert out["list"].read_bytes() == out["spec"].read_bytes()
    row = out["list"].read_text().splitlines()[1].split(",")
    assert float(row[5]) < -20.0


@pytest.mark.parametrize("estimator, kind", [
    ("BM-omni", None), ("BM-first", None), ("BM-rigid", None),
    ("DM-finite", "first_order"), ("DM-infinite", "bidirectional"),
])
def test_cli_spherical_form_is_its_mic_list(tmp_path, estimator, kind):
    # the spherical form is the list of its t-design's mics at its radius,
    # with outward axes, a = directivity_a and the estimator's kind and mount
    # unless it gives them, so both give the same CSV bytes
    model_kind = kind or ("first_order" if estimator == "BM-first" else "omni")
    mics = []
    for d in load_t_design(5):
        mics.append({"pos": (0.5 * d).tolist(), "kind": model_kind})
        if model_kind != "omni":
            mics[-1]["y"] = d.tolist()
        if model_kind == "first_order":
            mics[-1]["a"] = 0.3
    spherical = {"type": "spherical", "t": 5, "radius": 0.5, **({"kind": kind} if kind else {})}
    mount = "rigid" if estimator == "BM-rigid" else "open"
    out = {}
    for name, array in [("spherical", spherical),
                        ("list", {"mount": mount, "radius": 0.5, "mics": mics})]:
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(_base_config(
            estimator=estimator, array=array, frequencies=[150.0, 300.0], directivity_a=0.3,
            order=3, order_n0=3, field={"type": "point_source", "position": [2.0, 1.0, 0.5]},
            eval_grid={"radius": 0.45, "spacing": 0.15})))
        out[name] = tmp_path / f"{name}.csv"
        assert cli_main(["sweep", str(cfg), "-o", str(out[name])]) == 0
    assert out["list"].read_bytes() == out["spherical"].read_bytes()
    assert len(out["list"].read_text().splitlines()) == 5


@pytest.mark.parametrize("frequency", [10.0, 100.0, 150.0])
def test_cli_anc_below_180_hz(tmp_path, frequency):
    # P^H inner P is Hermitian only to about cond(K + reg I) ulps, beyond
    # anc_lms_run's 1e-10 below about 180 Hz; the weighting is made exact
    k = 2.0 * math.pi * frequency / 340.65
    mics = apps.square_boundary_points(1.0, 24, outward_shift=0.03)
    region, cell = apps.square_grid(1.0, 0.05, midpoint=True)
    A = apps.region_weighting(mics, region, cell, k, 1e-3)
    assert np.array_equal(A, A.conj().T)
    cfg = tmp_path / "anc.json"
    cfg.write_text(json.dumps({"frequency": frequency, "iterations": 100}))
    assert cli_main(["anc", str(cfg), "-o", str(tmp_path / "anc.csv")]) == 0


def test_synth_weightings_come_from_one_geometry(monkeypatch):
    # synth builds the quadrature radii once for all its frequencies, and
    # each weighting keeps the bits of a region_weighting call at its k
    built, seen = [], []
    real_rep, real_gen = apps.Representers, apps._region_weightings

    def counting(*args):
        built.append(args)
        return real_rep(*args)

    def recording(points, region_pts, cell, ks, reg):
        for k, W in zip(ks, real_gen(points, region_pts, cell, ks, reg)):
            seen.append((points, region_pts, cell, k, reg, W))
            yield W

    monkeypatch.setattr(apps, "Representers", counting)
    monkeypatch.setattr(apps, "_region_weightings", recording)
    cfg = json.loads((CONFIGS / "synth.json").read_text())
    harness.wpm_experiment(cfg)
    assert len(built) == 1
    assert len(seen) == len(cfg["frequencies"]) == 5
    monkeypatch.undo()
    for points, region_pts, cell, k, reg, W in seen:
        assert np.array_equal(W, apps.region_weighting(points, region_pts, cell, k, reg))


def test_synth_source_distances_come_once_per_run(monkeypatch):
    # synth computes the source distances once and evaluates only
    # exp(ikr) / (4 pi r) at each frequency, with the bits of transfer_matrix
    seen = []
    real = harness._green_of_distance

    def recording(d, k):
        G = real(d, k)
        seen.append((d, k, G))
        return G

    def forbidden(*args):
        raise AssertionError("transfer_matrix called")

    monkeypatch.setattr(harness, "_green_of_distance", recording)
    monkeypatch.setattr(apps, "transfer_matrix", forbidden)
    cfg = json.loads((CONFIGS / "synth.json").read_text())
    harness.wpm_experiment(cfg)
    monkeypatch.undo()
    assert len(seen) == 2 * len(cfg["frequencies"]) == 10
    assert len({id(d) for d, _, _ in seen}) == 2
    src = np.vstack([apps.square_boundary_points(2.0, 16, z=z) for z in (0.2, -0.2)])
    ctrl, _ = apps.square_grid(1.0, 0.2)
    region, _ = apps.square_grid(1.0, 0.05)
    for i, (d, k, G) in enumerate(seen):
        assert np.array_equal(G, apps.transfer_matrix(src, (ctrl, region)[i % 2], k))


def test_cli_anc_source_just_outside_region(tmp_path):
    cfg = tmp_path / "anc.json"
    cfg.write_text(json.dumps(dict(ANC_BASE, primary_source=[0.5, 0.6, 0.06])))
    assert cli_main(["anc", str(cfg), "-o", str(tmp_path / "out.csv")]) == 0


def test_cli_field_non_object_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps([_base_config()]))
    assert cli_main(["field", str(cfg), "--freq", "200"]) == 2
    assert "config error: top level" in capsys.readouterr().err


def test_cli_missing_file_exit_2(tmp_path):
    assert cli_main(["sweep", str(tmp_path / "none.json")]) == 2


def test_cli_invalid_json_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert cli_main(["sweep", str(cfg), "-o", str(tmp_path / "out.csv")]) == 2
    assert "invalid JSON" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_cli_field_truth_only_key_exit_2(tmp_path, capsys):
    # truth-only dumps are asked for with --truth-only; the config has no such key
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_base_config(truth_only="false")))
    assert cli_main(["field", str(cfg), "--freq", "200", "-o", str(tmp_path / "f.csv")]) == 2
    assert "config error: truth_only: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()
    cfg.write_text(json.dumps(_base_config()))
    assert cli_main(["field", str(cfg), "--freq", "200", "--extent", "1.0", "--spacing", "0.5",
                     "--truth-only", "-o", str(tmp_path / "f.csv")]) == 0
    rows = [ln.split(",") for ln in (tmp_path / "f.csv").read_text().splitlines()[1:]]
    assert len(rows) == 9 and all(r[5:] == ["", "", ""] for r in rows)


def test_cli_field_subcommand(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_base_config()))
    out = tmp_path / "field.csv"
    rc = cli_main(
        ["field", str(cfg), "--freq", "200", "--plane", "xy",
         "--extent", "1.0", "--spacing", "0.5", "-o", str(out)]
    )
    assert rc == 0
    assert out.read_text().startswith("x,y,z,re_true,im_true")


def test_cli_forbidden_subcommand(capsys):
    rc = cli_main(
        ["forbidden", "--radius", "1", "--c", "340.65", "--numax", "7",
         "--fmax", "350"]
    )
    assert rc == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "frequency_hz,degree"
    freqs = [float(ln.split(",")[0]) for ln in out[1:]]
    assert freqs == sorted(freqs)
    assert len(freqs) == 4


def test_cli_forbidden_bad_args_exit_2():
    assert (
        cli_main(["forbidden", "--radius", "-1", "--numax", "3", "--fmax", "100"])
        == 2
    )


@pytest.mark.parametrize("flags, bad", [
    (["--freq", "0"], "--freq"),
    (["--freq", "nan"], "--freq"),
    (["--spacing", "0"], "--spacing"),
    (["--spacing", "-0.1"], "--spacing"),
    (["--spacing", "nan"], "--spacing"),
    (["--extent", "-1"], "--extent"),
    (["--offset", "inf"], "--offset"),
    (["--trial", "-1"], "--trial"),
])
def test_cli_field_flags_exit_2(tmp_path, capsys, flags, bad):
    # the flags follow the config's rules: freq and spacing > 0, extent >= 0,
    # a finite offset and a trial index >= 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_base_config()))
    argv = dict(zip(["--freq", "--extent", "--spacing"], ["200", "1.0", "0.5"]))
    argv.update(zip(flags[::2], flags[1::2]))
    out = tmp_path / "f.csv"
    assert cli_main(["field", str(cfg), *sum(argv.items(), ()), "-o", str(out)]) == 2
    assert f"config error: {bad}: must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", ["sweep_first_order", "sweep_kernel", "sweep_rigid"])
@pytest.mark.parametrize("freq", ["1e308", "1e-308", "6.7e153"])
def test_cli_field_freq_follows_the_wavenumber_rule(tmp_path, capsys, config, freq):
    # --freq passes the rule of the config's frequencies: a k that is not
    # positive and finite, a k r beyond 2000, a radial response of 0 or a
    # 1 / (k d) that overflows exits 2 before anything is computed
    out = tmp_path / "f.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli_main(["field", str(CONFIGS / f"{config}.json"), "--freq", freq,
                         "-o", str(out)]) == 2
    assert "config error: --freq: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("estimator", ["DM-finite", "DM-infinite"])
def test_cli_field_freq_follows_the_near_field_rule(tmp_path, capsys, estimator):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_near_field_config(estimator, "first_order", 100.0, 30)))
    out = tmp_path / "f.csv"
    assert cli_main(["field", str(cfg), "--freq", "1e-160", "-o", str(out)]) == 2
    assert ("config error: --freq: directional mics' near-field factor"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("estimator", ["DM-finite", "DM-infinite"])
@pytest.mark.parametrize("snr_db", [30, -300])
def test_near_field_bound_accepts_the_frequencies_above_it(estimator, snr_db):
    # the frequency at which the nearest mic's near-field factor, squared and
    # times the noise scale, reaches _POWER_MAX: 1 % above it the sweep is
    # finite, 1 % below it exits 2
    over = _near_field_config(estimator, "first_order", 1.0, snr_db)
    cfg = ScenarioConfig.from_dict(over)
    d = float(np.min(np.linalg.norm(cfg.array.mics.pos - [2.0, 1.0, 0.5], axis=1)))
    factor = math.sqrt(harness._POWER_MAX / max(1.0, 10.0 ** (-snr_db / 10.0)))
    bound = cfg.c / (2.0 * math.pi * d * (4.0 * math.pi * d * factor - 1.0))
    with pytest.raises(ConfigError, match=r"frequencies\[0\]: directional mics' near-field"):
        ScenarioConfig.from_dict(dict(over, frequencies=[0.99 * bound]))
    records = run_sweep(ScenarioConfig.from_dict(dict(over, frequencies=[1.01 * bound])))
    assert len(records) == 2 and all(math.isfinite(r.nmse_db) for r in records)


@pytest.mark.parametrize("estimator", ["BM-omni", "DM-finite"])
def test_field_fits_the_sweeps_signals_of_its_trial(monkeypatch, estimator):
    # `field --trial t` fits exactly column t of the signal block that the
    # sweep fits at the same frequency: the same truth and the same noise
    cfg = ScenarioConfig.from_dict(_base_config(estimator=estimator, order=2, trials=3,
                                                frequencies=[150.0, 300.0]))
    blocks = []
    fit = harness.prepare_estimator

    def capture(est, k, A):
        apply = fit(est, k, A)

        def record(signals):
            blocks.append((k, signals.copy()))
            return apply(signals)

        return record

    monkeypatch.setattr(harness, "prepare_estimator", capture)
    run_sweep(cfg)
    sweep = dict(blocks)
    assert len(sweep) == 2 and all(s.shape == (12, 3) for s in sweep.values())
    for t in range(3):
        blocks.clear()
        _dump(cfg, 300.0, trial=t, extent=1.0, spacing=0.5)
        (k, signals), = blocks
        assert np.array_equal(signals, sweep[k][:, [t]])


@pytest.mark.parametrize("command, config, flags, bad", [
    ("sweep", _base_config(eval_grid={"radius": 1e200, "spacing": 0.1}), [],
     "eval_grid.spacing"),
    # 217^3 points: the first ball grid above 1e7
    ("sweep", _base_config(eval_grid={"radius": 1.08, "spacing": 0.01}), [],
     "eval_grid.spacing"),
    ("field", _base_config(), ["--freq", "200", "--spacing", "1e-300"], "--spacing"),
    ("field", _base_config(), ["--freq", "200", "--extent", "1e300", "--spacing", "1e-300"],
     "--spacing"),
])
def test_cli_grids_are_bounded(tmp_path, capsys, monkeypatch, command, config, flags, bad):
    # rejected by the grid builder before its meshgrid of more than 1e7
    # points is allocated
    def meshgrid(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(np, "meshgrid", meshgrid)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "f.csv"
    assert cli_main([command, str(cfg), *flags, "-o", str(out)]) == 2
    assert f"config error: {bad}: too fine; the grid would exceed 1e7 points" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command, config, flags, bad", [
    ("sweep", _base_config(eval_grid={"radius": 1e200, "spacing": 1e199}), [],
     "eval_grid.radius"),
    ("sweep", _base_config(eval_grid={"radius": 7e153, "spacing": 1e153}), [],
     "eval_grid.radius"),
    ("field", _base_config(), ["--freq", "300", "--offset", "1e200"], "--offset"),
    ("field", _base_config(), ["--freq", "300", "--offset=-7e153"], "--offset"),
    ("field", _base_config(), ["--freq", "300", "--extent", "1e200", "--spacing", "1e199"],
     "--extent"),
])
def test_cli_grid_lengths_are_bounded(tmp_path, capsys, command, config, flags, bad):
    # a grid point farther than about 6.7e153 m from the origin would
    # overflow a squared distance; rejected before any is computed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "f.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli_main([command, str(cfg), *flags, "-o", str(out)]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert f"config error: {bad}: must put every grid point within about 6.7e153 m" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("over, bad", [
    # t = 7: 64 mics, so at most 2^21 / 64 = 32768 fit values per mic, and
    # a quarter of that for directional mics in DM-finite
    ({"estimator": "BM-omni", "order": 181}, "order: must be at most 180 with 64 mics"),
    ({"estimator": "BM-rigid", "order": 10**6}, "order: must be at most 180"),
    ({"estimator": "DM-finite", "order_n0": 181}, "order_n0: must be at most 180 with 64 mics"),
    ({"estimator": "DM-finite", "order_n0": 90, "array": {"type": "spherical", "t": 7,
                                                          "kind": "first_order"}},
     "order_n0: must be at most 89 with 64 mics"),
    ({"estimator": "BM-omni", "trials": 32769}, "trials: must be at most 32768"),
    ({"estimator": "BM-omni", "order": 100, "trials": 300}, "trials: must be at most 205"),
    ({"estimator": "DM-infinite", "trials": 10**9}, "trials: must be at most 32768"),
    # DM-infinite's Gram matrix: at most 1448 mics (1448^2 <= 2^21 < 1449^2)
    ({"estimator": "DM-infinite", "array": {"mount": "open", "mics": [
        {"pos": [1.0 + 1e-3 * i, 0.0, 0.0]} for i in range(1449)]}},
     "array.mics: must hold at most 1448 mics for DM-infinite"),
])
def test_cli_fit_sizes_are_bounded(tmp_path, capsys, monkeypatch, over, bad):
    # rejected by the parser, before the sweep allocates any fit-stage array
    def sweep(cfg):
        raise AssertionError("the sweep started")

    monkeypatch.setattr("soundfield.cli.run_sweep", sweep)
    cfg = tmp_path / "cfg.json"
    config = _base_config(array={"type": "spherical", "t": 7}, eval_grid={})
    config.update(over)
    cfg.write_text(json.dumps(config))
    out = tmp_path / "f.csv"
    assert cli_main(["sweep", str(cfg), "-o", str(out)]) == 2
    assert f"config error: {bad}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("over", [
    {"estimator": "BM-omni", "order": 180},
    {"estimator": "BM-omni", "order": 30},
    {"estimator": "DM-finite", "order_n0": 180},
    {"estimator": "DM-finite", "order_n0": 30, "array": {"type": "spherical", "t": 7,
                                                         "kind": "first_order"}},
    {"estimator": "BM-omni", "trials": 32768},
    {"estimator": "DM-infinite", "trials": 32768},
    {"estimator": "DM-infinite", "array": {"mount": "open", "mics": [
        {"pos": [1.0 + 1e-3 * i, 0.0, 0.0]} for i in range(1448)]}},
])
def test_fit_sizes_at_the_budget_are_accepted(over):
    config = _base_config(array={"type": "spherical", "t": 7}, eval_grid={})
    config.update(over)
    ScenarioConfig.from_dict(config)


def test_cli_field_builds_no_ball_grid(tmp_path):
    # `field` samples a plane, so an `eval_grid` too fine for a sweep passes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_base_config(eval_grid={"radius": 1e200, "spacing": 0.1})))
    out = tmp_path / "f.csv"
    assert cli_main(["field", str(cfg), "--freq", "200", "--extent", "1.0", "--spacing", "0.5",
                     "-o", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 3 * 3


def _run_quietly(argv):
    """cli_main(argv) with every RuntimeWarning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return cli_main(argv)


@pytest.mark.parametrize("estimator, freq, grid", [
    ("BM-omni", 100.0, {"radius": 1e150, "spacing": 1e149}),
    ("DM-infinite", 100.0, {"radius": 1e150, "spacing": 1e149}),
    ("BM-omni", 2000.0, {"radius": 100.0, "spacing": 10.0}),  # k r = 3690
])
def test_cli_sweep_kr_bound_covers_the_eval_grid(tmp_path, capsys, estimator, freq, grid):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_base_config(estimator=estimator, frequencies=[freq],
                                           array={"type": "spherical", "t": 7}, eval_grid=grid)))
    out = tmp_path / "f.csv"
    assert _run_quietly(["sweep", str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: frequencies[0]: k r must be at most 2000" in err
    assert "(eval_grid.radius, " in err
    assert not out.exists()


@pytest.mark.parametrize("flags, bad", [
    (["--extent", "1e150", "--spacing", "1e149"], "--extent"),
    (["--offset", "1e150"], "--offset"),
])
def test_cli_field_kr_bound_covers_the_plane_grid(tmp_path, capsys, flags, bad):
    out = tmp_path / "f.csv"
    argv = ["field", str(CONFIGS / "sweep_kernel.json"), "--freq", "300", *flags, "-o", str(out)]
    assert _run_quietly(argv) == 2
    err = capsys.readouterr().err
    assert "config error: --freq: k r must be at most 2000" in err
    assert f"({bad}, " in err
    assert not out.exists()


@pytest.mark.parametrize("extent, spacing, lines", [
    # a spacing beyond the extent leaves the centre line alone
    ("1", "10", [0.0]),
    ("1", "1e5", [0.0]),
    # 3 spacings of 0.3 fit in 1, centred
    ("1", "0.3", [-0.45, -0.15, 0.15, 0.45]),
    # a whole number of spacings runs from -extent/2 to +extent/2
    ("2.0", "0.2", (-1.0 + 0.2 * np.arange(11)).tolist()),
])
def test_cli_field_grid_stays_inside_the_extent(tmp_path, extent, spacing, lines):
    out = tmp_path / "f.csv"
    argv = ["field", str(CONFIGS / "sweep_kernel.json"), "--freq", "300", "--extent", extent,
            "--spacing", spacing, "-o", str(out)]
    assert _run_quietly(argv) == 0
    xy = np.array([[float(v) for v in row.split(",")[:2]]
                   for row in out.read_text().splitlines()[1:]])
    assert len(xy) == len(lines) ** 2
    assert np.allclose(np.unique(xy[:, 0]), lines, rtol=0, atol=1e-15)
    assert np.all(np.abs(xy) <= float(extent) / 2 + 1e-15)


@pytest.mark.parametrize("command, estimator", [
    ("sweep", "BM-omni"), ("sweep", "DM-infinite"), ("field", "DM-infinite")])
def test_kr_bound_accepts_the_grids_just_inside_it(tmp_path, capsys, command, estimator):
    # the farthest grid point at k r = 0.999 x 2000 runs, at 1.001 x 2000 exits 2:
    # the sweep's ball of 7 points, or one field point at the offset
    freq = 100.0
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "f.csv"
    for scale, code in ((1.001, 2), (0.999, 0)):
        r = scale * harness._KR_MAX / (2.0 * math.pi * freq / harness.SOUND_SPEED)
        cfg.write_text(json.dumps(_base_config(estimator=estimator, frequencies=[freq],
                                               eval_grid={"radius": r, "spacing": r})))
        argv = [command, str(cfg)]
        if command == "field":
            argv += ["--freq", repr(freq), "--extent", "0", "--offset", repr(r)]
        assert _run_quietly(argv + ["-o", str(out)]) == code
        assert out.exists() == (code == 0)
    assert "k r must be at most 2000" in capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 1 + (1 if command == "field" else 2)


@pytest.mark.parametrize("flags, bad", [
    (["--radius", "nan"], "--radius"),
    (["--radius", "0"], "--radius"),
    (["--c", "-340"], "--c"),
    (["--c", "inf"], "--c"),
    (["--fmax", "inf"], "--fmax"),
    (["--numax", "-1"], "--numax"),
])
def test_cli_forbidden_flags_exit_2(tmp_path, capsys, flags, bad):
    argv = {"--radius": "1", "--numax": "3", "--fmax": "100"}
    argv.update(zip(flags[::2], flags[1::2]))
    out = tmp_path / "f.csv"
    assert cli_main(["forbidden", *sum(argv.items(), ()), "-o", str(out)]) == 2
    assert f"config error: {bad}: must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, bad", [
    (["--fmax", "1e12"], "--fmax"),
    (["--numax", "10000000"], "--numax"),
])
def test_cli_forbidden_scan_is_bounded(tmp_path, capsys, monkeypatch, flags, bad):
    # rejected before the scan allocates its (numax + 1) x grid Bessel table
    def scan(*args):
        raise AssertionError("the scan started")

    monkeypatch.setattr("soundfield.cli.forbidden_frequencies", scan)
    argv = {"--radius": "1", "--numax": "3", "--fmax": "100"}
    argv.update(zip(flags[::2], flags[1::2]))
    out = tmp_path / "f.csv"
    assert cli_main(["forbidden", *sum(argv.items(), ()), "-o", str(out)]) == 2
    assert f"config error: {bad}: the scan of" in capsys.readouterr().err
    assert not out.exists()


def test_cli_entry_point_subprocess(tmp_path):
    # the installed console script exists and validates configs
    cfg = tmp_path / "bad.json"
    cfg.write_text("{}")
    proc = subprocess.run(
        [sys.executable, "-m", "soundfield.cli", "sweep", str(cfg)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "config error" in proc.stderr
