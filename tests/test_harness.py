import gc
import json
import math
import subprocess
import sys
import weakref

import numpy as np
import pytest

from soundfield import specfun
from soundfield.boundary import estimate_coeffs
from soundfield.cli import main as cli_main
from soundfield.discrete import (
    SphericalBasis,
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
    nmse,
    plane_grid,
    prepare_estimator,
    run_sweep,
    sweep_csv,
)
from soundfield.observation import (
    add_noise,
    load_t_design,
    spherical_array,
    observe_plane_wave,
    observe_point_source,
    rigid_sphere_observation,
)
from soundfield.wavefuncs import (
    green,
    plane_wave,
    plane_wave_coeffs,
    regular_swf_matrix,
    singular_swf_matrix,
)


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
    ref = spherical_array(5, 0.5, kind="first_order", a=0.3)
    mics = [{"pos": m.pos.tolist(), "kind": m.kind, "y": m.axis.tolist(), "a": m.a}
            for m in ref.mics]
    cfg = ScenarioConfig.from_dict(
        _base_config(estimator="DM-infinite", array={"mount": "open", "mics": mics}))
    assert cfg.array.mount == "open"
    for mic, want in zip(cfg.array.mics, ref.mics, strict=True):
        assert mic.kind == "first_order" and mic.a == 0.3
        assert np.array_equal(mic.pos, want.pos) and np.allclose(mic.axis, want.axis)


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


def _reference_nmse(cfg):
    """NMSE per (frequency, trial), one trial at a time from the public primitives."""
    grid = ball_grid(cfg.eval_radius, cfg.eval_spacing)
    mics = cfg.array.mics
    pos = cfg.array.positions
    norms = np.linalg.norm(pos, axis=1)
    fs = cfg.field_spec
    out = []
    for f in cfg.frequencies:
        k = 2.0 * math.pi * f / cfg.c
        rigid_order = math.ceil(k * 0.5) + 20
        if fs["type"] == "plane_wave":
            d = np.asarray(fs["direction"]) / np.linalg.norm(fs["direction"])
            truth = plane_wave(grid, d, k)
            clean = np.array([observe_plane_wave(m, d, k) for m in mics])
            incident = plane_wave_coeffs(rigid_order, d, k).coeffs
        else:
            src = np.asarray(fs["position"], float)
            truth = green(grid, src, k)
            clean = np.array([observe_point_source(m, src, k) for m in mics])
            incident = singular_swf_matrix(rigid_order, src, k)
        if cfg.array.mount == "rigid":
            clean = rigid_sphere_observation(incident, rigid_order, pos / 0.5, k, 0.5)
        for t in range(cfg.trials):
            s = add_noise(clean, cfg.snr_db, np.random.default_rng(cfg.seed + t))
            if cfg.estimator.startswith("BM-"):
                kind = {"BM-omni": "omni", "BM-first": "first_order",
                        "BM-rigid": "rigid"}[cfg.estimator]
                cset = estimate_coeffs(s, pos / norms[:, None], kind, k, norms.mean(),
                                       cfg.order, a=cfg.directivity_a)
                est = regular_swf_matrix(cfg.order, grid, k) @ cset.coeffs
            elif cfg.estimator == "DM-finite":
                basis = SphericalBasis(order=cfg.order_n0, origin=cfg.origin)
                c = solve_tikhonov(build_observation_matrix(mics, basis, k), s, cfg.reg)
                est = regular_swf_matrix(cfg.order_n0, grid - basis.origin, k) @ c
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
    ref = _reference_nmse(cfg)
    assert len(records) == len(ref) == 6
    for r, want in zip(records, ref):
        assert abs(r.nmse_db - want) <= 1e-9
    for f in cfg.frequencies:
        group = [r.nmse_db for r in records if r.frequency == f]
        assert all(r.nmse_mean_db == np.mean(group) for r in records if r.frequency == f)


def _grid_harmonics_count(monkeypatch, cfg):
    """Calls of sph_harm_matrix on at least as many directions as the grid has points."""
    grid_size = len(ball_grid(cfg.eval_radius, cfg.eval_spacing))
    orig = specfun.sph_harm_matrix
    calls = []

    def counting(order, dirs):
        if np.size(dirs) // 3 >= grid_size:
            calls.append(order)
        return orig(order, dirs)

    for mod in [m for name, m in sys.modules.items() if name.startswith("soundfield")]:
        if getattr(mod, "sph_harm_matrix", None) is orig:
            monkeypatch.setattr(mod, "sph_harm_matrix", counting)
    run_sweep(cfg)
    monkeypatch.undo()
    return len(calls)


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_grid_harmonics_once_per_sweep(monkeypatch, estimator):
    # The grid (about 500 points) outnumbers the mic pairs (12 x 12), so only
    # harmonics of grid points are counted.  DM-infinite's closed-form
    # representers need none at all.
    array = {"type": "spherical", "t": 5, "radius": 0.5}
    if estimator.startswith("DM-"):
        array["kind"] = "first_order"

    def cfg(freqs):
        return ScenarioConfig.from_dict(_base_config(
            estimator=estimator, frequencies=freqs, trials=2, array=array,
            eval_grid={"radius": 0.5, "spacing": 0.1},
        ))

    once = _grid_harmonics_count(monkeypatch, cfg([200.0]))
    assert once == 0 if estimator == "DM-infinite" else once > 0
    assert _grid_harmonics_count(monkeypatch, cfg([100.0, 200.0, 300.0, 400.0])) == once


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_estimator_freed_without_gc(estimator):
    # its grid harmonics are the sweep's largest arrays; a reference cycle
    # would hold them until a gc pass and raise the peak memory of a run
    array = {"type": "spherical", "t": 5, "radius": 0.5}
    cfg = ScenarioConfig.from_dict(_base_config(estimator=estimator, array=array))
    gc.disable()
    try:
        est = Estimator(cfg, ball_grid(0.5, 0.25))
        prepare_estimator(est, 2.0)(np.ones((12, 1)))
        ref = weakref.ref(est)
        del est
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Field dumps
# ---------------------------------------------------------------------------

def test_dump_field_columns_and_norm_err():
    cfg = ScenarioConfig.from_dict(_base_config())
    text = dump_field(cfg, 200.0, plane="xy", extent=1.0, spacing=0.5)
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
    text = dump_field(cfg, 200.0, include_estimate=False, extent=1.0, spacing=0.5)
    for ln in text.strip().split("\n")[1:]:
        parts = ln.split(",")
        assert parts[5] == "" and parts[6] == "" and parts[7] == ""


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
         "array.mics[0]: first_order microphone requires mixing weight a"),
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
    ],
)
def test_cli_experiment_configs_exit_2(tmp_path, capsys, command, config, field):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    assert cli_main([command, str(cfg), "-o", str(tmp_path / "out.csv")]) == 2
    assert f"config error: {field}" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


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
    ("BM-rigid", {"type": "spherical", "t": 5, "radius": 0.5, "mount": "open"}),
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
