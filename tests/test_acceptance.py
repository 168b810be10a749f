"""Acceptance suite: end-to-end checks of the shipped scenarios.

Each criterion prints a single ``[PASS]``/``[FAIL]`` line and then asserts,
so a failed criterion is visible both in the log line and in the pytest
summary.  The lines are echoed in an "acceptance criteria" section at the end
of the run (see conftest) so they survive output capture.
"""

import json
import math
import time

import numpy as np
import pytest

import conftest

from soundfield import applications as apps
from soundfield import specfun as sf
from soundfield import wavefuncs as wf
from soundfield.boundary import forbidden_frequencies
from soundfield.discrete import (
    finite_to_infinite_gap,
    kernel_matrix,
    solve_kernel,
    solve_tikhonov,
)
from soundfield.harness import (
    ScenarioConfig,
    anc_experiment,
    run_sweep,
    sweep_csv,
    wpm_experiment,
)
from soundfield.observation import Mics
from soundfield.wavefuncs import green

from oracles import anc_cost, singular_swf_matrix, sph_hn, sph_jn


def _report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    return ok


# ---------------------------------------------------------------------------
# Criterion 1: forbidden frequencies
# ---------------------------------------------------------------------------

def test_criterion_1_forbidden_frequencies():
    t0 = time.perf_counter()
    pairs = forbidden_frequencies(1.0, 340.65, 7, 350.0)
    elapsed = time.perf_counter() - t0
    freqs = [f for f, _ in pairs]
    expected = [170.32, 243.62, 312.47]
    hits = [min(abs(f - e) for f in freqs) for e in expected]
    ok = all(h <= 0.5 for h in hits) and elapsed < 1.0
    _report(
        "1", ok,
        f"forbidden freqs {[round(f, 2) for f in freqs]} vs {expected}, "
        f"max dev {max(hits):.3f} Hz, runtime {elapsed:.2f} s",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 2: boundary-method reproduction (plane wave, M=64, t=7, N=7)
# ---------------------------------------------------------------------------

FREQS_2 = [100.0, 200.0, 300.0, 310.0, 400.0, 500.0]


@pytest.fixture(scope="module")
def bm_sweeps():
    out = {}
    for est in ("BM-first", "BM-rigid", "BM-omni"):
        cfg = ScenarioConfig.from_dict(
            {
                "estimator": est,
                "frequencies": FREQS_2,
                "array": {"type": "spherical", "t": 7, "radius": 1.0},
                "field": {"type": "plane_wave", "direction": [1, 0, 0]},
                "snr_db": 30,
                "trials": 10,
                "seed": 0,
                "order": 7,
            }
        )
        recs = run_sweep(cfg)
        out[est] = {
            f: next(r.nmse_mean_db for r in recs if r.frequency == f)
            for f in FREQS_2
        }
    return out


def test_criterion_2a_bm_nmse_thresholds(bm_sweeps):
    target = [100.0, 200.0, 300.0, 400.0, 500.0]
    vals = {
        est: {f: bm_sweeps[est][f] for f in target} for est in ("BM-first", "BM-rigid")
    }
    ok = all(v <= -15.0 for d in vals.values() for v in d.values())
    detail = "; ".join(
        f"{est} " + ", ".join(f"{f:.0f}Hz {v:.1f}dB" for f, v in d.items())
        for est, d in vals.items()
    )
    _report("2a", ok, detail + " (threshold -15 dB)")
    assert ok


def test_criterion_2b_omni_forbidden_penalty(bm_sweeps):
    omni = bm_sweeps["BM-omni"][310.0]
    rigid = bm_sweeps["BM-rigid"][310.0]
    gap = omni - rigid
    ok = gap >= 10.0
    _report("2b", ok, f"310 Hz omni {omni:.1f} dB vs rigid {rigid:.1f} dB, gap {gap:.1f} dB (>= 10)")
    assert ok


def test_criterion_2c_agreement_at_300(bm_sweeps):
    vals = [bm_sweeps[e][300.0] for e in ("BM-omni", "BM-first", "BM-rigid")]
    spread = max(vals) - min(vals)
    ok = spread <= 3.0
    _report("2c", ok, f"300 Hz NMSE {[round(v, 1) for v in vals]} dB, spread {spread:.1f} dB (<= 3)")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 3: discrete-method reproduction
# ---------------------------------------------------------------------------

def _dm_config(estimator, frequencies, array, **over):
    cfg = {
        "estimator": estimator,
        "frequencies": frequencies,
        "array": array,
        "field": {"type": "plane_wave", "direction": [1, 0, 0]},
        "snr_db": 30,
        "trials": 10,
        "seed": 0,
        "order_n0": 7,
        "reg": 1e-3,
    }
    cfg.update(over)
    return ScenarioConfig.from_dict(cfg)


SPHERICAL_FO = {"type": "spherical", "t": 7, "radius": 1.0, "kind": "first_order"}


def test_criterion_3a_dm_methods_agree():
    freqs = [100.0, 200.0, 300.0, 400.0]
    means = {}
    for est in ("DM-finite", "DM-infinite"):
        recs = run_sweep(_dm_config(est, freqs, SPHERICAL_FO))
        means[est] = {
            f: float(np.mean([r.nmse_db for r in recs if r.frequency == f]))
            for f in freqs
        }
    gaps = {f: abs(means["DM-finite"][f] - means["DM-infinite"][f]) for f in freqs}
    ok = all(g <= 1.0 for g in gaps.values())
    _report(
        "3a", ok,
        "DM-finite vs DM-infinite gaps "
        + ", ".join(f"{f:.0f}Hz {g:.2f}dB" for f, g in gaps.items())
        + " (threshold 1 dB)",
    )
    assert ok


def _irregular_array(seed=42, m=64):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < m:
        p = rng.uniform(-1, 1, 3)
        if np.linalg.norm(p) <= 1.0:
            pts.append(p)
    return {
        "mount": "open",
        "mics": [{"pos": [float(v) for v in p], "kind": "omni"} for p in pts],
    }


def test_criterion_3b_irregular_array():
    arr = _irregular_array()
    vals = {}
    for est in ("DM-finite", "DM-infinite"):
        recs = run_sweep(_dm_config(est, [300.0], arr))
        vals[est] = recs[0].nmse_mean_db
    ok = all(math.isfinite(v) and v <= -5.0 for v in vals.values())
    _report(
        "3b", ok,
        f"irregular 64-mic array at 300 Hz: "
        + ", ".join(f"{e} {v:.1f} dB" for e, v in vals.items())
        + " (threshold -5 dB)",
    )
    assert ok


def test_criterion_3c_truncation_study():
    t0 = time.perf_counter()
    vals = []
    for n0 in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10):
        recs = run_sweep(_dm_config("DM-finite", [300.0], SPHERICAL_FO, order_n0=n0))
        vals.append(recs[0].nmse_mean_db)
    elapsed = time.perf_counter() - t0
    # non-increasing to a plateau: allow 0.1 dB jitter once converged
    ok = all(b <= a + 0.1 for a, b in zip(vals, vals[1:]))
    plateau = abs(vals[-1] - vals[-2]) <= 0.5
    ok = ok and plateau
    _report(
        "3c", ok,
        f"NMSE(N0=1..10) = {[round(v, 1) for v in vals]} dB, plateau {plateau}, "
        f"runtime {elapsed:.0f} s",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 4: oracle equivalences
# ---------------------------------------------------------------------------

def test_criterion_4_oracle_equivalences():
    rng = np.random.default_rng(5)
    # (a) both Tikhonov closed forms
    worst_a = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 10))
        n = int(rng.integers(2, 10))
        B = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        s = rng.normal(size=m) + 1j * rng.normal(size=m)
        reg = 10.0 ** rng.uniform(-3, 0)
        x1 = B.conj().T @ np.linalg.solve(B @ B.conj().T + reg * np.eye(m), s)
        x2 = np.linalg.solve(B.conj().T @ B + reg * np.eye(n), B.conj().T @ s)
        worst_a = max(worst_a, np.linalg.norm(x1 - x2) / np.linalg.norm(x2))
    ok_a = worst_a <= 1e-10

    # (b) omni infinite-dimensional estimator vs generic j0 kernel ridge
    k = 4.0
    P = 0.3 * rng.normal(size=(10, 3))
    s = rng.normal(size=10) + 1j * rng.normal(size=10)
    K = kernel_matrix(Mics(P), k)
    a1 = solve_kernel(K, s, 1e-3)
    Kj0 = np.sinc(k * np.linalg.norm(P[:, None] - P[None, :], axis=-1) / np.pi)
    a2 = np.linalg.solve(Kj0 + 1e-3 * np.eye(10), s)
    dev_b = float(np.max(np.abs(a1 - a2)))
    ok_b = dev_b <= 1e-12 * max(1.0, float(np.max(np.abs(a2))))

    # (c) finite vs infinite kernel gap at N0 = 20, kR <= 2
    gap = finite_to_infinite_gap(Mics(rng.normal(size=(8, 3)) / 4), np.zeros(3), 20, k=2.0)
    ok_c = gap <= 1e-6

    ok = ok_a and ok_b and ok_c
    _report(
        "4", ok,
        f"tikhonov dual dev {worst_a:.2e} (<=1e-10), j0-KRR dev {dev_b:.2e} "
        f"(<=1e-12), kernel gap {gap:.2e} (<=1e-6)",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 5: special-function suite
# ---------------------------------------------------------------------------

def test_criterion_5_special_functions():
    t0 = time.perf_counter()
    # Wronskian
    worst_w = 0.0
    for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
        for nu in range(11):
            j = sph_jn(nu, x)
            jp = sf.sph_jn_all(nu, x, derivative=True)[nu]
            h = sph_hn(nu, x)
            hp = sph_hn(nu, x, derivative=True)
            target = 1j / x**2
            worst_w = max(worst_w, abs(j * hp - jp * h - target) / abs(target))
    ok_w = worst_w <= 1e-10

    # orthonormality on a quadrature grid
    from conftest import sphere_quadrature

    dirs, w = sphere_quadrature(30)
    Y = sf.sph_harm_matrix(5, dirs)
    G = (Y.conj().T * w) @ Y / (4 * np.pi)
    dev_o = float(np.max(np.abs(G - np.eye(36))))
    ok_o = dev_o <= 1e-10

    # addition theorem
    rng = np.random.default_rng(3)
    r1 = 0.3 * _unit(rng.normal(size=3))
    r2 = 1.0 * _unit(rng.normal(size=3))
    acc = np.sum(singular_swf_matrix(30, r2, 1.0) * wf.regular_swf_matrix(30, r1, 1.0))
    g = wf.green(r1[None], r2, 1.0)[0]
    dev_g = abs(acc - g) / abs(g)
    ok_g = dev_g <= 1e-8

    # Wigner D unitarity
    worst_u = 0.0
    for _ in range(5):
        R = sf.rotation_matrix(rng.normal(size=3), float(rng.uniform(0, math.pi)))
        for nu in range(6):
            D = sf.wigner_D(nu, R)
            worst_u = max(
                worst_u, float(np.max(np.abs(D @ D.conj().T - np.eye(2 * nu + 1))))
            )
    ok_u = worst_u <= 1e-10

    # translation composition error decreasing in truncation order
    ok_t = True
    for _ in range(10):
        d1 = 0.15 * rng.normal(size=3)
        d2 = 0.15 * rng.normal(size=3)
        errs = []
        for order_mid in (4, 8, 12):
            t_direct = wf.translation_matrix(d1 + d2, 2.0, 2, 2)
            t1 = wf.translation_matrix(d1, 2.0, 2, order_mid)
            t2 = wf.translation_matrix(d2, 2.0, order_mid, 2)
            errs.append(float(np.max(np.abs(t_direct - t1 @ t2))))
        ok_t = ok_t and (errs[0] > errs[1] > errs[2] or errs[2] <= 1e-14)
    elapsed = time.perf_counter() - t0

    ok = ok_w and ok_o and ok_g and ok_u and ok_t and elapsed < 60.0
    _report(
        "5", ok,
        f"wronskian {worst_w:.1e}, orthonormality {dev_o:.1e}, addition {dev_g:.1e}, "
        f"unitarity {worst_u:.1e}, composition decreasing {ok_t}, runtime {elapsed:.1f} s",
    )
    assert ok


def _unit(v):
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Criterion 6: weighted pressure matching
# ---------------------------------------------------------------------------

def test_criterion_6_wpm_beats_pm():
    t0 = time.perf_counter()
    rows, _ = wpm_experiment(
        {"frequencies": [100.0, 300.0, 500.0, 700.0, 900.0], "eta": 1e-3, "reg": 1e-3}
    )
    elapsed = time.perf_counter() - t0
    ok = all(wpm < pm for _, pm, wpm in rows) and elapsed < 120.0
    _report(
        "6", ok,
        "regional MSE (PM vs WPM dB): "
        + ", ".join(f"{f:.0f}Hz {pm:.1f}/{wpm:.1f}" for f, pm, wpm in rows)
        + f", runtime {elapsed:.0f} s",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7: spatial ANC
# ---------------------------------------------------------------------------

def test_criterion_7_spatial_anc():
    t0 = time.perf_counter()
    out, _ = anc_experiment(
        {
            "frequency": 700.0,
            "primary_source": [3.0, 0.0, 0.0],
            "iterations": 20000,
            "reg": 1e-3,
        }
    )
    kern = out["kernel"]["regional_power_db"]
    multi = out["multipoint"]["regional_power_db"]
    ok_power = kern < multi

    costs = out["kernel"]["costs"]
    ok_mono = all(b <= a + 1e-12 * abs(a) for a, b in zip(costs, costs[1:]))

    # gradient vs central finite differences (Wirtinger convention)
    k = 2 * math.pi * 700.0 / 340.65
    mics = apps.square_boundary_points(1.0, 24, outward_shift=0.03)
    src = apps.square_boundary_points(2.0, 12)
    region, cell = apps.square_grid(1.0, 0.1, midpoint=True)
    G = apps.transfer_matrix(src, mics, k)
    d = green(mics, np.array([3.0, 0.0, 0.0]), k)
    A = apps.region_weighting(mics, region, cell, k, 1e-3)
    rng = np.random.default_rng(9)
    W = 0.1 * (rng.normal(size=(12, 1)) + 1j * rng.normal(size=(12, 1)))
    x = np.array([1.0 + 0.0j])
    grad = apps.anc_gradient(W, G, A, d, x)
    h = 1e-6
    fd = np.zeros_like(grad)
    for i in range(12):
        for which in (1.0, 1.0j):
            dW = np.zeros_like(W)
            dW[i, 0] = which * h
            cp = anc_cost(apps.anc_error(W + dW, G, d, x), A)
            cm = anc_cost(apps.anc_error(W - dW, G, d, x), A)
            fd[i, 0] += (1j if which == 1j else 1.0) * (cp - cm) / (4 * h)
    dev = float(np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-300))
    ok_grad = dev <= 1e-6
    elapsed = time.perf_counter() - t0

    ok = ok_power and ok_mono and ok_grad and elapsed < 180.0
    _report(
        "7", ok,
        f"regional power kernel {kern:.2f} dB < multipoint {multi:.2f} dB: {ok_power}; "
        f"cost non-increasing {ok_mono}; gradient dev {dev:.1e} (<=1e-6); "
        f"runtime {elapsed:.0f} s",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 8: determinism
# ---------------------------------------------------------------------------

def test_criterion_8_determinism():
    scen = {
        "estimator": "BM-rigid",
        "frequencies": [200.0, 300.0],
        "array": {"type": "spherical", "t": 7, "radius": 1.0},
        "field": {"type": "plane_wave", "direction": [1, 0, 0]},
        "snr_db": 30,
        "trials": 3,
        "seed": 11,
    }
    a = sweep_csv(run_sweep(ScenarioConfig.from_dict(scen)))
    b = sweep_csv(run_sweep(ScenarioConfig.from_dict(json.loads(json.dumps(scen)))))
    ok_sweep = a.encode() == b.encode()

    _, wa = wpm_experiment({"frequencies": [300.0]})
    _, wb = wpm_experiment({"frequencies": [300.0]})
    _, aa = anc_experiment({"frequency": 700.0, "iterations": 200})
    _, ab = anc_experiment({"frequency": 700.0, "iterations": 200})
    ok = ok_sweep and wa == wb and aa == ab
    _report(
        "8", ok,
        f"sweep CSV byte-identical {ok_sweep}, synth identical {wa == wb}, "
        f"anc identical {aa == ab}",
    )
    assert ok
