import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundfield import discrete, observation
from soundfield import specfun as sf
from soundfield import wavefuncs as wf
from soundfield.applications import pm_drive, transfer_matrix, wpm_drive
from soundfield.discrete import (
    Representers,
    build_observation_matrix,
    extract_expansion,
    finite_to_infinite_gap,
    kernel_matrix,
    representer_matrix,
    solve_kernel,
    solve_tikhonov,
)
from soundfield.harness import ScenarioConfig, run_sweep
from soundfield.observation import (
    Mics,
    plane_wave_observations,
    point_source_observations,
)

from oracles import (
    directivity_matrix,
    evaluate,
    harmonic_representers,
    mixed_mic_spec,
    mixed_mics,
    observe_coeffs,
    sph_jn,
    translation_kernel_matrix,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _random_spec(rng, m, kinds=("omni", "bidirectional", "first_order")):
    """The :class:`Mics` arguments ``(pos, kind, axes, a)`` of `m` mics of
    `kinds` in turn, each with its own unit axis and a = 0.4."""
    pos, axes = np.zeros((m, 3)), np.zeros((m, 3))
    for i in range(m):
        pos[i] = 0.4 * rng.normal(size=3)
        axes[i] = rng.normal(size=3)
        axes[i] /= np.linalg.norm(axes[i])
    return pos, [kinds[i % len(kinds)] for i in range(m)], axes, np.full(m, 0.4)


def _random_mics(rng, m, kinds=("omni", "bidirectional", "first_order")):
    return Mics(*_random_spec(rng, m, kinds))


def _each_mic(spec):
    """A one-mic :class:`Mics` for each mic of `spec`."""
    return [Mics(*row) for row in zip(*spec)]


# ---------------------------------------------------------------------------
# Observation matrix
# ---------------------------------------------------------------------------

def test_observation_matrix_matches_direct_observation(rng):
    k = 4.0
    order = 5
    origin = np.array([0.05, -0.02, 0.1])
    mics = _random_mics(rng, 8)
    B = build_observation_matrix(mics, origin, order, k)
    n = sf.num_coeffs(order)
    coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
    cset = wf.CoefficientSet(order=order, origin=origin, coeffs=coeffs)
    direct = observe_coeffs(mics, cset, k)
    assert np.max(np.abs(B @ coeffs - direct)) <= 1e-10 * np.max(np.abs(direct))


def test_observation_matrix_rows_are_single_translations(rng):
    k = 3.0
    origin = np.array([0.1, 0.0, -0.05])
    spec = _random_spec(rng, 6)
    B = build_observation_matrix(Mics(*spec), origin, 4, k)
    for m, mic in enumerate(_each_mic(spec)):
        D, order = directivity_matrix(mic)
        T = wf.translation_matrix(mic.pos[0] - origin, k, order, 4)
        row = D[0].conj() @ T
        assert np.max(np.abs(B[m] - row)) <= 1e-13


def test_observation_matrix_makes_no_translation(rng, monkeypatch):
    # DM-finite's rows are closed forms in the functions to degree N0 + 1
    def refuse(*args, **kwargs):
        raise AssertionError("translation operator built")

    # the operator and its primitive, so that no import of the name gets round the refusal
    for name in ("translation_matrix", "_translate"):
        monkeypatch.setattr(wf, name, refuse)
    mics = Mics(*_random_spec(rng, 8, kinds=("first_order",)))
    assert build_observation_matrix(mics, [0.1, 0.0, 0.0], 7, 3.0).shape == (8, 64)
    # the kernel estimate's expansion is B^H alpha, with no translation either
    assert extract_expansion(np.ones(8), mics, [0.1, 0.0, 0.0], 7, 3.0).coeffs.shape == (64,)
    cfg = ScenarioConfig.from_dict(
        json.loads((CONFIGS / "sweep_finite.json").read_text(encoding="utf-8")))
    assert all(np.isfinite(r.nmse_db) for r in run_sweep(cfg))


# ---------------------------------------------------------------------------
# Tikhonov dual forms
# ---------------------------------------------------------------------------

def test_tikhonov_dual_forms_agree():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = int(rng.integers(2, 12))
        n = int(rng.integers(2, 12))
        B = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        s = rng.normal(size=m) + 1j * rng.normal(size=m)
        reg = 10.0 ** rng.uniform(-4, 0)
        # underdetermined form
        x1 = B.conj().T @ np.linalg.solve(
            B @ B.conj().T + reg * np.eye(m), s
        )
        # overdetermined form
        x2 = np.linalg.solve(
            B.conj().T @ B + reg * np.eye(n), B.conj().T @ s
        )
        x = solve_tikhonov(B, s, reg)
        assert np.linalg.norm(x - x1) <= 1e-10 * np.linalg.norm(x1)
        assert np.linalg.norm(x - x2) <= 1e-10 * np.linalg.norm(x2)
        # each form is solve_kernel of a Gram matrix, to the bit
        BH = B.conj().T
        want = (BH @ solve_kernel(B @ BH, s, reg) if m <= n
                else solve_kernel(BH @ B, BH @ s, reg))
        assert np.array_equal(x, want)


@pytest.mark.parametrize("shape", [(6, 9), (9, 6)])  # both closed forms
def test_tikhonov_block_equals_column_solves(rng, shape):
    M, N = shape
    B = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    S = rng.normal(size=(M, 4)) + 1j * rng.normal(size=(M, 4))
    C = solve_tikhonov(B, S, 1e-2)
    assert C.shape == (N, 4)
    for t in range(4):
        col = solve_tikhonov(B, S[:, t], 1e-2)
        assert np.max(np.abs(C[:, t] - col)) <= 1e-12 * np.max(np.abs(col))


# ---------------------------------------------------------------------------
# Kernel (infinite-dimensional) estimator
# ---------------------------------------------------------------------------

def test_omni_kernel_is_sinc():
    rng = np.random.default_rng(11)
    k = 3.0
    pos = 0.3 * rng.normal(size=(6, 3))
    K = kernel_matrix(Mics(pos), k)
    for i in range(6):
        for j in range(6):
            d = np.linalg.norm(pos[i] - pos[j])
            assert K[i, j] == pytest.approx(sph_jn(0, k * d), abs=1e-12)


def test_omni_equals_generic_kernel_ridge():
    # The closed-form Gram matrix of omni mics is j0(k |r - r'|) itself, so
    # it and the kernel ridge weights match a direct sinc evaluation.
    rng = np.random.default_rng(4)
    k = 5.0
    pos = 0.3 * rng.normal(size=(8, 3))
    K_fast = kernel_matrix(Mics(pos), k)
    s = rng.normal(size=8) + 1j * rng.normal(size=8)
    a1 = solve_kernel(K_fast, s, 1e-3)
    D = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    K_ref = np.sinc(k * D / np.pi)
    a2 = np.linalg.solve(K_ref + 1e-3 * np.eye(8), s)
    assert np.max(np.abs(K_fast - K_ref)) <= 1e-12
    assert np.max(np.abs(a1 - a2)) <= 1e-12 * max(1.0, np.max(np.abs(a2)))


def test_kernel_block_equals_column_solves(rng):
    k = 4.0
    mics = _random_mics(rng, 7)
    K = kernel_matrix(mics, k)
    S = rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5))
    A = solve_kernel(K, S, 1e-3)
    assert A.shape == (7, 5)
    for t in range(5):
        col = solve_kernel(K, S[:, t], 1e-3)
        assert np.max(np.abs(A[:, t] - col)) <= 1e-12 * np.max(np.abs(col))


def test_factored_representers_match_per_mic_reference(rng):
    # Mixed omni/first-order mics and evaluation points that include a mic
    # position (the r = 0 row).
    mics = _random_mics(rng, 19, kinds=("omni", "first_order"))
    pts = np.vstack([0.5 * rng.normal(size=(40, 3)), mics.pos[:2]])
    rep = Representers(mics, pts)
    for k in (0.5, 3.0, 9.0):
        ref = harmonic_representers(mics, pts, k)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(rep.matrix(k) - ref)) <= 1e-13 * scale
        assert np.max(np.abs(representer_matrix(mics, pts, k) - ref)) <= 1e-13 * scale
    # At its own position a representer is phi_{0,0}(0) d_{0,0} = d_{0,0}.
    V = rep.matrix(3.0)
    D, _ = directivity_matrix(mics)
    assert V[-2, 0] == D[0, 0]
    assert V[-1, 1] == D[1, 0]
    grid = pts[:12].reshape(3, 4, 3)
    assert representer_matrix(mics, grid, 2.0).shape == (3, 4, len(mics))


# ---------------------------------------------------------------------------
# Closed forms against the translation and harmonic routes
# ---------------------------------------------------------------------------

def _rel_gap(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


# Mixed kinds, each mic with its own a and a tilted axis: with one a and
# outward axes on a sphere, the value-gradient cross terms cancel and go
# unchecked.  Bidirectional mics alone (a = 0) leave only the gradient terms.
KIND_LISTS = [("omni", "bidirectional", "first_order"), ("bidirectional",)]


@pytest.mark.parametrize("kinds", KIND_LISTS)
@pytest.mark.parametrize("k", [0.5, 3.0, 9.0])
def test_kernel_matrix_matches_translation_oracle(rng, k, kinds):
    mics = mixed_mics(rng, 12, kinds)
    assert _rel_gap(kernel_matrix(mics, k), translation_kernel_matrix(mics, k)) <= 1e-13


@pytest.mark.parametrize("kinds", KIND_LISTS)
@pytest.mark.parametrize("k", [0.5, 3.0, 9.0])
def test_representers_match_harmonic_oracle(rng, k, kinds):
    mics = mixed_mics(rng, 12, kinds)
    pts = 0.5 * rng.normal(size=(40, 3))
    V = Representers(mics, pts).matrix(k)
    assert _rel_gap(V, harmonic_representers(mics, pts, k)) <= 1e-13


def test_closed_forms_at_coincident_points(rng):
    # rho = 0: the Gram diagonal, two mics at one position, and each
    # representer at its own mic.
    k = 2.0
    pos, kinds, axes, a = mixed_mic_spec(rng, 6)
    mics = Mics(np.vstack([pos, pos[1]]), kinds + ["first_order"],
                np.vstack([axes, rng.normal(size=3)]), np.append(a, 0.3))
    a, b = mics.a, mics.b
    K = kernel_matrix(mics, k)
    assert np.diag(K) == pytest.approx(a**2 + np.sum(b * b, axis=1) / 3, rel=1e-14)
    assert _rel_gap(K, translation_kernel_matrix(mics, k)) <= 1e-13
    pts = mics.pos
    V = representer_matrix(mics, pts, k)
    assert np.array_equal(np.diag(V), a)
    assert V[1, 6] == a[6] and V[6, 1] == a[1]
    assert _rel_gap(V, harmonic_representers(mics, pts, k)) <= 1e-13


@pytest.mark.parametrize("x", [1e-12, 1e-6, 1e-3])
def test_closed_forms_at_small_k_rho(rng, x):
    # Mic pairs and evaluation points at k rho = x, where the Gram matrix
    # takes j1(x)/x as (j0 + j2)/3.
    k = 3.0
    pos, kinds, axes, a = mixed_mic_spec(rng, 6)
    u = rng.normal(size=(6, 3))
    shift = (x / k) * u / np.linalg.norm(u, axis=1, keepdims=True)
    _, near_kinds, near_axes, near_a = mixed_mic_spec(rng, 6)
    mics = Mics(np.vstack([pos, pos + shift]), kinds + near_kinds,
                np.vstack([axes, near_axes]), np.append(a, near_a))
    assert _rel_gap(kernel_matrix(mics, k), translation_kernel_matrix(mics, k)) <= 1e-13
    pts = pos - shift
    V = Representers(mics, pts).matrix(k)
    assert _rel_gap(V, harmonic_representers(mics, pts, k)) <= 1e-13


def test_closed_forms_use_no_harmonics(rng, monkeypatch):
    # Degree <= 1 mics need neither harmonics nor translation operators.
    def refuse(*args, **kwargs):
        raise AssertionError("harmonic route taken")

    for module in (sf, wf, observation, discrete):
        for name in ("sph_harm_matrix", "swf_angular", "regular_swf_matrix",
                     "singular_swf_matrix", "translation_matrix"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    k = 3.0
    mics = mixed_mics(rng, 6)
    pts = 0.5 * rng.normal(size=(10, 3))
    kernel_matrix(mics, k)
    Representers(mics, pts).matrix(k)
    plane_wave_observations(mics, np.array([0.0, 0.6, 0.8]), k)
    point_source_observations(mics, np.array([1.5, -1.0, 0.5]), k)


def test_kernel_matrix_hermitian_psd(rng):
    k = 4.0
    mics = _random_mics(rng, 7)
    K = kernel_matrix(mics, k)
    assert np.max(np.abs(K - K.conj().T)) <= 1e-10
    w = np.linalg.eigvalsh(K)
    assert w.min() >= -1e-10


def test_representer_reproduces_bandlimited_observation(rng):
    # The kernel interpolant matches the data exactly as reg -> 0
    k = 3.0
    mics = _random_mics(rng, 8)
    order = 6
    n = sf.num_coeffs(order)
    coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
    cset = wf.CoefficientSet(order=order, origin=np.zeros(3), coeffs=coeffs)
    s = observe_coeffs(mics, cset, k)
    K = kernel_matrix(mics, k)
    alpha = solve_kernel(K, s, 1e-12)
    vals = representer_matrix(mics, mics.pos, k) @ alpha
    # at omni mic positions the interpolant equals the observed pressure
    for i in np.flatnonzero(~mics.axes.any(axis=1)):
        assert vals[i] == pytest.approx(s[i], rel=1e-6)


def test_finite_kernel_gap(rng):
    # K^finite(N0) -> K^infinite; relative Frobenius gap <= 1e-6 at N0 = 20
    k = 2.0  # kR <= 2 for mics within the unit ball scaled to 1
    omni = 0.9 * rng.normal(size=(6, 3)) / 3
    pos, kinds, axes, a = _random_spec(rng, 4)
    mics = Mics(np.vstack([omni, pos]), ["omni"] * 6 + kinds,
                np.vstack([np.zeros((6, 3)), axes]), 0.4)
    K_inf = kernel_matrix(mics, k)
    gap = finite_to_infinite_gap(mics, np.zeros(3), 20, k)
    assert gap <= 1e-6


def test_finite_kernel_gap_monotone(rng):
    k = 2.5
    mics = _random_mics(rng, 6)
    gaps = [finite_to_infinite_gap(mics, np.zeros(3), n0, k) for n0 in (4, 8, 12, 16)]
    # non-increasing until the machine-precision floor is reached
    for a, b in zip(gaps, gaps[1:]):
        assert a >= b or a <= 1e-12


def test_finite_kernel_matrix_definition(rng):
    k = 3.0
    mics = _random_mics(rng, 5)
    order = 6
    B = build_observation_matrix(mics, np.zeros(3), order, k)
    Ki = kernel_matrix(mics, k)
    want = np.linalg.norm(B @ B.conj().T - Ki) / np.linalg.norm(Ki)
    assert finite_to_infinite_gap(mics, np.zeros(3), order, k) == pytest.approx(
        want, rel=1e-12)


# ---------------------------------------------------------------------------
# Expansion extraction from the kernel solution
# ---------------------------------------------------------------------------

def test_extract_expansion_matches_kernel_eval(rng):
    k = 3.0
    mics = _random_mics(rng, 10)
    s = rng.normal(size=10) + 1j * rng.normal(size=10)
    K = kernel_matrix(mics, k)
    alpha = solve_kernel(K, s, 1e-4)
    origin = np.array([0.05, 0.0, -0.05])
    order = int(np.ceil(k * 0.2)) + 8
    cset = extract_expansion(alpha, mics, origin, order, k)
    pts = origin + 0.2 * rng.normal(size=(15, 3)) / 3
    a = evaluate(cset, pts, k)
    b = representer_matrix(mics, pts, k) @ alpha
    assert np.max(np.abs(a - b)) <= 1e-8 * max(1.0, np.max(np.abs(b)))


def test_extract_expansion_sums_translated_representers(rng):
    k = 2.5
    spec = _random_spec(rng, 9)
    alpha = rng.normal(size=9) + 1j * rng.normal(size=9)
    origin = np.array([0.05, -0.1, 0.0])
    order = 5
    cset = extract_expansion(alpha, Mics(*spec), origin, order, k)
    # B^H alpha against each mic's directivity coefficients translated to the origin
    expected = np.zeros(sf.num_coeffs(order), dtype=complex)
    for a, mic in zip(alpha, _each_mic(spec)):
        D, mic_order = directivity_matrix(mic)
        expected += a * (wf.translation_matrix(origin - mic.pos[0], k, order, mic_order) @ D[0])
    assert np.max(np.abs(cset.coeffs - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_extract_expansion_translation_consistency(rng):
    k = 2.0
    mics = _random_mics(rng, 8)
    s = rng.normal(size=8) + 1j * rng.normal(size=8)
    alpha = solve_kernel(kernel_matrix(mics, k), s, 1e-4)
    r0 = np.array([0.0, 0.05, 0.0])
    r1 = np.array([0.1, 0.0, -0.05])
    order = 14
    at_r1 = extract_expansion(alpha, mics, r1, 6, k)
    via_r0 = wf.translation_matrix(r1 - r0, k, 6, order) @ extract_expansion(
        alpha, mics, r0, order, k).coeffs
    assert np.max(np.abs(at_r1.coeffs - via_r0)) <= 1e-5 * np.max(
        np.abs(at_r1.coeffs)
    )


# ---------------------------------------------------------------------------
# Plane-wave basis
# ---------------------------------------------------------------------------

def test_plane_wave_basis_evaluation(rng):
    k = 3.0
    dirs = rng.normal(size=(10, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = 0.3 * rng.normal(size=(5, 3))
    E = np.exp(-1j * k * pts @ dirs.T)
    for i, p in enumerate(pts):
        for j, d in enumerate(dirs):
            assert E[i, j] == pytest.approx(np.exp(-1j * k * d @ p), rel=1e-12)
    w = rng.normal(size=10) + 1j * rng.normal(size=10)
    superposed = sum(wj * wf.plane_wave(pts, d, k) for wj, d in zip(w, dirs))
    assert np.allclose(E @ w, superposed)


def test_plane_wave_basis_observation_matrix(rng):
    # column n is every mic's response to the plane wave from x_n, whose
    # phase reference moves from the global origin to r0
    k = 4.0
    mics = _random_mics(rng, 9)
    dirs = rng.normal(size=(7, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    r0 = np.array([0.1, -0.2, 0.05])
    B = (mics.a[:, None] + mics.b @ dirs.T) * np.exp(-1j * k * (mics.pos - r0) @ dirs.T)
    assert B.shape == (9, 7)
    for n, x in enumerate(dirs):
        want = plane_wave_observations(mics, x, k) * np.exp(1j * k * x @ r0)
        assert np.max(np.abs(B[:, n] - want)) <= 1e-12


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_solver_linearity(seed):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
    s1 = rng.normal(size=6) + 1j * rng.normal(size=6)
    s2 = rng.normal(size=6) + 1j * rng.normal(size=6)
    c = complex(rng.normal(), rng.normal())
    lhs = solve_tikhonov(B, s1 + c * s2, 1e-2)
    rhs = solve_tikhonov(B, s1, 1e-2) + c * solve_tikhonov(B, s2, 1e-2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(rhs)))


# ---------------------------------------------------------------------------
# Input checks
# ---------------------------------------------------------------------------

_MICS = Mics(np.array([[0.0, 0.0, 0.0], [0.1, 0.2, 0.0]]), "first_order", [0.0, 0.0, 1.0], 0.5)
_B = np.array([[1.0, 0.5j], [0.2, 1.0]])
_REJECTED = {"reg": (np.nan, np.inf, -1.0), "k": (np.nan, np.inf, -1.0), "order": (-1, 1.0, True)}


@pytest.mark.parametrize("name, call, edge", [
    ("reg", lambda reg: solve_kernel(_B, np.ones(2), reg), 0.0),
    ("reg", lambda reg: solve_tikhonov(_B, np.ones(2), reg), 0.0),
    ("reg", lambda eta: pm_drive(_B, np.ones(2), eta), 0.0),
    ("reg", lambda eta: wpm_drive(_B, np.ones(2), eta, np.eye(2)), 0.0),
    ("k", lambda k: kernel_matrix(_MICS, k), 0.0),
    ("k", lambda k: build_observation_matrix(_MICS, np.zeros(3), 2, k), 0.0),
    ("order", lambda order: build_observation_matrix(_MICS, np.zeros(3), order, 2.0),
     np.int64(0)),
    ("k", lambda k: wf.green(_MICS.pos, np.ones(3), k), 0.0),
    ("k", lambda k: wf.plane_wave(_MICS.pos, np.array([0.0, 0.0, 1.0]), k), 0.0),
    ("k", lambda k: wf.regular_swf_matrix(2, _MICS.pos, k), 0.0),
    ("k", lambda k: transfer_matrix(np.ones((2, 3)), _MICS.pos, k), 0.0),
], ids=["solve_kernel", "solve_tikhonov", "pm_drive", "wpm_drive", "kernel_matrix",
        "build_observation_matrix-k", "build_observation_matrix-order", "green", "plane_wave",
        "regular_swf_matrix", "transfer_matrix"])
def test_out_of_domain_input_raises_naming_it(name, call, edge):
    # NaN gave NaN weights, drives or matrices, -1 was accepted and order -1
    # raised IndexError; each now raises a ValueError that names its argument,
    # and the edge of the domain is accepted
    assert np.isfinite(call(edge)).all()
    for value in _REJECTED[name]:
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            call(value)
