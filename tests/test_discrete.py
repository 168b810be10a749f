import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundfield import discrete, observation
from soundfield import specfun as sf
from soundfield import wavefuncs as wf
from soundfield.discrete import (
    PlaneWaveBasis,
    Representers,
    SphericalBasis,
    build_observation_matrix,
    extract_expansion,
    finite_to_infinite_gap,
    kernel_matrix,
    representer_matrix,
    solve_kernel,
    solve_tikhonov,
)
from soundfield.observation import (
    Microphone,
    mic_functionals,
    plane_wave_observations,
    point_source_observations,
)

from oracles import (
    directivity_coeffs,
    evaluate,
    harmonic_representers,
    mixed_mics,
    observe_coeffs,
    translation_kernel_matrix,
)


def _random_mics(rng, m, kinds=("omni", "bidirectional", "first_order")):
    mics = []
    for i in range(m):
        pos = 0.4 * rng.normal(size=3)
        kind = kinds[i % len(kinds)]
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        if kind == "omni":
            mics.append(Microphone(pos=pos, kind="omni"))
        elif kind == "bidirectional":
            mics.append(Microphone(pos=pos, kind="bidirectional", axis=axis))
        else:
            mics.append(Microphone(pos=pos, kind="first_order", axis=axis, a=0.4))
    return mics


# ---------------------------------------------------------------------------
# Observation matrix
# ---------------------------------------------------------------------------

def test_observation_matrix_matches_direct_observation(rng):
    k = 4.0
    order = 5
    basis = SphericalBasis(order=order, origin=np.array([0.05, -0.02, 0.1]))
    mics = _random_mics(rng, 8)
    B = build_observation_matrix(mics, basis, k)
    n = sf.num_coeffs(order)
    coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
    cset = wf.CoefficientSet(order=order, origin=basis.origin, coeffs=coeffs)
    direct = np.array([observe_coeffs(m, cset, k) for m in mics])
    assert np.max(np.abs(B @ coeffs - direct)) <= 1e-10 * np.max(np.abs(direct))


def test_observation_matrix_rows_are_single_translations(rng):
    k = 3.0
    basis = SphericalBasis(order=4, origin=np.array([0.1, 0.0, -0.05]))
    mics = _random_mics(rng, 6)
    B = build_observation_matrix(mics, basis, k)
    for m, mic in enumerate(mics):
        T = wf.translation_matrix(mic.pos - basis.origin, k, mic.order, basis.order)
        row = directivity_coeffs(mic).conj() @ T
        assert np.max(np.abs(B[m] - row)) <= 1e-13


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


def test_tikhonov_noise_covariance(rng):
    m, n = 6, 4
    B = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    s = rng.normal(size=m) + 1j * rng.normal(size=m)
    sig = np.diag(rng.uniform(0.5, 2.0, size=m))
    reg = 0.1
    x = solve_tikhonov(B, s, reg, noise_cov=sig)
    expected = np.linalg.solve(
        B.conj().T @ np.linalg.solve(sig, B) + reg * np.eye(n),
        B.conj().T @ np.linalg.solve(sig, s),
    )
    assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)


@pytest.mark.parametrize("shape", [(6, 9), (9, 6)])  # both closed forms
@pytest.mark.parametrize("weighted", [False, True])
def test_tikhonov_block_equals_column_solves(rng, shape, weighted):
    M, N = shape
    B = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    S = rng.normal(size=(M, 4)) + 1j * rng.normal(size=(M, 4))
    L = rng.normal(size=(M, M))
    cov = L @ L.T + M * np.eye(M) if weighted else None
    C = solve_tikhonov(B, S, 1e-2, noise_cov=cov)
    assert C.shape == (N, 4)
    for t in range(4):
        col = solve_tikhonov(B, S[:, t], 1e-2, noise_cov=cov)
        assert np.max(np.abs(C[:, t] - col)) <= 1e-12 * np.max(np.abs(col))


# ---------------------------------------------------------------------------
# Kernel (infinite-dimensional) estimator
# ---------------------------------------------------------------------------

def test_omni_kernel_is_sinc():
    rng = np.random.default_rng(11)
    k = 3.0
    mics = [Microphone(pos=0.3 * rng.normal(size=3), kind="omni") for _ in range(6)]
    K = kernel_matrix(mics, k)
    for i in range(6):
        for j in range(6):
            d = np.linalg.norm(mics[i].pos - mics[j].pos)
            assert K[i, j] == pytest.approx(sf.sph_jn(0, k * d), abs=1e-12)


def test_omni_equals_generic_kernel_ridge():
    # The closed-form Gram matrix of omni mics is j0(k |r - r'|) itself, so
    # it and the kernel ridge weights match a direct sinc evaluation.
    rng = np.random.default_rng(4)
    k = 5.0
    omni = [Microphone(pos=0.3 * rng.normal(size=3), kind="omni") for _ in range(8)]
    K_fast = kernel_matrix(omni, k)
    s = rng.normal(size=8) + 1j * rng.normal(size=8)
    a1 = solve_kernel(K_fast, s, 1e-3)
    D = np.linalg.norm(
        np.array([m.pos for m in omni])[:, None, :]
        - np.array([m.pos for m in omni])[None, :, :],
        axis=-1,
    )
    K_ref = np.sinc(k * D / np.pi)
    a2 = np.linalg.solve(K_ref + 1e-3 * np.eye(8), s)
    assert np.max(np.abs(K_fast - K_ref)) <= 1e-12
    assert np.max(np.abs(a1 - a2)) <= 1e-12 * max(1.0, np.max(np.abs(a2)))


@pytest.mark.parametrize("weighted", [False, True])
def test_kernel_block_equals_column_solves(rng, weighted):
    k = 4.0
    mics = _random_mics(rng, 7)
    K = kernel_matrix(mics, k)
    S = rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5))
    cov = np.diag(rng.uniform(0.5, 2.0, size=7)) if weighted else None
    A = solve_kernel(K, S, 1e-3, noise_cov=cov)
    assert A.shape == (7, 5)
    for t in range(5):
        col = solve_kernel(K, S[:, t], 1e-3, noise_cov=cov)
        assert np.max(np.abs(A[:, t] - col)) <= 1e-12 * np.max(np.abs(col))


def test_factored_representers_match_per_mic_reference(rng):
    # Mixed omni/first-order mics and evaluation points that include a mic
    # position (the r = 0 row).
    mics = _random_mics(rng, 19, kinds=("omni", "first_order"))
    pts = np.vstack([0.5 * rng.normal(size=(40, 3)), mics[0].pos, mics[1].pos])
    rep = Representers(mics, pts)
    for k in (0.5, 3.0, 9.0):
        ref = harmonic_representers(mics, pts, k)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(rep.matrix(k) - ref)) <= 1e-13 * scale
        assert np.max(np.abs(representer_matrix(mics, pts, k) - ref)) <= 1e-13 * scale
    # At its own position a representer is phi_{0,0}(0) d_{0,0} = d_{0,0}.
    V = rep.matrix(3.0)
    assert V[-2, 0] == directivity_coeffs(mics[0])[0]
    assert V[-1, 1] == directivity_coeffs(mics[1])[0]
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
    mics = mixed_mics(rng, 6)
    mics.append(Microphone(pos=mics[1].pos, kind="first_order", axis=rng.normal(size=3),
                           a=0.3))
    _, a, b = mic_functionals(mics)
    K = kernel_matrix(mics, k)
    assert np.diag(K) == pytest.approx(a**2 + np.sum(b * b, axis=1) / 3, rel=1e-14)
    assert _rel_gap(K, translation_kernel_matrix(mics, k)) <= 1e-13
    pts = np.array([m.pos for m in mics])
    V = representer_matrix(mics, pts, k)
    assert np.array_equal(np.diag(V), a)
    assert V[1, 6] == a[6] and V[6, 1] == a[1]
    assert _rel_gap(V, harmonic_representers(mics, pts, k)) <= 1e-13


@pytest.mark.parametrize("x", [1e-12, 1e-6, 1e-3])
def test_closed_forms_at_small_k_rho(rng, x):
    # Mic pairs and evaluation points at k rho = x, where the Gram matrix
    # takes j1(x)/x as (j0 + j2)/3.
    k = 3.0
    mics = mixed_mics(rng, 6)
    u = rng.normal(size=(6, 3))
    shift = (x / k) * u / np.linalg.norm(u, axis=1, keepdims=True)
    near = mixed_mics(rng, 6)
    for m, mic in enumerate(near):
        mic.pos = mics[m].pos + shift[m]
    mics += near
    assert _rel_gap(kernel_matrix(mics, k), translation_kernel_matrix(mics, k)) <= 1e-13
    pts = np.array([m.pos for m in mics[:6]]) - shift
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
    build_observation_matrix(mics, PlaneWaveBasis(dirs=np.eye(3), origin=np.zeros(3)), k)


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
    s = np.array([observe_coeffs(m, cset, k) for m in mics])
    K = kernel_matrix(mics, k)
    alpha = solve_kernel(K, s, 1e-12)
    mic_pts = np.array([m.pos for m in mics])
    vals = representer_matrix(mics, mic_pts, k) @ alpha
    # at omni mic positions the interpolant equals the observed pressure
    for i, m in enumerate(mics):
        if m.kind == "omni":
            assert vals[i] == pytest.approx(s[i], rel=1e-6)


def test_finite_kernel_gap(rng):
    # K^finite(N0) -> K^infinite; relative Frobenius gap <= 1e-6 at N0 = 20
    k = 2.0  # kR <= 2 for mics within the unit ball scaled to 1
    mics = [Microphone(pos=v, kind="omni") for v in 0.9 * rng.normal(size=(6, 3)) / 3]
    mics += _random_mics(rng, 4)
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
    basis = SphericalBasis(order=order, origin=np.zeros(3))
    B = build_observation_matrix(mics, basis, k)
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
    mics = _random_mics(rng, 9)
    alpha = rng.normal(size=9) + 1j * rng.normal(size=9)
    origin = np.array([0.05, -0.1, 0.0])
    order = 5
    cset = extract_expansion(alpha, mics, origin, order, k)
    expected = np.zeros(sf.num_coeffs(order), dtype=complex)
    for a, mic in zip(alpha, mics):
        rep = wf.CoefficientSet(
            order=mic.order, origin=mic.pos, coeffs=directivity_coeffs(mic)
        )
        expected += a * wf.translate_coeffs(rep, origin, k, order_out=order).coeffs
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
    via_r0 = wf.translate_coeffs(
        extract_expansion(alpha, mics, r0, order, k), r1, k, order_out=6
    )
    assert np.max(np.abs(at_r1.coeffs - via_r0.coeffs)) <= 1e-5 * np.max(
        np.abs(at_r1.coeffs)
    )


# ---------------------------------------------------------------------------
# Plane-wave basis
# ---------------------------------------------------------------------------

def test_plane_wave_basis_evaluation(rng):
    k = 3.0
    dirs = rng.normal(size=(10, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    basis = PlaneWaveBasis(dirs=dirs, origin=np.zeros(3))
    pts = 0.3 * rng.normal(size=(5, 3))
    E = basis.eval_matrix(pts, k)
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
    B = build_observation_matrix(mics, PlaneWaveBasis(dirs=dirs, origin=r0), k)
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
