import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundfield import specfun as sf
from soundfield import wavefuncs as wf

from oracles import (evaluate, gaunt_sum, gaunt_tensor, green_partial_wave, legendre,
                     singular_swf_matrix, sph_hn, sph_jn)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Elementary fields
# ---------------------------------------------------------------------------

def test_green_helmholtz_fd():
    # (Laplacian + k^2) G = 0 away from the source, by central differences
    k, h = 3.0, 1e-4
    src = np.array([2.0, -1.0, 0.5])
    r = np.array([0.3, 0.4, -0.2])
    lap = 0.0 + 0.0j
    for ax in range(3):
        e = np.zeros(3)
        e[ax] = h
        lap += wf.green(r + e, src, k) + wf.green(r - e, src, k)
    lap = (lap - 6 * wf.green(r, src, k)) / h**2
    assert abs(lap + k**2 * wf.green(r, src, k)) <= 1e-4


def test_plane_wave_value():
    k = 2.0
    x = _unit([1.0, 2.0, -1.0])
    r = np.array([[0.2, -0.5, 0.9]])
    assert wf.plane_wave(r, x, k)[0] == pytest.approx(np.exp(-1j * k * x @ r[0]))


def test_regular_origin_value():
    k = 4.0
    origin = np.zeros((1, 3))
    for nu in range(4):
        for mu in range(-nu, nu + 1):
            val = wf.regular_swf_matrix(nu, origin, k)[0, sf.flat_index(nu, mu)]
            assert val == pytest.approx(1.0 if nu == 0 else 0.0, abs=1e-14)


def test_jacobi_anger_expansion(rng):
    # Plane wave reconstructed from its regular expansion coefficients
    k = 5.0
    x = _unit([0.3, -0.8, 0.5])
    pts = 0.4 * rng.normal(size=(15, 3))
    order = 25
    cset = wf.plane_wave_coeffs(order, x)
    assert np.max(np.abs(evaluate(cset, pts, k) - wf.plane_wave(pts, x, k))) <= 1e-10


def test_addition_theorem_green(rng):
    # sum psi(r2) phi(r1) = G(r1, r2) for |r1| < |r2|
    k = 1.0
    r1 = 0.3 * _unit(rng.normal(size=3))
    r2 = 1.0 * _unit(rng.normal(size=3))
    order = 30
    acc = np.sum(
        singular_swf_matrix(order, r2, k) * wf.regular_swf_matrix(order, r1, k)
    )
    g = wf.green(r1[None], r2, k)[0]
    assert abs(acc - g) <= 1e-8 * abs(g)


def test_green_partial_wave_matches_green():
    k = 1.0
    r = np.array([[0.2, 0.1, -0.25]])
    src = np.array([1.5, -0.5, 1.0])
    g = wf.green(r, src, k)[0]
    assert green_partial_wave(r, src, k, order=40)[0] == pytest.approx(g, rel=1e-10)


# ---------------------------------------------------------------------------
# Plane-wave transforms
# ---------------------------------------------------------------------------

def test_green_partial_wave_matches_per_degree_loop(rng):
    # the all-degrees form against the sum it replaced, one degree at a time
    r = 0.4 * rng.normal(size=(9, 3))
    r[0] = 0.0
    src, k, order = np.array([1.1, -0.6, 0.8]), 4.3, 30
    rad = np.linalg.norm(r, axis=1)
    dirs = np.where(rad[:, None] > 0, r / np.where(rad > 0, rad, 1.0)[:, None], [0, 0, 1.0])
    rs = np.linalg.norm(src)
    cosang = np.clip(dirs @ (src / rs), -1.0, 1.0)
    ref = sum((2 * nu + 1) * sph_jn(nu, k * rad) * sph_hn(nu, k * rs)
              * legendre(nu, cosang) for nu in range(order + 1))
    ref = (1j * k / (4.0 * np.pi)) * ref
    out = green_partial_wave(r, src, k, order)
    assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_sw_to_pw_quadrature(squad):
    # phi_{nu,mu}(r) = (1/4pi) \int Yhat_{nu,mu}(x) e^{-i k x . r} dS(x)
    dirs, w = squad
    k = 5.0
    r = np.array([0.3, 0.1, -0.2])
    pw = np.exp(-1j * k * dirs @ r)
    for nu, mu in [(2, 1), (0, 0), (3, -2)]:
        y = sf.sph_harm_matrix(nu, dirs)[..., sf.flat_index(nu, mu)]
        integ = np.sum(w * y * pw) / (4 * np.pi)
        phi = wf.regular_swf_matrix(nu, r[None], k)[0, sf.flat_index(nu, mu)]
        assert phi == pytest.approx(integ, abs=1e-12)


# ---------------------------------------------------------------------------
# Translation
# ---------------------------------------------------------------------------

def test_translation_theorem_field(rng):
    # Field evaluation is invariant under re-expansion about a new origin
    k = 3.0
    order_in, order_out = 6, 22
    coeffs = rng.normal(size=sf.num_coeffs(order_in)) + 1j * rng.normal(
        size=sf.num_coeffs(order_in)
    )
    cset = wf.CoefficientSet(order=order_in, origin=np.zeros(3), coeffs=coeffs)
    new_origin = np.array([0.2, -0.1, 0.15])
    moved = wf.CoefficientSet(
        order=order_out, origin=new_origin,
        coeffs=wf.translation_matrix(new_origin, k, order_out, order_in) @ coeffs)
    pts = 0.1 * rng.normal(size=(10, 3)) + new_origin
    a = evaluate(cset, pts, k)
    b = evaluate(moved, pts, k)
    assert np.max(np.abs(a - b)) <= 1e-8 * np.max(np.abs(a))
    # translate_coeffs keeps the set's own order: the leading rows
    same = wf.translate_coeffs(cset, new_origin, k)
    assert same.order == order_in and np.array_equal(same.origin, new_origin)
    lead = moved.coeffs[:sf.num_coeffs(order_in)]
    assert np.max(np.abs(same.coeffs - lead)) <= 1e-12 * np.max(np.abs(lead))


def test_translation_quadrature_identity(squad):
    # T[(nu,mu),(nu',mu')](d) = (1/4pi) \int Yhat_{nu,mu}^* Yhat_{nu',mu'} e^{-ikx.d} dS
    dirs, w = squad
    k = 2.0
    d = np.array([0.25, -0.1, 0.3])
    T = wf.translation_matrix(d, k, order_out=3, order_in=3)
    pw = np.exp(-1j * k * dirs @ d)
    for nu, mu in [(1, 0), (2, -1), (3, 3)]:
        for nup, mup in [(0, 0), (2, 1), (3, -2)]:
            integ = np.sum(
                w
                * sf.sph_harm_matrix(nu, dirs)[..., sf.flat_index(nu, mu)].conj()
                * sf.sph_harm_matrix(nup, dirs)[..., sf.flat_index(nup, mup)]
                * pw
            ) / (4 * np.pi)
            assert T[sf.flat_index(nu, mu), sf.flat_index(nup, mup)] == pytest.approx(
                integ, abs=1e-11
            )


def test_translation_composition_error_decreases(rng):
    # T(d1 + d2) approx T(d1) T(d2); error must decrease with truncation order
    k = 2.0
    for _ in range(10):
        d1 = 0.15 * rng.normal(size=3)
        d2 = 0.15 * rng.normal(size=3)
        errs = []
        for order_mid in (4, 8, 12):
            t_direct = wf.translation_matrix(d1 + d2, k, 2, 2)
            t1 = wf.translation_matrix(d1, k, 2, order_mid)
            t2 = wf.translation_matrix(d2, k, order_mid, 2)
            errs.append(np.max(np.abs(t_direct - t1 @ t2)))
        assert errs[0] > errs[1] > errs[2] or errs[2] <= 1e-14


def test_translation_identity_is_identity():
    T = wf.translation_matrix(np.zeros(3), k=3.0, order_out=4, order_in=4)
    assert np.max(np.abs(T - np.eye(sf.num_coeffs(4)))) <= 1e-12


def test_translation_batched_matches_single_calls(rng):
    k = 2.5
    d = 0.3 * rng.normal(size=(3, 4, 3))
    d[1, 2] = 0.0
    T = wf.translation_matrix(d, k, 2, 3)
    assert T.shape == (3, 4, sf.num_coeffs(2), sf.num_coeffs(3))
    for i in range(3):
        for j in range(4):
            single = wf.translation_matrix(d[i, j], k, 2, 3)
            assert np.max(np.abs(T[i, j] - single)) <= 1e-14


@pytest.mark.parametrize("order_out, order_in", [(0, 7), (7, 1), (1, 1)])
def test_translation_shapes(order_out, order_in):
    n_out, n_in = sf.num_coeffs(order_out), sf.num_coeffs(order_in)
    d = np.array([0.1, -0.2, 0.05])
    assert wf.translation_matrix(d, 1.0, order_out, order_in).shape == (n_out, n_in)
    batch = np.zeros((5, 3))
    T = wf.translation_matrix(batch, 1.0, order_out, order_in)
    assert T.shape == (5, n_out, n_in)


def _all_entries(order_out, order_in):
    return [(r, c) for r in range(sf.num_coeffs(order_out)) for c in range(sf.num_coeffs(order_in))]


# Random displacements with the zero vector and both directions of the z
# axis, where the rotation to z is the identity or a half turn.
def _mixed_batch(rng, n=3):
    d = 0.4 * rng.normal(size=(n + 3, 3))
    d[n:] = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.35], [0.0, 0.0, -0.35]]
    return d


@pytest.mark.parametrize("order_out, order_in", [(0, 0), (1, 3), (4, 2), (5, 5)])
def test_coupling_tensor_matches_gaunt(order_out, order_in, rng):
    # T(d) = sum gaunt phi(d), the coupling of the translation theorem, entry by entry
    d, k = _mixed_batch(rng), 4.1
    T = wf.translation_matrix(d, k, order_out, order_in)
    ref = gaunt_sum(d, k, order_out, order_in, _all_entries(order_out, order_in))
    assert np.max(np.abs(T.reshape(ref.shape) - ref)) <= 1e-13


@pytest.mark.parametrize("order_out, order_in",
                         [(0, 0), (0, 7), (7, 0), (1, 7), (3, 5), (12, 12)])
def test_coupling_tensor_matches_reference_build(order_out, order_in, rng):
    # T(d) against the quadrature-built Gaunt tensor contracted with phi(d)
    indptr, p, vals = gaunt_tensor(order_out, order_in)
    d, k = _mixed_batch(rng), 5.3
    phi = wf.regular_swf_matrix(order_out + order_in, d, k)
    ref = np.add.reduceat(phi[:, p] * vals, indptr[:-1], axis=1)
    T = wf.translation_matrix(d, k, order_out, order_in).reshape(ref.shape)
    assert np.max(np.abs(T - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_coupling_tensor_high_order_matches_gaunt():
    # seeded entries of the 12 <-> 12 operator, whose Gaunt degrees reach 24
    gen = np.random.default_rng(2018)
    picks = gen.choice(sf.num_coeffs(12) ** 2, size=300, replace=False)
    entries = list(zip(*(a.tolist() for a in np.divmod(picks, sf.num_coeffs(12)))))
    d, k = np.array([0.21, -0.33, 0.12]), 6.2
    T = wf.translation_matrix(d, k, 12, 12)
    ref = gaunt_sum(d, k, 12, 12, entries)
    rows, cols = zip(*entries)
    assert np.max(np.abs(T[list(rows), list(cols)] - ref)) <= 1e-13


def test_coupling_tensor_cold_build_memory():
    # a cold order-12 translation holds no table of the Gaunt coupling
    cset = wf.CoefficientSet(order=12, origin=np.zeros(3),
                             coeffs=np.ones(sf.num_coeffs(12), dtype=complex))
    tracemalloc.start()
    try:
        wf.translate_coeffs(cset, np.array([0.3, -0.2, 0.1]), 7.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def test_coaxial_tables_are_built_once_per_order_pair(rng):
    # the order-only tables of a translation: one read-only entry per order
    # pair, under 1 MB at 12 <-> 12, and a cold call equal to a warm one
    cset = wf.CoefficientSet(order=12, origin=np.zeros(3),
                             coeffs=rng.normal(size=sf.num_coeffs(12)) + 0.5j)
    d, k = 0.3 * rng.normal(size=(4, 3)), 6.0
    warm = wf.translate_coeffs(cset, d[0], k).coeffs
    wf._coaxial_tables.cache_clear()
    tracemalloc.start()
    try:
        cold = wf.translate_coeffs(cset, d[0], k).coeffs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6
    assert np.array_equal(cold, warm)
    for di in d[1:]:
        wf.translate_coeffs(cset, di, k)
    assert wf._coaxial_tables.cache_info().currsize == 1
    tables = wf._coaxial_tables(12, 12)
    assert sum(t.nbytes for t in tables) < 1e6
    for t in tables:
        with pytest.raises(ValueError):
            t[(0,) * t.ndim] = 1.0


@pytest.mark.parametrize("d", [[0.0, 0.0, 0.0], [0.0, 0.0, 0.4], [0.0, 0.0, -0.4],
                               [[0.0, 0.0, -0.4], [0.0, 0.0, 0.0], [0.1, -0.2, 0.3],
                                [0.0, 0.0, 0.4], [-0.3, 0.2, 0.0]]],
                         ids=["zero", "+z", "-z", "mixed"])
def test_translation_matrix_edge_displacements(d):
    # the rotation to z is the identity at d = 0 and along +z and a half turn
    # along -z; the batch mixes them with a general and an xy-plane displacement
    d, k = np.array(d), 3.7
    T = wf.translation_matrix(d, k, 4, 4)
    ref = gaunt_sum(d, k, 4, 4, _all_entries(4, 4)).reshape(T.shape)
    assert np.max(np.abs(T - ref)) <= 1e-13
    # translate_coeffs applies the same operator without forming it
    c = np.arange(sf.num_coeffs(4)) * (1.0 - 0.5j)
    cset = wf.CoefficientSet(order=4, origin=np.zeros(3), coeffs=c)
    for di, ref_i in zip(d.reshape(-1, 3), ref.reshape((-1,) + T.shape[-2:])):
        moved = wf.translate_coeffs(cset, di, k).coeffs
        assert np.max(np.abs(moved - ref_i @ c)) <= 1e-13 * np.max(np.abs(c))


_NON_FINITE = {"nan-d": ([np.nan, 0.0, 0.0], 3.0), "nan-k": ([0.1, -0.2, 0.3], np.nan),
               "inf-k": ([0.1, -0.2, 0.3], np.inf), "inf-k-at-0": ([0.0, 0.0, 0.0], np.inf),
               "huge-d": ([1e200, 0.0, 0.0], 3.0)}


@pytest.mark.parametrize("entry, case",
                         [(e, c) for c in _NON_FINITE for e in ("translate_coeffs",
                                                                 "translation_matrix")]
                         + [("rotate_coeffs", "nan-origin")])
def test_translation_and_rotation_reject_non_finite_input(entry, case):
    # a non-finite k |d| or origin raises instead of returning NaN or warning
    origin = [np.nan, 0.0, 0.0] if entry == "rotate_coeffs" else np.zeros(3)
    cset = wf.CoefficientSet(order=3, origin=origin, coeffs=np.ones(sf.num_coeffs(3)))
    if entry == "rotate_coeffs":
        with pytest.raises(ValueError, match="origin at 0"):
            wf.rotate_coeffs(cset, np.eye(3))
        return
    d, k = np.array(_NON_FINITE[case][0]), _NON_FINITE[case][1]
    with pytest.raises(ValueError, match=r"k \|displacement\| must be finite"):
        if entry == "translate_coeffs":
            wf.translate_coeffs(cset, d, k)
        else:
            wf.translation_matrix(d, k, 3, 2)


def test_translation_runs_at_zero_k_and_far_displacements():
    # k = 0 leaves only phi_00 = 1: T is the identity; |d| = 1e10 is finite
    T = wf.translation_matrix(np.array([0.3, -0.2, 0.1]), 0.0, 3, 3)
    assert np.max(np.abs(T - np.eye(sf.num_coeffs(3)))) <= 1e-13
    cset = wf.CoefficientSet(order=3, origin=np.zeros(3), coeffs=np.ones(sf.num_coeffs(3)))
    far = wf.translate_coeffs(cset, np.array([1e10, 0.0, 0.0]), 2.0).coeffs
    assert np.isfinite(far).all()


# ---------------------------------------------------------------------------
# Rotation
# ---------------------------------------------------------------------------

def test_rotation_field_consistency(rng):
    k = 4.0
    order = 6
    coeffs = rng.normal(size=sf.num_coeffs(order)) + 1j * rng.normal(
        size=sf.num_coeffs(order)
    )
    cset = wf.CoefficientSet(order=order, origin=np.zeros(3), coeffs=coeffs)
    axis = rng.normal(size=3)
    R = sf.rotation_matrix(axis, 0.9)
    rotated = wf.rotate_coeffs(cset, R)
    pts = 0.5 * rng.normal(size=(12, 3))
    # rotated set represents the pulled-back field: u'(r) = u(R r)
    assert np.max(
        np.abs(evaluate(rotated, pts, k) - evaluate(cset, pts @ R.T, k))
    ) <= 1e-12


@pytest.mark.parametrize("rot", [np.diag([1.0, 1.0, -1.0]), 2.0 * np.eye(3),
                                 [[1.0, 0.3, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                                 np.full((3, 3), np.nan)],
                         ids=["reflection", "scaled", "shear", "nan"])
def test_rotate_coeffs_rejects_non_rotations(rot):
    cset = wf.CoefficientSet(order=3, origin=np.zeros(3), coeffs=np.ones(sf.num_coeffs(3)))
    with pytest.raises(ValueError, match="rot must be"):
        wf.rotate_coeffs(cset, rot)


@pytest.mark.parametrize("axis, angle", [([0.3, -1.2, 0.5], a) for a in
                                        (0.0, 1e-9, 0.9, np.pi, -2.5, 100.0)]
                         + [([1.0, 0.0, 0.0], np.pi), ([1.0, 1.0, 0.0], np.pi),
                            ([0.0, 0.0, 1.0], 2.0), ([1e-7, 0.0, 1.0], 3.0)])
def test_rotate_coeffs_accepts_rotation_matrix(axis, angle, rng):
    # every rotation_matrix output rotates, with tilts of z at, near and
    # between 0 and pi
    k, order = 3.0, 3
    cset = wf.CoefficientSet(order=order, origin=np.zeros(3),
                             coeffs=rng.normal(size=sf.num_coeffs(order)) + 1j)
    R = sf.rotation_matrix(axis, angle)
    pts = 0.5 * rng.normal(size=(8, 3))
    rotated = wf.rotate_coeffs(cset, R)
    assert np.max(np.abs(evaluate(rotated, pts, k) - evaluate(cset, pts @ R.T, k))) <= 1e-12


def test_rotated_plane_wave(rng):
    k = 3.0
    x = _unit([0.2, 0.5, -0.8])
    R = sf.rotation_matrix(rng.normal(size=3), -1.4)
    # u'(r) = u(R r) = exp(-i k x . R r) is a plane wave from direction R^T x
    a = wf.rotate_coeffs(wf.plane_wave_coeffs(10, x), R)
    b = wf.plane_wave_coeffs(10, R.T @ x)
    pts = 0.3 * rng.normal(size=(10, 3))
    assert np.max(np.abs(evaluate(a, pts, k) - evaluate(b, pts, k))) <= 1e-9
