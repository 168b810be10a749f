import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundfield import specfun as sf
from soundfield import wavefuncs as wf

from oracles import evaluate, green_partial_wave, legendre


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
    cset = wf.plane_wave_coeffs(order, x, k)
    assert np.max(np.abs(evaluate(cset, pts, k) - wf.plane_wave(pts, x, k))) <= 1e-10


def test_addition_theorem_green(rng):
    # sum psi(r2) phi(r1) = G(r1, r2) for |r1| < |r2|
    k = 1.0
    r1 = 0.3 * _unit(rng.normal(size=3))
    r2 = 1.0 * _unit(rng.normal(size=3))
    order = 30
    acc = np.sum(
        wf.singular_swf_matrix(order, r2, k) * wf.regular_swf_matrix(order, r1, k)
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
    ref = sum((2 * nu + 1) * sf.sph_jn(nu, k * rad) * sf.sph_hn(nu, k * rs)
              * legendre(nu, cosang) for nu in range(order + 1))
    ref = (1j * k / (4.0 * np.pi)) * ref
    out = green_partial_wave(r, src, k, order)
    assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_swf_radial_gather_is_exact(rng):
    # evaluating on the distinct radii and gathering changes no value
    pts = 0.5 * rng.normal(size=(40, 3))
    pts[::4] = pts[1::4]  # repeated radii
    pts[7] = 0.0
    rad = np.linalg.norm(pts, axis=1)
    k, order = 6.2, 9
    direct = np.moveaxis(sf.sph_jn_all(order, k * rad), 0, -1)
    nu, _ = sf.degrees_orders(order)
    expected = direct[:, nu] * (1j ** (-nu.astype(float)))
    assert np.array_equal(wf.swf_radial(order, rad, k), expected)
    assert np.array_equal(wf.swf_radial(order, rad.reshape(5, 8), k),
                          expected.reshape(5, 8, -1))


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
    moved = wf.translate_coeffs(cset, new_origin, k, order_out=order_out)
    pts = 0.1 * rng.normal(size=(10, 3)) + new_origin
    a = evaluate(cset, pts, k)
    b = evaluate(moved, pts, k)
    assert np.max(np.abs(a - b)) <= 1e-8 * np.max(np.abs(a))


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


@pytest.mark.parametrize("order_out, order_in", [(0, 0), (1, 3), (4, 2), (5, 5)])
def test_coupling_tensor_matches_gaunt(order_out, order_in):
    indptr, cols, vals = wf._coupling_tensor(order_out, order_in)
    flat_rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    nu, mu = (a.tolist() for a in sf.degrees_orders(order_out + order_in))
    row, col = (a.tolist() for a in np.divmod(flat_rows, sf.num_coeffs(order_in)))
    for r, c, p, v in zip(row, col, cols.tolist(), vals):
        g = sf.gaunt(nu[r], mu[r], nu[c], mu[c], nu[p], mu[p])
        assert abs(v - g) <= 1e-13
    # every nonzero Gaunt coefficient of the block is stored
    stored = set(zip(row, col, cols.tolist()))
    for r in range(sf.num_coeffs(order_out)):
        for c in range(sf.num_coeffs(order_in)):
            for p in range(sf.num_coeffs(order_out + order_in)):
                if (r, c, p) not in stored:
                    assert sf.gaunt(nu[r], mu[r], nu[c], mu[c], nu[p], mu[p]) == 0.0


def _coupling_tensor_reference(order_out, order_in):
    """The coupling tensor from a dense selection mask and a full-range
    Gauss-Legendre loop with three gathers per node over every entry."""
    L = order_out + order_in
    x, w = np.polynomial.legendre.leggauss(L + 1)
    dirs = np.stack([np.sqrt(1.0 - x * x), np.zeros_like(x), x], axis=-1)
    P = sf.sph_harm_matrix(L, dirs).real
    nu_out, mu_out = sf.degrees_orders(order_out)
    nu_in, mu_in = sf.degrees_orders(order_in)
    nu, mu = nu_out[:, None, None], mu_out[:, None, None]
    nup, mup = nu_in[None, :, None], mu_in[None, :, None]
    nupp = np.arange(L + 1)[None, None, :]
    allowed = (
        (np.abs(mup - mu) <= nupp)
        & (nupp >= np.abs(nu - nup))
        & (nupp <= nu + nup)
        & ((nu + nup + nupp) % 2 == 0)
    )
    row, col, deg = np.nonzero(allowed)
    p = sf.flat_index(deg, mu_in[col] - mu_out[row])
    vals = np.zeros(row.size)
    for q in range(L + 1):
        vals += w[q] * P[q, row] * P[q, col] * P[q, p]
    vals *= 0.5
    n_rows = sf.num_coeffs(order_out) * sf.num_coeffs(order_in)
    indptr = np.zeros(n_rows + 1, dtype=np.intp)
    np.cumsum(np.bincount(row * sf.num_coeffs(order_in) + col, minlength=n_rows),
              out=indptr[1:])
    return indptr, p, vals


@pytest.mark.parametrize("order_out, order_in",
                         [(0, 0), (0, 7), (7, 0), (1, 7), (3, 5), (12, 12)])
def test_coupling_tensor_matches_reference_build(order_out, order_in):
    indptr, p, vals = wf._coupling_tensor(order_out, order_in)
    ref_indptr, ref_p, ref_vals = _coupling_tensor_reference(order_out, order_in)
    assert np.array_equal(indptr, ref_indptr)
    assert np.array_equal(p, ref_p)
    assert np.max(np.abs(vals - ref_vals)) <= 2e-15
    assert all(not a.flags.writeable for a in (indptr, p, vals))
    assert np.all(np.diff(indptr) > 0)


def test_coupling_tensor_high_order_matches_gaunt():
    # seeded entries of the 12 <-> 12 tensor, whose degrees reach 24
    indptr, p, vals = wf._coupling_tensor(12, 12)
    nu, mu = (a.tolist() for a in sf.degrees_orders(24))
    picks = np.random.default_rng(2018).choice(vals.size, size=300, replace=False)
    flat_rows = np.searchsorted(indptr, picks, side="right") - 1
    for e, (r, c) in zip(picks.tolist(), zip(*np.divmod(flat_rows, sf.num_coeffs(12)))):
        g = sf.gaunt(nu[r], mu[r], nu[c], mu[c], nu[p[e]], mu[p[e]])
        assert abs(vals[e] - g) <= 1e-13


def test_coupling_tensor_cold_build_memory():
    # the chunked gathers must not hold an (entries x nodes) array
    tracemalloc.start()
    try:
        wf._coupling_tensor.__wrapped__(12, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


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


def test_rotated_plane_wave(rng):
    k = 3.0
    x = _unit([0.2, 0.5, -0.8])
    R = sf.rotation_matrix(rng.normal(size=3), -1.4)
    # u'(r) = u(R r) = exp(-i k x . R r) is a plane wave from direction R^T x
    a = wf.rotate_coeffs(wf.plane_wave_coeffs(10, x, k), R)
    b = wf.plane_wave_coeffs(10, R.T @ x, k)
    pts = 0.3 * rng.normal(size=(10, 3))
    assert np.max(np.abs(evaluate(a, pts, k) - evaluate(b, pts, k))) <= 1e-9
