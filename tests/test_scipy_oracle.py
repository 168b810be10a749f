"""scipy as an oracle for the numpy-only special-function core.

The library computes its special functions by recurrences (README,
"Numerics") and never imports scipy; scipy is a test dependency and these
tests hold each replaced function to the scipy routine it replaced.
"""

import math

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import brentq
from scipy.special import eval_legendre, sph_harm_y, spherical_jn, spherical_yn

from soundfield import specfun as sf
from soundfield import wavefuncs as wf
from soundfield.boundary import forbidden_frequencies, radial_response

from oracles import gaunt_tensor, legendre, sph_hn, sph_jn

C_SOUND = 340.65


# ---------------------------------------------------------------------------
# Spherical harmonics
# ---------------------------------------------------------------------------

def _scipy_harmonics(order, dirs):
    theta = np.arccos(np.clip(dirs[:, 2], -1.0, 1.0))
    phi = np.arctan2(dirs[:, 1], dirs[:, 0])
    nu, mu = sf.degrees_orders(order)
    return math.sqrt(4.0 * math.pi) * sph_harm_y(nu, mu, theta[:, None], phi[:, None])


@pytest.fixture(scope="module")
def directions():
    rng = np.random.default_rng(2024)
    d = rng.normal(size=(2000, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    axes = np.array([[0, 0, 1], [0, 0, -1], [1, 0, 0], [0, -1, 0], [-1, 0, 0]], float)
    z = 1.0 - np.logspace(-12, -1, 50)
    north = np.stack([np.sqrt((1 - z) * (1 + z)), np.zeros_like(z), z], axis=-1)
    return np.concatenate([d, axes, north, north * [1, 1, -1]])


@pytest.mark.parametrize("order", [0, 1, 2, 7, 12, 20, 30])
def test_sph_harm_matrix_matches_scipy(order, directions):
    # Next to the poles both codes carry up to ~1e-13 of rounding by degree
    # 30 (each measured against a 40-digit reference), so they may differ by
    # twice that there.
    tol = 1e-13 if order <= 20 else 2e-13
    ours = sf.sph_harm_matrix(order, directions)
    assert np.max(np.abs(ours - _scipy_harmonics(order, directions))) <= tol


def test_sph_harm_matrix_shapes(directions):
    block = directions[:12].reshape(3, 4, 3)
    Y = sf.sph_harm_matrix(5, block)
    assert Y.shape == (3, 4, 36)
    assert np.array_equal(Y.reshape(12, 36), sf.sph_harm_matrix(5, directions[:12]))
    single = sf.sph_harm_matrix(5, directions[0])
    assert single.shape == (36,)
    assert np.max(np.abs(single - _scipy_harmonics(5, directions[:1])[0])) <= 1e-14


# ---------------------------------------------------------------------------
# Spherical Bessel and Hankel functions
# ---------------------------------------------------------------------------

NMAX = 40


def _bessel_points():
    """x in [0, 60]: a grid, tiny arguments, and points at and next to zeros of j_n."""
    xs = [np.array([0.0, 1e-12, 1e-8, 1e-6, 1e-3]), np.linspace(0.01, 60.0, 601)]
    grid = np.linspace(0.05, 60.0, 4000)
    for n in (0, 1, 2, 7, 15, 30, 40):
        v = spherical_jn(n, grid)
        for i in np.nonzero(v[:-1] * v[1:] < 0)[0]:
            root = brentq(lambda x: spherical_jn(n, x), grid[i], grid[i + 1], xtol=1e-15)
            xs.append(np.array([root, np.nextafter(root, 0.0), root - 1e-9, root + 1e-9]))
    return np.concatenate(xs)


@pytest.fixture(scope="module")
def bessel_points():
    return _bessel_points()


def _orders(x):
    return np.arange(NMAX + 1)[:, None], x[None, :]


def test_sph_jn_matches_scipy(bessel_points):
    n, x = _orders(bessel_points)
    assert np.max(np.abs(sf.sph_jn_all(NMAX, bessel_points) - spherical_jn(n, x))) <= 1e-14
    jp = sf.sph_jn_all(NMAX, bessel_points, derivative=True)
    assert np.max(np.abs(jp - spherical_jn(n, x, derivative=True))) <= 1e-14


def test_sph_jn_at_zero_is_exact():
    assert np.array_equal(sf.sph_jn_all(5, 0.0), [1.0, 0, 0, 0, 0, 0])
    assert np.array_equal(sf.sph_jn_all(5, 0.0, derivative=True), [0, 1 / 3, 0, 0, 0, 0])
    assert sph_jn(0, 0.0) == 1.0
    # at x = 1e-300 scipy's j_1 underflows to 0 (and its j_1' is 1); the
    # leading power-series terms are exact there
    assert sph_jn(1, 1e-300) == pytest.approx(1e-300 / 3, rel=1e-15)
    assert sf.sph_jn_all(1, 1e-300, derivative=True)[1] == pytest.approx(1 / 3, rel=1e-15)


def _close(ours, ref, rtol=1e-12, atol=1e-14):
    ours, ref = np.broadcast_arrays(ours, ref)
    finite = np.isfinite(ref)
    assert np.all(np.abs(ours[finite] - ref[finite]) <= rtol * np.abs(ref[finite]) + atol)
    return finite


def test_sph_yn_matches_scipy(bessel_points):
    n, x = _orders(bessel_points)
    h = sf.sph_hn_all(NMAX, bessel_points)
    y = spherical_yn(n, x)
    finite = _close(h.imag, y)
    # past overflow, and at x = 0, y_n is -inf as in scipy
    assert np.all(h.imag[~finite & np.isinf(y)] == -np.inf)
    assert np.array_equal(h.real, sf.sph_jn_all(NMAX, bessel_points))


def test_sph_yn_derivative_matches_scipy(bessel_points):
    n, x = _orders(bessel_points)
    hp = sf.sph_hn_all(NMAX, bessel_points, derivative=True)
    _close(hp.imag, spherical_yn(n, x, derivative=True))
    # y_n'(x) -> +inf as x -> 0+ (scipy returns nan for n >= 1 at 0)
    assert np.all(hp.imag[:, bessel_points == 0.0] == np.inf)
    assert np.array_equal(hp.real, sf.sph_jn_all(NMAX, bessel_points, derivative=True))


def test_scalar_forms_match_tables(bessel_points):
    x = bessel_points[::7]
    for deriv in (False, True):
        J = sf.sph_jn_all(NMAX, x, derivative=deriv)
        H = sf.sph_hn_all(NMAX, x, derivative=deriv)
        for n in (0, 1, 9, NMAX):
            jn = sf.sph_jn_all(n, x, derivative=True)[n] if deriv else sph_jn(n, x)
            assert np.allclose(jn, J[n], rtol=1e-14, atol=1e-15)
            both = sph_hn(n, x, derivative=deriv)
            assert np.array_equal(np.isfinite(both), np.isfinite(H[n]))
            fin = np.isfinite(H[n])
            assert np.allclose(both[fin], H[n][fin], rtol=1e-14, atol=1e-15)
    # array degrees against a scalar argument, and the broadcast of both
    assert np.allclose(sph_jn(np.arange(NMAX + 1), 7.5), sf.sph_jn_all(NMAX, 7.5), rtol=1e-14)
    nn = np.array([[0], [3], [11]])
    assert np.allclose(sph_jn(nn, x), sf.sph_jn_all(11, x)[[0, 3, 11]], rtol=1e-14, atol=1e-15)


def test_negative_arguments_follow_parity():
    x = np.array([0.3, 2.0, 17.0, 45.0])
    n = np.arange(12)[:, None]
    assert np.allclose(sf.sph_jn_all(11, -x), (-1.0) ** n * sf.sph_jn_all(11, x), rtol=1e-13)
    assert np.allclose(sf.sph_jn_all(11, -x), spherical_jn(n, -x), rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# Radial responses at and near forbidden frequencies
# ---------------------------------------------------------------------------

def _scipy_radial(kind, order, kR, a):
    nu = np.arange(order + 1)
    ip = 1j ** (-nu.astype(float))
    if kind == "omni":
        return ip * spherical_jn(nu, kR)
    if kind == "first_order":
        return ip * (a * spherical_jn(nu, kR) + 1j * (1 - a) * spherical_jn(nu, kR, derivative=True))
    hp = spherical_jn(nu, kR, derivative=True) + 1j * spherical_yn(nu, kR, derivative=True)
    return ip * (1j / (kR**2 * hp))


@pytest.mark.parametrize("kind", ["omni", "first_order", "rigid"])
def test_radial_response_matches_scipy_near_forbidden(kind):
    radius, order = 1.0, 7
    freqs = [f for f, _ in forbidden_frequencies(radius, C_SOUND, order, 1200.0)]
    assert len(freqs) >= 10
    for f in freqs:
        for g in (f, f * (1 - 1e-9), f * (1 + 1e-9), f - 1.0, f + 1.0):
            kR = 2 * math.pi * g * radius / C_SOUND
            ours = radial_response(kind, order, kR, a=0.5)
            ref = _scipy_radial(kind, order, kR, 0.5)
            assert np.all(np.abs(ours - ref) <= 1e-12 * np.abs(ref) + 1e-14), (kind, g)


# ---------------------------------------------------------------------------
# Legendre polynomials
# ---------------------------------------------------------------------------

def test_legendre_matches_scipy():
    x = np.concatenate([np.linspace(-1.0, 1.0, 201), [-1 + 1e-12, 1 - 1e-12, 0.9999]])
    n = np.arange(41)[:, None]
    ref = eval_legendre(n, x)
    assert np.max(np.abs(sf.legendre_all(40, x) - ref)) <= 1e-13
    assert np.max(np.abs(legendre(n, x) - ref)) <= 1e-13
    assert legendre(6, 0.3) == pytest.approx(eval_legendre(6, 0.3), abs=1e-15)


# ---------------------------------------------------------------------------
# Forbidden frequencies
# ---------------------------------------------------------------------------

def _brentq_forbidden(radius, c, numax, fmax):
    """The bracket scan of ``forbidden_frequencies``, refined by brentq."""
    kmax = 2.0 * math.pi * fmax * radius / c
    xs = np.linspace(1e-6, kmax, max(40, int(20 * kmax)) + 1)
    out = []
    for nu in range(numax + 1):
        vals = spherical_jn(nu, xs)
        for lo, hi, vlo, vhi in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
            if vlo != 0.0 and vlo * vhi < 0.0:
                root = brentq(lambda x: spherical_jn(nu, x), lo, hi, xtol=1e-13)
                f = root * c / (2.0 * math.pi * radius)
                if f <= fmax:
                    out.append((f, nu))
    return sorted(out)


@pytest.mark.parametrize("radius, c, numax, fmax", [
    (1.0, 340.65, 7, 350.0), (0.5, 343.0, 5, 2000.0), (1.3, 340.65, 12, 1500.0),
    (0.05, 340.65, 3, 100.0),
])
def test_forbidden_frequencies_match_brentq(radius, c, numax, fmax):
    ours = forbidden_frequencies(radius, c, numax, fmax)
    ref = _brentq_forbidden(radius, c, numax, fmax)
    assert [nu for _, nu in ours] == [nu for _, nu in ref]
    for (f, _), (g, _) in zip(ours, ref):
        assert abs(f - g) <= 1e-12 * g


# ---------------------------------------------------------------------------
# Translation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order_out, order_in", [(0, 0), (1, 3), (4, 2), (5, 5), (12, 12)])
def test_translation_matrix_matches_sparse_contraction(order_out, order_in, rng):
    # the rotation-based operator against scipy's product of the sparse
    # Gaunt coupling with phi(d)
    indptr, cols, vals = gaunt_tensor(order_out, order_in)
    n_out, n_in = sf.num_coeffs(order_out), sf.num_coeffs(order_in)
    C = sparse.csr_matrix((vals, cols, indptr),
                          shape=(n_out * n_in, sf.num_coeffs(order_out + order_in)))
    d = 0.4 * rng.normal(size=(6, 3))
    d[0] = 0.0
    k = 5.3
    phi = wf.regular_swf_matrix(order_out + order_in, d, k)
    ref = (C @ phi.T).T.reshape(6, n_out, n_in)
    T = wf.translation_matrix(d, k, order_out, order_in)
    assert np.max(np.abs(T - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))
