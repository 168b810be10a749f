import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundfield import specfun as sf

from oracles import legendre


# ---------------------------------------------------------------------------
# Indexing
# ---------------------------------------------------------------------------

@given(st.integers(0, 30))
def test_flat_index_roundtrip(order):
    nus, mus = sf.degrees_orders(order)
    assert len(nus) == sf.num_coeffs(order) == (order + 1) ** 2
    for i, (nu, mu) in enumerate(zip(nus, mus)):
        assert sf.flat_index(nu, mu) == i


# ---------------------------------------------------------------------------
# Bessel / Hankel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0])
def test_wronskian(x):
    for nu in range(11):
        j = sf.sph_jn(nu, x)
        jp = sf.sph_jn(nu, x, derivative=True)
        h = sf.sph_hn(nu, x)
        hp = sf.sph_hn(nu, x, derivative=True)
        target = 1j / x**2
        assert abs(j * hp - jp * h - target) <= 1e-10 * abs(target)


def test_bessel_series_small_argument():
    # Independent oracle: power series j_nu(x) = sum_k (-1)^k x^(nu+2k) / ...
    for nu in range(6):
        for x in (1e-3, 0.05, 0.3):
            acc = 0.0
            for k in range(25):
                acc += (
                    (-1) ** k
                    * x ** (nu + 2 * k)
                    / (2**k * math.factorial(k) * _odd_factorial(2 * nu + 2 * k + 1))
                )
            assert sf.sph_jn(nu, x) == pytest.approx(acc, rel=1e-13)


def _odd_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def test_bessel_all_matches_scalar():
    for x in (0.2, 3.0, 12.0):
        jall = sf.sph_jn_all(8, x)
        hall = sf.sph_hn_all(8, x)
        for nu in range(9):
            assert jall[nu] == pytest.approx(sf.sph_jn(nu, x), rel=1e-12)
            assert hall[nu] == pytest.approx(sf.sph_hn(nu, x), rel=1e-12)


def test_hankel_closed_forms():
    # h_0(x) = -i e^{ix}/x, h_1(x) = -(1 + i/x) e^{ix}/x
    for x in (0.4, 2.7, 9.1):
        e = np.exp(1j * x)
        assert sf.sph_hn(0, x) == pytest.approx(-1j * e / x, rel=1e-13)
        assert sf.sph_hn(1, x) == pytest.approx(-(1 + 1j / x) * e / x, rel=1e-13)


# ---------------------------------------------------------------------------
# Spherical harmonics
# ---------------------------------------------------------------------------

def test_orthonormality(squad):
    # The scaled harmonics satisfy (1/4pi) \int Yhat_a Yhat_b^* dS = delta_ab
    dirs, w = squad
    order = 5
    Y = sf.sph_harm_matrix(order, dirs)
    G = (Y.conj().T * w) @ Y / (4.0 * np.pi)
    assert np.max(np.abs(G - np.eye(sf.num_coeffs(order)))) <= 1e-10


def test_conjugation_symmetry(rng):
    dirs = rng.normal(size=(20, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for nu in range(5):
        for mu in range(-nu, nu + 1):
            a = sf.sph_harm_matrix(nu, dirs)[..., sf.flat_index(nu, mu)]
            b = sf.sph_harm_matrix(nu, dirs)[..., sf.flat_index(nu, -mu)]
            assert np.allclose(a.conj(), (-1) ** mu * b, atol=1e-12)


def test_addition_theorem_legendre(rng):
    # sum_mu Yhat_{nu,mu}(x) Yhat_{nu,mu}(y)^* = (2 nu + 1) P_nu(x . y)
    x = rng.normal(size=3)
    y = rng.normal(size=3)
    x /= np.linalg.norm(x)
    y /= np.linalg.norm(y)
    for nu in range(8):
        acc = sum(
            sf.sph_harm_matrix(nu, x[None])[0, sf.flat_index(nu, mu)]
            * sf.sph_harm_matrix(nu, y[None])[0, sf.flat_index(nu, mu)].conj()
            for mu in range(-nu, nu + 1)
        )
        assert acc == pytest.approx((2 * nu + 1) * legendre(nu, float(x @ y)), abs=1e-11)


def test_legendre_recurrence():
    xs = np.linspace(-1, 1, 41)
    for x in xs:
        p = [legendre(n, x) for n in range(12)]
        assert p[0] == pytest.approx(1.0)
        assert p[1] == pytest.approx(x)
        for n in range(1, 11):
            assert (n + 1) * p[n + 1] == pytest.approx(
                (2 * n + 1) * x * p[n] - n * p[n - 1], abs=1e-12
            )


# ---------------------------------------------------------------------------
# Wigner 3j and Gaunt
# ---------------------------------------------------------------------------

def test_wigner3j_known_values():
    assert sf.wigner_3j(1, 1, 0, 0, 0, 0) == pytest.approx(-1 / math.sqrt(3))
    assert sf.wigner_3j(2, 2, 0, 0, 0, 0) == pytest.approx(1 / math.sqrt(5))
    assert sf.wigner_3j(1, 1, 2, 1, -1, 0) == pytest.approx(1 / math.sqrt(30))
    assert sf.wigner_3j(2, 1, 1, 0, 0, 0) == pytest.approx(math.sqrt(2.0 / 15.0))


@given(
    st.integers(0, 8), st.integers(0, 8), st.integers(0, 16),
    st.integers(-8, 8), st.integers(-8, 8),
)
@settings(max_examples=200, deadline=None)
def test_wigner3j_selection_rules(j1, j2, j3, m1, m2):
    m3 = -(m1 + m2)
    val = sf.wigner_3j(j1, j2, j3, m1, m2, m3)
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        assert val == 0.0
    elif j3 < abs(j1 - j2) or j3 > j1 + j2:
        assert val == 0.0
    # nonzero m-sum always vanishes
    if m1 + m2 != 0:
        assert sf.wigner_3j(j1, j2, j3, m1, m2, 0) == 0.0


def test_wigner3j_orthogonality():
    # sum_{m1,m2} (2 j3 + 1) 3j(...m3)^2 = 1 for valid (j3, m3)
    j1, j2 = 3, 2
    for j3 in range(abs(j1 - j2), j1 + j2 + 1):
        for m3 in range(-j3, j3 + 1):
            total = sum(
                (2 * j3 + 1) * sf.wigner_3j(j1, j2, j3, m1, -m1 - m3, m3) ** 2
                for m1 in range(-j1, j1 + 1)
                if abs(m1 + m3) <= j2
            )
            assert total == pytest.approx(1.0, abs=1e-12)


def test_gaunt_vs_quadrature(squad, rng):
    # (1/4pi) \int Yhat_{nu,mu}^* Yhat_{nu',mu'} Yhat_{nu'',mu''}^* dS
    dirs, w = squad
    cases = [(2, 1, 3, 2, 1, 1), (4, -2, 3, 1, 5, 3), (0, 0, 2, -1, 2, -1),
             (3, 3, 3, -3, 6, -6), (2, 0, 2, 0, 2, 0), (1, 1, 2, 2, 3, 1)]
    for nu, mu, nup, mup, nupp, mupp in cases:
        integ = np.sum(
            w
            * sf.sph_harm_matrix(nu, dirs)[..., sf.flat_index(nu, mu)].conj()
            * sf.sph_harm_matrix(nup, dirs)[..., sf.flat_index(nup, mup)]
            * sf.sph_harm_matrix(nupp, dirs)[..., sf.flat_index(nupp, mupp)].conj()
        ) / (4.0 * np.pi)
        assert sf.gaunt(nu, mu, nup, mup, nupp, mupp) == pytest.approx(
            integ.real, abs=1e-11
        )
        assert abs(integ.imag) <= 1e-11


@given(
    st.integers(0, 5), st.integers(0, 5), st.integers(0, 10),
    st.integers(-5, 5), st.integers(-5, 5), st.integers(-10, 10),
)
@settings(max_examples=200, deadline=None)
def test_gaunt_selection_rules(nu, nup, nupp, mu, mup, mupp):
    if abs(mu) > nu or abs(mup) > nup or abs(mupp) > nupp:
        return
    val = sf.gaunt(nu, mu, nup, mup, nupp, mupp)
    if mupp != mup - mu:
        assert val == 0.0
    if (nu + nup + nupp) % 2 == 1:
        assert val == 0.0
    if nupp < abs(nu - nup) or nupp > nu + nup:
        assert val == 0.0


# ---------------------------------------------------------------------------
# Wigner D
# ---------------------------------------------------------------------------

def _random_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def test_wigner_D_unitary(rng):
    for _ in range(5):
        R = _random_rotation(rng)
        for nu in range(6):
            D = sf.wigner_D(nu, R)
            assert np.max(np.abs(D @ D.conj().T - np.eye(2 * nu + 1))) <= 1e-10


def test_wigner_D_defining_integral(squad, rng):
    # D_{mu mu'}^nu = (1/4pi) \int Yhat_{nu,mu}(R x)^* Yhat_{nu,mu'}(x) dS
    dirs, w = squad
    R = _random_rotation(rng)
    rdirs = dirs @ R.T
    for nu in (1, 3):
        D = sf.wigner_D(nu, R)
        for mu in range(-nu, nu + 1):
            ya = sf.sph_harm_matrix(nu, rdirs)[..., sf.flat_index(nu, mu)].conj()
            for mup in range(-nu, nu + 1):
                y = sf.sph_harm_matrix(nu, dirs)[..., sf.flat_index(nu, mup)]
                integ = np.sum(w * ya * y) / (4 * np.pi)
                assert D[mu + nu, mup + nu] == pytest.approx(integ, abs=1e-10)


def test_wigner_D_gimbal_lock():
    # Rotations about z (beta = 0) must still produce exact diagonal D
    for angle in (0.0, 0.7, -2.1):
        R = sf.rotation_matrix(np.array([0.0, 0.0, 1.0]), angle)
        for nu in range(4):
            D = sf.wigner_D(nu, R)
            expected = np.diag([np.exp(-1j * mu * angle) for mu in range(-nu, nu + 1)])
            assert np.max(np.abs(D - expected)) <= 1e-12


def _wigner_d_sum(nu, beta):
    """Wigner's explicit sum for d^nu(beta); accurate at low degree only."""
    c, s = math.cos(beta / 2), math.sin(beta / 2)
    f = math.factorial
    d = np.zeros((2 * nu + 1, 2 * nu + 1))
    for mp in range(-nu, nu + 1):
        for m in range(-nu, nu + 1):
            tot = sum(
                (-1.0) ** (mp - m + k)
                * c ** (2 * nu + m - mp - 2 * k) * s ** (mp - m + 2 * k)
                / (f(nu + m - k) * f(k) * f(mp - m + k) * f(nu - mp - k))
                for k in range(max(0, m - mp), min(nu + m, nu - mp) + 1)
            )
            d[mp + nu, m + nu] = math.sqrt(f(nu + mp) * f(nu - mp) * f(nu + m) * f(nu - m)) * tot
    return d


def test_wigner_d_small_matches_explicit_sum():
    for nu in range(9):
        for beta in (0.0, 0.4, 1.9, math.pi, -2.5):
            assert np.max(np.abs(sf.wigner_d_small(nu, beta) - _wigner_d_sum(nu, beta))) <= 1e-13


@given(st.floats(-2 * math.pi, 2 * math.pi))
@settings(max_examples=10, deadline=None)
def test_wigner_d_small_orthogonal_to_high_degree(beta):
    for nu in range(81):
        d = sf.wigner_d_small(nu, beta)
        assert np.max(np.abs(d @ d.T - np.eye(2 * nu + 1))) <= 1e-12


def test_wigner_d_small_composes():
    # d(a) d(b) = d(a + b): rotations about one axis add their angles
    for nu in (1, 7, 30, 60):
        prod = sf.wigner_d_small(nu, 0.7) @ sf.wigner_d_small(nu, 1.1)
        assert np.max(np.abs(prod - sf.wigner_d_small(nu, 1.8))) <= 1e-12


def test_rotation_matrix_properties(rng):
    axis = rng.normal(size=3)
    R = sf.rotation_matrix(axis, 1.234)
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-14)
    assert np.linalg.det(R) == pytest.approx(1.0)
    assert np.allclose(R @ axis, axis, atol=1e-12)
