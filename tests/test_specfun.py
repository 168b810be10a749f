import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundfield import specfun as sf

from soundfield import wavefuncs as wf

from oracles import gathered_sph_harm_matrix, legendre, sph_hn, sph_jn


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
        j = sph_jn(nu, x)
        jp = sf.sph_jn_all(nu, x, derivative=True)[nu]
        h = sph_hn(nu, x)
        hp = sph_hn(nu, x, derivative=True)
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
            assert sph_jn(nu, x) == pytest.approx(acc, rel=1e-13)


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
            assert jall[nu] == pytest.approx(sph_jn(nu, x), rel=1e-12)
            assert hall[nu] == pytest.approx(sph_hn(nu, x), rel=1e-12)


@pytest.mark.parametrize("nmax", [1, 7, 30])
def test_bessel_columns_unchanged_by_series_columns(nmax):
    # Miller's recurrence gives the series columns (x < 1e-8) a placeholder
    # argument; no other column may change by a bit
    x = np.array([1e-3, 0.07, 0.5, 2.0, 6.9, 25.0, 40.0])
    alone = sf.sph_jn_all(nmax, x)
    batch = sf.sph_jn_all(nmax, np.concatenate([[0.0, 1e-9], x]))
    assert np.array_equal(batch[:, 2:], alone)
    assert np.array_equal(batch[:, 0], np.eye(nmax + 1)[0])


def test_hankel_closed_forms():
    # h_0(x) = -i e^{ix}/x, h_1(x) = -(1 + i/x) e^{ix}/x
    for x in (0.4, 2.7, 9.1):
        e = np.exp(1j * x)
        assert sph_hn(0, x) == pytest.approx(-1j * e / x, rel=1e-13)
        assert sph_hn(1, x) == pytest.approx(-(1 + 1j / x) * e / x, rel=1e-13)


def _sincos_samples():
    """Seeded arguments for the sine and cosine seeds: tiny, [0, 60], up to
    2000 (the largest k r the CLI accepts), multiples of pi and odd multiples
    of pi/2 with their float neighbours, each also negated."""
    rng = np.random.default_rng(2026)
    k = np.arange(1, 200)
    near = np.concatenate([[float(j * mpmath.pi) for j in k],
                           [float((j - 0.5) * mpmath.pi) for j in k],
                           [float(j * mpmath.pi) for j in (637, 638)]])  # j pi near 2000
    x = np.concatenate([10.0 ** rng.uniform(-300, -8, 100), rng.uniform(0, 60, 500),
                        rng.uniform(60, 2000, 300), near, np.nextafter(near, 0),
                        np.nextafter(near, np.inf), [1e-8, np.nextafter(1e-8, 0), 5e-324]])
    return np.concatenate([x, -x])


def test_sincos_seeds_match_mpmath():
    # sin x = 2t/(1 + t^2) with t = tan(x/2), cos x = sin x / tan x: within
    # 4 ulp (relative to 2^-52) of 30-digit values, also next to their zeros
    x = _sincos_samples()
    s, c = np.empty_like(x), np.empty_like(x)
    sf._sincos(x, s, c)
    s_only = np.empty_like(x)
    sf._sincos(x, s_only)
    assert np.array_equal(s_only, s)
    with mpmath.workdps(30):
        for xi, si, ci in zip(x, s, c):
            ref_s, ref_c = mpmath.sin(mpmath.mpf(xi)), mpmath.cos(mpmath.mpf(xi))
            assert abs(si - ref_s) <= 4 * 2.0**-52 * abs(ref_s), xi
            assert abs(ci - ref_c) <= 4 * 2.0**-52 * abs(ref_c), xi


def test_bessel_at_zero_infinity_and_nan():
    # x = 0: exact values, -inf for y (y_0 = -cos x / x: +inf at -0.0) and
    # +inf for y'; x = +-inf: nan for j, -inf for y, nan for the derivatives
    # but for y_0' = -y_1; nan: nan
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    nan, inf = np.nan, np.inf
    j = np.array([[1.0, 1.0, nan, nan, nan]] + [[0.0, 0.0, nan, nan, nan]] * 3)
    jd = np.array([[0.0, 0.0, nan, nan, nan], [1 / 3, 1 / 3, nan, nan, nan]]
                  + [[0.0, 0.0, nan, nan, nan]] * 2)
    y = np.array([[-inf, inf, -inf, -inf, nan]] + [[-inf, -inf, -inf, -inf, nan]] * 3)
    yd = np.array([[inf, inf, inf, inf, nan]] + [[inf, inf, nan, nan, nan]] * 3)
    assert np.array_equal(sf.sph_jn_all(0, x), j[:1], equal_nan=True)
    assert np.array_equal(sf.sph_jn_all(3, x), j, equal_nan=True)
    assert np.array_equal(sf.sph_jn_all(3, x, derivative=True), jd, equal_nan=True)
    h = sf.sph_hn_all(3, x)
    assert np.array_equal(h.real, j, equal_nan=True) and np.array_equal(h.imag, y, equal_nan=True)
    h = sf.sph_hn_all(3, x, derivative=True)
    assert np.array_equal(h.real, np.where(np.isnan(yd), nan, jd), equal_nan=True)
    assert np.array_equal(h.imag, yd, equal_nan=True)


@pytest.mark.parametrize("nmax", [-1, 1.0, True, None])
@pytest.mark.parametrize("func", [sf.sph_jn_all, sf.sph_hn_all])
def test_bessel_tables_reject_a_degree_that_is_not_an_int(func, nmax):
    # an int >= 0, numpy's too; -1 gave an empty table
    x = np.linspace(0.0, 3.0, 4)
    assert func(np.int64(2), x).shape == (3, 4)
    with pytest.raises(ValueError, match="^nmax must be an int >= 0"):
        func(nmax, x)


@pytest.mark.parametrize("nmax", [0, 1, 7, 30])
def test_bessel_columns_independent_of_the_batch(nmax):
    # Each column equals the same call on that element alone, bit for bit,
    # also across the seeds' block boundaries and next to 0 and tiny values
    # (which switch on Miller's overflow check at high degree)
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 60, 2 * sf._TRIG_BLOCK + 100)
    x[rng.choice(x.size, 300, replace=False)] = rng.uniform(0, nmax + 1, 300)
    edges = [sf._TRIG_BLOCK - 1, sf._TRIG_BLOCK, 2 * sf._TRIG_BLOCK - 1, 2 * sf._TRIG_BLOCK]
    x[edges] = [0.0, 1e-9, 1e-7, -3.0]
    x[[5, 6, 7]] = [0.0, 1e-300, 2e-8]
    cols = edges + [5, 6, 7] + list(rng.choice(x.size, 40, replace=False))
    for f in (sf.sph_jn_all, sf.sph_hn_all):
        for derivative in (False, True):
            batch = f(nmax, x, derivative=derivative)
            for i in cols:
                alone = f(nmax, x[i], derivative=derivative)
                assert np.array_equal(batch[:, i], alone, equal_nan=True), (f, x[i])
                assert np.array_equal(batch[:, i:i + 1], f(nmax, x[i:i + 1], derivative=derivative),
                                      equal_nan=True)


@pytest.mark.parametrize("nmax", [0, 1, 7, 30])
def test_hankel_seeds_from_one_sincos_call(monkeypatch, nmax):
    # j_n and y_n share one sine and cosine of x, and h_n's real part is
    # sph_jn_all's bit for bit: tiny, Miller and upward columns, zeros of the
    # seeds, +-0, +-inf and nan, across the seeds' block boundary.  (Without
    # derivatives, sph_jn_all(0, x) alone takes the closed form sin x / x,
    # which can differ in the last bit from the degree-1 table's j_0 for
    # |x| <= 1, so degree 0 is compared with derivatives only.)
    rng = np.random.default_rng(11)
    x = np.concatenate([_sincos_samples(), rng.uniform(0, 60, sf._TRIG_BLOCK),
                        [0.0, -0.0, np.inf, -np.inf, np.nan]])
    orig, calls = sf._sincos, []

    def counting(x, s, c=None):
        calls.append(c is not None)
        return orig(x, s, c)

    monkeypatch.setattr(sf, "_sincos", counting)
    for derivative in (False, True):
        calls.clear()
        h = sf.sph_hn_all(nmax, x, derivative=derivative)
        assert calls == [True]
        if nmax > 0 or derivative:
            assert np.array_equal(h.real, sf.sph_jn_all(nmax, x, derivative=derivative),
                                  equal_nan=True)
        calls.clear()
        sf.sph_hn_all(nmax, 2.5, derivative=derivative)
        assert calls == [True]


@pytest.mark.parametrize("nmax", [0, 1])
def test_bessel_seeds_memory(nmax):
    # DM-infinite evaluation takes j_0 and j_1 at k |r - r_m| on the default
    # grid and the 64-mic t = 7 array (266,816 arguments at 400 Hz): the peak
    # stays within 1.25 times the result, which holds nmax + 1 values a column
    from soundfield.harness import ball_grid, load_t_design
    k = 2 * np.pi * 400.0 / 340.65
    x = k * np.linalg.norm(ball_grid(1.0, 0.1)[:, None] - load_t_design(7)[None], axis=-1)
    assert x.size == 266816
    tracemalloc.start()
    try:
        out = sf.sph_jn_all(nmax, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == (nmax + 1) * 8 * x.size
    assert peak <= 1.25 * out.nbytes, peak / out.nbytes


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


@pytest.mark.parametrize("order", [0, 1, 7, 30])
def test_harmonics_equal_gathered_assembly(rng, order):
    # degree by degree with the negative orders by conjugation: the same
    # values, to the bit, as the per-column gathers
    dirs = rng.normal(size=(200, 3))
    dirs = np.vstack([dirs / np.linalg.norm(dirs, axis=1, keepdims=True),
                      [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
    Y = sf.sph_harm_matrix(order, dirs)
    assert Y.shape == (202, sf.num_coeffs(order))
    assert np.array_equal(Y, gathered_sph_harm_matrix(order, dirs))
    # the real rows are the real and imaginary parts of Yhat_{nu,|mu|}
    nu, mu = sf.degrees_orders(order)
    Ym = Y[:, nu * nu + nu + np.abs(mu)]
    assert np.array_equal(sf.harmonic_rows(order, dirs), np.where(mu >= 0, Ym.real, Ym.imag).T)
    # each column is contiguous: Y is the transposed view of a C array
    assert Y.T.flags.c_contiguous


@pytest.mark.parametrize("x", [1e-8, 1e-7])
def test_harmonics_next_to_the_pole_match_mpmath(x):
    # sin(theta) = hypot(x, y) keeps its relative accuracy next to the pole,
    # where sqrt((1 - z)(1 + z)) cancels: Yhat_{1,1} was 16% off at x = 1e-8
    d = np.array([x, 0.0, -0.4]) / np.hypot(x, 0.4)
    nu, mu = sf.degrees_orders(4)
    with mpmath.workdps(40):
        theta = mpmath.atan2(mpmath.mpf(d[0]), mpmath.mpf(d[2]))
        ref = np.array([complex(mpmath.sqrt(4 * mpmath.pi) * mpmath.spherharm(n, m, theta, 0))
                        for n, m in zip(nu.tolist(), mu.tolist())])
    assert np.all(np.abs(sf.sph_harm_matrix(4, d) - ref) <= 1e-14 * np.abs(ref))


def test_swf_angular_origin_row(rng):
    pts = np.vstack([rng.normal(size=(5, 3)), np.zeros(3), rng.normal(size=(2, 3))])
    rad, Y = wf.swf_angular(4, pts)
    row = np.zeros(sf.num_coeffs(4), dtype=complex)
    row[0] = 1.0
    assert rad[5] == 0.0 and np.array_equal(Y[5], row)
    others = np.r_[0:5, 6:8]
    dirs = pts[others] / rad[others, None]
    assert np.array_equal(Y[others], sf.sph_harm_matrix(4, dirs))


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


@pytest.mark.parametrize("n", [1, 2, 13, 25, 41, 61])
def test_gauss_legendre_matches_mpmath(n):
    # 40-digit roots of P_n from numpy's leggauss nodes; weights
    # 2 (1 - x^2) / (n P_{n-1}(x))^2 at them
    with mpmath.workdps(40):
        roots = [mpmath.findroot(lambda t: mpmath.legendre(n, t), mpmath.mpf(float(x0)))
                 for x0 in np.polynomial.legendre.leggauss(n)[0]]
        weights = [2 * (1 - t * t) / (n * mpmath.legendre(n - 1, t)) ** 2 for t in roots]
    x, w = sf.gauss_legendre(n)
    assert np.max(np.abs(x - np.array(roots, dtype=float))) <= 2.3e-16
    assert np.max(np.abs(w / np.array(weights, dtype=float) - 1.0)) <= 1e-13
    # exact for every even monomial of degree below 2n
    p = np.arange(n)
    moments = (w[:, None] * x[:, None] ** (2 * p)).sum(0)
    assert np.max(np.abs(moments - 2.0 / (2 * p + 1))) <= 1e-14


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


@pytest.mark.parametrize("beta", [0.0, 1e-12, 1e-7, 2e-6, 0.4, np.pi / 2, 3.0,
                                  np.pi - 1e-7, np.pi])
def test_euler_zyz_recomposes(beta, rng):
    # R_z(alpha) R_y(beta) R_z(gamma) from the angles gives R back, with the
    # tilt of z at, near and between 0 and pi
    z, y = np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0])
    for a, g in rng.uniform(-np.pi, np.pi, size=(5, 2)):
        R = sf.rotation_matrix(z, a) @ sf.rotation_matrix(y, beta) @ sf.rotation_matrix(z, g)
        alpha, b, gamma = sf.euler_zyz(R)
        back = (sf.rotation_matrix(z, alpha) @ sf.rotation_matrix(y, b)
                @ sf.rotation_matrix(z, gamma))
        assert np.max(np.abs(back - R)) <= 1e-14


def test_cached_tables_are_read_only():
    # lru_cache hands the same arrays to every caller
    for table in (*sf.degrees_orders(4), sf._jy_eigenvectors(3), *sf._legendre_step(3)):
        with pytest.raises(ValueError):
            table[0] = 0


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


@pytest.mark.parametrize("K", [2, 6])
def test_wigner_blocks_match_explicit_sum(K):
    # each padded block is e^{-i mu alpha} d^nu(beta) e^{-i m gamma} on
    # |mu| <= nu, |m| <= min(nu, K), and exactly 0 elsewhere
    order = 6
    alpha, beta, gamma = np.array([[0.3, 1.1, -2.0], [-1.7, 2.9, 0.4], [2.5, 0.0, math.pi]]).T
    D = sf.wigner_blocks(order, alpha, beta, gamma, K)
    assert D.shape == (3, order + 1, 2 * order + 1, 2 * K + 1)
    for b in range(3):
        for nu in range(order + 1):
            c = min(nu, K)
            mu, m = np.arange(-nu, nu + 1)[:, None], np.arange(-c, c + 1)
            ref = (np.exp(-1j * mu * alpha[b]) * _wigner_d_sum(nu, beta[b])[:, nu - c:nu + c + 1]
                   * np.exp(-1j * m * gamma[b]))
            inside = np.s_[order - nu:order + nu + 1, K - c:K + c + 1]
            assert np.max(np.abs(D[b, nu][inside] - ref)) <= 1e-13
            padding = D[b, nu].copy()
            padding[inside] = 0.0
            assert not padding.any()


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
