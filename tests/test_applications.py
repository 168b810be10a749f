import math
import tracemalloc

import numpy as np
import pytest

from soundfield import applications as apps
from soundfield.discrete import Representers, kernel_matrix
from soundfield.observation import Mics
from soundfield.wavefuncs import green, plane_wave

from oracles import anc_cost


# ---------------------------------------------------------------------------
# Geometry helpers
# ---------------------------------------------------------------------------

def test_square_boundary_points_geometry():
    pts = apps.square_boundary_points(2.0, 16, z=0.3)
    assert pts.shape == (16, 3)
    assert np.allclose(pts[:, 2], 0.3)
    # every point lies on the square |x| = 1 or |y| = 1
    onx = np.isclose(np.abs(pts[:, 0]), 1.0)
    ony = np.isclose(np.abs(pts[:, 1]), 1.0)
    assert np.all(onx | ony)
    # centroid at the origin
    assert np.allclose(pts[:, :2].mean(axis=0), 0.0, atol=1e-12)


def test_square_boundary_outward_shift():
    base = apps.square_boundary_points(1.0, 24)
    shifted = apps.square_boundary_points(1.0, 24, outward_shift=0.03)
    d = np.linalg.norm(shifted - base, axis=1)
    # alternating points move outward by exactly the shift
    assert np.allclose(d[1::2], 0.03, atol=1e-12)
    assert np.allclose(d[0::2], 0.0, atol=1e-12)
    r_base = np.max(np.abs(base[1::2, :2]), axis=1)
    r_shift = np.max(np.abs(shifted[1::2, :2]), axis=1)
    assert np.all(r_shift > r_base)


def test_square_grid_cell_measure():
    pts, cell = apps.square_grid(1.0, 0.05)
    assert pts.shape == (441, 3)
    assert cell == pytest.approx(0.05**2)
    assert np.max(np.abs(pts[:, :2])) == pytest.approx(0.5)


@pytest.mark.parametrize("spacing", [0.3, 0.15])
@pytest.mark.parametrize("midpoint", [False, True])
def test_square_grid_rejects_a_spacing_that_does_not_divide_the_side(spacing, midpoint):
    # 0.3 gave 9 midpoints from -0.35 to 0.25 (0.81 of the square, off centre)
    # or nodes 1/3 apart, each with the cell 0.09
    with pytest.raises(ValueError, match="spacing"):
        apps.square_grid(1.0, spacing, midpoint=midpoint)
    with pytest.raises(ValueError, match="spacing"):
        apps.square_grid_side(1.0, spacing, midpoint)
    assert apps.square_grid_side(1.0, 1e-320, midpoint) == math.inf


@pytest.mark.parametrize("spacing", [0.0, math.nan, -0.5, math.inf])
def test_square_grid_rejects_a_spacing_that_is_not_positive_and_finite(spacing):
    # 0.0 raised ZeroDivisionError, nan a float conversion error, -0.5 said
    # that it does not divide the side, and inf gave one point with an
    # infinite cell
    with pytest.raises(ValueError, match="spacing must be a positive finite number"):
        apps.square_grid(1.0, spacing)
    with pytest.raises(ValueError, match="spacing must be a positive finite number"):
        apps.square_grid_side(1.0, spacing)


def test_transfer_matrix_is_green(rng):
    k = 4.0
    src = rng.normal(size=(3, 3)) + np.array([3.0, 0, 0])
    pts = 0.3 * rng.normal(size=(5, 3))
    G = apps.transfer_matrix(src, pts, k)
    for j, s in enumerate(src):
        assert np.allclose(G[:, j], green(pts, s, k))


# ---------------------------------------------------------------------------
# Region weighting
# ---------------------------------------------------------------------------

def _weighting_setup(spacing=0.05, reg=1e-3):
    k = 2 * math.pi * 500.0 / 340.65
    ctrl, _ = apps.square_grid(1.0, 0.2)
    region, cell = apps.square_grid(1.0, spacing)
    return k, ctrl, region, cell, reg


def test_region_weighting_hermitian_psd():
    k, ctrl, region, cell, reg = _weighting_setup()
    W = apps.region_weighting(ctrl, region, cell, k, reg)
    assert np.max(np.abs(W - W.conj().T)) <= 1e-10 * np.max(np.abs(W))
    assert np.linalg.eigvalsh(W).min() >= -1e-12


def test_region_weighting_grid_refinement():
    k, ctrl, _, _, reg = _weighting_setup()
    region1, cell1 = apps.square_grid(1.0, 0.02, midpoint=True)
    region2, cell2 = apps.square_grid(1.0, 0.01, midpoint=True)
    W1 = apps.region_weighting(ctrl, region1, cell1, k, reg)
    W2 = apps.region_weighting(ctrl, region2, cell2, k, reg)
    rel = np.linalg.norm(W1 - W2) / np.linalg.norm(W2)
    assert rel <= 0.01


@pytest.mark.parametrize("f", [100.0, 700.0, 900.0])
def test_region_weighting_equals_the_representer_formula(f):
    # the real Gram of the representers, as built from the complex
    # representer matrix: the same bits
    k = 2 * math.pi * f / 343.0
    ctrl, _ = apps.square_grid(1.0, 0.2)
    region, cell = apps.square_grid(1.0, 0.02, midpoint=True)
    mics = Mics(ctrl)
    P = np.linalg.inv(kernel_matrix(mics, k).real + 1e-3 * np.eye(len(ctrl)))
    kap = np.ascontiguousarray(Representers(mics, region).matrix(k).real)
    W = P.conj().T @ (cell * (kap.T @ kap)) @ P
    out = apps.region_weighting(ctrl, region, cell, k, 1e-3)
    assert out.dtype == np.float64
    assert np.array_equal(out, 0.5 * (W + W.conj().T))


@pytest.mark.parametrize("f, bound", [(300.0, 1.5e-8), (700.0, 3e-11)])
def test_region_weighting_gram_is_accurate(f, bound):
    # synth's default geometry against the same float64 P with the Gram and
    # both products in long double: einsum's own loop summed the Gram to
    # 4.3e-8 (300 Hz) and 9.4e-11 (700 Hz) of the weighting, BLAS to 4.0e-9
    # and 1.0e-11
    k = 2 * math.pi * f / 343.0
    ctrl, _ = apps.square_grid(1.0, 0.2)
    quad, cell = apps.square_grid(1.0, 0.02, midpoint=True)
    mics = Mics(ctrl)
    P = np.linalg.inv(kernel_matrix(mics, k).real + 1e-3 * np.eye(len(ctrl)))
    P = P.astype(np.longdouble)
    kap = next(Representers(mics, quad).terms(k)).astype(np.longdouble)
    W = P.T @ (cell * (kap.T @ kap)) @ P
    exact = 0.5 * (W + W.T)
    out = apps.region_weighting(ctrl, quad, cell, k, 1e-3)
    assert np.max(np.abs(out - exact)) <= bound * np.max(np.abs(exact))


@pytest.mark.parametrize(
    "change",
    [dict(k=math.nan), dict(k=math.inf), dict(reg=math.nan), dict(reg=-1e-3),
     dict(reg=math.inf), dict(cell_measure=-1.0), dict(cell_measure=0.0),
     dict(cell_measure=math.nan), dict(region_pts=np.zeros((0, 3))),
     dict(points=np.array([[0.0, 0.0, math.nan], [0.1, 0.0, 0.0]])),
     dict(points=np.array([[0.0, math.inf, 0.0]])), dict(points=np.zeros((4, 2))),
     dict(points=np.zeros(6)), dict(points=np.zeros((2, 3)) + 1j),
     dict(region_pts=np.array([[math.nan, 0.0, 0.0]])), dict(region_pts=np.zeros((5, 2))),
     dict(region_pts=np.zeros((2, 5, 3)))],
)
def test_region_weighting_rejects_malformed_inputs(change):
    k, ctrl, region, cell, reg = _weighting_setup(spacing=0.1)
    args = dict(dict(points=ctrl, region_pts=region, cell_measure=cell, k=k, reg=reg), **change)
    with pytest.raises(ValueError, match="must"):
        apps.region_weighting(**args)


def test_weighted_norm_equals_field_power(rng):
    # e^H A e equals the quadrature of |u_hat(r)|^2 over the region, where
    # u_hat is the kernel interpolant of the signal values e.
    k, ctrl, region, cell, reg = _weighting_setup()
    A = apps.region_weighting(ctrl, region, cell, k, reg)
    e = rng.normal(size=len(ctrl)) + 1j * rng.normal(size=len(ctrl))
    K = np.empty((len(ctrl), len(ctrl)))
    for i in range(len(ctrl)):
        K[i] = np.sinc(k * np.linalg.norm(ctrl - ctrl[i], axis=1) / np.pi)
    coef = np.linalg.solve(K + reg * np.eye(len(ctrl)), e)
    kv = np.sinc(k * np.linalg.norm(region[:, None, :] - ctrl, axis=-1) / np.pi)
    u_hat = kv @ coef
    power = float(np.sum(np.abs(u_hat) ** 2) * cell)
    assert float((e.conj() @ A @ e).real) == pytest.approx(power, rel=1e-8)


# ---------------------------------------------------------------------------
# Pressure matching
# ---------------------------------------------------------------------------

def _synthesis_setup(f=500.0):
    k = 2 * math.pi * f / 340.65
    src = np.vstack(
        [
            apps.square_boundary_points(2.0, 16, z=0.2),
            apps.square_boundary_points(2.0, 16, z=-0.2),
        ]
    )
    ctrl, _ = apps.square_grid(1.0, 0.2)
    x = np.array([math.cos(-math.pi / 4), math.sin(-math.pi / 4), 0.0])
    G = apps.transfer_matrix(src, ctrl, k)
    u = plane_wave(ctrl, x, k)
    return k, src, ctrl, G, u


def test_pm_drive_is_regularized_least_squares():
    _, _, _, G, u = _synthesis_setup()
    eta = 1e-3
    d = apps.pm_drive(G, u, eta)
    expected = np.linalg.solve(
        G.conj().T @ G + eta * np.eye(G.shape[1]), G.conj().T @ u
    )
    assert np.max(np.abs(d - expected)) <= 1e-10 * np.max(np.abs(expected))
    # stationarity of the quadratic cost
    grad = G.conj().T @ (G @ d - u) + eta * d
    assert np.max(np.abs(grad)) <= 1e-10


def test_wpm_reduces_to_pm_with_identity_weight():
    _, _, ctrl, G, u = _synthesis_setup()
    eta = 1e-3
    assert np.allclose(
        apps.wpm_drive(G, u, eta, np.eye(len(ctrl))), apps.pm_drive(G, u, eta)
    )


def test_wpm_stationarity():
    k, _, ctrl, G, u = _synthesis_setup()
    region, cell = apps.square_grid(1.0, 0.05)
    W = apps.region_weighting(ctrl, region, cell, k, 1e-3)
    eta = 1e-3
    d = apps.wpm_drive(G, u, eta, W)
    grad = G.conj().T @ W @ (G @ d - u) + eta * d
    assert np.max(np.abs(grad)) <= 1e-9 * max(1.0, np.max(np.abs(d)))


# ---------------------------------------------------------------------------
# ANC: gradient, LMS, fixed point
# ---------------------------------------------------------------------------

def _anc_setup(f=700.0):
    k = 2 * math.pi * f / 340.65
    mics = apps.square_boundary_points(1.0, 24, outward_shift=0.03)
    src = apps.square_boundary_points(2.0, 12)
    G = apps.transfer_matrix(src, mics, k)
    d = green(mics, np.array([3.0, 0.0, 0.0]), k)
    region, cell = apps.square_grid(1.0, 0.1)
    A = apps.region_weighting(mics, region, cell, k, 1e-3)
    x = np.array([1.0 + 0.0j])
    return k, G, d, A, x


def test_anc_gradient_matches_finite_differences(rng):
    _, G, d, A, x = _anc_setup()
    L = G.shape[1]
    W = (rng.normal(size=(L, 1)) + 1j * rng.normal(size=(L, 1))) * 0.1
    grad = apps.anc_gradient(W, G, A, d, x)
    h = 1e-6
    fd = np.zeros_like(grad)
    for i in range(L):
        for which in (1.0, 1.0j):
            dW = np.zeros_like(W)
            dW[i, 0] = which * h
            cp = anc_cost(apps.anc_error(W + dW, G, d, x), A)
            cm = anc_cost(apps.anc_error(W - dW, G, d, x), A)
            # Wirtinger convention: dJ/dW* so that the update -mu*grad descends
            if which == 1.0:
                fd[i, 0] += (cp - cm) / (2 * h) / 2
            else:
                fd[i, 0] += 1j * (cp - cm) / (2 * h) / 2
    assert np.max(np.abs(grad - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))


def test_anc_lms_cost_non_increasing():
    _, G, d, A, x = _anc_setup()
    eig = float(np.linalg.eigvalsh(G.conj().T @ A @ G).max())
    _, costs = apps.anc_lms_run(G, A, d, x, mu=0.5 / eig, iters=2000)
    assert all(a >= b - 1e-12 * abs(a) for a, b in zip(costs, costs[1:]))


def test_anc_lms_converges_to_normal_equations():
    _, G, d, A, x = _anc_setup()
    H = G.conj().T @ A @ G
    eig = float(np.linalg.eigvalsh(H).max())
    W, _ = apps.anc_lms_run(G, A, d, x, mu=1.0 / eig, iters=30000)
    # fixed point: G^H A (G W x + d) x^H = 0
    resid = G.conj().T @ A @ (G @ (W @ x) + d)
    scale = np.max(np.abs(G.conj().T @ A @ d))
    assert np.max(np.abs(resid)) <= 1e-6 * scale


# ---------------------------------------------------------------------------
# Time-domain weighted FxLMS
# ---------------------------------------------------------------------------

def test_weighting_taps_reproduce_frequency_response():
    # A(f) sampled on the rFFT grid -> 2K+1 taps -> back to the grid.
    # The spectrum here is a short cosine series, so the exact inverse DFT
    # has only 5 nonzero taps and the truncation must be near-lossless.
    nfft, half = 64, 12
    rng = np.random.default_rng(2)
    L = 6
    base = rng.normal(size=(L, L, 4))

    def A_of_freq(f):
        w = 2 * math.pi * f
        M = sum(base[:, :, j] * math.cos((j + 1) * w) for j in range(4))
        M = M + M.T + 8 * np.eye(L)
        return M.astype(complex)

    taps = apps.weighting_taps(A_of_freq, nfft, half)
    assert taps.shape == (2 * half + 1, L, L)
    for idx in (3, 7, 15):
        f = idx / nfft
        w = 2 * math.pi * f
        resp = sum(
            taps[j] * np.exp(-1j * w * (j - half)) for j in range(2 * half + 1)
        )
        assert np.max(np.abs(resp - A_of_freq(f))) <= 1e-10


def test_weighting_taps_of_half_length_0_is_the_lag_0_tap():
    # one tap: the mean of the spectrum over the nfft bins of the DFT
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    taps = apps.weighting_taps(lambda f: A * (1.0 + math.cos(2 * math.pi * f)), 16, 0)
    assert taps.shape == (1, 2, 2)
    assert np.allclose(taps[0], A)


@pytest.mark.parametrize(
    "nfft, half_len, name",
    [
        (64, 40, "nfft"),  # 81 taps of 64 bins: lags would wrap
        (8, 4, "nfft"),  # 9 taps of 8 bins
        (0, 4, "nfft"),
        (64.0, 4, "nfft"),
        (64, -1, "half_len"),
        (64, 2.0, "half_len"),
        (64, True, "half_len"),
    ],
)
def test_weighting_taps_rejects_malformed_inputs(nfft, half_len, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        apps.weighting_taps(lambda f: np.eye(2), nfft, half_len)


def test_fxlms_matches_frequency_domain_steady_state():
    # Single-tone weighted FxLMS in the time domain converges to the
    # frequency-domain optimum: compare residual regional power within 1 dB.
    fs = 4000.0
    f0 = 700.0
    k = 2 * math.pi * f0 / 340.65
    mics = apps.square_boundary_points(1.0, 8, outward_shift=0.03)
    src = apps.square_boundary_points(2.0, 4)
    region, cell = apps.square_grid(1.0, 0.1)
    G = apps.transfer_matrix(src, mics, k)
    d_freq = green(mics, np.array([3.0, 0.0, 0.0]), k)
    A = apps.region_weighting(mics, region, cell, k, 1e-3)

    # frequency-domain optimum for reference x = 1
    H = G.conj().T @ A @ G
    W_opt = -np.linalg.solve(H, G.conj().T @ A @ d_freq)
    Gr = apps.transfer_matrix(src, region, k)
    up = green(region, np.array([3.0, 0.0, 0.0]), k)
    p_opt = float(np.sum(np.abs(up + Gr @ W_opt) ** 2) * cell)

    # time domain: single-tone reference; every transfer function realized
    # as a 2-tap FIR filter matched to its complex gain at the tone
    n = np.arange(40000)
    x = np.cos(2 * math.pi * f0 / fs * n)
    zm1 = np.exp(-1j * 2 * math.pi * f0 / fs)

    def two_tap(c):
        b = c.imag / zm1.imag
        a = c.real - b * zm1.real
        return np.stack([a, b], axis=-1)

    G_fir = np.moveaxis(two_tap(G), -1, 0)  # (2, M, L)
    d_taps = two_tap(d_freq)  # (M, 2)
    x_del = np.concatenate([[0.0], x[:-1]])
    d_sig = (d_taps[:, 0][:, None] * x + d_taps[:, 1][:, None] * x_del).T  # (T, M)

    # frequency-independent weighting: exact taps are A at lag 0
    A_taps = apps.weighting_taps(lambda f: A, 64, 4)

    W, _ = apps.fxlms_weighted_run(G_fir, A_taps, x, d_sig, mu=5e-2, filt_len=2)
    # steady-state complex gains of the adapted 2-tap control filters at f0
    W_cplx = W[0, :, 0] + W[1, :, 0] * zm1
    p_td = float(np.sum(np.abs(up + Gr @ W_cplx) ** 2) * cell)
    assert 10 * abs(math.log10(p_td / p_opt)) <= 1.0


# ---------------------------------------------------------------------------
# Fast paths against the per-tap / per-iteration reference loops
# ---------------------------------------------------------------------------

def _fxlms_reference(G_fir, A_taps, x, d, mu, filt_len, W0):
    """Kernel-weighted FxLMS from the filter W0, written tap by tap (the
    original loops)."""
    x = np.atleast_2d(np.asarray(x, dtype=float).T).T
    J, M, L = G_fir.shape
    two_k_plus_1 = A_taps.shape[0]
    K = (two_k_plus_1 - 1) // 2
    T, R = x.shape
    I = filt_len
    H = np.zeros((J + 2 * K, M, L))
    for i in range(J + 2 * K):
        for j in range(two_k_plus_1):
            if 0 <= i - j < J:
                H[i] += A_taps[j] @ G_fir[i - j]
    W = np.array(W0, dtype=float)
    y_hist = np.zeros((T, L))
    e_hist = np.zeros((T, M))
    for n in range(T):
        for i in range(min(I, n + 1)):
            y_hist[n] += W[i] @ x[n - i]
        e = d[n].copy()
        for i in range(min(J, n + 1)):
            e += G_fir[i] @ y_hist[n - i]
        e_hist[n] = e
        if n - K < 0:
            continue
        e_delay = e_hist[n - K]
        for i in range(I):
            upd = np.zeros((L, R))
            for j in range(J + 2 * K):
                idx = n - i - j
                if idx < 0:
                    break
                upd += np.outer(H[j].T @ e_delay, x[idx])
            W[i] -= mu * upd
    return W, e_hist


def _fir_output(G_fir, W0, x):
    """The error-mic signals ``G * (W0 * x)`` of the fixed filter W0."""
    T = len(x)
    y = np.zeros((T, W0.shape[1]))
    for i in range(len(W0)):
        y[i:] += x[:T - i] @ W0[i].T
    out = np.zeros((T, G_fir.shape[1]))
    for j in range(len(G_fir)):
        out[j:] += y[:T - j] @ G_fir[j].T
    return out


@pytest.mark.parametrize(
    "J, K, I, R, T, with_W0",
    [
        (3, 2, 3, 2, 400, True),
        (2, 0, 1, 1, 60, False),
        (1, 3, 4, 3, 120, True),  # T a multiple of K+1
        (2, 0, 2, 2, 50, True),  # K = 0: one sample per step
        (2, 0, 2, 1, 1, True),  # T = 1, a single update
        (2, 2, 2, 1, 1, True),  # T = 1, no update
        (2, 3, 2, 2, 3, True),  # T <= K: no update
        (2, 3, 2, 2, 4, False),  # T = K+1: one update, on the last sample
        (2, 3, 2, 1, 4 * 12 + 1, True),  # T = 1 (mod K+1)
        (2, 3, 2, 1, 4 * 12 + 3, False),  # T = K (mod K+1)
        (3, 4, 3, 2, 203, True),  # K >= 4, R = 2, W0 != 0
        (3, 2, 2, 2, 3 * 40 - 1, True),  # T + 1 a multiple of K+1
        # 171 blocks of 384 bytes of filtered references: a chunk of 170
        # blocks, then one of a single block
        (2, 1, 2, 1, 340, False),
    ],
)
def test_fxlms_matches_per_tap_reference(J, K, I, R, T, with_W0):
    # The run starts from 0.  The reference loop starts from W0 where one is
    # given: the same run, since W0's output G * (W0 * x) then adds to d and W0
    # to every filter.
    rng = np.random.default_rng(100 + J + 10 * K)
    M, L = 4, 3
    G_fir = 0.3 * rng.normal(size=(J, M, L))
    A_taps = 0.3 * rng.normal(size=(2 * K + 1, M, M))
    x = rng.normal(size=(T, R))
    d = rng.normal(size=(T, M))
    start = 0.1 * rng.normal(size=(I, L, R)) if with_W0 else np.zeros((I, L, R))
    W, e = apps.fxlms_weighted_run(G_fir, A_taps, x, d + _fir_output(G_fir, start, x), 1e-2, I)
    W += start
    W_ref, e_ref = _fxlms_reference(G_fir, A_taps, x, d, 1e-2, I, start)
    moved = np.max(np.abs(W_ref - start))
    assert (moved > 0) == (T > K)  # the first update is at n = K
    if T >= 50:
        assert moved > 1e-3  # the filter did adapt
    assert W.shape == W_ref.shape and e.shape == (T, M)
    assert np.max(np.abs(W - W_ref)) <= 1e-12 * np.max(np.abs(W_ref))
    assert np.max(np.abs(e - e_ref)) <= 1e-12 * np.max(np.abs(e_ref))


def test_fxlms_memory_holds_no_filter_per_sample():
    # 20k samples with L * I * R = 256 filter coefficients: a (T, L, I*R)
    # stack of every sample's filter alone would take 41 MB, against
    # 8 * T * (2M + L + 2R) = 2.6 MB for the error, output and reference
    # buffers the run needs, plus a few filters per block
    rng = np.random.default_rng(9)
    J, K, M, L, I, R, T = 2, 4, 2, 4, 16, 4, 20000
    G_fir = 0.1 * rng.normal(size=(J, M, L))
    A_taps = 0.1 * rng.normal(size=(2 * K + 1, M, M))
    x = rng.normal(size=(T, R))
    d = rng.normal(size=(T, M))
    tracemalloc.start()
    try:
        W, e = apps.fxlms_weighted_run(G_fir, A_taps, x, d, 1e-4, I)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(W)) and e.shape == (T, M)
    assert peak < 2 * 8 * (T * (2 * M + L + 2 * R) + 4 * (K + 1) * L * I * R)


@pytest.mark.parametrize("blocks", [1, 7, None])
def test_fxlms_independent_of_the_reference_chunk(monkeypatch, blocks):
    # 134 blocks of K+1 = 3 updates, 8 * 3 * M L I R = 1728 bytes each:
    # chunks of 1 block, 7 blocks (the last of them 1 block) or the whole run
    rng = np.random.default_rng(5)
    J, K, M, L, I, R, T = 3, 2, 4, 3, 3, 2, 400
    args = (0.3 * rng.normal(size=(J, M, L)), 0.3 * rng.normal(size=(2 * K + 1, M, M)),
            rng.normal(size=(T, R)), rng.normal(size=(T, M)), 1e-2, I)
    W, e = apps.fxlms_weighted_run(*args)
    monkeypatch.setattr(apps, "_FXREF_BYTES", 1728 * blocks if blocks else 1 << 40)
    W_c, e_c = apps.fxlms_weighted_run(*args)
    assert np.array_equal(W, W_c) and np.array_equal(e, e_c)


def _fxlms_case():
    """Valid arguments: J = 2, K = 1, M = 3, L = 2, I = 2, R = 1, T = 10."""
    rng = np.random.default_rng(4)
    return dict(
        G_fir=rng.normal(size=(2, 3, 2)), A_taps=rng.normal(size=(3, 3, 3)),
        x=rng.normal(size=(10, 1)), d=rng.normal(size=(10, 3)), mu=1e-2, filt_len=2)


@pytest.mark.parametrize(
    "change, name",
    [
        (dict(G_fir=np.zeros((2, 3))), "G_fir"),
        (dict(A_taps=np.zeros((2, 3, 3))), "A_taps"),  # even length
        (dict(A_taps=np.zeros((3, 2, 2))), "A_taps"),  # not M x M
        (dict(A_taps=np.zeros((3, 3))), "A_taps"),
        (dict(x=np.zeros((10, 1, 1))), "x"),
        (dict(d=np.zeros((11, 3))), "d"),  # longer than x
        (dict(d=np.zeros((9, 3))), "d"),  # shorter than x
        (dict(d=np.zeros((10, 2))), "d"),  # not M columns
        (dict(d=np.zeros(10)), "d"),
        (dict(filt_len=0), "filt_len"),
        (dict(mu=math.nan), "mu"),
        (dict(mu=math.inf), "mu"),
        (dict(mu=0.0), "mu"),
        (dict(mu=-1e-2), "mu"),
        (dict(mu=1e-2 + 0j), "mu"),
        (dict(G_fir=np.full((2, 3, 2), 1j)), "G_fir"),
        (dict(G_fir=np.zeros((0, 3, 2))), "G_fir"),  # J = 0
        (dict(G_fir=np.zeros((2, 3, 0))), "G_fir"),  # L = 0
        (dict(A_taps=np.full((3, 3, 3), math.nan)), "A_taps"),
        (dict(x=np.full((10, 1), math.nan)), "x"),
        (dict(x=np.ones((10, 1)) + 1j), "x"),
        (dict(d=np.full((10, 3), math.inf)), "d"),
        (dict(filt_len=2.5), "filt_len"),
        (dict(filt_len=True), "filt_len"),
    ],
)
def test_fxlms_rejects_malformed_inputs(change, name):
    args = dict(_fxlms_case(), **change)
    with pytest.raises(ValueError, match=f"^{name} must"):
        apps.fxlms_weighted_run(**args)


def _lms_reference_trajectory(G, A, d, x, mu, iters, W0):
    """Filters after each update of W <- W - mu * anc_gradient(W)."""
    W = np.array(W0, dtype=complex)
    traj = []
    for _ in range(iters):
        W = W - mu * apps.anc_gradient(W, G, A, d, x)
        traj.append(W)
    return traj


@pytest.mark.parametrize("with_W0", [True, False])
def test_anc_lms_matches_reference_trajectory(with_W0):
    # The run starts from 0.  The reference loop starts from W0 where one is
    # given: the same run, since W0's output G W0 x then adds to d and W0 to
    # every filter.
    rng = np.random.default_rng(7)
    M, L = 6, 3
    G = rng.normal(size=(M, L)) + 1j * rng.normal(size=(M, L))
    B = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
    A = B @ B.conj().T
    d = rng.normal(size=M) + 1j * rng.normal(size=M)
    x = rng.normal(size=2) + 1j * rng.normal(size=2)
    W0 = 0.1 * (rng.normal(size=(L, 2)) + 1j * rng.normal(size=(L, 2)))
    if not with_W0:
        W0 = np.zeros_like(W0)
    eig = float(np.linalg.eigvalsh(G.conj().T @ A @ G).max())
    mu = 0.5 / (eig * float(np.vdot(x, x).real))
    iters = 300
    traj = _lms_reference_trajectory(G, A, d, x, mu, iters, W0)
    W, costs = apps.anc_lms_run(G, A, d + G @ (W0 @ x), x, mu, iters)
    expected = [anc_cost(apps.anc_error(Wt, G, d, x), A) for Wt in traj]
    assert costs.shape == (iters,)
    assert np.allclose(costs, expected, rtol=1e-12, atol=0)
    assert expected[-1] < expected[0]  # the run did adapt
    assert np.max(np.abs(W + W0 - traj[-1])) <= 1e-12 * np.max(np.abs(traj[-1]))


def _lms_problem(seed, M, L, R, step, with_W0):
    """A random LMS problem: M mics, L sources, R references, Hermitian PSD
    weighting and step size `step` / (x^H x max eig(G^H A G))."""
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(M, L)) + 1j * rng.normal(size=(M, L))
    B = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
    A = B @ B.conj().T
    d = rng.normal(size=M) + 1j * rng.normal(size=M)
    x = rng.normal(size=R) + 1j * rng.normal(size=R)
    W0 = 0.1 * (rng.normal(size=(L, R)) + 1j * rng.normal(size=(L, R)))
    if not with_W0:
        W0 = np.zeros_like(W0)
    eig = float(np.linalg.eigvalsh(G.conj().T @ A @ G).max())
    mu = step / (eig * float(np.vdot(x, x).real))
    return G, A, d, x, mu, W0


@pytest.mark.parametrize(
    "M, L, R, step, iters, with_W0",
    [
        (6, 3, 1, 0.5, 300, True),   # W0 != 0
        (6, 3, 2, 0.5, 300, False),  # two reference signals
        (6, 3, 1, 0.5, 1, True),     # a single update
        (4, 7, 1, 0.5, 30, True),    # rank-deficient G^H A G (L > M)
        (6, 3, 1, 1.9, 300, True),   # mu s lam_max = 1.9, oscillating fast mode
        (6, 3, 1, 1e-6, 300, False),  # slow modes only: 1 - q^t would lose digits
    ],
)
def test_anc_lms_closed_form_matches_loop(M, L, R, step, iters, with_W0):
    # from 0, against the loop from W0 (see the test above)
    G, A, d, x, mu, W0 = _lms_problem(11, M, L, R, step, with_W0)
    traj = _lms_reference_trajectory(G, A, d, x, mu, iters, W0)
    expected = [anc_cost(apps.anc_error(Wt, G, d, x), A) for Wt in traj]
    W, costs = apps.anc_lms_run(G, A, d + G @ (W0 @ x), x, mu, iters)
    assert costs.shape == (iters,)
    np.testing.assert_allclose(costs, expected, rtol=1e-12, atol=0)
    assert np.max(np.abs(W + W0 - traj[-1])) <= 1e-12 * np.max(np.abs(traj[-1]))


def test_anc_lms_cost_error_is_absolute_near_a_zero_optimum():
    # With L > M the error can be cancelled, so the cost falls towards 0.
    # The closed form subtracts the reduction from the initial cost c_0, so
    # its error is a few ulps of c_0, not of c_t.
    G, A, d, x, mu, W0 = _lms_problem(11, 4, 7, 1, 1.0, False)
    iters = 3000
    traj = _lms_reference_trajectory(G, A, d, x, mu, iters, W0)
    expected = np.array([anc_cost(apps.anc_error(Wt, G, d, x), A) for Wt in traj])
    c0 = anc_cost(d, A)
    _, costs = apps.anc_lms_run(G, A, d, x, mu, iters)
    assert expected[-1] < 1e-8 * c0
    assert np.max(np.abs(costs - expected)) <= 1e-13 * c0


def test_anc_lms_cost_memory_is_o_iters():
    G, A, d, x, mu, _ = _lms_problem(3, 6, 4, 1, 0.5, False)
    iters = 10**6
    tracemalloc.start()
    try:
        _, costs = apps.anc_lms_run(G, A, d, x, mu, iters)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert costs.nbytes == 8 * iters
    # an (iters, L) array of geometric sums alone would add 32 MB
    assert peak < costs.nbytes + 2**20


@pytest.mark.parametrize(
    "change, name",
    [
        (dict(mu=-1.0), "mu"),
        (dict(mu=0.0), "mu"),
        (dict(mu=math.nan), "mu"),
        (dict(mu=math.inf), "mu"),
        (dict(mu=1e-2 + 0j), "mu"),
        (dict(iters=0), "iters"),
        (dict(iters=-3), "iters"),
        (dict(iters=2.5), "iters"),
        (dict(iters=True), "iters"),
    ],
)
def test_anc_lms_rejects_malformed_inputs(change, name):
    G, A, d, x, mu, _ = _lms_problem(5, 6, 3, 1, 0.5, False)
    args = dict(dict(G=G, A=A, d=d, x=x, mu=mu, iters=10), **change)
    with pytest.raises(ValueError, match=f"^{name} must"):
        apps.anc_lms_run(**args)


def test_anc_lms_rejects_non_hermitian_weighting():
    G, A, d, x, mu, _ = _lms_problem(5, 6, 3, 1, 0.5, False)
    A = A + 1e-8 * np.max(np.abs(A)) * np.triu(np.ones_like(A), 1)
    with pytest.raises(ValueError, match="Hermitian"):
        apps.anc_lms_run(G, A, d, x, mu, 10)
