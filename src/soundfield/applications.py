"""Applications of interior field estimation: sound field synthesis by
(weighted) pressure matching and kernel-interpolation-based spatial active
noise control (ANC).

Both applications reuse the kernel interpolation machinery: pressures
sampled at a discrete set of points are extended to a region through the
kernel ``j0(k |r - r'|)``, giving a quadratic region weighting matrix that
replaces plain per-point squared errors.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .discrete import Representers, kernel_matrix, solve_kernel
from .observation import Mics
from .wavefuncs import green


# ---------------------------------------------------------------------------
# Geometry helpers
# ---------------------------------------------------------------------------

def square_boundary_points(side, count, z=0.0, outward_shift=0.0):
    """`count` points regularly spaced along a square boundary in the z-plane.

    The square is axis-aligned, centered at the origin, with the given side
    length.  When `outward_shift` is nonzero, every second point is moved
    outward (perpendicular to its edge) by that distance.
    """
    if count % 4 != 0:
        raise ValueError("count must be a multiple of 4")
    per_edge = count // 4
    h = side / 2.0
    along = -h + side * ((np.arange(per_edge) + 0.5) / per_edge)
    edge = np.full(per_edge, h)
    # the edges y = -h, x = h, y = h, x = -h, counterclockwise
    pts = np.stack([np.concatenate([along, edge, -along, -edge]),
                    np.concatenate([-edge, along, edge, -along]),
                    np.full(count, float(z))], axis=1)
    if outward_shift:
        normals = np.repeat([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                             [-1.0, 0.0, 0.0]], per_edge, axis=0)
        pts[1::2] += outward_shift * normals[1::2]
    return pts


def _whole(ratio):
    """Whether `ratio` is within 1e-9 (relative) of a whole number."""
    return abs(ratio - round(ratio)) <= 1e-9 * ratio


def square_grid_side(side, spacing, midpoint=False):
    """Points per side of :func:`square_grid`; inf where side / spacing
    overflows.  A spacing that is not a positive finite number, or a ratio
    that is not whole (see :func:`_whole`), raises ValueError."""
    if not 0.0 < spacing < math.inf:
        raise ValueError(f"spacing must be a positive finite number, got {spacing!r}")
    ratio = side / spacing
    if ratio != math.inf and not _whole(ratio):
        raise ValueError(f"spacing must divide side ({side!r}), got {spacing!r}")
    return math.inf if ratio == math.inf else round(ratio) + (0 if midpoint else 1)


def square_grid(side, spacing, midpoint=False):
    """Grid of points covering a centered square in the plane z = 0.

    With ``midpoint=False`` the nodes include the square's boundary
    (``(side/spacing + 1)**2`` points), the natural choice for control and
    evaluation point sets.  With ``midpoint=True`` the nodes sit at cell
    centers, giving a second-order midpoint quadrature rule for region
    integrals.  Returns (points, cell_area).
    """
    n = square_grid_side(side, spacing, midpoint)
    if midpoint:
        ax = -side / 2.0 + spacing * (np.arange(n) + 0.5)
    else:
        ax = np.linspace(-side / 2.0, side / 2.0, n)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([X, Y, np.zeros_like(X)], axis=-1).reshape(-1, 3)
    return pts, spacing * spacing


def transfer_matrix(src_pos, pts, k):
    """Free-field transfer functions G[n, l] = g_l(r_n) = G(r_n; r_l)."""
    src_pos = np.asarray(src_pos, dtype=float)
    pts = np.asarray(pts, dtype=float)
    return green(pts[:, None, :], src_pos, k)


# ---------------------------------------------------------------------------
# Kernel region weighting
# ---------------------------------------------------------------------------

def region_weighting(points, region_pts, cell_measure, k, reg):
    """Quadratic region weighting matrix for pressures sampled at `points`.

    ``W = P^T [ \\int kappa(r) kappa(r)^T dV ] P`` with
    ``P = (K + reg I)^{-1}``, K and kappa the Gram matrix and representers of
    omni mics at `points`, both real: ``kappa_m(r) = j0(k |r - r_m|)``.  The
    integral over the target region is approximated by the midpoint rule on
    `region_pts` with cell measure `cell_measure`.  Used both for weighted
    pressure matching (points = control points) and spatial ANC (points =
    error microphones).  Returns a real symmetric (M, M) array.

    `points` and `region_pts` must be real, finite (N, 3) arrays, and the
    region must hold at least one point; a ValueError is raised otherwise.
    This is the one-k case of :func:`_region_weightings`, which builds the
    k-independent radii once for a run of wavenumbers.
    """
    return next(_region_weightings(points, region_pts, cell_measure, (k,), reg))


def _region_weightings(points, region_pts, cell_measure, ks, reg):
    """:func:`region_weighting` at each wavenumber of `ks`, in turn.

    The inputs are checked, and the mics and the radii of the region points
    built, once; each weighting then costs only its k-dependent part, with
    the same bits as a :func:`region_weighting` call at that k.
    """
    for k in ks:
        if not (math.isfinite(k) and 0 <= reg < math.inf and 0 < cell_measure < math.inf):
            raise ValueError(f"k, reg and cell_measure must be finite with reg >= 0 and "
                             f"cell_measure > 0, got {k!r}, {reg!r}, {cell_measure!r}")
    for name, v in (("points", points), ("region_pts", region_pts)):
        v = np.asarray(v)
        if (np.iscomplexobj(v) or v.ndim != 2 or v.shape[1] != 3
                or not np.isfinite(v).all()):
            raise ValueError(f"{name} must be a real, finite (N, 3) array, got "
                             f"{v.dtype} of shape {v.shape}")
    if np.size(region_pts) == 0:
        raise ValueError("region_pts must hold at least one point")
    mics = Mics(points)
    rep = Representers(mics, region_pts)
    for k in ks:
        K = kernel_matrix(mics, k).real
        P = np.linalg.inv(K + reg * np.eye(len(mics)))
        kap = next(rep.terms(k))  # a j0, (Q, M)
        # one BLAS syrk, whose computed triangle numpy mirrors: exactly symmetric
        inner = cell_measure * (kap.T @ kap)
        # freed before the yield, so that it does not sit next to the
        # caller's arrays or the next k's table
        del kap
        W = P.T @ inner @ P
        # exactly symmetric: rounding leaves P^T inner P symmetric only to about
        # cond(K + reg I) ulps, which at low k exceeds anc_lms_run's tolerance
        yield 0.5 * (W + W.T)


# ---------------------------------------------------------------------------
# Pressure matching
# ---------------------------------------------------------------------------

def pm_drive(G, u_des, eta):
    """Pressure-matching driving signals ``(G^H G + eta I)^{-1} G^H u_des`` by
    :func:`solve_kernel`, which raises its `reg` ValueError for eta."""
    G = np.asarray(G, dtype=complex)
    GH = G.conj().T
    return solve_kernel(GH @ G, GH @ np.asarray(u_des, dtype=complex).reshape(-1), eta)


def wpm_drive(G, u_des, eta, W):
    """Weighted pressure matching ``(G^H W G + eta I)^{-1} G^H W u_des`` as in
    :func:`pm_drive`; with W = I it reduces exactly to :func:`pm_drive`."""
    G = np.asarray(G, dtype=complex)
    GHW = G.conj().T @ np.asarray(W, dtype=complex)
    return solve_kernel(GHW @ G, GHW @ np.asarray(u_des, dtype=complex).reshape(-1), eta)


# ---------------------------------------------------------------------------
# Spatial ANC, frequency domain
# ---------------------------------------------------------------------------

def anc_error(W, G, d, x):
    """Error-microphone signals e = d + G W x."""
    y = np.asarray(W, dtype=complex) @ np.asarray(x, dtype=complex)
    return np.asarray(d, dtype=complex) + np.asarray(G, dtype=complex) @ y


def anc_gradient(W, G, A, d, x):
    """Gradient of e^H A e with respect to W^*: G^H A e x^H."""
    e = anc_error(W, G, d, x)
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    G = np.asarray(G, dtype=complex)
    return np.outer(G.conj().T @ (np.asarray(A, complex) @ e), x.conj())


# Updates per block of the cost trajectory: the sums S_t are built for one
# block of t at a time, so no (iters, L) array is formed.  A small block
# keeps the peak memory near that of a per-update loop; with the 12 sources
# of `anc`, one block is 48 KB.
_COST_CHUNK = 512


def _geometric_sums(a, t):
    """S[j, i] = sum_{r < t_j} (1 - a_i)^r for update counts `t` and rates `a`.

    Where 0 != a < 1 the sum is -expm1(t log1p(-a)) / a, which keeps the
    digits that 1 - q^t loses on slow modes (q = 1 - a close to 1); where
    a >= 1 (q <= 0) it is (1 - q^t) / a, and where a = 0 it is t.
    """
    t = np.asarray(t, dtype=float)[:, None]
    slow = a < 1
    zero = a == 0
    # in place where possible: a cost block is (_COST_CHUNK, L)
    S = np.expm1(t * np.log1p(-np.where(slow, a, 0.0)))
    np.negative(S, out=S)
    S[:, ~slow] = 1.0 - np.power(1.0 - a[~slow], t)
    S /= np.where(zero, 1.0, a)
    S[:, zero] = t
    return S


def anc_lms_run(G, A, d, x, mu, iters):
    """Frequency-domain LMS from W = 0: W <- W - mu G^H A e x^H, e = d + G W x.

    The update is an affine recurrence with fixed coefficients, so every
    iterate is evaluated in closed form (the eigenmode analysis of steepest
    descent; Widrow & Stearns, *Adaptive Signal Processing*, 1985).  With
    s = x^H x, H = G^H A G = V diag(lam) V^H and g = V^H G^H A d, mode i
    decays by q_i = 1 - mu s lam_i per update; after t updates

        W_t = -mu V (S_t * g) x^H,  S_{t,i} = sum_{r<t} q_i^r,
        c_t = c_0 - 2 mu s sum_i S_{t,i} |g_i|^2
                  + (mu s)^2 sum_i S_{t,i}^2 lam_i |g_i|^2.

    A must be Hermitian, for G^H A e to be the gradient of the cost
    e^H A e; otherwise a ValueError is raised.  The costs are accurate to a
    few ulps of c_0, not of c_t: relative to c_t the error grows where the
    cost falls many decades below its start.

    Returns the final filter and the per-iteration cost (the cost is
    evaluated after each update), built in O(iters) memory.  `mu` must be
    positive and finite and `iters` an int >= 1 (a ValueError otherwise).
    """
    if not (isinstance(mu, (int, float, np.integer, np.floating)) and 0 < mu < math.inf):
        raise ValueError(f"mu must be a positive finite number, got {mu!r}")
    if isinstance(iters, bool) or not isinstance(iters, (int, np.integer)) or iters < 1:
        raise ValueError(f"iters must be an int >= 1, got {iters!r}")
    G = np.asarray(G, dtype=complex)
    A = np.asarray(A, dtype=complex)
    e0 = np.asarray(d, dtype=complex)
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    if np.max(np.abs(A - A.conj().T), initial=0.0) > 1e-10 * np.max(np.abs(A), initial=0.0):
        raise ValueError("A must be Hermitian")
    GH = G.conj().T
    Ae0 = A @ e0
    H = GH @ A @ G
    # G^H A G (two BLAS products) and an A within 1e-10 are Hermitian only to rounding
    lam, V = np.linalg.eigh(0.5 * (H + H.conj().T))
    g = V.conj().T @ (GH @ Ae0)
    mu_s = mu * float(np.vdot(x, x).real)
    a = mu_s * lam
    W = -mu * np.outer(V @ (_geometric_sums(a, [iters])[0] * g), x.conj())
    g2 = np.abs(g) ** 2
    c0 = np.vdot(e0, Ae0).real
    w1 = 2.0 * mu_s * g2
    w2 = mu_s ** 2 * lam * g2
    costs = np.empty(iters)
    for start in range(0, iters, _COST_CHUNK):
        t = np.arange(start + 1, min(start + _COST_CHUNK, iters) + 1)
        S = _geometric_sums(a, t)
        costs[start:start + len(t)] = c0 - S @ w1 + (S * S) @ w2
    return W, costs


# ---------------------------------------------------------------------------
# Spatial ANC, time domain (kernel-weighted FxLMS)
# ---------------------------------------------------------------------------

def weighting_taps(A_of_freq, nfft, half_len):
    """Centered FIR truncation A(k), k = -K..K, of a frequency weighting.

    `A_of_freq` maps a frequency bin (in cycles/sample, 0..0.5) to an (M, M)
    weighting matrix; the inverse real-signal DFT over `nfft` bins is
    truncated to ``2*half_len + 1`` taps.  Returns an array of shape
    (2K+1, M, M) indexed by k + K.  `half_len` must be an int >= 0 and
    `nfft` an int with ``2*half_len + 1 <= nfft``, so that no lag wraps
    (a ValueError otherwise).
    """
    K = half_len
    if isinstance(K, bool) or not isinstance(K, (int, np.integer)) or K < 0:
        raise ValueError(f"half_len must be an int >= 0, got {K!r}")
    if isinstance(nfft, bool) or not isinstance(nfft, (int, np.integer)) or nfft < 2 * K + 1:
        raise ValueError(f"nfft must be an int with 2 * half_len + 1 <= nfft, got {nfft!r} "
                         f"with half_len = {K}")
    freqs = np.fft.rfftfreq(nfft)
    spec = np.stack([A_of_freq(f) for f in freqs])  # (nfft//2+1, M, M)
    taps = np.fft.irfft(spec, n=nfft, axis=0)
    # lags -K..-1 are the last K taps; taps[-K:] would be all of them at K = 0
    return np.concatenate([taps[nfft - K:], taps[: K + 1]], axis=0)


# Bytes of filtered references formed per batched product: a block of K+1
# updates takes 8 (K+1) M L I R bytes, so a run with 8 error mics, 4
# sources, K = 4 and I = 2 forms 25 blocks at a time.
_FXREF_BYTES = 1 << 16


def fxlms_weighted_run(G_fir, A_taps, x, d, mu, filt_len):
    """Kernel-weighted FxLMS adaptation in the time domain, from a zero filter.

    Parameters
    ----------
    G_fir : (J, M, L) secondary-path FIR filters.
    A_taps : (2K+1, M, M) truncated weighting filter A(k), k = -K..K.
    x : (T, R) reference signals; d : (T, M) primary noise at the error mics.
    mu : step size.  filt_len : control filter length I.

    Implements ``W_{n+1}(i) = W_n(i) - mu sum_j H(j)^T e(n-K) x(n-i-j)^T``
    with ``H(i) = sum_{j=0}^{2K} A(j) G(i-j)`` (indices of A shifted to
    0..2K), and returns (W, e_history).  Signals before n = 0 are zero, so
    the updates at n < K, whose error e(n-K) is zero, leave W unchanged.

    The recurrence runs exactly, K+1 samples per step.  The filtered
    references ``F_n = -mu sum_j H(j)^T (x) x(n-i-j)`` depend on x alone, so
    they are formed ahead of the loop, _FXREF_BYTES at a time, as one
    batched product (multichannel filtered-x LMS; Elliott, Stothers &
    Nelson, IEEE TASSP 1987); the update at n is then ``e(n-K) F_n``.  The
    update at n reads the error K samples back, so the K+1 updates
    n0-1 .. n0+K-1 use only errors from before n0: one batched product gives
    their increments, one cumulative sum the filters W_{n0} .. W_{n0+K}
    (adding the increments in the loop's order, with the loop's rounding),
    and two more the block's outputs and errors.  This is not block LMS,
    which holds W fixed over a block: every sample still sees its own W_n.
    The time axis is padded with zero signals to whole blocks.  The views
    of the filter stack are bound once per run, and each chunk of blocks is
    walked by one zip over slices taken once, so a step indexes nothing.
    """
    if not (isinstance(mu, (int, float, np.integer, np.floating)) and 0 < mu < math.inf):
        raise ValueError(f"mu must be a positive finite number, got {mu!r}")
    if isinstance(filt_len, bool) or not isinstance(filt_len, (int, np.integer)) or filt_len < 1:
        raise ValueError(f"filt_len must be an int >= 1, got {filt_len!r}")
    arrays = dict(G_fir=G_fir, A_taps=A_taps, x=x, d=d)
    for name, v in arrays.items():
        if np.iscomplexobj(v) or not np.isfinite(v).all():
            raise ValueError(f"{name} must be real and finite")
    G_fir, A_taps, x, d = (np.asarray(v, dtype=float) for v in arrays.values())
    if G_fir.ndim != 3 or 0 in G_fir.shape[::2]:
        raise ValueError(f"G_fir must be 3-D (J, M, L) with J, L >= 1, got shape {G_fir.shape}")
    J, M, L = G_fir.shape
    if A_taps.ndim != 3 or A_taps.shape[0] % 2 != 1 or A_taps.shape[1:] != (M, M):
        raise ValueError(f"A_taps must have shape (2K+1, {M}, {M}), got {A_taps.shape}")
    if x.ndim not in (1, 2):
        raise ValueError(f"x must have shape (T,) or (T, R), got {x.shape}")
    x = np.atleast_2d(x.T).T  # (T, R)
    T, R = x.shape
    if d.shape != (T, M):
        raise ValueError(f"d must have shape (T, M) = {(T, M)}, got {d.shape}")
    I = filt_len
    K = (A_taps.shape[0] - 1) // 2
    B = K + 1
    P = J + 2 * K
    nb = T // B + 1  # blocks of samples; the last one reaches past T
    T2 = nb * B

    # H(i) = sum_{j=0}^{2K} A(j) G(i - j), i = 0..P-1: window i of the
    # zero-padded G holds G(i - 2K), ..., G(i), matched with A(2K), ..., A(0)
    pad = np.zeros((2 * K, M, L))
    G_win = sliding_window_view(np.concatenate([pad, G_fir, pad]), 2 * K + 1, axis=0)
    H = np.einsum("tmn,inlt->iml", A_taps[::-1], G_win)
    Hm = (-mu * H).transpose(1, 2, 0).reshape(M * L, P)  # column j is -mu H(j)
    G_t = G_fir.transpose(0, 2, 1).reshape(J * L, M)  # row (i, l) is G(i)[:, l]

    # Time runs backwards in these buffers, so that sample n's lags
    # x(n), x(n-1), ... (and y(n), y(n-1), ...) are one contiguous slice
    # starting at row b = T2-1-n; the trailing zero rows stand for n < 0 and
    # the leading ones for n >= T.  The update at n also sits at row b.
    x_rev = np.zeros((T2 + I + P - 1, R))
    x_rev[T2 - T:T2] = x[::-1]
    # row q = x_rev[q], ..., x_rev[q+I-1] flattened; rows b..b+P-1 are x(n-i-j)
    x_lags = sliding_window_view(x_rev.reshape(-1), I * R)[::R]
    # the (P, I*R) Hankel windows x_lags[b:b+P] of the updates at b = 1..T2
    x_win = sliding_window_view(x_lags[1:], P, axis=0).transpose(0, 2, 1)
    y_rev = np.zeros((T2 + J - 1, L))
    y_lags = sliding_window_view(y_rev.reshape(-1), J * L)[::L]
    # e(n) is row T2-1-n, d(n) until the block's outputs are added; the
    # trailing block of zero rows is e(-1) .. e(-K-1)
    e_rev = np.zeros((T2 + B, M))
    e_rev[T2 - T:T2] = d[::-1]
    # Sample block q is rows qB .. qB+K; its updates, at rows qB+1 .. qB+B,
    # read the errors of block q+1.
    e_blk = e_rev.reshape(nb + 1, B, M)
    e_up = e_rev.reshape(nb + 1, B, 1, M)
    x_blk = x_lags[:T2].reshape(nb, B, I * R, 1)
    y_blk = y_rev[:T2].reshape(nb, B, L, 1)
    y_lag_blk = y_lags[:T2].reshape(nb, B, J * L)

    nc = max(1, min(nb, _FXREF_BYTES // (8 * B * M * L * I * R)))  # blocks per chunk
    F = np.empty((nc * B, M * L, I * R))
    F_blk = F.reshape(nc, B, M, L * I * R)
    # steps[k] for k < B is the increment of the update at row qB+1+k, then
    # the filter after it; steps[B] is the filter before the block
    steps = np.zeros((B + 1, L, I * R))  # column (i, r) is W(i)[:, r]
    incs = steps.reshape(B + 1, 1, L * I * R)[:B]
    before, newest, rev, filters = steps[B], steps[0], steps[::-1], steps[:B]
    for top in range(nb - 1, -1, -nc):
        lo = max(top + 1 - nc, 0)
        np.matmul(Hm, x_win[lo * B:(top + 1) * B], out=F[:(top + 1 - lo) * B])
        # blocks q = top .. lo, each with the errors of block q+1
        down = slice(top, lo - 1 if lo else None, -1)
        for eu, Fq, xb, yb, ylb, eb in zip(e_up[top + 1:lo:-1], F_blk[top - lo::-1], x_blk[down],
                                           y_blk[down], y_lag_blk[down], e_blk[down]):
            before[...] = newest
            np.matmul(eu, Fq, out=incs)
            np.add.accumulate(rev, axis=0, out=rev)
            # sample row b uses the filter after the update at b+1
            np.matmul(filters, xb, out=yb)
            eb += ylb @ G_t
    # W_T follows the update at n = T-1, row T2-T of the last block
    W_t = steps[T2 - T - 1]
    return W_t.reshape(L, I, R).transpose(1, 0, 2).copy(), e_rev[T2 - T:T2][::-1]
