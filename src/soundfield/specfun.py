"""Scalar special functions: spherical Bessel/Hankel functions, spherical
harmonics, Gaunt coefficients and Wigner rotation matrices.

Conventions used throughout the package:

* Spherical harmonics are "unnormalized" in the sense that
  ``Yhat_{nu,mu} = sqrt(4 pi) * Y_{nu,mu}`` where ``Y_{nu,mu}`` is the
  orthonormal complex spherical harmonic with Condon-Shortley phase.  With
  this scaling ``(1/4pi) \\int Yhat_{a}^* Yhat_{b} dS = delta_{ab}`` and
  ``Yhat_{0,0} = 1``.
* Degree/order pairs ``(nu, mu)`` with ``0 <= nu <= N``, ``|mu| <= nu`` are
  flattened to a single index ``nu**2 + nu + mu``; vectors of expansion
  coefficients have length ``(N + 1)**2``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


def flat_index(nu, mu):
    """Flatten a degree/order pair to the canonical vector index."""
    return nu * nu + nu + mu


def num_coeffs(order):
    """Number of coefficients of an expansion truncated at degree `order`."""
    return (order + 1) ** 2


@lru_cache(maxsize=None)
def degrees_orders(order):
    """Arrays of degrees and orders matching the flat coefficient layout.

    Returns
    -------
    nu, mu : read-only int arrays of shape ((order+1)**2,)
    """
    nu = np.concatenate([np.full(2 * n + 1, n) for n in range(order + 1)])
    mu = np.concatenate([np.arange(-n, n + 1) for n in range(order + 1)])
    nu.flags.writeable = mu.flags.writeable = False
    return nu, mu


# ---------------------------------------------------------------------------
# Spherical Bessel / Hankel functions
# ---------------------------------------------------------------------------

# Below this |x|, j_n(x) equals the leading power-series term x^n/(2n+1)!!
# to double precision: the next term is smaller by x^2 / (4n + 6).  Likewise
# sin x rounds to x and cos x to 1 there.
_SERIES_X = 1e-8
# Miller's recurrence rescales its values once they pass this magnitude
# (~1e200; a power of two, so rescaling is exact and every column comes out
# the same whatever else is in the batch).  A step grows them by at most
# (2n+1)/|x| <= ~1e11, far inside the headroom.
_RESCALE = 2.0**664
# _sincos works in blocks of this many values, so its scratch is at most
# 64 KB whatever the batch.
_TRIG_BLOCK = 8192


def _sincos(x, s, c=None):
    """sin x into the row s and, if given, cos x into the row c, at a 1-D x.

    Both come from numpy's tangent, which is vectorised where sin and cos
    call libm once per value: with t = tan(x/2) (x/2 is exact),
    ``sin x = 2t / (1 + t^2)`` and ``cos x = sin x / tan x``.  Below
    _SERIES_X, sin x = x and cos x = 1, which also covers 0/0 at x = 0.
    Every size of x, one value included, takes this one path, element by
    element, so a value's bits do not depend on the others in x.
    """
    scratch = np.empty(min(x.size, _TRIG_BLOCK)) if c is None else None
    for i in range(0, x.size, _TRIG_BLOCK):
        xb, sb = x[i:i + _TRIG_BLOCK], s[i:i + _TRIG_BLOCK]
        cb = scratch[:xb.size] if c is None else c[i:i + _TRIG_BLOCK]
        np.tan(np.multiply(xb, 0.5, out=sb), out=sb)
        np.multiply(sb, sb, out=cb)
        cb += 1.0
        sb += sb
        sb /= cb
        if c is not None:
            np.divide(sb, np.tan(xb, out=cb), out=cb)
        small = np.abs(xb) < _SERIES_X
        if small.any():
            np.copyto(sb, xb, where=small)
            np.copyto(cb, 1.0, where=small)


def _j0(x):
    """j_0(x) = sin(x)/x at a 1-D x, equal to 1 at x = 0."""
    j0 = np.empty(x.size)
    _sincos(x, j0)
    j0 /= x
    j0[x == 0] = 1.0
    return j0


def _upward(rows, x, nmax):
    """Fill rows[2:nmax+1] by ``f_{n+1} = (2n+1)/x f_n - f_{n-1}`` from rows[0]
    and rows[1] at a 1-D x."""
    if nmax < 2:
        return
    prev, cur, inv = rows[0], rows[1], 1.0 / x
    for n in range(1, nmax):
        prev, cur = cur, (2 * n + 1) * inv * cur - prev
        rows[n + 1] = cur


def _jn_rows(rows, x, y=None):
    """j_0..j_nmax (nmax >= 1) at a 1-D array x into `rows`, shape
    (nmax + 1, x.size), and y_0..y_nmax into `y` if given, from one sine
    and cosine of x.

    For |x| > nmax every order is in the oscillatory region, where the
    upward recurrence from j_0 = sin(x)/x and j_1 = (j_0 - cos x)/x is
    stable; the columns with |x| <= nmax (and NaN) are redone by Miller's
    downward recurrence.
    """
    nmax = len(rows) - 1
    j0, j1 = rows[0], rows[1]
    low = np.flatnonzero(~(np.abs(x, out=j1) > nmax))  # j1 as scratch: no float temporary
    _sincos(x, j0, j1)
    if y is not None:  # while j0 still holds sin x
        _yn_rows(y, x, j0, j1)
    j0 /= x
    np.subtract(j0, j1, out=j1)
    j1 /= x
    _upward(rows, x, nmax)
    if low.size:
        rows[:, low] = _jn_miller(nmax, x[low], rows[:2, low])


def _jn_miller(nmax, x, seeds):
    """j_0..j_nmax (nmax >= 1) at a 1-D array x with |x| <= nmax.

    Miller's downward recurrence (Gautschi 1967) from an order far enough
    above nmax that the start error has decayed below rounding, normalised
    by whichever of the `seeds` j_0 = sin(x)/x and j_1 = (j_0 - cos x)/x,
    shape (2, x.size), is larger in magnitude, so that neither a zero of j_0
    nor the cancellation in j_1 at small x costs accuracy.
    """
    series = np.abs(x) < _SERIES_X
    start = nmax + 20 + int(6.0 * nmax ** (1.0 / 3.0))
    xm = np.where(series, 1.0, x)  # overwritten by the series; a tiny x would set the bound below
    inv = 1.0 / xm
    # The values grow by at most prod (2n+1)/|x| on the way down; check for
    # overflow only when that bound can pass the rescaling threshold.
    growth = np.log(np.arange(3, 2 * start + 2, 2)).sum() - start * math.log(
        np.min(np.abs(xm), initial=1.0))
    checked = growth > math.log(_RESCALE)
    rows = np.empty((nmax + 1, x.size))
    f_next, f, inv_f = np.zeros(x.size), np.ones(x.size), inv
    for n in range(start, 0, -1):
        f_next, f = f, (2 * n + 1) * inv_f * f - f_next  # f is now f_{n-1}
        if n <= nmax + 1:
            rows[n - 1] = f
        if checked and np.max(np.abs(f)) > _RESCALE:
            s = np.where(np.abs(f) > _RESCALE, 1.0 / _RESCALE, 1.0)
            f, f_next = f * s, f_next * s
            rows[n - 1:] *= s
    j0, j1 = seeds
    by_j0 = np.abs(j0) >= np.abs(j1)
    rows *= np.where(by_j0, j0, j1) / np.where(by_j0, rows[0], rows[1])
    if series.any():
        term = np.ones(int(series.sum()))
        for n in range(nmax + 1):
            rows[n, series] = term
            term = term * x[series] / (2 * n + 3)
    return rows


def _yn_rows(rows, x, s, c):
    """y_0..y_nmax (nmax >= 1) at a 1-D array x into `rows`, shape
    (nmax + 1, x.size), by upward recurrence from sin x and cos x in the
    rows s and c.

    The recurrence is stable upward since y_n grows with n.  Where it
    overflows, and at x = 0, the value is -inf.
    """
    y0, y1 = rows[0], rows[1]
    np.negative(c, out=y0)
    y0 /= x
    np.subtract(y0, s, out=y1)
    y1 /= x
    _upward(rows, x, len(rows) - 1)
    rows[np.isnan(rows) & ~np.isnan(x)] = -np.inf


def _derivative_rows(rows, x, at_zero):
    """Derivatives from ``f_0' = -f_1`` and ``f_n' = f_{n-1} - (n+1)/x f_n``.

    `rows` holds f_0..f_m (m >= 1) at a 1-D array x; the result holds
    f_0'..f_m'.  Columns at x = 0 are set to `at_zero`, shape (m + 1,).
    """
    d = np.empty_like(rows)
    d[0] = -rows[1]
    n1 = np.arange(2, len(rows) + 1)[:, None]
    d[1:] = rows[:-1] - n1 / x * rows[1:]
    zero = x == 0
    if zero.any():
        d[:, zero] = at_zero[:, None]
    return d


def _bessel_all(kind, nmax, x, derivative=False):
    """Shared body of :func:`sph_jn_all` and :func:`sph_hn_all`; the one
    place whose errstate covers 1/0, 0/0 and overflow in the helpers above,
    and which checks `nmax`.  It owns the rows of j_n and, for h_n, of y_n,
    which :func:`_jn_rows` fills from one :func:`_sincos` call."""
    if isinstance(nmax, bool) or not isinstance(nmax, (int, np.integer)) or nmax < 0:
        raise ValueError(f"nmax must be an int >= 0, got {nmax!r}")
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if kind == "j" and nmax == 0 and not derivative:
            return _j0(flat).reshape((1,) + x.shape)
        m = max(nmax, 1)
        j = np.empty((m + 1, flat.size))
        y = np.empty_like(j) if kind == "h" else None
        _jn_rows(j, flat, y)
        if derivative:
            at_zero = np.zeros(m + 1)
            at_zero[1] = 1.0 / 3.0
            j = _derivative_rows(j, flat, at_zero)
        out = j
        if kind == "h":
            if derivative:
                y = _derivative_rows(y, flat, np.full(m + 1, np.inf))
            out = np.empty(j.shape, dtype=complex)
            out.real, out.imag = j, y
    return out[: nmax + 1].reshape((nmax + 1,) + x.shape)


def sph_jn_all(nmax, x, derivative=False):
    """j_n(x) for all n = 0..nmax; result has shape (nmax+1,) + shape(x)."""
    return _bessel_all("j", nmax, x, derivative)


def sph_hn_all(nmax, x, derivative=False):
    """h_n(x) for all n = 0..nmax; result has shape (nmax+1,) + shape(x)."""
    return _bessel_all("h", nmax, x, derivative)


def legendre_all(nmax, x):
    """P_n(x) for all n = 0..nmax by the three-term (Bonnet) recurrence."""
    x = np.asarray(x, dtype=float)
    p = np.empty((nmax + 1,) + x.shape)
    p[0] = 1.0
    if nmax > 0:
        p[1] = x
    for n in range(1, nmax):
        p[n + 1] = ((2 * n + 1) * x * p[n] - n * p[n - 1]) / (n + 1)
    return p


def gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]: the
    eigenvalues of the Jacobi matrix of Bonnet's recurrence (Golub & Welsch
    1969), one Newton step, the weights ``2 / ((1 - x^2) P_n'(x)^2)`` at the
    new nodes, and numpy ``leggauss``'s symmetrisation about 0."""
    k = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    p = legendre_all(n, x)  # P_n' = n (P_{n-1} - x P_n) / (1 - x^2)
    x = x - p[n] * (1.0 - x) * (1.0 + x) / (n * (p[n - 1] - x * p[n]))
    p = legendre_all(n, x)
    w = 2.0 * (1.0 - x) * (1.0 + x) / (n * (p[n - 1] - x * p[n])) ** 2
    return (x - x[::-1]) / 2, (w + w[::-1]) / 2


# ---------------------------------------------------------------------------
# Spherical harmonics
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _legendre_step(n):
    """Coefficients (a, b), shape (n, 1), of the degree-n recurrence for m < n."""
    m = np.arange(n)[:, None]
    a = np.sqrt((2 * n - 1) * (2 * n + 1) / ((n - m) * (n + m)))
    b = np.sqrt((2 * n + 1) * (n + m - 1) * (n - m - 1)
                / ((n - m) * (n + m) * max(2 * n - 3, 1)))
    a.flags.writeable = b.flags.writeable = False
    return a, b


def _legendre_table(order, dirs):
    """``P[nu, m] = Pbar_nu^m(cos theta)`` (order+1, order+1, Q), 0 for m > nu, and
    phi (Q,) at the unit vectors `dirs` (..., 3).

    The 4 pi-normalised associated Legendre functions
    ``Pbar_nu^m = sqrt((2nu+1)(nu-m)!/(nu+m)!) P_nu^m`` (Condon-Shortley
    phase included) come from the sectoral seed
    ``Pbar_m^m = -sqrt((2m+1)/(2m)) sin(theta) Pbar_{m-1}^{m-1}`` and the
    degree recurrence of Holmes & Featherstone (2002),
    ``Pbar_n^m = a_nm cos(theta) Pbar_{n-1}^m - b_nm Pbar_{n-2}^m``, all
    orders of one degree per step.  ``sin(theta)`` is ``sqrt((1 - z)(1 + z))``
    unless that is below 1e-2, where z holds the angle to only about
    ``1e-16 / sin(theta)^2`` relative and ``hypot(x, y)`` is taken.
    """
    dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
    z = np.clip(dirs[:, 2], -1.0, 1.0)
    sin_theta = np.sqrt((1.0 - z) * (1.0 + z))
    pole = sin_theta < 1e-2
    sin_theta[pole] = np.hypot(dirs[pole, 0], dirs[pole, 1])
    P = np.zeros((order + 1, order + 1, z.size))  # P[nu, m]
    P[0, 0] = 1.0
    for n in range(1, order + 1):
        a, b = _legendre_step(n)
        P[n, :n] = a * z * P[n - 1, :n] - b * P[max(n - 2, 0), :n]  # b = 0 at n = 1
        P[n, n] = -math.sqrt((2 * n + 1) / (2 * n)) * sin_theta * P[n - 1, n - 1]
    return P, np.arctan2(dirs[:, 1], dirs[:, 0])


def harmonic_rows(order, dirs):
    """Real harmonics up to degree `order` at the unit vectors `dirs` (..., 3),
    C-ordered ((order+1)**2, Q) in flat (nu, mu) order: row (nu, m) is
    ``Pbar_nu^m cos(m phi)`` and row (nu, -m) ``Pbar_nu^m sin(m phi)``, m >= 0.
    """
    P, phi = _legendre_table(order, dirs)
    m_phi = np.multiply.outer(np.arange(order + 1), phi)
    cos, sin = np.cos(m_phi), np.sin(m_phi)
    rows = np.empty((num_coeffs(order), phi.size))
    for n in range(order + 1):
        c = n * n + n  # the row of (n, 0)
        np.multiply(P[n, :n + 1], cos[:n + 1], out=rows[c:c + n + 1])
        np.multiply(P[n, 1:n + 1], sin[1:n + 1], out=rows[c - n:c][::-1])  # (n, -1), ..., (n, -n)
    return rows


def sph_harm_matrix(order, dirs):
    """All Yhat_{nu,mu} up to degree `order` at the given unit vectors.

    Returns an array of shape ``shape(dirs)[:-1] + ((order+1)**2,)`` with
    columns in flat (nu, mu) ordering.  It is the transposed view of a
    C-ordered ``((order+1)**2, Q)`` array, so each column is contiguous and
    ``Y.T[nu**2:(nu+1)**2]`` is the C-ordered block of degree nu.

    ``Yhat_{nu,m} = Pbar_nu^m e^{i m phi}`` (see :func:`_legendre_table`) and
    ``Yhat_{nu,-m} = (-1)^m conj(Yhat_{nu,m})``; its real and imaginary parts
    for m >= 0 are the rows of :func:`harmonic_rows`.
    """
    P, phi = _legendre_table(order, dirs)
    phase = np.exp(1j * np.multiply.outer(np.arange(order + 1), phi))  # e^{i m phi}, m >= 0
    Y = np.empty((num_coeffs(order), phi.size), dtype=complex)
    for n in range(order + 1):
        c = n * n + n  # the row of (n, 0)
        np.multiply(phase[:n + 1], P[n, :n + 1], out=Y[c:c + n + 1])
        neg = Y[c - n:c][::-1]  # the rows of (n, -1), ..., (n, -n)
        np.conjugate(Y[c + 1:c + n + 1], out=neg)
        neg[::2] *= -1.0  # odd m
    return Y.T.reshape(np.shape(dirs)[:-1] + (-1,))


# ---------------------------------------------------------------------------
# Wigner 3j symbols and Gaunt coefficients
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def wigner_3j(j1, j2, j3, m1, m2, m3):
    """Wigner 3j symbol for integer arguments.

    The alternating sum in the Racah formula is accumulated with exact
    rational arithmetic so that no precision is lost to cancellation; the
    square-root prefactor is evaluated in log space.
    """
    if m1 + m2 + m3 != 0:
        return 0.0
    if j3 < abs(j1 - j2) or j3 > j1 + j2:
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0

    tmin = max(0, j2 - j3 - m1, j1 - j3 + m2)
    tmax = min(j1 + j2 - j3, j1 - m1, j2 + m2)
    s = Fraction(0)
    for t in range(tmin, tmax + 1):
        den = (
            math.factorial(t)
            * math.factorial(j3 - j2 + t + m1)
            * math.factorial(j3 - j1 + t - m2)
            * math.factorial(j1 + j2 - j3 - t)
            * math.factorial(j1 - t - m1)
            * math.factorial(j2 - t + m2)
        )
        s += Fraction((-1) ** t, den)
    if s == 0:
        return 0.0

    log_pre = 0.5 * (
        math.lgamma(j1 + j2 - j3 + 1)
        + math.lgamma(j1 - j2 + j3 + 1)
        + math.lgamma(-j1 + j2 + j3 + 1)
        - math.lgamma(j1 + j2 + j3 + 2)
        + math.lgamma(j1 + m1 + 1)
        + math.lgamma(j1 - m1 + 1)
        + math.lgamma(j2 + m2 + 1)
        + math.lgamma(j2 - m2 + 1)
        + math.lgamma(j3 + m3 + 1)
        + math.lgamma(j3 - m3 + 1)
    )
    log_s = math.log(abs(s.numerator)) - math.log(s.denominator)
    sign = (-1) ** (j1 - j2 - m3) * (1 if s > 0 else -1)
    return sign * math.exp(log_pre + log_s)


@lru_cache(maxsize=None)
def gaunt(nu, mu, nup, mup, nupp, mupp):
    """Gaunt-type coupling coefficient.

    ``(1/4pi) \\int Yhat_{nu,mu}^* Yhat_{nup,mup} Yhat_{nupp,mupp}^* dS``,
    which is real and vanishes unless ``mupp = mup - mu``, the degrees
    satisfy the triangle inequality and ``nu + nup + nupp`` is even.
    """
    if mupp != mup - mu:
        return 0.0
    if (nu + nup + nupp) % 2 != 0:
        return 0.0
    if nupp < abs(nu - nup) or nupp > nu + nup:
        return 0.0
    w0 = wigner_3j(nu, nup, nupp, 0, 0, 0)
    wm = wigner_3j(nu, nup, nupp, -mu, mup, -mupp)
    return (
        (-1) ** (mu + mupp)
        * math.sqrt((2 * nu + 1) * (2 * nup + 1) * (2 * nupp + 1))
        * w0
        * wm
    )


# ---------------------------------------------------------------------------
# Wigner rotation matrices
# ---------------------------------------------------------------------------

def euler_zyz(rot):
    """z-y-z Euler angles with ``R = R_z(alpha) R_y(beta) R_z(gamma)``: alpha
    from the third column (any alpha serves at beta = 0 or pi), then gamma
    from whichever of alpha + gamma and alpha - gamma the upper 2x2 block
    holds at the larger scale, ``1 + cos(beta)`` or ``1 - cos(beta)``."""
    r = np.asarray(rot, dtype=float)
    beta = math.atan2(math.hypot(r[0, 2], r[1, 2]), r[2, 2])
    alpha = math.atan2(r[1, 2], r[0, 2])
    if r[2, 2] >= 0:
        return alpha, beta, math.atan2(r[1, 0] - r[0, 1], r[0, 0] + r[1, 1]) - alpha
    return alpha, beta, alpha - math.atan2(-r[1, 0] - r[0, 1], r[1, 1] - r[0, 0])


@lru_cache(maxsize=None)
def _jy_eigenvectors(nu):
    """Eigenvectors of the angular-momentum matrix J_y of degree nu.

    ``J_y = (J_+ - J_-) / 2i`` in the basis m = -nu..nu, with
    ``<m+1|J_+|m> = sqrt(nu(nu+1) - m(m+1))``; its eigenvalues are exactly
    m = -nu..nu, in the ascending order `eigh` returns them.  Read-only.
    """
    m = np.arange(-nu, nu)
    up = np.sqrt(nu * (nu + 1) - m * (m + 1)) / 2j
    i = np.arange(2 * nu)
    Jy = np.zeros((2 * nu + 1, 2 * nu + 1), dtype=complex)
    Jy[i + 1, i] = up
    Jy[i, i + 1] = -up
    V = np.linalg.eigh(Jy)[1]
    V.flags.writeable = False
    return V


def wigner_d_small(nu, beta):
    """Wigner small-d matrices d^{nu}_{m',m}(beta), shape ``shape(beta) + (2nu+1, 2nu+1)``.

    Row/column indices run over m', m = -nu..nu.  ``d(beta) = exp(-i beta J_y)``
    is formed from the eigen-decomposition of J_y with its exact integer
    eigenvalues, so it is orthogonal to rounding at any degree (no factorial
    sums, which overflow and cancel at high degree).  No BLAS call is made.
    """
    V = _jy_eigenvectors(nu)
    phase = np.exp(-1j * np.multiply.outer(beta, np.arange(-nu, nu + 1)))
    return np.einsum("...ij,kj->...ik", V * phase[..., None, :], V.conj()).real


def wigner_blocks(order, alpha, beta, gamma, K):
    """Wigner D blocks of degrees 0..order for z-y-z Euler angles of shape (B,)
    or scalars, padded to shape (B, order + 1, 2 order + 1, 2K + 1): ``D[b, nu,
    mu + order, m + K] = e^{-i mu alpha} d^nu_{mu,m}(beta) e^{-i m gamma}``,
    zero where |mu| > nu or |m| > min(nu, K)."""
    alpha, beta, gamma = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (alpha, beta, gamma))
    D = np.zeros((beta.size, order + 1, 2 * order + 1, 2 * K + 1), dtype=complex)
    for nu in range(order + 1):
        c = min(nu, K)
        D[:, nu, order - nu:order + nu + 1, K - c:K + c + 1] = \
            wigner_d_small(nu, beta)[..., nu - c:nu + c + 1]
    D *= np.exp(-1j * np.multiply.outer(alpha, np.arange(-order, order + 1)))[:, None, :, None]
    D *= np.exp(-1j * np.multiply.outer(gamma, np.arange(-K, K + 1)))[:, None, None, :]
    return D


def wigner_D(nu, rot):
    """Wigner D-matrix D^{(nu)}_{mu,mu'} of a rotation, shape (2nu+1, 2nu+1):
    degree nu of :func:`wigner_blocks` at ``euler_zyz(rot)``, so that
    ``Yhat_{nu,mu'}(R^{-1} x) = sum_mu D_{mu,mu'} Yhat_{nu,mu}(x)``, equivalently
    ``D_{mu,mu'} = (1/4pi) \\int Yhat_{nu,mu}(R x)^* Yhat_{nu,mu'}(x) dS``."""
    return wigner_blocks(nu, *euler_zyz(rot), nu)[0, nu]


def rotation_matrix(axis, angle):
    """3x3 rotation matrix for a right-handed rotation about `axis`."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    kx, ky, kz = axis
    K = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)
