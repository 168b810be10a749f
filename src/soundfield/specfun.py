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


def _select(table, n, x, *args):
    """``table(nmax, x, *args)[n]`` for degrees `n` broadcast against `x`."""
    n = np.asarray(n)
    x = np.asarray(x, dtype=float)
    if n.ndim == 0:
        return table(int(n), x, *args)[int(n)][()]
    if x.ndim == 0:
        return table(int(n.max()), x, *args)[n]
    n, x = np.broadcast_arrays(n, x)
    return np.take_along_axis(table(int(n.max()), x, *args), n[None], axis=0)[0]


# ---------------------------------------------------------------------------
# Spherical Bessel / Hankel functions
# ---------------------------------------------------------------------------

# Below this |x|, j_n(x) equals the leading power-series term x^n/(2n+1)!!
# to double precision: the next term is smaller by x^2 / (4n + 6).
_SERIES_X = 1e-8
# Miller's recurrence rescales its values once they pass this magnitude
# (~1e200; a power of two, so rescaling is exact and every column comes out
# the same whatever else is in the batch).  A step grows them by at most
# (2n+1)/|x| <= ~1e11, far inside the headroom.
_RESCALE = 2.0**664


def _j0(x):
    """j_0(x) = sin(x)/x, equal to 1 at x = 0."""
    return np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0)


def _upward(f0, f1, x, nmax):
    """Rows f_0..f_nmax of ``f_{n+1} = (2n+1)/x f_n - f_{n-1}`` at a 1-D x."""
    rows = np.empty((nmax + 1, x.size))
    rows[0], rows[1] = f0, f1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        prev, cur, inv = rows[0], rows[1], 1.0 / x
        if x.size == 1:  # Python floats: ~10x faster than one-element arrays
            prev, cur, inv = float(prev[0]), float(cur[0]), float(inv[0])
        for n in range(1, nmax):
            prev, cur = cur, (2 * n + 1) * inv * cur - prev
            rows[n + 1] = cur
    return rows


def _jn_rows(nmax, x):
    """j_0..j_nmax (nmax >= 1) at a 1-D array x; shape (nmax + 1, x.size).

    For |x| > nmax every order is in the oscillatory region, where the
    upward recurrence from j_0 = sin(x)/x and j_1 = (j_0 - cos x)/x is
    stable; the columns with |x| <= nmax are redone by Miller's downward
    recurrence.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        j0 = np.sin(x) / x
        rows = _upward(j0, (j0 - np.cos(x)) / x, x, nmax)
    low = np.flatnonzero(~(np.abs(x) > nmax))
    if low.size:
        rows[:, low] = _jn_miller(nmax, x[low])
    return rows


def _jn_miller(nmax, x):
    """j_0..j_nmax (nmax >= 1) at a 1-D array x with |x| <= nmax.

    Miller's downward recurrence (Gautschi 1967) from an order far enough
    above nmax that the start error has decayed below rounding, normalised
    by whichever of j_0 = sin(x)/x and j_1 = (j_0 - cos x)/x is larger in
    magnitude, so that neither a zero of j_0 nor the cancellation in j_1 at
    small x costs accuracy.
    """
    series = np.abs(x) < _SERIES_X
    start = nmax + 20 + int(6.0 * nmax ** (1.0 / 3.0))
    xm = np.where(series, _SERIES_X, x)
    inv = 1.0 / xm
    # The values grow by at most prod (2n+1)/|x| on the way down; check for
    # overflow only when that bound can pass the rescaling threshold.
    growth = np.log(np.arange(3, 2 * start + 2, 2)).sum() - start * math.log(
        np.min(np.abs(xm), initial=1.0))
    checked = growth > math.log(_RESCALE)
    rows = np.empty((nmax + 1, x.size))
    f_next, f, inv_f = np.zeros(x.size), np.ones(x.size), inv
    if x.size == 1:  # Python floats, as in _upward
        f_next, f, inv_f = 0.0, 1.0, float(inv[0])
    for n in range(start, 0, -1):
        f_next, f = f, (2 * n + 1) * inv_f * f - f_next  # f is now f_{n-1}
        if n <= nmax + 1:
            rows[n - 1] = f
        if checked and np.max(np.abs(f)) > _RESCALE:
            s = np.where(np.abs(f) > _RESCALE, 1.0 / _RESCALE, 1.0)
            f, f_next = f * s, f_next * s
            rows[n - 1:] *= s
    j0 = np.sin(xm) * inv
    j1 = (j0 - np.cos(xm)) * inv
    by_j0 = np.abs(j0) >= np.abs(j1)
    rows *= np.where(by_j0, j0, j1) / np.where(by_j0, rows[0], rows[1])
    if series.any():
        term = np.ones(int(series.sum()))
        for n in range(nmax + 1):
            rows[n, series] = term
            term = term * x[series] / (2 * n + 3)
    return rows


def _yn_rows(nmax, x):
    """y_0..y_nmax (nmax >= 1) at a 1-D array x by upward recurrence.

    The recurrence is stable upward since y_n grows with n.  Where it
    overflows, and at x = 0, the value is -inf.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        y0 = -np.cos(x) / x
        rows = _upward(y0, (y0 - np.sin(x)) / x, x, nmax)
    rows[np.isnan(rows) & ~np.isnan(x)] = -np.inf
    return rows


def _derivative_rows(rows, x, at_zero):
    """Derivatives from ``f_0' = -f_1`` and ``f_n' = f_{n-1} - (n+1)/x f_n``.

    `rows` holds f_0..f_m (m >= 1) at a 1-D array x; the result holds
    f_0'..f_m'.  Columns at x = 0 are set to `at_zero`, shape (m + 1,).
    """
    d = np.empty_like(rows)
    d[0] = -rows[1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        n1 = np.arange(2, len(rows) + 1)[:, None]
        d[1:] = rows[:-1] - n1 / x * rows[1:]
    zero = x == 0
    if zero.any():
        d[:, zero] = at_zero[:, None]
    return d


def _bessel_all(kind, nmax, x, derivative=False):
    """Shared body of :func:`sph_jn_all` and :func:`sph_hn_all`."""
    x = np.asarray(x, dtype=float)
    if kind == "j" and nmax == 0 and not derivative:
        return _j0(x)[None]
    flat = x.ravel()
    m = max(nmax, 1)
    j = _jn_rows(m, flat)
    if derivative:
        at_zero = np.zeros(m + 1)
        at_zero[1] = 1.0 / 3.0
        j = _derivative_rows(j, flat, at_zero)
    out = j
    if kind == "h":
        y = _yn_rows(m, flat)
        if derivative:
            y = _derivative_rows(y, flat, np.full(m + 1, np.inf))
        out = np.empty(j.shape, dtype=complex)
        out.real, out.imag = j, y
    return out[: nmax + 1].reshape((nmax + 1,) + x.shape)


def sph_jn(n, x, derivative=False):
    """Spherical Bessel function of the first kind j_n(x) (or j_n'(x))."""
    return _select(lambda m, z, d: _bessel_all("j", m, z, d), n, x, derivative)


def sph_hn(n, x, derivative=False):
    """Spherical Hankel function of the first kind h_n(x) = j_n + i y_n."""
    return _select(lambda m, z, d: _bessel_all("h", m, z, d), n, x, derivative)


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
    return a, b


def sph_harm_matrix(order, dirs):
    """All Yhat_{nu,mu} up to degree `order` at the given unit vectors.

    Returns an array of shape ``shape(dirs)[:-1] + ((order+1)**2,)`` with
    columns in flat (nu, mu) ordering.

    The 4 pi-normalised associated Legendre functions
    ``Pbar_nu^m = sqrt((2nu+1)(nu-m)!/(nu+m)!) P_nu^m`` (Condon-Shortley
    phase included) come from the sectoral seed
    ``Pbar_m^m = -sqrt((2m+1)/(2m)) sin(theta) Pbar_{m-1}^{m-1}`` and the
    degree recurrence of Holmes & Featherstone (2002),
    ``Pbar_n^m = a_nm cos(theta) Pbar_{n-1}^m - b_nm Pbar_{n-2}^m``, all
    orders of one degree per step.  Then ``Yhat_{nu,m} = Pbar_nu^m e^{i m phi}``
    and ``Yhat_{nu,-m} = (-1)^m conj(Yhat_{nu,m})``.
    """
    dirs = np.asarray(dirs, dtype=float)
    z = np.clip(dirs[..., 2], -1.0, 1.0).ravel()
    sin_theta = np.sqrt((1.0 - z) * (1.0 + z))
    phi = np.arctan2(dirs[..., 1], dirs[..., 0]).ravel()
    P = np.zeros((order + 1, order + 1, z.size))  # P[nu, m]
    P[0, 0] = 1.0
    for n in range(1, order + 1):
        a, b = _legendre_step(n)
        P[n, :n] = a * z * P[n - 1, :n] - b * P[max(n - 2, 0), :n]  # b = 0 at n = 1
        P[n, n] = -math.sqrt((2 * n + 1) / (2 * n)) * sin_theta * P[n - 1, n - 1]
    nu, mu = degrees_orders(order)
    am = np.abs(mu)
    sign = np.where((mu < 0) & (am % 2 == 1), -1.0, 1.0)[:, None]
    phase = np.exp(1j * np.multiply.outer(phi, np.arange(-order, order + 1)))
    Y = phase[:, mu + order] * (P[nu, am] * sign).T
    return Y.reshape(dirs.shape[:-1] + (-1,))


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
    """z-y-z Euler angles (alpha, beta, gamma) of a 3x3 rotation matrix."""
    rot = np.asarray(rot, dtype=float)
    beta = math.acos(max(-1.0, min(1.0, rot[2, 2])))
    if abs(rot[2, 2]) > 1.0 - 1e-12:
        # Gimbal lock: rotation is about z only.
        alpha = math.atan2(rot[1, 0], rot[0, 0])
        if rot[2, 2] < 0:
            alpha = -alpha
        return alpha, beta, 0.0
    alpha = math.atan2(rot[1, 2], rot[0, 2])
    gamma = math.atan2(rot[2, 1], -rot[2, 0])
    return alpha, beta, gamma


@lru_cache(maxsize=None)
def _jy_eigenvectors(nu):
    """Eigenvectors of the angular-momentum matrix J_y of degree nu.

    ``J_y = (J_+ - J_-) / 2i`` in the basis m = -nu..nu, with
    ``<m+1|J_+|m> = sqrt(nu(nu+1) - m(m+1))``; its eigenvalues are exactly
    m = -nu..nu, in the ascending order `eigh` returns them.
    """
    m = np.arange(-nu, nu)
    up = np.sqrt(nu * (nu + 1) - m * (m + 1)) / 2j
    i = np.arange(2 * nu)
    Jy = np.zeros((2 * nu + 1, 2 * nu + 1), dtype=complex)
    Jy[i + 1, i] = up
    Jy[i, i + 1] = -up
    return np.linalg.eigh(Jy)[1]


def wigner_d_small(nu, beta):
    """Wigner small-d matrix d^{nu}_{m',m}(beta), shape (2nu+1, 2nu+1).

    Row/column indices run over m', m = -nu..nu.  ``d(beta) = exp(-i beta J_y)``
    is formed from the eigen-decomposition of J_y with its exact integer
    eigenvalues, so it is orthogonal to rounding at any degree (no factorial
    sums, which overflow and cancel at high degree).
    """
    V = _jy_eigenvectors(nu)
    m = np.arange(-nu, nu + 1)
    return ((V * np.exp(-1j * beta * m)) @ V.conj().T).real


def wigner_D(nu, rot):
    """Wigner D-matrix D^{(nu)}_{mu,mu'} of a rotation, shape (2nu+1, 2nu+1).

    Defined so that ``Yhat_{nu,mu'}(R^{-1} x) = sum_mu D_{mu,mu'} Yhat_{nu,mu}(x)``,
    equivalently ``D_{mu,mu'} = (1/4pi) \\int Yhat_{nu,mu}(R x)^* Yhat_{nu,mu'}(x) dS``.
    """
    alpha, beta, gamma = euler_zyz(rot)
    d = wigner_d_small(nu, beta)
    m = np.arange(-nu, nu + 1)
    return np.exp(-1j * m[:, None] * alpha) * d * np.exp(-1j * m[None, :] * gamma)


def rotation_matrix(axis, angle):
    """3x3 rotation matrix for a right-handed rotation about `axis`."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    kx, ky, kz = axis
    K = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)
