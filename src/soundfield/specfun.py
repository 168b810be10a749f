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
from scipy.special import eval_legendre, sph_harm_y, spherical_jn, spherical_yn


def flat_index(nu, mu):
    """Flatten a degree/order pair to the canonical vector index."""
    return nu * nu + nu + mu


def num_coeffs(order):
    """Number of coefficients of an expansion truncated at degree `order`."""
    return (order + 1) ** 2


def degrees_orders(order):
    """Arrays of degrees and orders matching the flat coefficient layout.

    Returns
    -------
    nu, mu : int arrays of shape ((order+1)**2,)
    """
    nu = np.concatenate([np.full(2 * n + 1, n) for n in range(order + 1)])
    mu = np.concatenate([np.arange(-n, n + 1) for n in range(order + 1)])
    return nu, mu


# ---------------------------------------------------------------------------
# Spherical Bessel / Hankel functions
# ---------------------------------------------------------------------------

def sph_jn(n, x, derivative=False):
    """Spherical Bessel function of the first kind j_n(x) (or j_n'(x))."""
    return spherical_jn(n, x, derivative=derivative)


def sph_hn(n, x, derivative=False):
    """Spherical Hankel function of the first kind h_n(x) = j_n + i y_n."""
    return spherical_jn(n, x, derivative=derivative) + 1j * spherical_yn(
        n, x, derivative=derivative
    )


def sph_jn_all(nmax, x, derivative=False):
    """j_n(x) for all n = 0..nmax; result has shape (nmax+1,) + shape(x)."""
    x = np.asarray(x, dtype=float)
    n = np.arange(nmax + 1).reshape((nmax + 1,) + (1,) * x.ndim)
    return spherical_jn(n, x[None, ...], derivative=derivative)


def sph_hn_all(nmax, x, derivative=False):
    """h_n(x) for all n = 0..nmax; result has shape (nmax+1,) + shape(x)."""
    x = np.asarray(x, dtype=float)
    n = np.arange(nmax + 1).reshape((nmax + 1,) + (1,) * x.ndim)
    return spherical_jn(n, x[None, ...], derivative=derivative) + 1j * spherical_yn(
        n, x[None, ...], derivative=derivative
    )


def legendre(n, x):
    """Legendre polynomial P_n(x)."""
    return eval_legendre(n, x)


# ---------------------------------------------------------------------------
# Spherical harmonics
# ---------------------------------------------------------------------------

def _unit_to_angles(dirs):
    dirs = np.asarray(dirs, dtype=float)
    x, y, z = dirs[..., 0], dirs[..., 1], dirs[..., 2]
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    phi = np.arctan2(y, x)
    return theta, phi


def sph_harm_scaled(nu, mu, dirs):
    """Scaled spherical harmonic Yhat_{nu,mu} evaluated at unit vectors.

    Parameters
    ----------
    nu, mu : int
        Degree and order, with ``|mu| <= nu``.
    dirs : array of shape (..., 3)
        Unit direction vectors.
    """
    theta, phi = _unit_to_angles(dirs)
    return math.sqrt(4.0 * math.pi) * sph_harm_y(nu, mu, theta, phi)


def sph_harm_matrix(order, dirs):
    """All Yhat_{nu,mu} up to degree `order` at the given unit vectors.

    Returns an array of shape ``shape(dirs)[:-1] + ((order+1)**2,)`` with
    columns in flat (nu, mu) ordering.
    """
    dirs = np.asarray(dirs, dtype=float)
    theta, phi = _unit_to_angles(dirs)
    nu, mu = degrees_orders(order)
    out = sph_harm_y(
        nu.reshape((1,) * theta.ndim + (-1,)),
        mu.reshape((1,) * theta.ndim + (-1,)),
        theta[..., None],
        phi[..., None],
    )
    return math.sqrt(4.0 * math.pi) * out


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


def wigner_d_small(nu, beta):
    """Wigner small-d matrix d^{nu}_{m',m}(beta), shape (2nu+1, 2nu+1).

    Row/column indices run over m', m = -nu..nu.
    """
    c = math.cos(0.5 * beta)
    s = math.sin(0.5 * beta)
    dim = 2 * nu + 1
    d = np.zeros((dim, dim))
    for mp in range(-nu, nu + 1):
        for m in range(-nu, nu + 1):
            smin = max(0, m - mp)
            smax = min(nu + m, nu - mp)
            tot = 0.0
            for k in range(smin, smax + 1):
                num = (-1.0) ** (mp - m + k)
                den = (
                    math.factorial(nu + m - k)
                    * math.factorial(k)
                    * math.factorial(mp - m + k)
                    * math.factorial(nu - mp - k)
                )
                pw = c ** (2 * nu + m - mp - 2 * k) * s ** (mp - m + 2 * k)
                tot += num * pw / den
            pre = math.sqrt(
                math.factorial(nu + mp)
                * math.factorial(nu - mp)
                * math.factorial(nu + m)
                * math.factorial(nu - m)
            )
            d[mp + nu, m + nu] = pre * tot
    return d


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
