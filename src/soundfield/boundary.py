"""Interior field estimation from a spherical boundary of microphones.

With microphones at ``R * x_m`` on a sphere (open array of omni or
first-order sensors, or omni sensors flush on a rigid sphere), each
harmonic of the interior field appears in the observations through a
degree-dependent radial response ``A_nu``; the expansion coefficients are
recovered by discrete spherical-harmonic analysis of the microphone signals
divided by that response.
"""

from __future__ import annotations

import math

import numpy as np

from .specfun import (
    degrees_orders,
    legendre_all,
    sph_harm_matrix,
    sph_hn_all,
    sph_jn_all,
)
from .wavefuncs import CoefficientSet, green


def radial_response(kind, order, kR, a=None):
    """Radial response A_nu for nu = 0..order of a spherical boundary array,
    shape ``(order+1,) + shape(kR)``, each column that of its kR alone; a kR
    that is not finite, or 0 for the rigid kind, raises ValueError.

    * omni (open):        ``i^{-nu} j_nu(kR)``
    * first_order (open): ``i^{-nu} (a j_nu(kR) + i (1-a) j_nu'(kR))``
    * rigid (omni on rigid sphere): ``i^{-nu} * i / ((kR)^2 h_nu'(kR))``,
      ``(kR)^2`` as ``kR * kR`` (a scalar's ``kR**2`` is libm's pow)
    """
    kR = np.asarray(kR, dtype=float)
    bad = ~np.isfinite(kR) | ((kR == 0.0) & (kind == "rigid"))
    if bad.any():
        raise ValueError(f"kR must be finite{' and nonzero' if kind == 'rigid' else ''}, "
                         f"not {float(kR[bad][0])!r}")
    ip = (1j ** (-np.arange(order + 1.0))).reshape((-1,) + (1,) * kR.ndim)
    if kind == "omni":
        return ip * sph_jn_all(order, kR)
    if kind == "first_order":
        if a is None:
            raise ValueError("first_order response requires mixing weight a")
        return ip * (a * sph_jn_all(order, kR)
                     + 1j * (1.0 - a) * sph_jn_all(order, kR, derivative=True))
    if kind == "rigid":
        return ip * (1j / (kR * kR * sph_hn_all(order, kR, derivative=True)))
    raise ValueError(f"unknown boundary kind {kind!r}")


def estimate_coeffs(signals, dirs, kind, k, radius, order, a=None):
    """Estimate interior expansion coefficients about the sphere's center.

    ``alpha_{nu,mu} = (1/A_nu) (1/M) sum_m Yhat_{nu,mu}(x_m)^* s_m``: equal
    quadrature weights, as on a t-design.  `dirs` holds the unit directions
    of the microphones as seen from the center.
    """
    signals = np.asarray(signals, dtype=complex)
    A = radial_response(kind, order, k * radius, a=a)
    nu, _ = degrees_orders(order)
    raw = analysis_matrix(order, dirs) @ signals
    return CoefficientSet(order=order, origin=np.zeros(3), coeffs=raw / A[nu])


def analysis_matrix(order, dirs):
    """Discrete spherical-harmonic analysis ``(Yhat(x_m)^* / M)^T``, shape (n, M).

    The part of :func:`estimate_coeffs` that does not depend on k: the raw
    coefficients are this matrix times the signals, before division by
    ``A_nu``.
    """
    dirs = np.asarray(dirs, dtype=float)
    return (sph_harm_matrix(order, dirs).conj() * (1.0 / len(dirs))).T


def scan_grid(radius, c, fmax):
    """kR_max and the kR point count of :func:`forbidden_frequencies`' scan:
    20 per unit of kR, where zeros of j_nu are about 1 apart, and at least 41.
    The count stops at 2**62, so that it is an int where kR_max overflows."""
    kmax = 2.0 * math.pi * fmax * radius / c
    return kmax, max(40, int(min(20 * kmax, 2.0**62))) + 1


def forbidden_frequencies(radius, c, numax, fmax):
    """Frequencies where j_nu(2 pi f radius / c) = 0 for some nu <= numax.

    These are the Dirichlet eigenfrequencies of the sphere, at which the
    interior field is not recoverable from boundary pressure alone.  Returns
    a sorted list of (frequency_hz, nu) pairs with f in (0, fmax].
    """
    # scan a fine grid for sign changes, then take at most 6 Newton steps in
    # every bracket at once from its midpoint, f' = (nu/x) j_nu - j_{nu+1}
    # (DLMF 10.51.2); a step that leaves the closed bracket goes to its
    # midpoint (closed, since a root converged to the last bit is a bound)
    kmax, points = scan_grid(radius, c, fmax)
    xs = np.linspace(1e-6, kmax, points)
    vals = sph_jn_all(numax, xs)
    nu, i = np.nonzero((vals[:, :-1] != 0.0) & (vals[:, :-1] * vals[:, 1:] < 0.0))
    if nu.size == 0:
        return []
    lo, hi, positive_lo = xs[i], xs[i + 1], vals[nu, i] > 0.0
    x, roots = 0.5 * (lo + hi), np.arange(nu.size)
    for _ in range(6):
        j = sph_jn_all(numax + 1, x)
        fx = j[nu, roots]
        above = (fx > 0.0) == positive_lo  # the root lies above x
        lo, hi = np.where(above, x, lo), np.where(above, hi, x)
        xn = x - fx / ((nu / x) * fx - j[nu + 1, roots])
        xn = np.where((lo <= xn) & (xn <= hi), xn, 0.5 * (lo + hi))
        if np.array_equal(xn, x):
            break
        x = xn
    f = x * c / (2.0 * math.pi * radius)
    keep = f <= fmax
    return sorted(zip(f[keep].tolist(), nu[keep].tolist()))


def dirichlet_green_sphere(r, r_src, k, radius, order=60):
    """Green's function of the sphere interior with zero Dirichlet boundary.

    ``G_D = G + v_D`` where the regular correction collapses over orders to

    ``v_D(r; r') = -(ik/4pi) sum_nu (2nu+1) (h_nu(kR)/j_nu(kR))
    j_nu(k|r'|) j_nu(k|r|) P_nu(cos angle(r, r'))``.

    Invalid at wavenumbers with j_nu(kR) = 0 (forbidden frequencies).
    """
    r = np.asarray(r, dtype=float)
    r_src = np.asarray(r_src, dtype=float)
    kR = k * radius
    jR = sph_jn_all(order, kR)
    # Zeros of j_nu only occur in its oscillatory region nu <~ kR; beyond
    # that j_nu decays monotonically and small values are benign.
    oscillatory = np.arange(order + 1) <= int(math.ceil(kR)) + 2
    if np.any(np.abs(jR[oscillatory]) < 1e-10):
        raise ValueError("wavenumber is at (or too near) a forbidden frequency")
    rad = np.linalg.norm(r, axis=-1)
    rs = float(np.linalg.norm(r_src))
    with np.errstate(invalid="ignore"):
        cosang = np.where(
            rad > 0, (r @ r_src) / (np.where(rad > 0, rad, 1.0) * rs), 1.0
        )
    cosang = np.clip(cosang, -1.0, 1.0)
    # Degrees past the first underflowed j_nu(kR) are negligible (deep
    # evanescent decay) and are dropped.
    n = int(np.argmax(jR == 0.0)) if np.any(jR == 0.0) else order + 1
    nu = np.arange(n).reshape((n,) + (1,) * rad.ndim)
    # Group the ratio j_nu(k rs)/j_nu(kR) (~ (rs/R)^nu) with the bounded
    # product h_nu(kR) j_nu(k r) to avoid intermediate overflow.
    ratio = (sph_jn_all(n - 1, k * rs) / jR[:n]).reshape(nu.shape)
    bounded = sph_hn_all(n - 1, kR).reshape(nu.shape) * sph_jn_all(n - 1, k * rad)
    v = np.sum((2 * nu + 1) * ratio * bounded * legendre_all(n - 1, cosang), axis=0)
    v *= -(1j * k / (4.0 * np.pi))
    return green(r, r_src, k) + v
