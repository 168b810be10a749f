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
from scipy.optimize import brentq

from .specfun import (
    degrees_orders,
    legendre,
    sph_harm_matrix,
    sph_hn,
    sph_jn,
)
from .wavefuncs import CoefficientSet, green


def radial_response(kind, order, kR, a=None):
    """Radial response A_nu for nu = 0..order of a spherical boundary array.

    * omni (open):        ``i^{-nu} j_nu(kR)``
    * first_order (open): ``i^{-nu} (a j_nu(kR) + i (1-a) j_nu'(kR))``
    * rigid (omni on rigid sphere): ``i^{-nu} * i / ((kR)^2 h_nu'(kR))``
    """
    nu = np.arange(order + 1)
    ip = 1j ** (-nu.astype(float))
    if kind == "omni":
        return ip * sph_jn(nu, kR)
    if kind == "first_order":
        if a is None:
            raise ValueError("first_order response requires mixing weight a")
        return ip * (a * sph_jn(nu, kR) + 1j * (1.0 - a) * sph_jn(nu, kR, derivative=True))
    if kind == "rigid":
        return ip * (1j / (kR**2 * sph_hn(nu, kR, derivative=True)))
    raise ValueError(f"unknown boundary kind {kind!r}")


def estimate_coeffs(signals, dirs, kind, k, radius, order, a=None, weights=None,
                    center=(0.0, 0.0, 0.0)):
    """Estimate interior expansion coefficients from boundary observations.

    ``alpha_{nu,mu} = (1/A_nu) sum_m w_m Yhat_{nu,mu}(x_m)^* s_m`` with
    equal weights ``w_m = 1/M`` by default.  `dirs` holds the unit directions
    of the microphones as seen from the sphere center.
    """
    signals = np.asarray(signals, dtype=complex)
    A = radial_response(kind, order, k * radius, a=a)
    nu, _ = degrees_orders(order)
    raw = analysis_matrix(order, dirs, weights) @ signals
    return CoefficientSet(order=order, origin=center, coeffs=raw / A[nu])


def analysis_matrix(order, dirs, weights=None):
    """Discrete spherical-harmonic analysis ``(Yhat(x_m)^* w_m)^T``, shape (n, M).

    The part of :func:`estimate_coeffs` that does not depend on k: the raw
    coefficients are this matrix times the signals, before division by
    ``A_nu``.  Weights default to ``1/M``.
    """
    dirs = np.asarray(dirs, dtype=float)
    if weights is None:
        weights = np.full(len(dirs), 1.0 / len(dirs))
    return (sph_harm_matrix(order, dirs).conj() * weights[:, None]).T


def forbidden_frequencies(radius, c, numax, fmax):
    """Frequencies where j_nu(2 pi f radius / c) = 0 for some nu <= numax.

    These are the Dirichlet eigenfrequencies of the sphere, at which the
    interior field is not recoverable from boundary pressure alone.  Returns
    a sorted list of (frequency_hz, nu) pairs with f in (0, fmax].
    """
    kmax = 2.0 * math.pi * fmax * radius / c
    out = []
    for nu in range(numax + 1):
        # j_nu oscillates with roughly unit spacing in x beyond its first
        # zero; scan a fine grid for sign changes and refine with brentq.
        xs = np.linspace(1e-6, kmax, max(40, int(20 * kmax)) + 1)
        vals = sph_jn(nu, xs)
        for lo, hi, vlo, vhi in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
            if vlo == 0.0:
                continue
            if vlo * vhi < 0.0:
                root = brentq(lambda x: sph_jn(nu, x), lo, hi, xtol=1e-13)
                f = root * c / (2.0 * math.pi * radius)
                if f <= fmax:
                    out.append((f, nu))
    out.sort()
    return out


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
    jR = sph_jn(np.arange(order + 1), kR)
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
    v = np.zeros(rad.shape, dtype=complex)
    for nu in range(order + 1):
        if jR[nu] == 0.0:
            break  # remaining terms are negligible (deep evanescent decay)
        # Group the ratio j_nu(k rs)/j_nu(kR) (~ (rs/R)^nu) with the bounded
        # product h_nu(kR) j_nu(k r) to avoid intermediate overflow.
        v += (
            (2 * nu + 1)
            * (sph_jn(nu, k * rs) / jR[nu])
            * (sph_hn(nu, kR) * sph_jn(nu, k * rad))
            * legendre(nu, cosang)
        )
    v *= -(1j * k / (4.0 * np.pi))
    return green(r, r_src, k) + v
