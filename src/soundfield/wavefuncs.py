"""Solutions of the homogeneous/inhomogeneous Helmholtz equation and the
algebra that connects them: free-field Green's function, plane waves,
regular spherical wave functions, translation and rotation of expansion
coefficients.

A field ``u`` regular around an origin ``r0`` is represented by coefficients
``c[nu**2+nu+mu]`` of the regular spherical wave functions:

    u(r) = sum_{nu,mu} c_{nu,mu} phi_{nu,mu}(r - r0)

with ``phi_{nu,mu}(r) = i^{-nu} j_nu(k|r|) Yhat_{nu,mu}(r/|r|)``, so that
``phi_{0,0}(0) = 1`` and ``phi_{nu,mu}(0) = 0`` for nu > 0 (see
:func:`regular_swf_matrix`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import (
    degrees_orders,
    flat_index,
    num_coeffs,
    sph_harm_matrix,
    sph_jn_all,
    wigner_D,
)


# ---------------------------------------------------------------------------
# Canonical solutions
# ---------------------------------------------------------------------------

def green(r, r_src, k):
    """Free-field Green's function e^{ik|r-rs|} / (4 pi |r-rs|).

    `r` may have shape (..., 3); `r_src` is a single 3-vector.
    """
    r = np.asarray(r, dtype=float)
    d = np.linalg.norm(r - np.asarray(r_src, dtype=float), axis=-1)
    return np.exp(1j * k * d) / (4.0 * np.pi * d)


def plane_wave(r, x_inc, k):
    """Unit-amplitude plane wave e^{-i k x_inc . r} arriving from direction x_inc."""
    r = np.asarray(r, dtype=float)
    x_inc = np.asarray(x_inc, dtype=float)
    return np.exp(-1j * k * (r @ x_inc))


def swf_angular(order, r):
    """The part of :func:`regular_swf_matrix` that does not depend on k.

    Returns ``(rad, Y)``: the radii ``|r|`` and the harmonics ``Yhat`` up to
    `order` at ``r/|r|``.  At ``r = 0`` the row of Y is the degree-0 unit
    row, so that :func:`regular_swf_matrix` is ``phi(0)`` exactly there.
    """
    r = np.asarray(r, dtype=float)
    rad = np.linalg.norm(r, axis=-1)
    Y = sph_harm_matrix(order, r / np.where(rad > 0, rad, 1.0)[..., None])
    at_origin = rad == 0
    if np.any(at_origin):
        Y[at_origin] = 0.0
        Y[at_origin, 0] = 1.0
    return rad, Y


def regular_swf_matrix(order, r, k):
    """All phi_{nu,mu}(r) for nu <= order; shape ``shape(r)[:-1] + ((order+1)**2,)``.

    Each is ``i^{-nu} j_nu(k |r|)`` times the harmonic of :func:`swf_angular`.
    """
    rad, Y = swf_angular(order, r)
    nu, _ = degrees_orders(order)
    radial = np.moveaxis(sph_jn_all(order, k * rad), 0, -1)[..., nu]
    return radial * (1j ** (-nu.astype(float))) * Y


# ---------------------------------------------------------------------------
# Coefficient sets
# ---------------------------------------------------------------------------

@dataclass
class CoefficientSet:
    """Truncated expansion of a regular field about an origin."""

    order: int
    origin: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float).reshape(3)
        self.coeffs = np.asarray(self.coeffs, dtype=complex).reshape(-1)
        if self.coeffs.size != num_coeffs(self.order):
            raise ValueError(
                f"expected {num_coeffs(self.order)} coefficients for order "
                f"{self.order}, got {self.coeffs.size}"
            )


def plane_wave_coeffs(order, x_inc):
    """Expansion coefficients about the origin of a plane wave arriving from
    unit direction ``x_inc``, with its phase referenced to the origin.

    They are ``Yhat_{nu,mu}(x_inc)^*``, the same at every wavenumber.
    """
    coeffs = sph_harm_matrix(order, np.asarray(x_inc, dtype=float)).conj()
    return CoefficientSet(order=order, origin=np.zeros(3), coeffs=coeffs)


# ---------------------------------------------------------------------------
# Translation and rotation
# ---------------------------------------------------------------------------

# Entries per gather in the coupling-tensor build, which holds two (chunk,
# nodes) gathered arrays at a time.  At 12 <-> 12 (13 nodes), chunks of
# 2k-8k entries measured 2.5-3x faster than 16k on a 2-core x86-64 VM
# with 4 MB of L2.
_GAUNT_CHUNK = 4096


@lru_cache(maxsize=None)
def _coupling_tensor(order_out, order_in):
    """Sparse Gaunt coupling of the translation operator.

    ``C[row * n_in + col, p] = gaunt(nu, mu, nu', mu', nu'', mu'')`` for
    ``row = (nu, mu)``, ``col = (nu', mu')`` and ``p = (nu'', mu'')``, a
    matrix of shape ``(n_out * n_in, (order_out + order_in + 1)**2)`` returned
    as read-only CSR arrays ``(indptr, p, values)``.

    The phi-integral of the three harmonics is 2 pi when ``mu'' = mu' - mu``
    and 0 otherwise; the remaining cos(theta) integrand is a polynomial of
    degree ``nu + nu' + nu'' <= 2 L`` (L = order_out + order_in), so
    Gauss-Legendre with L + 1 nodes integrates it exactly.  The integrand is
    even in cos(theta), since the selection rules make ``nu + nu' + nu''``
    even, so only the nodes with cos(theta) >= 0 are used, off-centre ones
    at twice their weight.
    """
    L = order_out + order_in
    x, w = np.polynomial.legendre.leggauss(L + 1)
    x, w = x[(L + 1) // 2:], 2.0 * w[(L + 1) // 2:]  # the nodes >= 0, ascending
    if L % 2 == 0:
        w[0] *= 0.5  # the node at cos(theta) = 0 is its own mirror image
    # Yhat at phi = 0 is real: the scaled associated Legendre functions.
    dirs = np.stack([np.sqrt(1.0 - x * x), np.zeros_like(x), x], axis=-1)
    P = sph_harm_matrix(L, dirs).real  # (half-range nodes, (L+1)**2)

    # Selection rules per (row, col) pair: nu'' runs in steps of 2 from the
    # larger of |nu - nu'| and |mu''|, raised to the parity of nu + nu', up to
    # nu + nu'.  The range is never empty, since |mu''| <= nu + nu'.
    nu_out, mu_out = degrees_orders(order_out)
    nu_in, mu_in = degrees_orders(order_in)
    nu_sum = (nu_out[:, None] + nu_in[None, :]).ravel()
    mupp = (mu_in[None, :] - mu_out[:, None]).ravel()
    lo = np.maximum(np.abs(nu_out[:, None] - nu_in[None, :]).ravel(), np.abs(mupp))
    lo += (lo + nu_sum) % 2
    counts = (nu_sum - lo) // 2 + 1
    indptr = np.zeros(counts.size + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    pair = np.repeat(np.arange(counts.size), counts)
    deg = (lo - 2 * indptr[:-1])[pair] + 2 * np.arange(pair.size)
    p = flat_index(deg, mupp[pair])  # ascending within each row: CSR order

    # Each value is one dot product over the nodes of the pair's factor
    # (w/2) P[row] P[col] with P[p]; chunks bound the gathered arrays.
    P_out = 0.5 * w * P[:, flat_index(nu_out, mu_out)].T  # (n_out, nodes)
    A = (P_out[:, None, :] * P[:, flat_index(nu_in, mu_in)].T).reshape(-1, x.size)
    Pt = np.ascontiguousarray(P.T)
    vals = np.empty(pair.size)
    for s in range(0, pair.size, _GAUNT_CHUNK):
        e = slice(s, s + _GAUNT_CHUNK)
        np.einsum("eq,eq->e", A[pair[e]], Pt[p[e]], out=vals[e])
    for a in (indptr, p, vals):
        a.flags.writeable = False
    return indptr, p, vals


def translation_matrix(displacement, k, order_out, order_in):
    """Regular-to-regular translation operator as a dense matrix.

    Entry ``T[(nu,mu), (nu',mu')]`` satisfies

        phi_{nu',mu'}(r + d) = sum_{nu,mu} T[(nu,mu), (nu',mu')] phi_{nu,mu}(r)

    for the displacement ``d``; equivalently
    ``T[(nu,mu),(nu',mu')] = (1/4pi) \\int Yhat_{nu,mu}(x)^* Yhat_{nu',mu'}(x)
    e^{-ik x.d} dS(x)``.  Rows cover degrees up to `order_out`, columns up to
    `order_in`.

    `displacement` may have shape (..., 3); the result then has shape
    ``(..., n_out, n_in)``.  All displacements share one contraction of the
    cached Gaunt coupling with ``phi_{nu'',mu''}(d)``.
    """
    d = np.asarray(displacement, dtype=float)
    n_out = num_coeffs(order_out)
    n_in = num_coeffs(order_in)
    phi = regular_swf_matrix(order_out + order_in, d.reshape(-1, 3), k)
    indptr, p, vals = _coupling_tensor(order_out, order_in)
    T = np.add.reduceat(phi[:, p] * vals, indptr[:-1], axis=1)  # (batch, n_out*n_in)
    return T.reshape(d.shape[:-1] + (n_out, n_in))


def translate_coeffs(cset, new_origin, k):
    """Re-expand a coefficient set about a new origin, at the set's own order."""
    d = np.asarray(new_origin, dtype=float) - cset.origin
    T = translation_matrix(d, k, cset.order, cset.order)
    # An elementwise product and row sum, not ``T @ c``: on a 2-core x86-64
    # VM the threaded BLAS matrix-vector call took about 8 ms at 169 x 169,
    # against 0.12 ms for this.
    return CoefficientSet(order=cset.order, origin=new_origin,
                          coeffs=(T * cset.coeffs).sum(-1))


def rotate_coeffs(cset, rot):
    """Coefficients of ``u(R r)`` given those of ``u(r)`` about the origin.

    Uses ``phi_{nu,mu'}(R r) = sum_mu D^{(nu)}_{mu',mu}(R)^* phi_{nu,mu}(r)``
    (with D as defined in :func:`soundfield.specfun.wigner_D`), so each degree
    block transforms by the conjugate-transposed Wigner D-matrix.
    """
    if np.linalg.norm(cset.origin) > 0:
        raise ValueError("rotation of coefficients requires origin at 0")
    out = np.zeros_like(cset.coeffs)
    rot = np.asarray(rot, dtype=float)
    for nu in range(cset.order + 1):
        D = wigner_D(nu, rot)
        block = slice(nu * nu, (nu + 1) ** 2)
        out[block] = D.conj().T @ cset.coeffs[block]
    return CoefficientSet(order=cset.order, origin=cset.origin, coeffs=out)

