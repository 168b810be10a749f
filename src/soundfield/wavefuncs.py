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

from .specfun import (degrees_orders, euler_zyz, gauss_legendre, harmonic_rows, num_coeffs,
                      sph_harm_matrix, sph_jn_all, wigner_blocks)


# ---------------------------------------------------------------------------
# Canonical solutions
# ---------------------------------------------------------------------------

def _check_nonnegative(name, value):
    """Raise ValueError naming `name` unless `value` is finite and >= 0."""
    if not 0 <= value < np.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def _green_of_distance(d, k):
    """e^{ikd} / (4 pi d) at distances d, unchecked: :func:`green` once d is known."""
    return np.exp(1j * k * d) / (4.0 * np.pi * d)


def green(r, r_src, k):
    """Free-field Green's function e^{ik|r-rs|} / (4 pi |r-rs|).

    `r` may have shape (..., 3); `r_src` is a single 3-vector.  `k` must be
    finite and >= 0 (a ValueError otherwise).
    """
    _check_nonnegative("k", k)
    r = np.asarray(r, dtype=float)
    return _green_of_distance(np.linalg.norm(r - np.asarray(r_src, dtype=float), axis=-1), k)


def plane_wave(r, x_inc, k):
    """Unit-amplitude plane wave e^{-i k x_inc . r} arriving from direction
    x_inc; `k` is checked as in :func:`green`."""
    _check_nonnegative("k", k)
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

    Each is ``i^{-nu} j_nu(k |r|)`` times the harmonic of :func:`swf_angular`;
    `k` is checked as in :func:`green`.
    """
    _check_nonnegative("k", k)
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

@lru_cache(maxsize=None)
def _coaxial_tables(order_out, order_in):
    """The order-only part of :func:`_translate`'s C, as read-only arrays:
    on the L + 1 Gauss-Legendre nodes x_j and weights w_j, ``G[n, j] = (1/2)
    w_j (2n+1) i^{-n} P_n(x_j)`` for n <= L and the O(L^3) ``Q[j, nu, m] =
    Pbar_nu^m(x_j)``, nu to the larger order and m to the smaller (0 if m > nu)."""
    K, L = min(order_out, order_in), order_out + order_in
    x, w = gauss_legendre(L + 1)
    # Pbar_nu^m(x_j): the rows (nu, m >= 0) at phi = 0; Pbar_n^0 = sqrt(2n+1) P_n
    P = harmonic_rows(L, np.stack([np.sqrt((1.0 - x) * (1.0 + x)), 0.0 * x, x], axis=-1)).T
    n = np.arange(L + 1)
    G = (np.sqrt(2 * n + 1) * 1j ** (-n.astype(float)))[:, None] * (0.5 * w * P[:, n * n + n].T)
    nu, m = np.ogrid[:max(order_out, order_in) + 1, :K + 1]
    Q = np.where(m <= nu, P[:, nu * nu + nu + np.minimum(m, nu)], 0.0)
    G.flags.writeable = Q.flags.writeable = False
    return G, Q


def _rotate_back(D, V):
    """``D^H V`` degree by degree, for the blocks D of
    :func:`~soundfield.specfun.wigner_blocks` and flat columns V (B, n, cols):
    ``w[b, nu, m + K, c] = sum_mu D[b, nu, mu + order, m + K]^* V[b, (nu, mu), c]``."""
    order = D.shape[1] - 1
    nu, mu = degrees_orders(order)
    v = np.zeros(D.shape[:3] + V.shape[-1:], dtype=complex)
    v[:, nu, mu + order] = V
    return np.einsum("bvpm,bvpc->bvmc", D.conj(), v)


def _translate(d, k, order_out, order_in, V):
    """``T(d) V`` for displacements d (B, 3) and flat columns V (B or 1, n_in,
    cols): D^H, C and D as einsum loops, no BLAS product.  ``T(d) = D(R) C(k|d|) D(R)^H``
    rotates z onto d (z-y-z Euler angles ``(alpha, beta, 0)``), translates
    along z and rotates back (Gumerov & Duraiswami, *Fast Multipole Methods
    for the Helmholtz Equation in Three Dimensions*, 2004, ch. 3).  The
    coaxial C is diagonal in the order m, |m| <= K = min(order_out, order_in);
    with L = order_out + order_in,

        C^m[nu, nu'] = (1/2) \\int Pbar_nu^m(x) Pbar_nu'^m(x) g(x) dx,
        g(x) = sum_{n <= L} (2n+1) i^{-n} j_n(k|d|) P_n(x),

    the plane wave ``e^{-ik|d|x}`` cut where its terms turn orthogonal to
    the degree-L ``Pbar Pbar'``: L + 1 Gauss-Legendre nodes are exact.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        kd = k * np.linalg.norm(d, axis=-1)
    if not np.isfinite(kd).all():
        raise ValueError("k |displacement| must be finite")
    K = min(order_out, order_in)
    G, Q = _coaxial_tables(order_out, order_in)
    g = np.einsum("nb,nj->bj", sph_jn_all(order_out + order_in, kd), G)
    C = np.einsum("jum,jvm,bj->bmuv", Q[:, :order_out + 1], Q[:, :order_in + 1],
                  g)[:, np.abs(np.arange(-K, K + 1))]  # C[b, m + K, nu, nu'] = C^|m|
    angles = np.arctan2(d[:, 1], d[:, 0]), np.arctan2(np.hypot(d[:, 0], d[:, 1]), d[:, 2]), 0.0
    D_out = wigner_blocks(order_out, *angles, K)
    D_in = D_out if order_in == order_out else wigner_blocks(order_in, *angles, K)
    w = np.einsum("bmuv,bvmc->bumc", C, _rotate_back(D_in, V))
    nu, mu = degrees_orders(order_out)
    return np.einsum("bupm,bumc->bupc", D_out, w)[:, nu, mu + order_out]


def translation_matrix(displacement, k, order_out, order_in):
    """Regular-to-regular translation operator as a dense matrix.

    Entry ``T[(nu,mu), (nu',mu')]`` satisfies

        phi_{nu',mu'}(r + d) = sum_{nu,mu} T[(nu,mu), (nu',mu')] phi_{nu,mu}(r)

    for the displacement ``d``; equivalently
    ``T[(nu,mu),(nu',mu')] = (1/4pi) \\int Yhat_{nu,mu}(x)^* Yhat_{nu',mu'}(x)
    e^{-ik x.d} dS(x)``.  Rows cover degrees up to `order_out`, columns up to
    `order_in`.

    `displacement` may have shape (..., 3); the result then has shape
    ``(..., n_out, n_in)``, each the :func:`_translate` of the identity.
    """
    d = np.asarray(displacement, dtype=float)
    T = _translate(d.reshape(-1, 3), k, order_out, order_in, np.eye(num_coeffs(order_in))[None])
    return T.reshape(d.shape[:-1] + T.shape[1:])


def translate_coeffs(cset, new_origin, k):
    """Re-expand a coefficient set about a new origin, at the set's own order:
    the :func:`_translate` of its vector, with no matrix formed."""
    d = np.asarray(new_origin, dtype=float) - cset.origin
    out = _translate(d.reshape(1, 3), k, cset.order, cset.order, cset.coeffs[None, :, None])
    return CoefficientSet(order=cset.order, origin=new_origin, coeffs=out[0, :, 0])


def rotate_coeffs(cset, rot):
    """Coefficients of ``u(R r)`` given those of ``u(r)`` about the origin.

    Uses ``phi_{nu,mu'}(R r) = sum_mu D^{(nu)}_{mu,mu'}(R)^* phi_{nu,mu}(r)``
    (with D as defined in :func:`soundfield.specfun.wigner_D`): the ``D^H``
    step of :func:`_translate` on the full blocks.
    """
    if np.any(cset.origin != 0):
        raise ValueError("rotation of coefficients requires origin at 0")
    rot = np.asarray(rot, dtype=float)
    if not (rot.shape == (3, 3) and np.isfinite(rot).all()
            and np.abs(rot.T @ rot - np.eye(3)).max() <= 1e-10 and np.linalg.det(rot) > 0):
        raise ValueError("rot must be a finite 3x3 rotation: R^T R = I to 1e-10, det R > 0")
    D = wigner_blocks(cset.order, *euler_zyz(rot), cset.order)
    nu, mu = degrees_orders(cset.order)
    out = _rotate_back(D, cset.coeffs[None, :, None])[0, nu, mu + cset.order, 0]
    return CoefficientSet(order=cset.order, origin=cset.origin, coeffs=out)
