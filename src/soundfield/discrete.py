"""Sound field estimation from arbitrarily placed (possibly directional)
microphones.

Two regularized least-squares estimators are provided:

* Finite-dimensional: expand the field about a global origin ``r0`` in
  regular spherical wave functions up to degree ``N0`` and solve a
  Tikhonov-regularized system for the coefficients.
* Infinite-dimensional: kernel ridge regression in the native space of
  interior fields with the kernel ``j0(k |r - r'|)``.  Every mic is
  ``F u = a u(r_m) + (i/k) b . grad u(r_m)`` (see
  :class:`~soundfield.observation.Mics`), so its representer and
  the Gram matrix are closed forms in j0, j1 and j2 of ``k |r - r_m|``
  (the kernel of Ueno, Koyama & Saruwatari, IEEE SPL 2018, at degree <= 1).
"""

from __future__ import annotations

import numpy as np

from .specfun import degrees_orders, flat_index, num_coeffs, sph_jn_all
from .wavefuncs import CoefficientSet, _check_nonnegative, regular_swf_matrix


# ---------------------------------------------------------------------------
# Finite-dimensional route
# ---------------------------------------------------------------------------

def build_observation_matrix(mics, origin, order, k):
    """Matrix B with B[m, n] = (observation functional m)(basis function n)
    for the regular spherical wave functions about `origin` up to degree
    `order`.

    Row m is ``a_m phi(r_m - r0) + (i/k) b_m . grad phi(r_m - r0)``.  The
    function ``(i/k) grad phi_{nu,mu}`` has the harmonic ``x Yhat_{nu,mu}(x)``,
    and ``b . x = b_z cos(theta) + sum_{s=+-1} (b_x - s i b_y)/2 sin(theta) e^{s i phi}``:
    each factor moves Yhat_{nu,mu} to degrees nu +- 1 and order mu + s
    (Condon-Shortley phase; the differentiation relations of Gumerov &
    Duraiswami 2004, ch. 2), so the functions up to degree ``order + 1`` at
    the mic offsets give every row.
    """
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or order < 0:
        raise ValueError(f"order must be an int >= 0, got {order!r}")
    _check_nonnegative("k", k)
    b, directional = mics.b, bool(mics.b.any())
    phi = regular_swf_matrix(order + directional, mics.pos - np.asarray(origin, dtype=float), k)
    B = mics.a[:, None] * phi[:, :num_coeffs(order)]
    nu, mu = degrees_orders(order)
    up, down = (2 * nu + 1) * (2 * nu + 3), (2 * nu - 1) * (2 * nu + 1)
    for s in (0, 1, -1) if directional else ():
        # f Yhat_{nu,mu} = u Yhat_{nu+1,mu+s} + v Yhat_{nu-1,mu+s} (v = 0 off range)
        sm = s * mu
        u, v = ((np.sqrt(((nu + 1) ** 2 - mu ** 2) / up), np.sqrt((nu ** 2 - mu ** 2) / down))
                if s == 0 else (-s * np.sqrt((nu + 1 + sm) * (nu + 2 + sm) / up),
                                s * np.sqrt((nu - sm) * (nu - 1 - sm) / down)))
        weight = b[:, 2] if s == 0 else (b[:, 0] - s * 1j * b[:, 1]) / 2
        B += weight[:, None] * (u * phi[:, flat_index(nu + 1, mu + s)]
                                + v * phi[:, np.maximum(flat_index(nu - 1, mu + s), 0)])
    return B


def solve_tikhonov(B, s, reg):
    """Tikhonov-regularized least squares.

    Minimizes ``||s - B c||^2 + reg * ||c||^2`` (white noise) and evaluates
    whichever of the two equivalent closed forms

        c = (B^H B + reg I)^{-1} B^H s = B^H (B B^H + reg I)^{-1} s

    involves the smaller :func:`solve_kernel` of a Gram matrix; the second is
    kernel ridge regression with the truncated kernel ``B B^H``, singular at
    reg = 0 when M > N.  `s` is (M,) or (M, T); `c` has the matching shape.
    """
    B, s = np.asarray(B, dtype=complex), np.asarray(s, dtype=complex)
    BH = B.conj().T
    if B.shape[0] <= B.shape[1]:
        return BH @ solve_kernel(B @ BH, s, reg)
    return solve_kernel(BH @ B, BH @ s, reg)


# ---------------------------------------------------------------------------
# Infinite-dimensional (kernel) route
# ---------------------------------------------------------------------------

def kernel_matrix(mics, k):
    """Gram matrix ``K[m1, m2] = F_{m1} v_{m2}`` of the microphone representers.

    With ``rho = r_{m1} - r_{m2}``, ``u = rho/|rho|`` (0 at rho = 0) and
    ``j_n = j_n(k |rho|)``, the gradient and Hessian of ``j0(k |rho|)`` give

        K = a1 a2 j0 - i j1 (a2 b1.u + a1 b2.u) + (j0 + j2)/3 b1.b2 - j2 (b1.u)(b2.u)

    by ``j0' = -j1`` and ``j1(x)/x = (j0 + j2)/3`` (DLMF 10.51), which holds
    at x = 0 too.  The Bessel functions go up to twice the largest mic
    degree: for omni mics K is ``j0(k |rho|)`` alone.
    """
    _check_nonnegative("k", k)
    pos, a, b = mics.pos, mics.a, mics.b
    rho = pos[:, None, :] - pos[None, :, :]
    dist = np.linalg.norm(rho, axis=-1)
    j = sph_jn_all(2 if b.any() else 0, k * dist)
    K = np.outer(a, a) * j[0]
    if b.any():
        u = rho / np.where(dist > 0, dist, 1.0)[..., None]
        bu1, bu2 = np.einsum("pqi,pi->pq", u, b), np.einsum("pqi,qi->pq", u, b)
        K = (K - 1j * j[1] * (a * bu1 + a[:, None] * bu2)
             + (j[0] + j[2]) / 3.0 * (b @ b.T) - j[2] * bu1 * bu2)
    return K.astype(complex)


def solve_kernel(K, s, reg):
    """``alpha = (K + reg I)^{-1} s`` for a Hermitian PSD K and a finite reg >= 0.

    The package's one regularised solve (KRR, Tikhonov, PM and WPM).  `s` is
    one signal vector (M,) or a block (M, T), solved with one factorisation.
    """
    _check_nonnegative("reg", reg)
    K = np.asarray(K, dtype=complex)
    return np.linalg.solve(K + reg * np.eye(len(K)), np.asarray(s, dtype=complex))


class Representers:
    """The microphone representers at fixed points r.

    ``v_m(r) = a_m j0(k rho) - i j1(k rho) b_m . u`` with ``rho = |r - r_m|``
    and ``u = (r - r_m) / rho``.  The radii and the projections ``b_m . u``
    (0 where rho = 0; None when no mic has a gradient part) do not depend on
    k and are kept as (..., M) arrays for :meth:`terms`.
    """

    def __init__(self, mics, r):
        pos, self.a, b = mics.pos, mics.a, mics.b
        r = np.asarray(r, dtype=float)
        # Coordinate by coordinate, so that no (..., M, 3) array is built;
        # the sum rounds as np.linalg.norm of the differences does.
        self.rad = np.sqrt(sum((r[..., c, None] - pos[:, c]) ** 2 for c in range(3)))
        self.proj = None
        if b.any():
            proj = r @ b.T - np.einsum("mi,mi->m", b, pos)
            self.proj = np.divide(proj, self.rad, out=np.zeros_like(proj), where=self.rad > 0)

    def terms(self, k):
        """Yield ``a j0`` and, when a mic has a gradient part, ``j1 proj`` at k
        (``V = a j0 - i j1 proj``): rows of one :func:`sph_jn_all` table, each
        scaled in place as it is reached, so that its user finds it in cache."""
        j = sph_jn_all(0 if self.proj is None else 1, k * self.rad)
        j[0] *= self.a
        yield j[0]
        if self.proj is not None:
            j[1] *= self.proj
            yield j[1]

    def matrix(self, k):
        """V with ``V[..., m] = v_m(r)`` at wavenumber k."""
        j = list(self.terms(k))
        V = j[0].astype(complex)
        if self.proj is not None:
            V.imag = -j[1]
        return V


def representer_matrix(mics, r, k):
    """Matrix V with V[i, m] = v_m(r_i) for evaluation points r_i."""
    return Representers(mics, r).matrix(k)


def extract_expansion(alpha, mics, origin, order, k):
    """Expansion coefficients of the kernel estimate about `origin`.

    The reproducing kernel is ``sum_n phi_n(r - r0) phi_n(r' - r0)^*`` about
    any r0, so representer m has the coefficients ``conj(B[m])``, B being
    :func:`build_observation_matrix` about `origin`, and the estimate
    ``sum_m alpha_m v_m`` has ``B^H alpha``, truncated at degree `order`.
    """
    B = build_observation_matrix(mics, origin, order, k)
    return CoefficientSet(order=order, origin=origin,
                          coeffs=B.conj().T @ np.asarray(alpha, dtype=complex))


def finite_to_infinite_gap(mics, origin, order, k):
    """Relative Frobenius gap between the truncated and exact Gram matrices.

    The finite-dimensional model's Gram matrix is ``B B^H`` for the
    spherical basis about `origin` up to degree `order`; it converges to
    :func:`kernel_matrix` as the degree grows.
    """
    B = build_observation_matrix(mics, origin, order, k)
    Ki = kernel_matrix(mics, k)
    return float(np.linalg.norm(B @ B.conj().T - Ki) / np.linalg.norm(Ki))
