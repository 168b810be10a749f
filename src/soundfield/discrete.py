"""Sound field estimation from arbitrarily placed (possibly directional)
microphones.

Two regularized least-squares estimators are provided:

* Finite-dimensional: expand the field about a global origin ``r0`` in
  regular spherical wave functions up to degree ``N0`` (or in a finite set
  of plane waves) and solve a Tikhonov-regularized system for the
  coefficients.
* Infinite-dimensional: kernel ridge regression in the native space of
  interior fields with the kernel ``j0(k |r - r'|)``.  Every mic is
  ``F u = a u(r_m) + (i/k) b . grad u(r_m)`` (see
  :func:`~soundfield.observation.mic_functionals`), so its representer and
  the Gram matrix are closed forms in j0, j1 and j2 of ``k |r - r_m|``
  (the kernel of Ueno, Koyama & Saruwatari, IEEE SPL 2018, at degree <= 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .observation import directivity_matrix, mic_functionals
from .specfun import sph_jn_all
from .wavefuncs import CoefficientSet, regular_swf_matrix, translation_matrix


# ---------------------------------------------------------------------------
# Basis specifications (finite-dimensional route)
# ---------------------------------------------------------------------------

@dataclass
class SphericalBasis:
    """Regular spherical wave functions up to degree `order` about `origin`."""

    order: int
    origin: np.ndarray

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float).reshape(3)

    def eval_matrix(self, r, k):
        return regular_swf_matrix(self.order, np.asarray(r) - self.origin, k)


@dataclass
class PlaneWaveBasis:
    """Plane waves from directions `dirs` with phase reference `origin`."""

    dirs: np.ndarray
    origin: np.ndarray

    def __post_init__(self):
        self.dirs = np.asarray(self.dirs, dtype=float).reshape(-1, 3)
        self.origin = np.asarray(self.origin, dtype=float).reshape(3)

    def eval_matrix(self, r, k):
        rel = np.asarray(r, dtype=float) - self.origin
        return np.exp(-1j * k * rel @ self.dirs.T)


def build_observation_matrix(mics, basis, k):
    """Matrix B with B[m, n] = (observation functional m)(basis function n).

    For the spherical basis the entries follow from the translation
    operator: the local expansion of ``phi_{nu,mu}(r - r0)`` about the
    microphone position is one column of ``T(r_m - r0)``, so row m is
    ``d_m^H T(r_m - r0)`` with degrees up to the microphone order.  For the
    plane-wave basis row m is ``(a_m + b_m . x_n) e^{-ik x_n . (r_m - r0)}``,
    as in :func:`~soundfield.observation.plane_wave_observations`.
    """
    if isinstance(basis, PlaneWaveBasis):
        pos, a, b = mic_functionals(mics)
        pickup = a[:, None] + b @ basis.dirs.T
        return pickup * np.exp(-1j * k * (pos - basis.origin) @ basis.dirs.T)
    D, order = directivity_matrix(mics)
    pos = np.array([mic.pos for mic in mics])
    T = translation_matrix(pos - basis.origin, k, order, basis.order)
    return np.einsum("mi,min->mn", D.conj(), T)


def solve_tikhonov(B, s, reg, noise_cov=None):
    """Tikhonov-regularized weighted least squares.

    Minimizes ``(s - B c)^H Sigma^{-1} (s - B c) + reg * ||c||^2`` and
    evaluates whichever of the two equivalent closed forms

        c = (B^H Sigma^{-1} B + reg I)^{-1} B^H Sigma^{-1} s
          = B^H (B B^H + reg Sigma)^{-1} s

    involves the smaller linear solve.  `noise_cov` defaults to identity.
    `s` is one signal vector (M,) or a block of them (M, T), solved with one
    factorisation; `c` has the matching shape.
    """
    B = np.asarray(B, dtype=complex)
    s = np.asarray(s, dtype=complex)
    M, N = B.shape
    if noise_cov is None:
        noise_cov = np.eye(M)
    noise_cov = np.asarray(noise_cov, dtype=complex)
    if M <= N:
        A = B @ B.conj().T + reg * noise_cov
        return B.conj().T @ np.linalg.solve(A, s)
    Sinv_B = np.linalg.solve(noise_cov, B)
    A = B.conj().T @ Sinv_B + reg * np.eye(N)
    rhs = Sinv_B.conj().T @ s
    return np.linalg.solve(A, rhs)


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
    pos, a, b = mic_functionals(mics)
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


def solve_kernel(K, s, reg, noise_cov=None):
    """Representer weights ``alpha = (K + reg Sigma)^{-1} s``.

    `s` is one signal vector (M,) or a block of them (M, T), solved with one
    factorisation; `alpha` has the matching shape.
    """
    K = np.asarray(K, dtype=complex)
    s = np.asarray(s, dtype=complex)
    M = K.shape[0]
    if noise_cov is None:
        noise_cov = np.eye(M)
    return np.linalg.solve(K + reg * np.asarray(noise_cov, dtype=complex), s)


class Representers:
    """The microphone representers at fixed points r.

    ``v_m(r) = a_m j0(k rho) - i j1(k rho) b_m . u`` with ``rho = |r - r_m|``
    and ``u = (r - r_m) / rho``.  The radii and the projections ``b_m . u``
    (0 where rho = 0; None when no mic has a gradient part) do not depend on
    k and are kept as (..., M) arrays; :meth:`matrix` evaluates the Bessel
    functions.
    """

    def __init__(self, mics, r):
        pos, self.a, b = mic_functionals(mics)
        r = np.asarray(r, dtype=float)
        # Coordinate by coordinate, so that no (..., M, 3) array is built;
        # the sum rounds as np.linalg.norm of the differences does.
        self.rad = np.sqrt(sum((r[..., c, None] - pos[:, c]) ** 2 for c in range(3)))
        self.proj = None
        if b.any():
            proj = r @ b.T - np.einsum("mi,mi->m", b, pos)
            self.proj = np.divide(proj, self.rad, out=np.zeros_like(proj), where=self.rad > 0)

    def matrix(self, k):
        """V with ``V[..., m] = v_m(r)`` at wavenumber k."""
        j = sph_jn_all(0 if self.proj is None else 1, k * self.rad)
        V = (self.a * j[0]).astype(complex)
        if self.proj is not None:
            V.imag = -j[1] * self.proj
        return V


def representer_matrix(mics, r, k):
    """Matrix V with V[i, m] = v_m(r_i) for evaluation points r_i."""
    return Representers(mics, r).matrix(k)


def extract_expansion(alpha, mics, origin, order, k):
    """Expansion coefficients of the kernel estimate about `origin`.

    Each representer, being a regular field, re-expands about the global
    origin through the translation operator; the estimate's coefficients are
    ``sum_m alpha_m T(origin - r_m) d_m`` truncated at the requested degree.
    """
    D, mic_order = directivity_matrix(mics)
    pos = np.array([mic.pos for mic in mics])
    T = translation_matrix(np.asarray(origin, float) - pos, k, order, mic_order)
    coeffs = np.einsum("m,mni,mi->n", np.asarray(alpha, dtype=complex), T, D)
    return CoefficientSet(order=order, origin=origin, coeffs=coeffs)


def finite_to_infinite_gap(mics, origin, order, k):
    """Relative Frobenius gap between the truncated and exact Gram matrices.

    The finite-dimensional model's Gram matrix is ``B B^H`` for the
    spherical basis about `origin` up to degree `order`; it converges to
    :func:`kernel_matrix` as the degree grows.
    """
    B = build_observation_matrix(mics, SphericalBasis(order=order, origin=origin), k)
    Ki = kernel_matrix(mics, k)
    return float(np.linalg.norm(B @ B.conj().T - Ki) / np.linalg.norm(Ki))
