"""Sound field estimation from arbitrarily placed (possibly directional)
microphones.

Two regularized least-squares estimators are provided:

* Finite-dimensional: expand the field about a global origin ``r0`` in
  regular spherical wave functions up to degree ``N0`` (or in a finite set
  of plane waves) and solve a Tikhonov-regularized system for the
  coefficients.
* Infinite-dimensional: kernel ridge regression in the native space of
  interior fields; the representer of microphone m is
  ``v_m(r) = sum d_{m,nu,mu} phi_{nu,mu}(r - r_m)`` and the Gram matrix has
  the closed form built from the translation operator.  For omnidirectional
  microphones this collapses to the kernel ``j0(k |r - r'|)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .observation import directivity_matrix
from .specfun import sph_harm_matrix, sph_jn, sph_jn_all
from .wavefuncs import (
    CoefficientSet,
    regular_swf_matrix,
    swf_angular,
    translation_matrix,
)


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
    plane-wave basis row m is ``gamma_m(x_n)^* e^{-ik x_n . (r_m - r0)}``.
    """
    D, order = directivity_matrix(mics)
    pos = np.array([mic.pos for mic in mics])
    if isinstance(basis, PlaneWaveBasis):
        gamma = D.conj() @ sph_harm_matrix(order, basis.dirs).conj().T
        return gamma * np.exp(-1j * k * (pos - basis.origin) @ basis.dirs.T)
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
    """Gram matrix K of the microphone representers.

    ``K[m1, m2] = sum d_{m1}^* d_{m2} T^{(m2 block)}_{(m1 block)}(r_{m1} - r_{m2})``;
    for omni pairs this equals ``j0(k |r_{m1} - r_{m2}|)``.
    """
    pos = np.array([m.pos for m in mics])
    if all(m.kind == "omni" for m in mics):
        dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        return sph_jn(0, k * dist).astype(complex)
    D, order = directivity_matrix(mics)
    T = translation_matrix(pos[:, None, :] - pos[None, :, :], k, order, order)
    return np.einsum("ai,abij,bj->ab", D.conj(), T, D)


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


_MIC_BLOCK = 8


class Representers:
    """The microphone representers at fixed points, split by degree.

    ``v_m(r) = sum_nu j_nu(k |r - r_m|) F_nu[r, m]`` with the angular factors
    ``F_nu[r, m] = i^{-nu} sum_mu d_{m,nu,mu} Yhat_{nu,mu}((r - r_m)/|r - r_m|)``.
    The radii and angular factors do not depend on k and are computed once;
    :meth:`matrix` evaluates all j_nu at once and sums over the degrees.
    """

    def __init__(self, mics, r):
        D, order = directivity_matrix(mics)
        pos = np.array([mic.pos for mic in mics])
        r = np.asarray(r, dtype=float)[..., None, :]
        self.rad = np.empty(r.shape[:-2] + (len(mics),))
        self.angular = np.empty((order + 1,) + self.rad.shape, dtype=complex)
        # Blocks of mics bound the harmonics held at once, (..., block, (order+1)**2).
        for b in range(0, len(mics), _MIC_BLOCK):
            blk = slice(b, b + _MIC_BLOCK)
            self.rad[..., blk], Y = swf_angular(order, r - pos[blk])
            for nu in range(order + 1):
                deg = slice(nu * nu, (nu + 1) ** 2)
                self.angular[nu, ..., blk] = (1j ** -nu) * np.einsum(
                    "...mi,mi->...m", Y[..., deg], D[blk, deg])

    def matrix(self, k):
        """V with ``V[..., m] = v_m(r)`` at wavenumber k."""
        jn = sph_jn_all(len(self.angular) - 1, k * self.rad)
        return np.sum(jn * self.angular, axis=0)


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


def finite_kernel_matrix(mics, origin, order, k):
    """Gram matrix of the finite-dimensional model, ``B B^H``.

    ``K_finite[m1, m2] = sum_{n <= order} (F_{m1} p_n)(F_{m2} p_n)^*`` for
    the spherical basis about `origin`; it converges to
    :func:`kernel_matrix` as the truncation degree grows.
    """
    B = build_observation_matrix(mics, SphericalBasis(order=order, origin=origin), k)
    return B @ B.conj().T


def finite_to_infinite_gap(mics, origin, order, k):
    """Relative Frobenius gap between the truncated and exact Gram matrices."""
    Kf = finite_kernel_matrix(mics, origin, order, k)
    Ki = kernel_matrix(mics, k)
    return float(np.linalg.norm(Kf - Ki) / np.linalg.norm(Ki))
