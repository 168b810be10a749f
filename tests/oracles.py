"""Reference implementations the library's closed forms are checked against,
and the mic lists they are checked on.

Each reference evaluates a quantity through the spherical-harmonic route:
directivity coefficients, regular/singular wave functions and the
translation operator.
"""

import numpy as np

from soundfield import specfun as sf
from soundfield import wavefuncs as wf
from soundfield.observation import Microphone, directivity_matrix


def legendre(n, x):
    """Legendre polynomials P_n(x) for degrees `n` broadcast against `x`."""
    n, x = np.broadcast_arrays(np.asarray(n), np.asarray(x, dtype=float))
    return np.take_along_axis(sf.legendre_all(int(n.max()), x), n[None], axis=0)[0]


def green_partial_wave(r, r_src, k, order):
    """Partial-wave expansion of the Green's function, valid for |r| < |r_src|:

    ``G = (ik/4pi) sum_nu (2nu+1) j_nu(k|r|) h_nu(k|r_src|) P_nu(cos angle)``.
    """
    r = np.asarray(r, dtype=float)
    r_src = np.asarray(r_src, dtype=float)
    rad = np.linalg.norm(r, axis=-1)
    rs = float(np.linalg.norm(r_src))
    cosang = np.where(rad > 0, r @ r_src / (np.where(rad > 0, rad, 1.0) * rs), 1.0)
    cosang = np.clip(cosang, -1.0, 1.0)
    nu = np.arange(order + 1).reshape((order + 1,) + (1,) * rad.ndim)
    hs = sf.sph_hn_all(order, k * rs).reshape(nu.shape)
    out = np.sum((2 * nu + 1) * sf.sph_jn_all(order, k * rad) * hs
                 * sf.legendre_all(order, cosang), axis=0)
    return (1j * k / (4.0 * np.pi)) * out


def evaluate(cset, r, k):
    """A coefficient set's expansion at points `r` (shape (..., 3))."""
    return wf.regular_swf_matrix(cset.order, np.asarray(r) - cset.origin, k) @ cset.coeffs


def directivity_coeffs(mic):
    """One mic's directivity coefficients d_{nu,mu}, flat layout up to its degree."""
    return directivity_matrix([mic])[0][0]


def observe_coeffs(mic, cset, k):
    """A mic's observation of a field given as a coefficient set: the field is
    re-expanded about the mic and contracted with its directivity."""
    local = wf.translate_coeffs(cset, mic.pos, k, order_out=mic.order)
    return complex(directivity_coeffs(mic).conj() @ local.coeffs)


def translation_kernel_matrix(mics, k):
    """Gram matrix ``K[m1, m2] = d_{m1}^H T(r_{m1} - r_{m2}) d_{m2}``."""
    D, order = directivity_matrix(mics)
    pos = np.array([m.pos for m in mics])
    T = wf.translation_matrix(pos[:, None, :] - pos[None, :, :], k, order, order)
    return np.einsum("ai,abij,bj->ab", D.conj(), T, D)


def harmonic_representers(mics, r, k):
    """``v_m(r) = sum_{nu,mu} d_{m,nu,mu} phi_{nu,mu}(r - r_m)``; shape (..., M)."""
    D, order = directivity_matrix(mics)
    pos = np.array([m.pos for m in mics])
    phi = wf.regular_swf_matrix(order, np.asarray(r, dtype=float)[..., None, :] - pos, k)
    return np.einsum("...mi,mi->...m", phi, D)


def harmonic_plane_wave_observations(mics, x_inc, k):
    """Mic m observes ``sum d_{m,nu,mu}^* Yhat_{nu,mu}(x_inc)^* e^{-ik x_inc . r_m}``."""
    D, order = directivity_matrix(mics)
    pos = np.array([m.pos for m in mics])
    gamma = D.conj() @ sf.sph_harm_matrix(order, np.asarray(x_inc, float)).conj()
    return gamma * np.exp(-1j * k * (pos @ x_inc))


def harmonic_point_source_observations(mics, r_src, k):
    """Mic m observes ``d_m^H psi(r_src - r_m)``: the Green's function's local
    regular coefficients about r_m are the singular wave functions."""
    D, order = directivity_matrix(mics)
    pos = np.array([m.pos for m in mics])
    psi = wf.singular_swf_matrix(order, np.asarray(r_src, float) - pos, k)
    return np.einsum("mi,mi->m", D.conj(), psi)


def mixed_mics(rng, m, kinds=("omni", "bidirectional", "first_order")):
    """`m` mics of the given kinds in turn, near the origin, each with its own
    tilted axis and, when first-order, its own a in [0, 1)."""
    mics = []
    for i in range(m):
        kind = kinds[i % len(kinds)]
        mics.append(Microphone(
            pos=0.4 * rng.normal(size=3), kind=kind,
            axis=None if kind == "omni" else rng.normal(size=3),
            a=rng.uniform() if kind == "first_order" else None))
    return mics
