"""Reference implementations the library's closed forms are checked against,
and the mic lists they are checked on.

Each reference evaluates a quantity through the spherical-harmonic route:
regular/singular wave functions, the translation operator (also as the Gaunt
sum of the translation theorem) and the rigid sphere's response degree by
degree.  A mic there is its directivity coefficients of degree <= 1
(:func:`directivity_matrix`), ``F u = sum d_{nu,mu}^* u_{nu,mu}(r_m)`` with
``u_{nu,mu}(r_m)`` the field's regular coefficients about the mic, where the
library has the one model ``F u = a u + (i/k) b . grad u``.  The spherical
Bessel and Hankel functions at given degrees and the ANC cost are here too,
since only tests evaluate them one at a time, and the spherical array the
tests build without a config.
"""

import numpy as np

from soundfield import specfun as sf
from soundfield import wavefuncs as wf
from soundfield.observation import ArrayConfig, Mics, load_t_design


def sph_jn(n, x):
    """Spherical Bessel function of the first kind j_n(x), for degrees `n`
    broadcast against `x`."""
    n, x = np.broadcast_arrays(np.asarray(n), np.asarray(x, dtype=float))
    return np.take_along_axis(sf.sph_jn_all(int(n.max()), x), n[None], axis=0)[0]


def sph_hn(n, x, derivative=False):
    """Spherical Hankel function of the first kind h_n(x) = j_n + i y_n (or
    h_n'(x)) for degrees `n` broadcast against `x`."""
    n, x = np.broadcast_arrays(np.asarray(n), np.asarray(x, dtype=float))
    return np.take_along_axis(sf.sph_hn_all(int(n.max()), x, derivative), n[None], axis=0)[0]


def spherical_array(t, radius, kind="omni", a=None):
    """The open array of the spherical config form: the t-design's mics at
    `radius`, all of `kind` with outward axes and omni weight `a`."""
    dirs = load_t_design(t)
    return ArrayConfig(mount="open", mics=Mics(radius * dirs, kind, dirs, a), radius=radius)


def anc_cost(e, A):
    """Regional noise power estimate e^H A e (real part)."""
    e = np.asarray(e, dtype=complex).reshape(-1)
    return float(np.real(e.conj() @ np.asarray(A, dtype=complex) @ e))


def gathered_sph_harm_matrix(order, dirs):
    """``sf.sph_harm_matrix`` assembled by gathers: every (nu, mu) column is
    ``e^{i mu phi} (-1)^mu Pbar_nu^|mu|`` for odd negative mu, with
    ``e^{i mu phi}`` evaluated for each mu, negative ones included, and the
    Legendre table of ``sf.sph_harm_matrix``'s own recurrence."""
    dirs = np.asarray(dirs, dtype=float)
    z = np.clip(dirs[..., 2], -1.0, 1.0).ravel()
    sin_theta = np.sqrt((1.0 - z) * (1.0 + z))
    pole = sin_theta < 1e-2  # next to the poles, the sine of the vector itself
    sin_theta[pole] = np.hypot(dirs[..., 0], dirs[..., 1]).ravel()[pole]
    phi = np.arctan2(dirs[..., 1], dirs[..., 0]).ravel()
    P = np.zeros((order + 1, order + 1, z.size))
    P[0, 0] = 1.0
    for n in range(1, order + 1):
        a, b = sf._legendre_step(n)
        P[n, :n] = a * z * P[n - 1, :n] - b * P[max(n - 2, 0), :n]
        P[n, n] = -np.sqrt((2 * n + 1) / (2 * n)) * sin_theta * P[n - 1, n - 1]
    nu, mu = sf.degrees_orders(order)
    am = np.abs(mu)
    sign = np.where((mu < 0) & (am % 2 == 1), -1.0, 1.0)[:, None]
    phase = np.exp(1j * np.multiply.outer(phi, np.arange(-order, order + 1)))
    Y = phase[:, mu + order] * (P[nu, am] * sign).T
    return Y.reshape(dirs.shape[:-1] + (-1,))


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


def directivity_matrix(mics):
    """Directivity coefficients of all mics, zero-padded to a common degree.

    Returns ``(D, order)`` with ``D[m]`` the flat coefficients of mic m up to
    the largest microphone degree ``order`` (0 when every mic is omni, else
    1): ``d_{0,0} = a`` and, for a directional mic with axis y,
    ``d_{1,mu} = (1 - a) Yhat_{1,mu}(y)^* / 3``.
    """
    directional = mics.axes.any(axis=1)
    order = int(directional.any())
    D = np.zeros((len(mics), sf.num_coeffs(order)), dtype=complex)
    D[:, 0] = mics.a
    if order:
        y1 = sf.sph_harm_matrix(1, mics.axes[directional]).conj()[:, 1:4]
        D[directional, 1:4] = (1.0 - mics.a[directional, None]) * y1 / 3.0
    return D, order


def observe_coeffs(mics, cset, k):
    """Each mic's observation of a field given as a coefficient set: the field
    is re-expanded about the mic and contracted with its directivity."""
    D, order = directivity_matrix(mics)
    return np.array([d.conj() @ (wf.translation_matrix(p - cset.origin, k, order, cset.order)
                                 @ cset.coeffs)
                     for p, d in zip(mics.pos, D)])


def gaunt_sum(d, k, order_out, order_in, entries):
    """Entries ``(row, col)`` of the translation operator ``T(d)`` by the sum
    of the translation theorem with exact Gaunt coefficients,
    ``sum_{nu'',mu''} gaunt(nu, mu, nu', mu', nu'', mu'') phi_{nu'',mu''}(d)``,
    over the degrees nu'' that the selection rules allow; shape
    ``shape(d)[:-1] + (len(entries),)``."""
    phi = wf.regular_swf_matrix(order_out + order_in, d, k)
    nu, mu = (a.tolist() for a in sf.degrees_orders(order_out + order_in))
    out = []
    for r, c in entries:
        mupp = mu[c] - mu[r]
        out.append(sum(sf.gaunt(nu[r], mu[r], nu[c], mu[c], npp, mupp)
                       * phi[..., sf.flat_index(npp, mupp)]
                       for npp in range(abs(nu[r] - nu[c]), nu[r] + nu[c] + 1, 2)
                       if npp >= abs(mupp)))
    return np.stack(out, axis=-1)


def gaunt_tensor(order_out, order_in):
    """The Gaunt coupling of the translation operator as CSR arrays
    ``(indptr, p, vals)``: row ``row * n_in + col`` holds
    ``gaunt(nu, mu, nu', mu', nu'', mu'')`` at column ``p = (nu'', mu'')``,
    so that ``T(d)`` is its product with ``phi(d)`` up to degree
    order_out + order_in.  Built from a dense selection mask and a
    full-range Gauss-Legendre loop, three gathers per node."""
    L = order_out + order_in
    x, w = np.polynomial.legendre.leggauss(L + 1)
    dirs = np.stack([np.sqrt(1.0 - x * x), np.zeros_like(x), x], axis=-1)
    P = sf.sph_harm_matrix(L, dirs).real
    nu_out, mu_out = sf.degrees_orders(order_out)
    nu_in, mu_in = sf.degrees_orders(order_in)
    nu, mu = nu_out[:, None, None], mu_out[:, None, None]
    nup, mup = nu_in[None, :, None], mu_in[None, :, None]
    nupp = np.arange(L + 1)[None, None, :]
    allowed = (
        (np.abs(mup - mu) <= nupp)
        & (nupp >= np.abs(nu - nup))
        & (nupp <= nu + nup)
        & ((nu + nup + nupp) % 2 == 0)
    )
    row, col, deg = np.nonzero(allowed)
    p = sf.flat_index(deg, mu_in[col] - mu_out[row])
    vals = np.zeros(row.size)
    for q in range(L + 1):
        vals += w[q] * P[q, row] * P[q, col] * P[q, p]
    vals *= 0.5
    n_rows = sf.num_coeffs(order_out) * sf.num_coeffs(order_in)
    indptr = np.zeros(n_rows + 1, dtype=np.intp)
    np.cumsum(np.bincount(row * sf.num_coeffs(order_in) + col, minlength=n_rows),
              out=indptr[1:])
    return indptr, p, vals


def translation_kernel_matrix(mics, k):
    """Gram matrix ``K[m1, m2] = d_{m1}^H T(r_{m1} - r_{m2}) d_{m2}``."""
    D, order = directivity_matrix(mics)
    pos = mics.pos
    T = wf.translation_matrix(pos[:, None, :] - pos[None, :, :], k, order, order)
    return np.einsum("ai,abij,bj->ab", D.conj(), T, D)


def harmonic_representers(mics, r, k):
    """``v_m(r) = sum_{nu,mu} d_{m,nu,mu} phi_{nu,mu}(r - r_m)``; shape (..., M)."""
    D, order = directivity_matrix(mics)
    phi = wf.regular_swf_matrix(order, np.asarray(r, dtype=float)[..., None, :] - mics.pos, k)
    return np.einsum("...mi,mi->...m", phi, D)


def singular_swf_matrix(order, r, k):
    """All psi_{nu,mu}(r) = (ik/4pi) i^nu h_nu(k|r|) Yhat_{nu,mu}(r/|r|)^* for
    nu <= order, flat layout as for the regular set: the regular-expansion
    coefficients about the origin of the Green's function of a source at r."""
    rad, Y = wf.swf_angular(order, r)
    Y = Y.conj()
    hn = sf.sph_hn_all(order, k * rad)
    nu, _ = sf.degrees_orders(order)
    radial = np.moveaxis(hn, 0, -1)[..., nu] * (1j ** nu.astype(float))
    return (1j * k / (4.0 * np.pi)) * radial * Y


def harmonic_rigid_sphere_observation(coeffs, order, dirs, k, radius):
    """Pressure on a rigid sphere at ``radius * dirs`` for an incident field
    with regular coefficients `coeffs` about its center, degree by degree:

        sum_{nu,mu} alpha_{nu,mu} i^{-nu} (i / ((kR)^2 h_nu'(kR))) Yhat_{nu,mu}(x)
    """
    nu, _ = sf.degrees_orders(order)
    kR = k * radius
    hp = sf.sph_hn_all(order, kR, derivative=True)
    radial = (1j ** (-nu.astype(float))) * (1j / (kR**2 * hp[nu]))
    Y = sf.sph_harm_matrix(order, np.asarray(dirs, dtype=float))
    return Y @ (radial * np.asarray(coeffs, dtype=complex))


def harmonic_plane_wave_observations(mics, x_inc, k):
    """Mic m observes ``sum d_{m,nu,mu}^* Yhat_{nu,mu}(x_inc)^* e^{-ik x_inc . r_m}``."""
    D, order = directivity_matrix(mics)
    gamma = D.conj() @ sf.sph_harm_matrix(order, np.asarray(x_inc, float)).conj()
    return gamma * np.exp(-1j * k * (mics.pos @ x_inc))


def harmonic_point_source_observations(mics, r_src, k):
    """Mic m observes ``d_m^H psi(r_src - r_m)``: the Green's function's local
    regular coefficients about r_m are the singular wave functions."""
    D, order = directivity_matrix(mics)
    psi = singular_swf_matrix(order, np.asarray(r_src, float) - mics.pos, k)
    return np.einsum("mi,mi->m", D.conj(), psi)


def mixed_mic_spec(rng, m, kinds=("omni", "bidirectional", "first_order")):
    """The :class:`Mics` arguments ``(pos, kind, axes, a)`` of `m` mics of the
    given kinds in turn, near the origin, each with its own tilted axis and,
    when first-order, its own a in [0, 1); rows a kind does not take hold
    0 (axes) or NaN (a)."""
    pos, kind, axes, a = np.zeros((m, 3)), [], np.zeros((m, 3)), np.full(m, np.nan)
    for i in range(m):
        kind.append(kinds[i % len(kinds)])
        pos[i] = 0.4 * rng.normal(size=3)
        if kind[i] != "omni":
            axes[i] = rng.normal(size=3)
        if kind[i] == "first_order":
            a[i] = rng.uniform()
    return pos, kind, axes, a


def mixed_mics(rng, m, kinds=("omni", "bidirectional", "first_order")):
    """The :class:`Mics` of :func:`mixed_mic_spec`."""
    return Mics(*mixed_mic_spec(rng, m, kinds))
