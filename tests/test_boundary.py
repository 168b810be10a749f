import math

import numpy as np
import pytest

from soundfield import specfun as sf
from soundfield import wavefuncs as wf
from soundfield.boundary import (
    dirichlet_green_sphere,
    estimate_coeffs,
    forbidden_frequencies,
    radial_response,
)
from soundfield.observation import load_t_design

from oracles import legendre, observe_coeffs


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Radial responses
# ---------------------------------------------------------------------------

def test_omni_radial_response():
    kR = 1.7
    A = radial_response("omni", 5, kR)
    for nu in range(6):
        assert A[nu] == pytest.approx((1j ** (-nu)) * sf.sph_jn(nu, kR), rel=1e-13)


def test_first_order_radial_response():
    kR, a = 2.2, 0.5
    A = radial_response("first_order", 5, kR, a=a)
    for nu in range(6):
        expected = (1j ** (-nu)) * (
            a * sf.sph_jn(nu, kR) + 1j * (1 - a) * sf.sph_jn(nu, kR, derivative=True)
        )
        assert A[nu] == pytest.approx(expected, rel=1e-13)


def test_rigid_radial_response_dual_forms():
    kR = 3.1
    A = radial_response("rigid", 6, kR)
    for nu in range(7):
        hp = sf.sph_hn(nu, kR, derivative=True)
        assert A[nu] == pytest.approx((1j ** (-nu)) * 1j / (kR**2 * hp), rel=1e-12)
        alt = (1j ** (-nu)) * (
            sf.sph_jn(nu, kR) - sf.sph_jn(nu, kR, derivative=True) / hp * sf.sph_hn(nu, kR)
        )
        assert A[nu] == pytest.approx(alt, rel=1e-10)


# ---------------------------------------------------------------------------
# Coefficient estimation from boundary samples
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,a", [("omni", None), ("first_order", 0.5), ("rigid", None)])
def test_estimate_recovers_bandlimited_field(kind, a, rng):
    # For a field band-limited to degree 3, the strength-7 design integrates
    # every product Yhat_nu Yhat_nu' (nu + nu' <= 7) exactly, so noiseless
    # estimation up to order 3 is exact to machine precision.
    k = 2.0 * math.pi * 300.0 / 340.65
    radius, order = 1.0, 3
    dirs = load_t_design(7)
    n = sf.num_coeffs(order)
    truth = wf.CoefficientSet(
        order=order, origin=np.zeros(3),
        coeffs=rng.normal(size=n) + 1j * rng.normal(size=n),
    )

    if kind == "rigid":
        from soundfield.observation import rigid_sphere_observation

        s = rigid_sphere_observation(truth.coeffs, order, dirs, k, radius)
    else:
        from soundfield.observation import Microphone

        s = np.array(
            [
                observe_coeffs(
                    Microphone(
                        pos=radius * d,
                        kind=kind,
                        axis=d if kind == "first_order" else None,
                        a=a,
                    ),
                    truth,
                    k,
                )
                for d in dirs
            ]
        )
    est = estimate_coeffs(s, dirs, kind, k, radius, order, a=a)
    assert np.max(np.abs(est.coeffs - truth.coeffs)) <= 1e-8


def test_estimate_plane_wave_aliasing_decays_with_frequency():
    # Plane-wave content above the design strength aliases into the estimate;
    # the error must shrink rapidly as kR decreases.
    dirs = load_t_design(7)
    x = _unit([1.0, 0.0, 0.0])
    errs = []
    for f in (160.0, 80.0, 40.0):
        k = 2.0 * math.pi * f / 340.65
        from soundfield.observation import Microphone, observe_plane_wave

        s = np.array(
            [observe_plane_wave(Microphone(pos=d, kind="omni"), x, k) for d in dirs]
        )
        est = estimate_coeffs(s, dirs, "omni", k, 1.0, 3)
        truth = wf.plane_wave_coeffs(3, x, k)
        errs.append(np.max(np.abs(est.coeffs - truth.coeffs)))
    # degree-5 aliasing grows like k^5 but the estimate divides by
    # A_3 ~ k^3, so the net error decays quadratically in frequency
    assert errs[0] > 3.5 * errs[1] > 3.5**2 * errs[2]
    assert errs[2] <= 1e-3


# ---------------------------------------------------------------------------
# Forbidden frequencies
# ---------------------------------------------------------------------------

def test_forbidden_frequencies_values():
    pairs = forbidden_frequencies(1.0, 340.65, 7, 350.0)
    freqs = [f for f, _ in pairs]
    degs = [nu for _, nu in pairs]
    expected = [170.325, 243.615, 312.472, 340.65]
    assert len(freqs) == 4
    for f, e in zip(freqs, expected):
        assert f == pytest.approx(e, abs=0.5)
    assert degs == [0, 1, 2, 0]
    # each returned frequency satisfies j_nu(kR) = 0
    for f, nu in pairs:
        kR = 2 * math.pi * f / 340.65
        assert abs(sf.sph_jn(nu, kR)) <= 1e-9


def test_forbidden_frequencies_sorted_and_bounded():
    pairs = forbidden_frequencies(0.5, 343.0, 5, 2000.0)
    freqs = [f for f, _ in pairs]
    assert freqs == sorted(freqs)
    assert all(0 < f <= 2000.0 for f in freqs)


# ---------------------------------------------------------------------------
# Dirichlet Green function of the sphere
# ---------------------------------------------------------------------------

def test_dirichlet_green_vanishes_on_boundary(rng):
    k, R = 4.0, 1.0
    src = np.array([0.3, -0.2, 0.4])
    dirs = rng.normal(size=(20, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    vals = dirichlet_green_sphere(R * dirs, src, k, R)
    scale = abs(wf.green(R * dirs, src, k)).max()
    assert np.max(np.abs(vals)) <= 1e-10 * scale


def test_dirichlet_green_symmetry():
    k, R = 3.0, 1.0
    a = np.array([0.2, 0.3, -0.1])
    b = np.array([-0.4, 0.1, 0.3])
    g1 = dirichlet_green_sphere(a[None], b, k, R)[0]
    g2 = dirichlet_green_sphere(b[None], a, k, R)[0]
    assert g1 == pytest.approx(g2, rel=1e-10)


def test_dirichlet_green_helmholtz_residual():
    k, R, h = 3.0, 1.0, 1e-3
    src = np.array([0.5, 0.0, 0.0])
    r = np.array([-0.2, 0.3, 0.1])
    lap = 0.0 + 0.0j
    for ax in range(3):
        e = np.zeros(3)
        e[ax] = h
        lap += (
            dirichlet_green_sphere((r + e)[None], src, k, R)[0]
            + dirichlet_green_sphere((r - e)[None], src, k, R)[0]
        )
    g0 = dirichlet_green_sphere(r[None], src, k, R)[0]
    lap = (lap - 6 * g0) / h**2
    assert abs(lap + k**2 * g0) <= 1e-4 * abs(g0) / h ** 0 + 1e-3


@pytest.mark.parametrize("k, R, order", [(2.3, 1.0, 60), (0.7, 0.5, 25), (9.0, 1.2, 40)])
def test_dirichlet_green_matches_per_degree_loop(k, R, order, rng):
    # the all-degrees form against the sum it replaced, one degree at a time
    r = 0.3 * R * rng.normal(size=(8, 3))
    r[0] = 0.0
    src = np.array([0.2, -0.35, 0.3]) * R
    kR = k * R
    rad = np.linalg.norm(r, axis=1)
    rs = np.linalg.norm(src)
    cosang = np.clip(np.where(rad > 0, (r @ src) / (np.where(rad > 0, rad, 1.0) * rs), 1.0),
                     -1.0, 1.0)
    v = np.zeros(len(r), dtype=complex)
    for nu in range(order + 1):
        jR = sf.sph_jn(nu, kR)
        if jR == 0.0:
            break
        v += ((2 * nu + 1) * (sf.sph_jn(nu, k * rs) / jR)
              * (sf.sph_hn(nu, kR) * sf.sph_jn(nu, k * rad)) * legendre(nu, cosang))
    ref = wf.green(r, src, k) - (1j * k / (4.0 * np.pi)) * v
    out = dirichlet_green_sphere(r, src, k, R, order=order)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_dirichlet_green_free_field_singularity():
    # Near the source the Dirichlet Green function approaches the free one
    k, R = 2.0, 1.0
    src = np.array([0.1, 0.2, 0.0])
    r = src + np.array([1e-3, 0, 0])
    gd = dirichlet_green_sphere(r[None], src, k, R)[0]
    g = wf.green(r[None], src, k)[0]
    assert abs(gd - g) <= 0.05 * abs(g)
