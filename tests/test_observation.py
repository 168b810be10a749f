import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundfield import specfun as sf
from soundfield import wavefuncs as wf
from soundfield.observation import (
    Microphone,
    add_noise,
    directivity_matrix,
    load_t_design,
    observe_coeffs,
    observe_plane_wave,
    observe_point_source,
    plane_wave_observations,
    point_source_observations,
    rigid_sphere_observation,
    spherical_array,
)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Microphone models against finite differences of the true field
# ---------------------------------------------------------------------------

def test_omni_is_pressure():
    k = 4.0
    x = _unit([1.0, 1.0, 0.0])
    mic = Microphone(pos=np.array([0.3, -0.2, 0.5]), kind="omni")
    assert observe_plane_wave(mic, x, k) == pytest.approx(
        wf.plane_wave(mic.pos[None], x, k)[0], rel=1e-12
    )


def test_bidirectional_is_normalized_gradient():
    # Bidirectional output = (1/(ik)) d/dy u at the mic, axis y
    k, h = 3.0, 1e-6
    x = _unit([0.4, -0.3, 0.8])
    axis = _unit([1.0, 2.0, -0.5])
    pos = np.array([0.1, 0.2, -0.3])
    mic = Microphone(pos=pos, kind="bidirectional", axis=axis)
    fd = (
        wf.plane_wave((pos + h * axis)[None], x, k)[0]
        - wf.plane_wave((pos - h * axis)[None], x, k)[0]
    ) / (2 * h)
    assert observe_plane_wave(mic, x, k) == pytest.approx(fd / (-1j * k), rel=1e-8)
    # which equals the cosine directivity (x . axis) times the pressure
    assert observe_plane_wave(mic, x, k) == pytest.approx(
        (x @ axis) * wf.plane_wave(pos[None], x, k)[0], rel=1e-12
    )


def test_first_order_mix():
    k = 2.5
    x = _unit([0.0, 1.0, 1.0])
    axis = _unit([0.5, 0.5, 1.0])
    pos = np.array([-0.2, 0.4, 0.1])
    a = 0.3
    omni = observe_plane_wave(Microphone(pos=pos, kind="omni"), x, k)
    bid = observe_plane_wave(
        Microphone(pos=pos, kind="bidirectional", axis=axis), x, k
    )
    fo = observe_plane_wave(
        Microphone(pos=pos, kind="first_order", axis=axis, a=a), x, k
    )
    assert fo == pytest.approx(a * omni + (1 - a) * bid, rel=1e-12)


def test_point_source_observation_fd():
    k, h = 5.0, 1e-6
    src = np.array([2.0, 0.5, -1.0])
    axis = _unit([0.0, 0.0, 1.0])
    pos = np.array([0.1, -0.1, 0.2])
    mic = Microphone(pos=pos, kind="bidirectional", axis=axis)
    fd = (
        wf.green((pos + h * axis)[None], src, k)[0]
        - wf.green((pos - h * axis)[None], src, k)[0]
    ) / (2 * h)
    assert observe_point_source(mic, src, k) == pytest.approx(fd / (-1j * k), rel=1e-7)


def test_observe_coeffs_matches_plane_wave():
    # Truncated-expansion observation converges to the closed-form observation
    k = 3.0
    x = _unit([1.0, -1.0, 0.5])
    mic = Microphone(
        pos=np.array([0.2, 0.3, -0.1]), kind="first_order",
        axis=_unit([1.0, 0.0, 1.0]), a=0.5,
    )
    cset = wf.plane_wave_coeffs(25, x, k)
    assert observe_coeffs(mic, cset, k) == pytest.approx(
        observe_plane_wave(mic, x, k), rel=1e-10
    )


# ---------------------------------------------------------------------------
# Rigid-sphere observation
# ---------------------------------------------------------------------------

def test_array_observations_match_per_mic():
    # A mixed array pads omni mics with zero degree-1 coefficients.
    rng = np.random.default_rng(3)
    mics = [
        Microphone(pos=0.4 * rng.normal(size=3), kind=kind,
                   axis=None if kind == "omni" else rng.normal(size=3),
                   a=0.3 if kind == "first_order" else None)
        for kind in ("omni", "bidirectional", "first_order") * 3
    ]
    k = 5.0
    x = _unit([0.2, -0.4, 0.9])
    src = np.array([1.3, -0.8, 0.6])
    pw = plane_wave_observations(mics, x, k)
    ps = point_source_observations(mics, src, k)
    for m, mic in enumerate(mics):
        assert pw[m] == pytest.approx(observe_plane_wave(mic, x, k), rel=1e-14, abs=1e-15)
        assert ps[m] == pytest.approx(observe_point_source(mic, src, k), rel=1e-14)
    # directivity_matrix rows are each mic's own coefficients, zero-padded
    D, order = directivity_matrix(mics)
    assert order == 1
    for m, mic in enumerate(mics):
        d = mic.directivity_coeffs()
        assert np.array_equal(D[m, : d.size], d) and not D[m, d.size:].any()


def test_rigid_sphere_radial_velocity_vanishes():
    # Total field on a rigid sphere has zero radial derivative: check via
    # the radial response against the analytic dual form built from the
    # Wronskian identity.
    from soundfield.boundary import radial_response

    kR = 2.3
    order = 6
    A = radial_response("rigid", order, kR)
    jn = np.array([sf.sph_jn(nu, kR) for nu in range(order + 1)])
    jp = np.array([sf.sph_jn(nu, kR, derivative=True) for nu in range(order + 1)])
    hn = np.array([sf.sph_hn(nu, kR) for nu in range(order + 1)])
    hp = np.array([sf.sph_hn(nu, kR, derivative=True) for nu in range(order + 1)])
    via_wronskian = np.array(
        [(1j ** (-nu)) * (jn[nu] - jp[nu] / hp[nu] * hn[nu]) for nu in range(order + 1)]
    )
    assert np.allclose(A, via_wronskian, rtol=1e-10)


def test_rigid_sphere_observation_consistency():
    # Scattered+incident surface pressure from expansion coefficients equals
    # the per-mode radial response applied mode by mode.
    from soundfield.boundary import radial_response

    k, radius = 4.0, 0.5
    order = 12
    x = _unit([0.3, 0.7, -0.6])
    cset = wf.plane_wave_coeffs(order, x, k)
    dirs = load_t_design(5)
    s = rigid_sphere_observation(cset.coeffs, order, dirs, k, radius)
    # Independent oracle: incident j_nu mode plus scattered h_nu mode with
    # the scattering coefficient fixed by the zero-radial-velocity condition.
    nus, _ = sf.degrees_orders(order)
    Y = sf.sph_harm_matrix(order, dirs)
    kR = k * radius
    radial = np.array(
        [
            (1j ** (-int(nu)))
            * (
                sf.sph_jn(int(nu), kR)
                - sf.sph_jn(int(nu), kR, derivative=True)
                / sf.sph_hn(int(nu), kR, derivative=True)
                * sf.sph_hn(int(nu), kR)
            )
            for nu in nus
        ]
    )
    expected = Y @ (radial * cset.coeffs)
    assert np.max(np.abs(s - expected)) <= 1e-10 * np.max(np.abs(expected))
    # Harmonics of a higher order, as a sweep passes them, give the same result.
    wide = sf.sph_harm_matrix(order + 5, dirs)
    s_wide = rigid_sphere_observation(cset.coeffs, order, dirs, k, radius, harmonics=wide)
    assert np.max(np.abs(s_wide - s)) <= 1e-14 * np.max(np.abs(s))


# ---------------------------------------------------------------------------
# t-designs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [2, 3, 5, 7])
def test_t_design_defining_property(t):
    # (1/M) sum_m Yhat_{nu,mu}(x_m) = delta_{nu 0} for all 1 <= nu <= t
    dirs = load_t_design(t)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    worst = 0.0
    for nu in range(1, t + 1):
        for mu in range(-nu, nu + 1):
            worst = max(worst, abs(np.mean(sf.sph_harm_matrix(nu, dirs)[:, sf.flat_index(nu, mu)])))
    assert worst <= 1e-9


def test_spherical_array_geometry():
    arr = spherical_array(5, radius=0.8, mount="open", kind="omni")
    assert len(arr.mics) == 12
    assert np.allclose(np.linalg.norm(arr.positions, axis=1), 0.8, atol=1e-12)
    arr2 = spherical_array(3, radius=1.0, mount="open", kind="first_order", a=0.4)
    for mic in arr2.mics:
        assert mic.kind == "first_order"
        assert mic.a == 0.4
        # outward-pointing axes
        assert mic.axis @ mic.pos > 0


def test_rigid_mount_requires_omni():
    with pytest.raises(ValueError):
        spherical_array(3, 1.0, mount="rigid", kind="first_order", a=0.5)


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------

def test_add_noise_snr_statistics():
    rng = np.random.default_rng(7)
    s = np.full(20000, 1.0 + 0.0j)
    noisy = add_noise(s, 20.0, rng)
    noise_pow = np.mean(np.abs(noisy - s) ** 2)
    assert noise_pow == pytest.approx(1e-2, rel=0.05)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_add_noise_deterministic(seed):
    s = np.arange(8, dtype=complex)
    a = add_noise(s, 30.0, np.random.default_rng(seed))
    b = add_noise(s, 30.0, np.random.default_rng(seed))
    assert np.array_equal(a, b)
