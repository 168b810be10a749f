import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundfield import specfun as sf
from soundfield import wavefuncs as wf
from soundfield.harness import ConfigError, ScenarioConfig
from soundfield.observation import (
    Mics,
    add_noise,
    load_t_design,
    noise_std,
    observe_plane_wave,
    observe_point_source,
    plane_wave_observations,
    point_source_observations,
    rigid_sphere_observation,
)

from oracles import (
    directivity_matrix,
    harmonic_plane_wave_observations,
    harmonic_point_source_observations,
    harmonic_rigid_sphere_observation,
    mixed_mics,
    observe_coeffs,
    singular_swf_matrix,
    sph_hn,
    sph_jn,
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
    mic = Mics([0.3, -0.2, 0.5])
    assert observe_plane_wave(mic, x, k) == pytest.approx(
        wf.plane_wave(mic.pos, x, k)[0], rel=1e-12
    )


def test_bidirectional_is_normalized_gradient():
    # Bidirectional output = (1/(ik)) d/dy u at the mic, axis y
    k, h = 3.0, 1e-6
    x = _unit([0.4, -0.3, 0.8])
    axis = _unit([1.0, 2.0, -0.5])
    pos = np.array([0.1, 0.2, -0.3])
    mic = Mics(pos, "bidirectional", axis)
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
    omni = observe_plane_wave(Mics(pos), x, k)
    bid = observe_plane_wave(Mics(pos, "bidirectional", axis), x, k)
    fo = observe_plane_wave(Mics(pos, "first_order", axis, a), x, k)
    assert fo == pytest.approx(a * omni + (1 - a) * bid, rel=1e-12)


def test_point_source_observation_fd():
    k, h = 5.0, 1e-6
    src = np.array([2.0, 0.5, -1.0])
    axis = _unit([0.0, 0.0, 1.0])
    pos = np.array([0.1, -0.1, 0.2])
    mic = Mics(pos, "bidirectional", axis)
    fd = (
        wf.green((pos + h * axis)[None], src, k)[0]
        - wf.green((pos - h * axis)[None], src, k)[0]
    ) / (2 * h)
    assert observe_point_source(mic, src, k) == pytest.approx(fd / (-1j * k), rel=1e-7)


def test_observe_coeffs_matches_plane_wave():
    # Truncated-expansion observation converges to the closed-form observation
    k = 3.0
    x = _unit([1.0, -1.0, 0.5])
    mic = Mics([0.2, 0.3, -0.1], "first_order", _unit([1.0, 0.0, 1.0]), 0.5)
    cset = wf.plane_wave_coeffs(25, x)
    assert observe_coeffs(mic, cset, k)[0] == pytest.approx(
        observe_plane_wave(mic, x, k), rel=1e-10
    )


@pytest.mark.parametrize("kinds", [("omni", "bidirectional", "first_order"),
                                   ("bidirectional",)])
def test_closed_form_observations_match_harmonic_route(kinds):
    # Tilted axes and one a per mic, against the directivity-coefficient
    # route: Yhat^* for a plane wave, singular wave functions for a source.
    rng = np.random.default_rng(8)
    mics = mixed_mics(rng, 12, kinds=kinds)
    src = np.array([1.3, -0.8, 0.6])
    for k in (0.5, 3.0, 9.0):
        x = _unit(rng.normal(size=3))
        pw = harmonic_plane_wave_observations(mics, x, k)
        ps = harmonic_point_source_observations(mics, src, k)
        assert np.max(np.abs(plane_wave_observations(mics, x, k) - pw)) <= 1e-14 * np.max(
            np.abs(pw))
        assert np.max(np.abs(point_source_observations(mics, src, k) - ps)) <= 1e-14 * np.max(
            np.abs(ps))


# ---------------------------------------------------------------------------
# Rigid-sphere observation
# ---------------------------------------------------------------------------

def test_array_observations_match_per_mic():
    # A mixed array pads omni mics with zero degree-1 coefficients.
    rng = np.random.default_rng(3)
    kinds = ("omni", "bidirectional", "first_order") * 3
    pos, axes = np.zeros((9, 3)), np.zeros((9, 3))
    for m, kind in enumerate(kinds):
        pos[m] = 0.4 * rng.normal(size=3)
        if kind != "omni":
            axes[m] = rng.normal(size=3)
    mics = Mics(pos, kinds, axes, 0.3)
    k = 5.0
    x = _unit([0.2, -0.4, 0.9])
    src = np.array([1.3, -0.8, 0.6])
    pw = plane_wave_observations(mics, x, k)
    ps = point_source_observations(mics, src, k)
    D, order = directivity_matrix(mics)
    assert order == 1
    for m in range(9):
        mic = Mics(pos[m], kinds[m], axes[m], 0.3)
        assert pw[m] == pytest.approx(observe_plane_wave(mic, x, k), rel=1e-14, abs=1e-15)
        assert ps[m] == pytest.approx(observe_point_source(mic, src, k), rel=1e-14)
        # directivity_matrix rows are each mic's own coefficients, zero-padded
        d = directivity_matrix(mic)[0][0]
        assert np.array_equal(D[m, : d.size], d) and not D[m, d.size:].any()


def test_mics_map_each_kind_to_its_weight_and_axis():
    pos = np.array([[0.1, 0.0, 0.0], [0.0, 0.2, 0.0], [0.0, 0.0, 0.3]])
    axis = np.array([0.0, 3.0, 4.0])
    # one kind, axis and weight for every mic
    omni = Mics(pos)
    assert np.array_equal(omni.pos, pos) and len(omni) == 3
    assert np.array_equal(omni.a, np.ones(3)) and not omni.axes.any() and not omni.b.any()
    bid = Mics(pos, "bidirectional", axis)
    assert np.array_equal(bid.a, np.zeros(3))
    assert np.array_equal(bid.axes, np.tile([0.0, 0.6, 0.8], (3, 1)))
    assert np.array_equal(bid.b, bid.axes)
    first = Mics(pos, "first_order", axis, 0.25)
    assert np.array_equal(first.a, np.full(3, 0.25))
    assert np.array_equal(first.b, 0.75 * bid.axes)
    # one kind, axis and weight per mic; a mic ignores what its kind does not take
    mixed = Mics(pos, ["omni", "bidirectional", "first_order"],
                 [[9.0, 9.0, 9.0], [2.0, 0.0, 0.0], [0.0, 0.0, -5.0]], [0.9, 0.9, 0.4])
    assert np.array_equal(mixed.a, [1.0, 0.0, 0.4])
    assert np.array_equal(mixed.axes, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    assert np.array_equal(mixed.b, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -(1 - 0.4)]])


@pytest.mark.parametrize("kwargs, message", [
    ({"kind": "bidirectional"}, "bidirectional microphone requires an axis"),
    ({"kind": ["omni", "first_order"], "a": 0.5}, "first_order microphone requires an axis"),
    ({"kind": "first_order", "axes": [0, 0, 1]}, "requires mixing weight a"),
    ({"kind": ["omni", "cardioid"]}, "unknown microphone kind 'cardioid'"),
    ({"kind": "bidirectional", "axes": [[0, 0, 1], [0, 0, 0]]}, "squared norm"),
    ({"kind": "bidirectional", "axes": [1e-200, 0, 0]}, "squared norm"),
    ({"kind": "bidirectional", "axes": [1e300, 1e300, 0]}, "squared norm"),
    # a NaN position gave kernel_matrix a silent NaN Gram matrix
    ({"pos": [[0.1, 0.0, 0.0], [0.0, np.nan, 0.0]]}, "^pos must be finite"),
    ({"pos": [[np.inf, 0.0, 0.0], [0.0, 0.1, 0.0]], "kind": "bidirectional", "axes": [0, 0, 1]},
     "^pos must be finite"),
    ({"kind": "first_order", "axes": [0, 0, 1], "a": [0.5, np.nan]}, "^a must be finite"),
    ({"kind": ["omni", "first_order"], "axes": [0, 0, 1], "a": -np.inf}, "^a must be finite"),
])
def test_mics_reject_a_missing_or_unusable_axis_or_weight(kwargs, message):
    with pytest.raises(ValueError, match=message):
        Mics(**{"pos": [[0.1, 0.0, 0.0], [0.0, 0.1, 0.0]], **kwargs})


def test_mics_axes_round_as_per_mic_norm():
    # each axis is divided by sqrt(y . y) of its own row, which rounds as
    # np.linalg.norm(y) does; an axis=1 norm changes the last bit on t = 7
    rng = np.random.default_rng(12)
    scaled = rng.normal(size=(5000, 3)) * rng.uniform(1e-5, 1e5, size=(5000, 1))
    for y in [load_t_design(t) for t in (2, 3, 5, 7)] + [rng.normal(size=(5000, 3)), scaled]:
        want = np.array([v / np.linalg.norm(v) for v in y])
        assert np.array_equal(Mics(y, "first_order", y, 0.5).axes, want)


def test_rigid_sphere_radial_velocity_vanishes():
    # Total field on a rigid sphere has zero radial derivative: check via
    # the radial response against the analytic dual form built from the
    # Wronskian identity.
    from soundfield.boundary import radial_response

    kR = 2.3
    order = 6
    A = radial_response("rigid", order, kR)
    jn = np.array([sph_jn(nu, kR) for nu in range(order + 1)])
    jp = np.array([sf.sph_jn_all(nu, kR, derivative=True)[nu] for nu in range(order + 1)])
    hn = np.array([sph_hn(nu, kR) for nu in range(order + 1)])
    hp = np.array([sph_hn(nu, kR, derivative=True) for nu in range(order + 1)])
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
    cset = wf.plane_wave_coeffs(order, x)
    dirs = load_t_design(5)
    s = harmonic_rigid_sphere_observation(cset.coeffs, order, dirs, k, radius)
    # Independent oracle: incident j_nu mode plus scattered h_nu mode with
    # the scattering coefficient fixed by the zero-radial-velocity condition.
    nus, _ = sf.degrees_orders(order)
    Y = sf.sph_harm_matrix(order, dirs)
    kR = k * radius
    radial = np.array(
        [
            (1j ** (-int(nu)))
            * (
                sph_jn(int(nu), kR)
                - sf.sph_jn_all(int(nu), kR, derivative=True)[int(nu)]
                / sph_hn(int(nu), kR, derivative=True)
                * sph_hn(int(nu), kR)
            )
            for nu in nus
        ]
    )
    expected = Y @ (radial * cset.coeffs)
    assert np.max(np.abs(s - expected)) <= 1e-10 * np.max(np.abs(expected))


@pytest.mark.parametrize("t", [5, 7])
@pytest.mark.parametrize("field", ["plane_wave", "point_source"])
def test_rigid_sphere_legendre_series_matches_harmonic_route(t, field):
    # Incident coefficients g_nu Yhat_{nu,mu}(x0)^* summed over orders by the
    # addition theorem give the same pressure as the degree-by-degree route.
    rng = np.random.default_rng(t)
    dirs = load_t_design(t)
    for radius in (0.5, 1.0, 1.5):
        for f in (100.0, 400.0, 1000.0):
            k = 2.0 * np.pi * f / 340.65
            order = int(np.ceil(k * radius)) + 20
            axis = _unit(rng.normal(size=3))
            nu = np.arange(order + 1)
            if field == "plane_wave":
                g, coeffs = np.ones(order + 1), wf.plane_wave_coeffs(order, axis).coeffs
            else:
                src = rng.uniform(1.2, 3.0) * radius * axis
                g = (1j * k / (4 * np.pi)) * 1j ** nu.astype(float) * sph_hn(
                    nu, k * np.linalg.norm(src))
                coeffs = singular_swf_matrix(order, src, k)
            s = rigid_sphere_observation(g, axis, dirs, k, radius)
            expected = harmonic_rigid_sphere_observation(coeffs, order, dirs, k, radius)
            assert np.max(np.abs(s - expected)) <= 1e-12 * np.max(np.abs(expected))


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


def _spherical_mics(**array):
    """The mics the config parser builds for the spherical `array` form."""
    return ScenarioConfig.from_dict({
        "estimator": "DM-infinite", "frequencies": [100.0], "directivity_a": 0.4,
        "array": {"type": "spherical", **array}}).array.mics


def test_spherical_array_geometry():
    mics = _spherical_mics(t=5, radius=0.8)
    assert len(mics) == 12
    assert np.allclose(np.linalg.norm(mics.pos, axis=1), 0.8, atol=1e-12)
    assert np.array_equal(mics.a, np.ones(12)) and not mics.axes.any()
    mics = _spherical_mics(t=5, radius=0.8, kind="first_order")
    assert np.array_equal(mics.a, np.full(12, 0.4))
    # unit axes pointing outward
    assert np.allclose(mics.axes, mics.pos / 0.8, atol=1e-12)
    assert np.allclose(np.linalg.norm(mics.axes, axis=1), 1.0, atol=1e-15)


def test_rigid_mount_requires_omni():
    with pytest.raises(ConfigError,
                       match="array.kind: the rigid mount models omni mics only, not 'first_order'"):
        _spherical_mics(t=3, mount="rigid", kind="first_order")


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


@pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), float("-inf")])
def test_noise_std_rejects_a_snr_that_is_not_finite(snr_db):
    # nan gave nan, inf 0.0 and -inf inf, without a word
    with pytest.raises(ValueError, match="snr_db"):
        noise_std(np.ones(4, dtype=complex), snr_db)
