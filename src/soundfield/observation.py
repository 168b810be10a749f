"""Microphone observation models and array configurations.

A microphone is a linear functional of the sound field.  Supported kinds:

* ``omni``: pressure at the position, ``F u = u(r0)``.
* ``bidirectional``: axial particle-velocity pickup,
  ``F u = (i/k) y . grad u(r0)`` for unit axis ``y``.
* ``first_order``: mixture ``F u = a u(r0) + (1-a) (i/k) y . grad u(r0)``.

Every kind is ``F u = a u(r0) + (i/k) b . grad u(r0)`` with ``b = (1-a) y``
(:func:`mic_functionals`), which gives free-field observations in closed
form, or ``F u = sum d_{nu,mu}^* u_{nu,mu}(r0)`` with directivity coefficients
of degree <= 1 (:func:`directivity_matrix`), ``u_{nu,mu}(r0)`` being the
field's regular-expansion coefficients about the microphone position.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass

import numpy as np

from .specfun import degrees_orders, num_coeffs, sph_harm_matrix, sph_hn_all
from .wavefuncs import green

MIC_KINDS = ("omni", "bidirectional", "first_order")


@dataclass
class Microphone:
    """A single microphone: position, pickup kind and orientation."""

    pos: np.ndarray
    kind: str = "omni"
    axis: np.ndarray | None = None
    a: float | None = None

    def __post_init__(self):
        self.pos = np.asarray(self.pos, dtype=float).reshape(3)
        if self.kind not in MIC_KINDS:
            raise ValueError(f"unknown microphone kind {self.kind!r}")
        if self.kind != "omni":
            if self.axis is None:
                raise ValueError(f"{self.kind} microphone requires an axis")
            self.axis = np.asarray(self.axis, dtype=float).reshape(3)
            self.axis = self.axis / np.linalg.norm(self.axis)
        if self.kind == "first_order":
            if self.a is None:
                raise ValueError("first_order microphone requires mixing weight a")
            self.a = float(self.a)

    @property
    def order(self):
        """Degree of the directivity expansion (0 for omni, else 1)."""
        return 0 if self.kind == "omni" else 1


def mic_functionals(mics):
    """Every mic as ``F u = a u(r_m) + (i/k) b . grad u(r_m)``.

    Returns ``(pos, a, b)`` of shapes (M, 3), (M,) and (M, 3): `a` is 1 for
    an omni mic, 0 for a bidirectional one and the mic's own weight for a
    first-order one, and ``b = (1 - a) y`` for axis y (0 for omni).
    """
    pos = np.array([mic.pos for mic in mics])
    a = np.array([{"omni": 1.0, "bidirectional": 0.0}.get(mic.kind, mic.a) for mic in mics])
    axes = np.array([np.zeros(3) if mic.kind == "omni" else mic.axis for mic in mics])
    return pos, a, (1.0 - a)[:, None] * axes


def directivity_matrix(mics):
    """Directivity coefficients of all mics, zero-padded to a common degree.

    Returns ``(D, order)`` with ``D[m]`` the flat coefficients of mic m up to
    the largest microphone degree ``order``: ``d_{0,0} = a`` and, for a
    directional mic with axis y, ``d_{1,mu} = (1 - a) Yhat_{1,mu}(y)^* / 3``
    (`a` as in :func:`mic_functionals`).
    """
    order = max(mic.order for mic in mics)
    D = np.zeros((len(mics), num_coeffs(order)), dtype=complex)
    _, a, _ = mic_functionals(mics)
    D[:, 0] = a
    directional = np.flatnonzero([mic.kind != "omni" for mic in mics])
    if directional.size:
        y1 = sph_harm_matrix(1, np.array([mics[m].axis for m in directional])).conj()[:, 1:4]
        D[directional, 1:4] = (1.0 - a[directional, None]) * y1 / 3.0
    return D, order


def plane_wave_observations(mics, x_inc, k):
    """Exact observations of a unit plane wave arriving from direction x_inc.

    The wave ``u = e^{-ik x_inc . r}`` has ``(i/k) grad u = x_inc u``, so mic m
    observes ``(a_m + b_m . x_inc) e^{-ik x_inc . r_m}``; shape (M,).
    """
    x_inc = np.asarray(x_inc, dtype=float)
    pos, a, b = mic_functionals(mics)
    return (a + b @ x_inc) * np.exp(-1j * k * (pos @ x_inc))


def point_source_observations(mics, r_src, k):
    """Exact observations of a free-field point source at r_src; shape (M,).

    With ``d = r_m - r_src``, the Green's function G has
    ``(i/k) grad G = -(1 + i/(k|d|)) G d/|d|``, so mic m observes
    ``G (a_m - (1 + i/(k|d|)) b_m . d/|d|)``.
    """
    pos, a, b = mic_functionals(mics)
    d = pos - np.asarray(r_src, dtype=float)
    dist = np.linalg.norm(d, axis=-1)
    b_d = np.einsum("mi,mi->m", b, d) / dist
    return green(pos, r_src, k) * (a - (1.0 + 1j / (k * dist)) * b_d)


def observe_plane_wave(mic, x_inc, k):
    """Exact observation of a unit plane wave arriving from direction x_inc."""
    return complex(plane_wave_observations([mic], x_inc, k)[0])


def observe_point_source(mic, r_src, k):
    """Exact observation of a free-field point source at r_src."""
    return complex(point_source_observations([mic], r_src, k)[0])


# ---------------------------------------------------------------------------
# Rigid-sphere array observation
# ---------------------------------------------------------------------------

def rigid_sphere_observation(coeffs, order, dirs, k, radius, harmonics=None):
    """Pressure on a rigid sphere for an incident field with given coefficients.

    The incident field ``sum alpha phi_{nu,mu}(r)`` (expansion about the
    sphere center) is scattered by a rigid sphere of the given radius; the
    total pressure at surface points ``radius * dirs`` is

        sum_{nu,mu} alpha_{nu,mu} i^{-nu} (i / ((kR)^2 h_nu'(kR))) Yhat_{nu,mu}(x)

    which follows from the Neumann condition and the Wronskian of j and h.
    `harmonics`, if given, is ``sph_harm_matrix(N, dirs)`` for some
    ``N >= order``; its leading columns are the order-`order` set, so a sweep
    over frequencies computes it once.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    nu, _ = degrees_orders(order)
    kR = k * radius
    hp = sph_hn_all(order, kR, derivative=True)
    radial = (1j ** (-nu.astype(float))) * (1j / (kR**2 * hp[nu]))
    if harmonics is None:
        harmonics = sph_harm_matrix(order, np.asarray(dirs, dtype=float))
    return harmonics[..., : num_coeffs(order)] @ (radial * coeffs)


# ---------------------------------------------------------------------------
# Array configuration
# ---------------------------------------------------------------------------

@dataclass
class ArrayConfig:
    """A microphone array: mounting type plus the individual microphones.

    ``mount`` is ``"open"`` (free-field microphones) or ``"rigid"`` (omni
    pressure sensors flush on a rigid sphere of radius `radius` centered at
    the origin; all positions must then lie on that sphere).
    """

    mount: str
    mics: list
    radius: float | None = None

    def __post_init__(self):
        if self.mount not in ("open", "rigid"):
            raise ValueError(f"unknown mount {self.mount!r}")
        if not self.mics:
            raise ValueError("needs at least one microphone")
        if self.mount == "rigid":
            if self.radius is None:
                raise ValueError("rigid mount requires a radius")
            self.radius = float(self.radius)
            for m in self.mics:
                if m.kind != "omni":
                    raise ValueError("rigid mount supports omni microphones only")
                if abs(np.linalg.norm(m.pos) - self.radius) > 1e-9 * max(
                    1.0, self.radius
                ):
                    raise ValueError(
                        "rigid-mount microphones must lie on the sphere surface"
                    )

    @property
    def positions(self):
        return np.array([m.pos for m in self.mics])


# The embedded spherical t-designs: t -> data file.
T_DESIGNS = {2: "tdesign_t2_m4.txt", 3: "tdesign_t3_m6.txt",
             5: "tdesign_t5_m12.txt", 7: "tdesign_t7_m64.txt"}


def load_t_design(t):
    """Load an embedded spherical t-design; returns unit vectors (M, 3)."""
    if t not in T_DESIGNS:
        raise ValueError(f"no embedded design for t={t}; have {sorted(T_DESIGNS)}")
    ref = importlib.resources.files("soundfield.data").joinpath(T_DESIGNS[t])
    rows = [
        [float(v) for v in line.split()]
        for line in ref.read_text().splitlines()
        if line.strip()
    ]
    return np.asarray(rows)


def spherical_array(t, radius, mount="open", kind="omni", a=None):
    """Array on a spherical t-design of the given radius.

    Directional microphones are oriented along the outward radial direction.
    """
    dirs = load_t_design(t)
    mics = []
    for x in dirs:
        axis = x if kind != "omni" else None
        mics.append(Microphone(pos=radius * x, kind=kind, axis=axis, a=a))
    return ArrayConfig(
        mount=mount, mics=mics, radius=radius if mount == "rigid" else None
    )


# ---------------------------------------------------------------------------
# Measurement noise
# ---------------------------------------------------------------------------

def noise_std(signals, snr_db):
    """Standard deviation per real component of the noise at the given SNR.

    The common noise variance is ``10**(-snr_db/10)`` times the mean squared
    magnitude of the clean signals.
    """
    power = float(np.mean(np.abs(signals) ** 2))
    var = 10.0 ** (-snr_db / 10.0) * power
    return math.sqrt(var / 2.0)


def unit_noise(shape, rng):
    """Standard complex Gaussian draws: all real parts, then all imaginary parts."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def add_noise(signals, snr_db, rng):
    """Add circular complex Gaussian noise at the given array-average SNR."""
    signals = np.asarray(signals, dtype=complex)
    return signals + noise_std(signals, snr_db) * unit_noise(signals.shape, rng)
