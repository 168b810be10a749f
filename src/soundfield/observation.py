"""Mic observation models and array configurations.

A microphone is a linear functional of the sound field.  Supported kinds:

* ``omni``: pressure at the position, ``F u = u(r0)``.
* ``bidirectional``: axial particle-velocity pickup,
  ``F u = (i/k) y . grad u(r0)`` for unit axis ``y``.
* ``first_order``: mixture ``F u = a u(r0) + (1-a) (i/k) y . grad u(r0)``.

Every kind is ``F u = a u(r0) + (i/k) b . grad u(r0)`` with ``b = (1-a) y``
(an array's ``(pos, a, b)`` are the arrays of :class:`Mics`), which gives
free-field observations in closed form.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass

import numpy as np

from .boundary import radial_response
from .specfun import legendre_all
from .wavefuncs import green

MIC_KINDS = ("omni", "bidirectional", "first_order")


class Mics:
    """An array's mics as arrays: ``F_m u = a_m u(r_m) + (i/k) b_m . grad u(r_m)``.

    `pos` (M, 3) holds the positions; `a` (M,) the omni weights: 1 for
    omni, 0 for bidirectional and the mic's own for first-order; `axes`
    (M, 3) the unit axes, 0 for omni; and ``b = (1 - a) axes`` (M, 3).

    This constructor is the one place that maps a mic kind to its weight
    and axis.  `kind` is one kind for every mic or one per mic.  `axes`,
    (3,) or (M, 3), is required when a mic is directional, and `a`, a
    number or (M,), when one is first-order; a mic ignores what its kind
    does not take.  Each axis is divided by the square root of its own dot
    product, which rounds as ``np.linalg.norm`` of that row does.  A
    non-finite position or omni weight raises a ValueError naming `pos` or `a`.
    """

    def __init__(self, pos, kind="omni", axes=None, a=None):
        self.pos = np.array(pos, dtype=float).reshape(-1, 3)
        kind = np.broadcast_to(np.asarray(kind, dtype=str), len(self.pos))
        unknown = np.isin(kind, MIC_KINDS, invert=True)
        if unknown.any():
            raise ValueError(f"unknown microphone kind {str(kind[unknown][0])!r}")
        directional, first = kind != "omni", kind == "first_order"
        if directional.any() and axes is None:
            raise ValueError(f"{kind[directional][0]} microphone requires an axis")
        if first.any() and a is None:
            raise ValueError("first_order microphone requires mixing weight a")
        self.a = np.where(directional, 0.0, 1.0)
        self.a[first] = np.broadcast_to(np.asarray(a, dtype=float), kind.shape)[first]
        for name, v in (("pos", self.pos), ("a", self.a)):
            if not np.isfinite(v).all():
                raise ValueError(f"{name} must be finite, got {float(v[~np.isfinite(v)][0])!r}")
        self.axes = np.zeros_like(self.pos)
        if directional.any():
            y = np.broadcast_to(np.asarray(axes, dtype=float), self.pos.shape)[directional]
            with np.errstate(over="ignore"):
                sq = np.matmul(y[:, None, :], y[:, :, None])[:, 0, 0]
            if not np.all((sq > 0.0) & (sq < np.inf)):
                raise ValueError("a directional microphone's axis must have a squared "
                                 "norm above 0 and finite")
            self.axes[directional] = y / np.sqrt(sq)[:, None]
        self.b = (1.0 - self.a)[:, None] * self.axes

    def __len__(self):
        return len(self.pos)


def plane_wave_observations(mics, x_inc, k):
    """Exact observations of a unit plane wave arriving from direction x_inc.

    The wave ``u = e^{-ik x_inc . r}`` has ``(i/k) grad u = x_inc u``, so mic m
    observes ``(a_m + b_m . x_inc) e^{-ik x_inc . r_m}``; shape (M,).
    """
    x_inc = np.asarray(x_inc, dtype=float)
    return (mics.a + mics.b @ x_inc) * np.exp(-1j * k * (mics.pos @ x_inc))


def point_source_observations(mics, r_src, k):
    """Exact observations of a free-field point source at r_src; shape (M,).

    With ``d = r_m - r_src``, the Green's function G has
    ``(i/k) grad G = -(1 + i/(k|d|)) G d/|d|``, so mic m observes
    ``G (a_m - (1 + i/(k|d|)) b_m . d/|d|)``.
    """
    d = mics.pos - np.asarray(r_src, dtype=float)
    dist = np.linalg.norm(d, axis=-1)
    b_d = np.einsum("mi,mi->m", mics.b, d) / dist
    return green(mics.pos, r_src, k) * (mics.a - (1.0 + 1j / (k * dist)) * b_d)


def observe_plane_wave(mic, x_inc, k):
    """Exact observation of a unit plane wave by the one-mic :class:`Mics` `mic`."""
    return complex(plane_wave_observations(mic, x_inc, k)[0])


def observe_point_source(mic, r_src, k):
    """Exact observation of a free-field point source by the one-mic :class:`Mics` `mic`."""
    return complex(point_source_observations(mic, r_src, k)[0])


# ---------------------------------------------------------------------------
# Rigid-sphere array observation
# ---------------------------------------------------------------------------

def rigid_sphere_observation(g, axis, dirs, k, radius):
    """Pressure on a rigid sphere at surface points ``radius * dirs`` for an
    incident field axisymmetric about the unit vector `axis`.

    The incident field's coefficients about the sphere center are
    ``g_nu Yhat_{nu,mu}(axis)^*`` for nu = 0..len(g)-1.  The Neumann condition
    and the Wronskian of j and h scale degree nu of the total pressure by
    the rigid :func:`radial_response` ``i^{-nu} i / ((kR)^2 h_nu'(kR))``,
    and the addition theorem sums its orders, so the pressure is

        sum_nu (2nu+1) g_nu i^{-nu} (i / ((kR)^2 h_nu'(kR))) P_nu(x . axis).
    """
    order = len(g) - 1
    nu = np.arange(order + 1)
    radial = radial_response("rigid", order, k * radius)
    cos = np.clip(np.asarray(dirs, dtype=float) @ np.asarray(axis, dtype=float), -1.0, 1.0)
    return ((2 * nu + 1) * radial * np.asarray(g, dtype=complex)) @ legendre_all(order, cos)


# ---------------------------------------------------------------------------
# Array configuration
# ---------------------------------------------------------------------------

@dataclass
class ArrayConfig:
    """A microphone array: mounting type plus its :class:`Mics`.

    ``mount`` is ``"open"`` (free-field microphones) or ``"rigid"`` (omni
    pressure sensors flush on a rigid sphere of radius `radius` centered at
    the origin, on whose surface all positions lie).
    """

    mount: str
    mics: Mics
    radius: float | None = None


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


# ---------------------------------------------------------------------------
# Measurement noise
# ---------------------------------------------------------------------------

def noise_std(signals, snr_db):
    """Standard deviation per real component of the noise at the given SNR.

    The common noise variance is ``10**(-snr_db/10)`` times the mean squared
    magnitude of the clean signals.  A snr_db that is not finite raises ValueError.
    """
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db!r}")
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
