"""Microphone observation models and array configurations.

A microphone is a linear functional of the sound field.  Supported kinds:

* ``omni``: pressure at the position, ``F u = u(r0)``.
* ``bidirectional``: axial particle-velocity pickup,
  ``F u = (i/k) y . grad u(r0)`` for unit axis ``y``.
* ``first_order``: mixture ``F u = a u(r0) + (1-a) (i/k) y . grad u(r0)``.

Every kind is equivalently described by directivity coefficients
``d_{nu,mu}`` of degree at most 1 such that
``F u = sum d_{nu,mu}^* u_{nu,mu}(r0)`` where ``u_{nu,mu}(r0)`` are the
regular-expansion coefficients of the field about the microphone position.
"""

from __future__ import annotations

import importlib.resources
import json
import math
from dataclasses import dataclass

import numpy as np

from .specfun import sph_harm_matrix
from .wavefuncs import singular_swf_matrix, translate_coeffs

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

    def directivity_coeffs(self):
        """Directivity coefficients d_{nu,mu}, flat layout up to self.order."""
        if self.kind == "omni":
            return np.array([1.0 + 0.0j])
        d = np.zeros(4, dtype=complex)
        y1 = sph_harm_matrix(1, self.axis).conj()[1:4]
        if self.kind == "bidirectional":
            d[1:4] = y1 / 3.0
        else:
            d[0] = self.a
            d[1:4] = (1.0 - self.a) * y1 / 3.0
        return d

    def gamma_conj(self, x):
        """Response gamma(x)^* to a unit plane wave arriving from direction x.

        ``F e^{-ik x.r} = gamma(x)^* e^{-ik x.r0}``; for the supported kinds
        gamma is real: 1 (omni), ``y.x`` (bidirectional) and
        ``a + (1-a) y.x`` (first_order).
        """
        x = np.asarray(x, dtype=float)
        d = self.directivity_coeffs()
        Y = sph_harm_matrix(self.order, x)
        return Y.conj() @ d.conj()


def observe_coeffs(mic, cset, k):
    """Apply the microphone functional to a field given as a coefficient set."""
    local = translate_coeffs(cset, mic.pos, k, order_out=mic.order)
    d = mic.directivity_coeffs()
    return complex(d.conj() @ local.coeffs)


def observe_plane_wave(mic, x_inc, k):
    """Exact observation of a unit plane wave arriving from direction x_inc."""
    x_inc = np.asarray(x_inc, dtype=float)
    phase = np.exp(-1j * k * float(x_inc @ mic.pos))
    return complex(mic.gamma_conj(x_inc) * phase)


def observe_point_source(mic, r_src, k):
    """Exact observation of a free-field point source at r_src.

    Uses the partial-wave expansion of the Green's function about the
    microphone position: the local regular coefficients are the singular
    wave functions evaluated at ``r_src - r0``.
    """
    psi = singular_swf_matrix(mic.order, np.asarray(r_src, float) - mic.pos, k)
    d = mic.directivity_coeffs()
    return complex(d.conj() @ psi)


# ---------------------------------------------------------------------------
# Rigid-sphere array observation
# ---------------------------------------------------------------------------

def rigid_sphere_observation(coeffs, order, dirs, k, radius):
    """Pressure on a rigid sphere for an incident field with given coefficients.

    The incident field ``sum alpha phi_{nu,mu}(r)`` (expansion about the
    sphere center) is scattered by a rigid sphere of the given radius; the
    total pressure at surface points ``radius * dirs`` is

        sum_{nu,mu} alpha_{nu,mu} i^{-nu} (i / ((kR)^2 h_nu'(kR))) Yhat_{nu,mu}(x)

    which follows from the Neumann condition and the Wronskian of j and h.
    """
    from .specfun import degrees_orders, sph_hn

    coeffs = np.asarray(coeffs, dtype=complex)
    nu, _ = degrees_orders(order)
    kR = k * radius
    hp = sph_hn(np.arange(order + 1), kR, derivative=True)
    radial = (1j ** (-nu.astype(float))) * (1j / (kR**2 * hp[nu]))
    Y = sph_harm_matrix(order, np.asarray(dirs, dtype=float))
    return Y @ (radial * coeffs)


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

    def to_json(self):
        mics = []
        for m in self.mics:
            entry = {"pos": [float(v) for v in m.pos], "kind": m.kind}
            if m.axis is not None:
                entry["y"] = [float(v) for v in m.axis]
            if m.a is not None:
                entry["a"] = float(m.a)
            mics.append(entry)
        obj = {"mount": self.mount, "mics": mics}
        if self.radius is not None:
            obj["radius"] = self.radius
        return json.dumps(obj, indent=2)

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        mics = [
            Microphone(
                pos=entry["pos"],
                kind=entry.get("kind", "omni"),
                axis=entry.get("y"),
                a=entry.get("a"),
            )
            for entry in obj["mics"]
        ]
        return cls(mount=obj["mount"], mics=mics, radius=obj.get("radius"))


def load_t_design(t):
    """Load an embedded spherical t-design; returns unit vectors (M, 3)."""
    names = {2: "tdesign_t2_m4.txt", 3: "tdesign_t3_m6.txt",
             5: "tdesign_t5_m12.txt", 7: "tdesign_t7_m64.txt"}
    if t not in names:
        raise ValueError(f"no embedded design for t={t}; have {sorted(names)}")
    ref = importlib.resources.files("soundfield.data").joinpath(names[t])
    rows = [
        [float(v) for v in line.split()]
        for line in ref.read_text().splitlines()
        if line.strip()
    ]
    return np.asarray(rows)


def spherical_array(t, radius, mount="open", kind="omni", a=None, outward_axes=True):
    """Array on a spherical t-design of the given radius.

    Directional microphones are oriented along the outward radial direction
    when `outward_axes` is true.
    """
    dirs = load_t_design(t)
    mics = []
    for x in dirs:
        axis = x if (kind != "omni" and outward_axes) else None
        mics.append(Microphone(pos=radius * x, kind=kind, axis=axis, a=a))
    return ArrayConfig(
        mount=mount, mics=mics, radius=radius if mount == "rigid" else None
    )


# ---------------------------------------------------------------------------
# Measurement noise
# ---------------------------------------------------------------------------

def add_noise(signals, snr_db, rng):
    """Add circular complex Gaussian noise at the given array-average SNR.

    The common noise variance is ``10**(-snr_db/10)`` times the mean squared
    magnitude of the clean signals.
    """
    signals = np.asarray(signals, dtype=complex)
    power = float(np.mean(np.abs(signals) ** 2))
    var = 10.0 ** (-snr_db / 10.0) * power
    noise = math.sqrt(var / 2.0) * (
        rng.standard_normal(signals.shape) + 1j * rng.standard_normal(signals.shape)
    )
    return signals + noise
