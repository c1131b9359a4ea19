"""Hapke reflectance, solar illumination, and shading of terrain points.

The reflectance is the IMSA single-lobe Henyey-Greenstein form without
macroscopic roughness, expressed as a reciprocal BRDF:

    f = (w / 4pi) / (mu0 + mu) * [(1 + B(g)) P(g) + H(mu0) H(mu) - 1]

with the shadow-hiding opposition surge B(g) = B0 / (1 + tan(g/2) / h_opp),
phase function P(g) = (1 - xi^2) / (1 + 2 xi cos g + xi^2)^(3/2), and the
rational Chandrasekhar approximation H(x) = (1 + 2x) / (1 + 2x sqrt(1 - w)).
Outgoing radiance is irradiance * mu0 * f; albedo is spatially constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import _heightfield
from .terrain import DemGrid


@dataclass(frozen=True)
class HapkeParams:
    """Photometric parameters of the regolith reflectance model."""

    w: float = 0.25       # single-scattering albedo, (0, 1]
    B0: float = 1.0       # opposition-surge amplitude, finite and >= 0
    h_opp: float = 0.05   # opposition angular width, finite and > 0
    xi: float = -0.25     # Henyey-Greenstein asymmetry, (-1, 1); < 0 backscatters

    def __post_init__(self):
        if not 0 < self.w <= 1:
            raise ValueError("w must be in (0, 1]")
        if not 0 <= self.B0 < math.inf:
            raise ValueError("B0 must be finite and >= 0")
        if not 0 < self.h_opp < math.inf:
            raise ValueError("h_opp must be finite and > 0")
        if not -1 < self.xi < 1:
            raise ValueError("xi must be in (-1, 1)")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "HapkeParams":
        return cls(w=d["w"], B0=d["B0"], h_opp=d["h_opp"], xi=d["xi"])


@dataclass(frozen=True)
class SunConfig:
    """Solar direction (compass azimuth, elevation above horizon) and irradiance."""

    azimuth: float
    elevation: float
    irradiance: float = 1.0

    def __post_init__(self):
        if not 0 <= self.azimuth < 360:
            raise ValueError("azimuth must be in [0, 360)")
        if not 0 < self.elevation <= 90:
            raise ValueError("elevation must be in (0, 90]")
        if not 0 <= self.irradiance < math.inf:
            raise ValueError("irradiance must be finite and >= 0")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "SunConfig":
        return cls(azimuth=d["azimuth"], elevation=d["elevation"], irradiance=d["irradiance"])


def h_function(x, w):
    """Rational Chandrasekhar H-function approximation."""
    return (1 + 2 * np.asarray(x, dtype=np.float64)) / (1 + 2 * np.asarray(x) * math.sqrt(1 - w))


def opposition_surge(g, B0, h_opp):
    """Shadow-hiding opposition term B(g); B(0) = B0 exactly."""
    return B0 / (1 + np.tan(np.asarray(g, dtype=np.float64) / 2) / h_opp)


def phase_hg(g, xi):
    """Single-lobe Henyey-Greenstein phase function."""
    g = np.asarray(g, dtype=np.float64)
    return (1 - xi**2) / (1 + 2 * xi * np.cos(g) + xi**2) ** 1.5


def hapke_brdf(mu0, mu, g, params: HapkeParams):
    """Reflectance factor for cosine of incidence mu0, cosine of emission mu,
    phase angle g (radians).  Symmetric under swapping mu0 and mu."""
    mu0 = np.asarray(mu0, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if np.any(mu0 <= 0) or np.any(mu0 > 1) or np.any(mu <= 0) or np.any(mu > 1):
        raise ValueError("mu0 and mu must lie in (0, 1]")
    if np.any(g < 0) or np.any(g > np.pi):
        raise ValueError("phase angle must lie in [0, pi]")
    b = opposition_surge(g, params.B0, params.h_opp)
    p = phase_hg(g, params.xi)
    hh = h_function(mu0, params.w) * h_function(mu, params.w)
    # Reciprocal form: the incidence cosine is applied by the caller
    # (shade_points multiplies by mu0), keeping mu0 <-> mu symmetry exact.
    r = (params.w / (4 * np.pi)) / (mu0 + mu) * ((1 + b) * p + hh - 1)
    return float(r) if r.ndim == 0 else r


def sun_direction(cfg: SunConfig) -> np.ndarray:
    """Unit vector toward the sun; azimuth 0 = north (+y), clockwise to east."""
    a = math.radians(cfg.azimuth)
    e = math.radians(cfg.elevation)
    return np.array([math.cos(e) * math.sin(a), math.cos(e) * math.cos(a), math.sin(e)])


def shade_points(
    dem: DemGrid,
    points: np.ndarray,
    mu0: np.ndarray,
    mu: np.ndarray,
    view_dirs: np.ndarray,
    sun: SunConfig,
    params: HapkeParams,
    ceiling: np.ndarray,
) -> np.ndarray:
    """Radiance (relative units) leaving (N, 3) hit points toward the camera;
    mu0 and mu are the cosines of incidence and emission, each point's unit
    surface normal dotted with sun_direction(sun) and with its view
    direction, and view_dirs point from surface to camera.

    Zero where a point is shadowed, where the sun is below its facet's horizon
    (mu0 <= 0), or where the facet faces away from the camera (mu <= 0).
    ceiling is _heightfield.sun_ceiling(dem, sun_direction(sun)), which the
    shadow test reads.
    """
    points = np.asarray(points, dtype=np.float64)
    view_dirs = np.asarray(view_dirs, dtype=np.float64)
    if points.shape[0] == 0:
        return np.zeros(0)
    s = sun_direction(sun)
    facing = (mu0 > 0) & (mu > 0)
    lit = np.zeros(len(points), dtype=bool)
    if facing.any():
        lit[facing] = ~_heightfield.shadow_mask(dem, points[facing], s, ceiling)
    idx = np.flatnonzero(lit)
    radiance = np.zeros(len(points))
    if idx.size:
        # A unit normal's cosines can round above 1 on a facet facing the sun or camera.
        mu0_lit = np.minimum(mu0[idx], 1.0)
        g = np.arccos(np.clip(view_dirs[idx] @ s, -1.0, 1.0))
        radiance[idx] = sun.irradiance * mu0_lit * hapke_brdf(mu0_lit, np.minimum(mu[idx], 1.0), g, params)
    return radiance
