"""Hapke reflectance, solar illumination, and terrain shadow tests.

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
from .terrain import DemGrid, surface_normal


@dataclass(frozen=True)
class HapkeParams:
    """Photometric parameters of the regolith reflectance model."""

    w: float = 0.25       # single-scattering albedo, (0, 1]
    B0: float = 1.0       # opposition-surge amplitude, >= 0
    h_opp: float = 0.05   # opposition angular width, > 0
    xi: float = -0.25     # Henyey-Greenstein asymmetry, (-1, 1); < 0 backscatters

    def __post_init__(self):
        if not 0 < self.w <= 1:
            raise ValueError("w must be in (0, 1]")
        if self.B0 < 0:
            raise ValueError("B0 must be >= 0")
        if self.h_opp <= 0:
            raise ValueError("h_opp must be > 0")
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
    # (_radiance multiplies by mu0), keeping mu0 <-> mu symmetry exact.
    r = (params.w / (4 * np.pi)) / (mu0 + mu) * ((1 + b) * p + hh - 1)
    return float(r) if r.ndim == 0 else r


def sun_direction(cfg: SunConfig) -> np.ndarray:
    """Unit vector toward the sun; azimuth 0 = north (+y), clockwise to east."""
    a = math.radians(cfg.azimuth)
    e = math.radians(cfg.elevation)
    return np.array([math.cos(e) * math.sin(a), math.cos(e) * math.cos(a), math.sin(e)])


def shadow_test(dem: DemGrid, point, sun_dir) -> bool:
    """True result means lit.  Marches a biased ray toward the sun with the
    heightfield traversal; shadowed iff it re-hits terrain before exiting."""
    sun_dir = np.asarray(sun_dir, dtype=np.float64)
    if sun_dir[2] <= 0:
        raise ValueError("sun must be above the horizon (sun_dir.z > 0)")
    shadowed = _heightfield.shadow_mask(dem, np.asarray(point, dtype=np.float64).reshape(1, 3), sun_dir)
    return not bool(shadowed[0])


def _cosines(normals, view_dirs, sun: SunConfig):
    """(mu0, mu): incidence and emission cosines of (N, 3) unit normals."""
    return normals @ sun_direction(sun), np.einsum("ij,ij->i", normals, view_dirs)


def _radiance(dem: DemGrid, points, mu0, mu, view_dirs, sun: SunConfig, params: HapkeParams):
    """Shading of (N, 3) points whose facets have the incidence and emission
    cosines mu0 and mu: the one Hapke radiance expression behind shade_point
    and shade_points."""
    s = sun_direction(sun)
    facing = (mu0 > 0) & (mu > 0)
    lit = np.zeros(len(points), dtype=bool)
    if facing.any():
        lit[facing] = ~_heightfield.shadow_mask(dem, points[facing], s)
    idx = np.flatnonzero(lit)
    radiance = np.zeros(len(points))
    if idx.size:
        g = np.arccos(np.clip(view_dirs[idx] @ s, -1.0, 1.0))
        radiance[idx] = sun.irradiance * mu0[idx] * hapke_brdf(
            mu0[idx], np.minimum(mu[idx], 1.0), g, params
        )
    return radiance


def shade_point(
    dem: DemGrid,
    point,
    normal,
    sun: SunConfig,
    params: HapkeParams,
    view_dir,
) -> float:
    """Radiance (relative units) leaving a surface point toward the camera.

    Zero when shadowed, when the sun is below the facet horizon (mu0 <= 0),
    or when the facet faces away from the camera (mu <= 0).
    """
    def row(a):
        return np.asarray(a, dtype=np.float64).reshape(1, 3)

    n, v = row(normal), row(view_dir)
    return float(_radiance(dem, row(point), *_cosines(n, v, sun), v, sun, params)[0])


def shade_points(
    dem: DemGrid,
    points: np.ndarray,
    view_dirs: np.ndarray,
    sun: SunConfig,
    params: HapkeParams,
) -> np.ndarray:
    """Vectorized shading of hit points; view_dirs point from surface to camera.

    The shadow test derives its per-(DEM, sun) ceiling itself, once for every
    batch shaded under one sun; callers pass nothing for it.
    """
    points = np.asarray(points, dtype=np.float64)
    view_dirs = np.asarray(view_dirs, dtype=np.float64)
    if points.shape[0] == 0:
        return np.zeros(0)
    # Normals need a one-cell margin; clamp queries into it.
    cs = dem.cell_size
    qx = np.clip(points[:, 0], dem.x_min + cs, dem.x_max - cs)
    qy = np.clip(points[:, 1], dem.y_min + cs, dem.y_max - cs)
    normals = surface_normal(dem, qx, qy)
    del qx, qy
    mu0, mu = _cosines(normals, view_dirs, sun)
    del normals
    return _radiance(dem, points, mu0, mu, view_dirs, sun, params)
