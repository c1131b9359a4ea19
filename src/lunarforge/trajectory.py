"""Seeded sampling of stereo camera pairs for the three descent motion families.

Altitudes come from ten fixed bands (3.5 km .. 30.5 km) with a +/-5% jitter,
measured above the mean terrain height inside the expected footprint.  The
horizontal baseline has a random compass heading and length
baseline_frac * altitude; oblique and dynamic pairs pitch toward a shared
ground target on the perpendicular bisector of the baseline, displaced so the
nominal off-nadir angle equals tilt_deg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .camera import CameraRig, Intrinsics, Pose, look_at, pixel_rays, rot_z
from .radiometry import SunConfig
from .terrain import DemGrid

ALTITUDE_BANDS_M = (3500.0, 6200.0, 9500.0, 12800.0, 16100.0, 19400.0, 22700.0, 26000.0, 29200.0, 30500.0)

KINDS = ("nadir", "oblique", "dynamic")

# Horizontal field of view of every sampled camera, in degrees.
FOV_DEG = 45.0

# Named illumination presets, the only suns the CLI takes.  Azimuths follow
# the reference configurations; elevations are this tool's documented choice,
# with the 360-degree azimuth stored as 0.  Other suns need a SunConfig in the
# library.  "polar" is the grazing sun of the south polar cap: at latitudes
# -87 to -90 degrees it stays within a few degrees of the horizon.
LIGHTING_PRESETS = {
    "side": SunConfig(azimuth=150.0, elevation=20.0),
    "overhead": SunConfig(azimuth=250.0, elevation=70.0),
    "back": SunConfig(azimuth=0.0, elevation=15.0),
    "polar": SunConfig(azimuth=90.0, elevation=3.0),
}


class FootprintTooSmallError(ValueError):
    """DEM footprint cannot contain both view frusta."""


@dataclass(frozen=True)
class TrajectorySpec:
    """Parameters of one sampled stereo acquisition."""

    kind: str
    altitude_m: float
    baseline_frac: float
    tilt_deg: float
    roll_deg: float
    altitude_delta_frac: float
    heading_deg: float
    lighting: str
    seed: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.kind == "nadir":
            if not 0.04 <= self.baseline_frac <= 0.10:
                raise ValueError("nadir baseline_frac must be in [0.04, 0.10]")
            if self.tilt_deg != 0 or self.roll_deg != 0 or self.altitude_delta_frac != 0:
                raise ValueError("nadir pairs have zero tilt, roll and altitude delta")
        elif self.kind == "oblique":
            if not 20 <= self.tilt_deg <= 35:
                raise ValueError("oblique tilt_deg must be in [20, 35]")
        elif self.kind == "dynamic":
            if abs(self.altitude_delta_frac) > 0.30:
                raise ValueError("dynamic altitude delta must be within +/-30%")
            if abs(self.roll_deg) > 10:
                raise ValueError("dynamic roll must be within +/-10 degrees")
            if not 0.05 <= self.baseline_frac <= 0.18:
                raise ValueError("dynamic baseline_frac must be in [0.05, 0.18]")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "TrajectorySpec":
        return cls(**{k: d[k] for k in (
            "kind", "altitude_m", "baseline_frac", "tilt_deg", "roll_deg",
            "altitude_delta_frac", "heading_deg", "lighting", "seed",
        )})


def lighting_preset(preset_id: str) -> SunConfig:
    """Named sun configuration; stable across versions."""
    try:
        return LIGHTING_PRESETS[preset_id]
    except KeyError:
        raise ValueError(f"unknown lighting preset {preset_id!r}; "
                         f"expected one of {sorted(LIGHTING_PRESETS)}") from None


def _heading_vector(heading_deg: float) -> np.ndarray:
    h = math.radians(heading_deg)
    return np.array([math.sin(h), math.cos(h), 0.0])


def _footprint_polygon(intr: Intrinsics, pose: Pose, plane_z: float) -> np.ndarray:
    """Ground-plane quad hit by the four image corners, as (4, 2) xy points."""
    corners_u = np.array([-0.5, intr.width - 0.5, intr.width - 0.5, -0.5])
    corners_v = np.array([-0.5, -0.5, intr.height - 0.5, intr.height - 0.5])
    _, d = pixel_rays(intr, pose, corners_u, corners_v)
    if np.any(d[:, 2] >= 0):
        raise FootprintTooSmallError("a corner ray does not descend to the ground plane")
    t = (plane_z - pose.translation[2]) / d[:, 2]
    pts = pose.translation[None, :2] + t[:, None] * d[:, :2]
    return pts


def _polygon_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman intersection of two convex polygons (ccw or cw)."""
    # Orient the clip polygon counter-clockwise.
    e01 = clip[1] - clip[0]
    e12 = clip[2] - clip[1]
    if e01[0] * e12[1] - e01[1] * e12[0] < 0:
        clip = clip[::-1]
    output = list(subject)
    for i in range(len(clip)):
        a = clip[i]
        b = clip[(i + 1) % len(clip)]
        edge = b - a
        normal = np.array([-edge[1], edge[0]])  # inward for ccw
        input_pts = output
        output = []
        if not input_pts:
            break
        prev = input_pts[-1]
        prev_in = np.dot(prev - a, normal) >= 0
        for cur in input_pts:
            cur_in = np.dot(cur - a, normal) >= 0
            if cur_in != prev_in:
                denom = np.dot(cur - prev, normal)
                t = np.dot(a - prev, normal) / denom
                output.append(prev + t * (cur - prev))
            if cur_in:
                output.append(cur)
            prev, prev_in = cur, cur_in
    return np.array(output) if output else np.zeros((0, 2))


def footprint_overlap(intr: Intrinsics, pose_a: Pose, pose_b: Pose, plane_z: float) -> float:
    """Intersection area over the smaller footprint area, on the plane z = plane_z."""
    pa = _footprint_polygon(intr, pose_a, plane_z)
    pb = _footprint_polygon(intr, pose_b, plane_z)
    inter = _clip_polygon(pa, pb)
    if inter.shape[0] < 3:
        return 0.0
    return _polygon_area(inter) / min(_polygon_area(pa), _polygon_area(pb))


def _check_inside(dem: DemGrid, polys, margin: float) -> None:
    for poly in polys:
        if (
            poly[:, 0].min() < dem.x_min + margin
            or poly[:, 0].max() > dem.x_max - margin
            or poly[:, 1].min() < dem.y_min + margin
            or poly[:, 1].max() > dem.y_max - margin
        ):
            raise FootprintTooSmallError(
                "view frustum leaves the DEM footprint; use a larger tile"
            )


def sample_pair(
    kind: str,
    seed: int,
    band_index: int,
    dem: DemGrid,
    lighting: str = "side",
    width: int = 128,
    height: int = 128,
    psf_sigma: float = 0.5,
    rays_per_pixel: int = 4,
    allow_disjoint: bool = False,
):
    """Draw one stereo pair deterministically from (kind, seed, band_index).

    Returns (TrajectorySpec, CameraRig).  Raises FootprintTooSmallError when
    the DEM cannot contain both frusta.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if not 0 <= band_index < len(ALTITUDE_BANDS_M):
        raise ValueError(f"band_index must be in [0, {len(ALTITUDE_BANDS_M) - 1}]")
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(int(seed), int(band_index), KINDS.index(kind)))
    )

    altitude = ALTITUDE_BANDS_M[band_index] * (1.0 + rng.uniform(-0.05, 0.05))
    heading = float(rng.uniform(0.0, 360.0))
    if kind == "nadir":
        baseline_frac = float(rng.uniform(0.04, 0.10))
        tilt = roll = delta = 0.0
    elif kind == "oblique":
        baseline_frac = float(rng.uniform(0.04, 0.10))
        tilt = float(rng.uniform(20.0, 35.0))
        roll = 0.0
        delta = float(rng.choice([0.0, 0.05, 0.15]))
    else:
        baseline_frac = float(rng.uniform(0.05, 0.18))
        tilt = float(rng.uniform(0.0, 35.0))
        roll = float(rng.uniform(-10.0, 10.0))
        delta = float(rng.uniform(-0.30, 0.30))
    side = float(rng.choice([-1.0, 1.0]))

    spec = TrajectorySpec(
        kind=kind,
        altitude_m=float(altitude),
        baseline_frac=baseline_frac,
        tilt_deg=tilt,
        roll_deg=roll,
        altitude_delta_frac=delta,
        heading_deg=heading,
        lighting=lighting,
        seed=int(seed),
    )

    intr = Intrinsics(width=width, height=height, fov_deg=FOV_DEG, cx=None, cy=None)
    mid = np.array([(dem.x_min + dem.x_max) / 2, (dem.y_min + dem.y_max) / 2])
    half_fov = math.radians(FOV_DEG) / 2
    window = altitude * math.tan(math.radians(tilt) + half_fov) + 0.5 * baseline_frac * altitude
    ground_z = dem.mean_height((mid[0] - window, mid[0] + window, mid[1] - window, mid[1] + window))

    h_vec = _heading_vector(heading)
    baseline = baseline_frac * altitude
    alt_a = altitude
    alt_b = altitude * (1.0 + delta)
    center_a = np.array([*(mid - 0.5 * baseline * h_vec[:2]), ground_z + alt_a])
    center_b = np.array([*(mid + 0.5 * baseline * h_vec[:2]), ground_z + alt_b])

    if allow_disjoint:
        # Non-overlapping stress case: push camera b a full footprint away.
        shift = 2.5 * (2 * altitude * math.tan(half_fov)) * h_vec[:2]
        center_b = center_b + np.array([*shift, 0.0])

    if kind == "nadir":
        yaw = rot_z(heading)
        pose_a = Pose(rotation=yaw, translation=center_a)
        pose_b = Pose(rotation=yaw, translation=center_b)
    else:
        perp = np.array([-h_vec[1], h_vec[0]]) * side
        reach = altitude * math.tan(math.radians(tilt))
        d_perp = math.sqrt(max(0.0, reach**2 - (baseline / 2) ** 2))
        target_a = np.array([*(mid + d_perp * perp), ground_z])
        target_b = target_a.copy()
        if allow_disjoint:
            target_b[:2] += shift
        # Roll is differential: view a is the unrolled reference.
        pose_a = look_at(center_a, target_a)
        pose_b = look_at(center_b, target_b, roll_deg=roll)

    polys = [
        _footprint_polygon(intr, pose_a, ground_z),
        _footprint_polygon(intr, pose_b, ground_z),
    ]
    _check_inside(dem, polys, margin=dem.cell_size)
    if not allow_disjoint:
        overlap = footprint_overlap(intr, pose_a, pose_b, ground_z)
        if overlap <= 0.30:
            raise FootprintTooSmallError(
                f"sampled frusta overlap {overlap:.2f} <= 0.30; geometry rejected"
            )

    rig = CameraRig(
        intrinsics=intr,
        pose_a=pose_a,
        pose_b=pose_b,
        psf_sigma=psf_sigma,
        rays_per_pixel=rays_per_pixel if psf_sigma > 0 else 1,
    )
    return spec, rig
