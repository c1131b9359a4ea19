"""Pinhole camera model, pose algebra, ray generation, and the altitude/GSD relation.

Convention: right-handed camera frame, the camera looks along -z in its own
frame, image +u right, +v down.  With an identity camera-to-world rotation the
camera looks straight down (-z world) with image up = north.  The principal
point defaults to (width/2 - 0.5, height/2 - 0.5).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


class BehindCameraError(ValueError):
    """World point is not strictly in front of the camera."""


@dataclass(frozen=True)
class Intrinsics:
    width: int
    height: int
    fov_deg: float
    cx: float | None = None  # defaults to width/2 - 0.5
    cy: float | None = None

    def __post_init__(self):
        if not 0 < self.fov_deg < 180:
            raise ValueError("fov_deg must be in (0, 180)")
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")
        if self.cx is None:
            object.__setattr__(self, "cx", self.width / 2 - 0.5)
        if self.cy is None:
            object.__setattr__(self, "cy", self.height / 2 - 0.5)

    @property
    def focal_px(self) -> float:
        return self.width / (2 * math.tan(math.radians(self.fov_deg) / 2))

    def to_json_dict(self) -> dict:
        return {
            "width": self.width,
            "height": self.height,
            "fov_deg": self.fov_deg,
            "cx": self.cx,
            "cy": self.cy,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Intrinsics":
        return cls(width=d["width"], height=d["height"], fov_deg=d["fov_deg"], cx=d["cx"], cy=d["cy"])


@dataclass(frozen=True, eq=False)
class Pose:
    """Camera-to-world pose: rotation columns are the camera axes in world
    coordinates, translation is the camera center in meters."""

    rotation: np.ndarray  # (3, 3) orthonormal, det +1
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if r.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        if not np.allclose(r.T @ r, np.eye(3), atol=1e-9):
            raise ValueError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ValueError("rotation determinant must be +1 within 1e-9")
        r.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def world_to_camera(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=np.float64)
        return (p - self.translation) @ self.rotation

    def to_json_dict(self) -> dict:
        return {
            "rotation": [float(v) for v in self.rotation.reshape(-1)],
            "translation": [float(v) for v in self.translation],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Pose":
        return cls(
            rotation=np.array(d["rotation"], dtype=np.float64).reshape(3, 3),
            translation=np.array(d["translation"], dtype=np.float64),
        )

    @classmethod
    def from_json(cls, text: str) -> "Pose":
        return cls.from_json_dict(json.loads(text))

    @classmethod
    def identity(cls) -> "Pose":
        return cls(rotation=np.eye(3), translation=np.zeros(3))


def orthonormalized(matrix: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix (Frobenius) via SVD, det forced to +1."""
    u, _, vt = np.linalg.svd(np.asarray(matrix, dtype=np.float64))
    r = u @ vt
    if np.linalg.det(r) < 0:
        u = u.copy()
        u[:, -1] *= -1
        r = u @ vt
    return r


def rot_x(deg: float) -> np.ndarray:
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=np.float64)


def rot_y(deg: float) -> np.ndarray:
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=np.float64)


def rot_z(deg: float) -> np.ndarray:
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=np.float64)


def look_at(center, target, roll_deg: float = 0.0) -> Pose:
    """Pose whose -z axis points from center toward target, rolled about it.
    Image up is toward +z, or toward +y when looking straight up or down."""
    center = np.asarray(center, dtype=np.float64)
    f = np.asarray(target, dtype=np.float64) - center
    norm = np.linalg.norm(f)
    if norm == 0:
        raise ValueError("look_at target coincides with the camera center")
    f = f / norm
    # Neither hint is within 0.08 degrees of f, so the cross product never vanishes.
    r = np.cross(f, [0.0, 0.0, 1.0] if abs(f[2]) < 0.999999 else [0.0, 1.0, 0.0])
    r = r / np.linalg.norm(r)
    u = np.cross(r, f)
    rot = np.column_stack([r, u, -f])
    if roll_deg:
        rot = rot @ rot_z(roll_deg)
    return Pose(rotation=orthonormalized(rot), translation=center)


@dataclass(frozen=True)
class CameraRig:
    """A stereo acquisition: shared intrinsics, two poses, and PSF sampling."""

    intrinsics: Intrinsics
    pose_a: Pose
    pose_b: Pose
    psf_sigma: float = 0.5
    rays_per_pixel: int = 4

    def __post_init__(self):
        if self.psf_sigma < 0:
            raise ValueError("psf_sigma must be >= 0")
        if self.rays_per_pixel < 1:
            raise ValueError("rays_per_pixel must be >= 1")
        if self.psf_sigma == 0 and self.rays_per_pixel != 1:
            raise ValueError("rays_per_pixel must be 1 when psf_sigma is 0")


def project_points(intr: Intrinsics, pose: Pose, points: np.ndarray):
    """(u, v, Euclidean ray depth, in_front) of (N, 3) world points; u and v
    are NaN where a point is not strictly in front of the camera."""
    pc = pose.world_to_camera(points)
    z = pc[:, 2]
    in_front = z < 0
    f = intr.focal_px
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(in_front, intr.cx + f * pc[:, 0] / (-z), np.nan)
        v = np.where(in_front, intr.cy - f * pc[:, 1] / (-z), np.nan)
    return u, v, np.linalg.norm(pc, axis=1), in_front


def project(intr: Intrinsics, pose: Pose, world_point):
    """Project world points to pixel (u, v) and Euclidean ray depth.

    Accepts a single 3-vector or an (N, 3) array; raises BehindCameraError if
    any point is not strictly in front of the camera.
    """
    p = np.asarray(world_point, dtype=np.float64)
    u, v, depth, in_front = project_points(intr, pose, p.reshape(-1, 3))
    if not in_front.all():
        raise BehindCameraError("point is behind (or at) the camera center")
    if p.ndim == 1:
        return float(u[0]), float(v[0]), float(depth[0])
    return u, v, depth


def unproject(intr: Intrinsics, pose: Pose, u, v, depth):
    """World point at the given pixel and Euclidean ray depth."""
    origin, direction = pixel_rays(intr, pose, u, v)
    return origin + np.asarray(depth, dtype=np.float64)[..., None] * direction


def image_plane(intr: Intrinsics, u, v) -> np.ndarray:
    """Camera-frame points ((u - cx)/f, -(v - cy)/f, -1) of pixels on the
    z = -1 image plane: un-normalized ray directions."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    f = intr.focal_px
    return np.stack(
        np.broadcast_arrays((u - intr.cx) / f, -(v - intr.cy) / f, -np.ones_like(u + v)),
        axis=-1,
    )


def camera_dirs(intr: Intrinsics, u, v) -> np.ndarray:
    """Unit ray directions through pixels, in the camera frame."""
    d = image_plane(intr, u, v)
    return d / np.linalg.norm(d, axis=-1, keepdims=True)


def pixel_rays(intr: Intrinsics, pose: Pose, u, v):
    """World-frame rays through pixel centers; origin is the camera center."""
    d = camera_dirs(intr, u, v)
    world_d = d @ pose.rotation.T
    origin = np.broadcast_to(pose.translation, world_d.shape)
    return origin, world_d


def gsd(altitude: float, fov_deg: float, width: int) -> float:
    """Effective ground sampling distance (m/px) of a nadir view."""
    if altitude <= 0:
        raise ValueError("altitude must be > 0")
    return 2 * altitude * math.tan(math.radians(fov_deg) / 2) / width


def relative_pose(pose_a: Pose, pose_b: Pose) -> Pose:
    """Pose of camera b expressed in camera a's frame."""
    r = pose_a.rotation.T @ pose_b.rotation
    t = pose_a.rotation.T @ (pose_b.translation - pose_a.translation)
    return Pose(rotation=orthonormalized(r), translation=t)
