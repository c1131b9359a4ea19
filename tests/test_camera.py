import math

import numpy as np
import pytest

from lunarforge import Intrinsics, Pose, gsd, project, relative_pose, unproject
from lunarforge.camera import BehindCameraError, CameraRig, look_at, norms, pixel_rays, rot_z
from oracles import rot_x

# Altitude (m) -> published effective GSD (m/px) at 45 deg FOV, 512 px.
GSD_TABLE = [
    (3500, 5.7), (6200, 10.0), (9500, 15.4), (12800, 20.7), (16100, 26.0),
    (19400, 31.4), (22700, 36.7), (26000, 42.1), (29200, 47.2), (30500, 49.3),
]


def test_intrinsics_focal_consistency():
    intr = Intrinsics(width=512, height=512, fov_deg=45.0)
    assert abs(intr.focal_px - 512 / (2 * math.tan(math.radians(22.5)))) < 1e-9
    assert intr.cx == 255.5 and intr.cy == 255.5


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        Intrinsics(width=16, height=16, fov_deg=0.0)
    with pytest.raises(ValueError):
        Intrinsics(width=16, height=16, fov_deg=180.0)


def test_pose_validation():
    with pytest.raises(ValueError):
        Pose(rotation=np.eye(3) * 1.001, translation=np.zeros(3))
    refl = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        Pose(rotation=refl, translation=np.zeros(3))


def test_rig_psf_invariant():
    intr = Intrinsics(width=8, height=8, fov_deg=45.0)
    with pytest.raises(ValueError):
        CameraRig(intrinsics=intr, pose_a=Pose.identity(), pose_b=Pose.identity(),
                  psf_sigma=0.0, rays_per_pixel=4)


@pytest.mark.parametrize("sigma", [np.inf, -np.inf, np.nan])
def test_rig_rejects_a_non_finite_psf_sigma(sigma):
    intr = Intrinsics(width=8, height=8, fov_deg=45.0)
    with pytest.raises(ValueError, match="psf_sigma"):
        CameraRig(intrinsics=intr, pose_a=Pose.identity(), pose_b=Pose.identity(),
                  psf_sigma=sigma, rays_per_pixel=4)


def test_project_optical_axis():
    intr = Intrinsics(width=128, height=128, fov_deg=45.0)
    pose = Pose(rotation=np.eye(3), translation=np.array([10.0, -5.0, 300.0]))
    u, v, depth = project(intr, pose, np.array([10.0, -5.0, 100.0]))
    assert u == pytest.approx(intr.cx)
    assert v == pytest.approx(intr.cy)
    assert depth == pytest.approx(200.0)


def test_project_behind_camera():
    intr = Intrinsics(width=64, height=64, fov_deg=50.0)
    pose = Pose.identity()
    with pytest.raises(BehindCameraError):
        project(intr, pose, np.array([0.0, 0.0, 5.0]))  # above a down-looking camera
    with pytest.raises(BehindCameraError):
        project(intr, pose, np.zeros(3))  # exactly at the center


def test_project_unproject_round_trip():
    intr = Intrinsics(width=96, height=72, fov_deg=55.0)
    rng = np.random.default_rng(8)
    pose = look_at(np.array([100.0, 50.0, 400.0]), np.array([-30.0, 20.0, 0.0]), roll_deg=7.0)
    u = rng.uniform(0, 95, 200)
    v = rng.uniform(0, 71, 200)
    depth = rng.uniform(10, 2000, 200)
    pts = unproject(intr, pose, u, v, depth)
    u2, v2, d2 = project(intr, pose, pts)
    assert np.max(np.abs(u2 - u)) < 1e-6
    assert np.max(np.abs(v2 - v)) < 1e-6
    assert np.max(np.abs(d2 - depth)) < 1e-6


def test_pixel_ray_principal_identity():
    intr = Intrinsics(width=64, height=64, fov_deg=45.0)
    _, d = pixel_rays(intr, Pose.identity(), intr.cx, intr.cy)
    assert np.allclose(d, [0.0, 0.0, -1.0], atol=1e-15)


def test_pixel_ray_unit_norm_random():
    intr = Intrinsics(width=512, height=512, fov_deg=45.0)
    pose = look_at(np.array([0.0, 0.0, 1000.0]), np.array([300.0, -200.0, 0.0]))
    rng = np.random.default_rng(14)
    u = rng.uniform(-1, 512, 500)
    v = rng.uniform(-1, 512, 500)
    _, d = pixel_rays(intr, pose, u, v)
    assert np.max(np.abs(np.linalg.norm(d, axis=-1) - 1)) < 1e-12


@np.errstate(over="ignore", invalid="ignore")
def test_norms_equal_linalg_norm_bit_for_bit():
    """norms sums (x*x + y*y) + z*z in the order np.linalg.norm(axis=-1)
    does: the same bits on rows of every magnitude, rows that overflow or
    underflow, signed zeros and subnormals, and rows with NaN or inf, for
    (N, 3), (H, W, 3) and (3,) arrays."""
    rng = np.random.default_rng(0x40E)
    n = 60000
    a = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-200.0, 200.0, (n, 1))
    for value in (np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324):
        a[rng.random((n, 3)) < 0.02] = value
    for rows in (a, a.reshape(200, 300, 3), a[7]):
        assert np.array_equal(norms(rows).view(np.int64), np.linalg.norm(rows, axis=-1).view(np.int64))


def test_gsd_reproduces_published_table():
    for altitude, expected in GSD_TABLE:
        assert abs(gsd(altitude, 45.0, 512) - expected) < 0.1


def test_gsd_limit_and_domain():
    assert gsd(1e-9, 45.0, 512) > 0
    assert gsd(1e-9, 45.0, 512) < 1e-11
    with pytest.raises(ValueError):
        gsd(0.0, 45.0, 512)


def test_relative_pose_identity():
    pose = look_at(np.array([10.0, 20.0, 500.0]), np.zeros(3), roll_deg=3.0)
    rel = relative_pose(pose, pose)
    assert np.allclose(rel.rotation, np.eye(3), atol=1e-12)
    assert np.allclose(rel.translation, 0.0, atol=1e-12)


def test_relative_pose_composition():
    rng = np.random.default_rng(3)
    poses = []
    for _ in range(3):
        r = rot_z(rng.uniform(0, 360)) @ rot_x(rng.uniform(-40, 40))
        poses.append(Pose(rotation=r, translation=rng.normal(0, 100, 3)))
    a, b, c = poses
    ab = relative_pose(a, b)
    bc = relative_pose(b, c)
    ac = relative_pose(a, c)
    comp_r = ab.rotation @ bc.rotation
    comp_t = ab.rotation @ bc.translation + ab.translation
    assert np.allclose(comp_r, ac.rotation, atol=1e-9)
    assert np.allclose(comp_t, ac.translation, atol=1e-9)


def test_relative_pose_pure_translation():
    a = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 100.0]))
    b = Pose(rotation=np.eye(3), translation=np.array([100.0, 0.0, 100.0]))
    rel = relative_pose(a, b)
    assert np.allclose(rel.rotation, np.eye(3))
    assert np.allclose(rel.translation, [100.0, 0.0, 0.0])


def test_pose_json_round_trip():
    pose = look_at(np.array([1.0, 2.0, 30.0]), np.zeros(3), roll_deg=-12.0)
    d = pose.to_json_dict()
    assert len(d["rotation"]) == 9 and len(d["translation"]) == 3
    back = Pose.from_json_dict(d)
    assert np.allclose(back.rotation, pose.rotation, atol=1e-15)
    intr = Intrinsics(width=128, height=96, fov_deg=45.0)
    assert Intrinsics.from_json_dict(intr.to_json_dict()) == intr


def test_rotations_stay_orthonormal_through_ops():
    rng = np.random.default_rng(21)
    pose = Pose.identity()
    for _ in range(50):
        nxt = Pose(rotation=rot_z(rng.uniform(0, 360)) @ rot_x(rng.uniform(-80, 80)),
                   translation=rng.normal(0, 10, 3))
        pose = relative_pose(pose, nxt)
        r = pose.rotation
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-9)
        assert abs(np.linalg.det(r) - 1) < 1e-9
