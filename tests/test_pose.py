import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from lunarforge import (
    RansacParams,
    depth_to_pointmap,
    estimate_essential,
    gt_correspondences,
    ransac_align,
    rra,
    rta,
    solve_pnp,
    umeyama,
)
from lunarforge.camera import Intrinsics, norms, relative_pose, rot_z
from lunarforge import pose as pose_mod
from lunarforge.pose import (
    DegenerateBaselineError,
    DegenerateGeometryError,
    InsufficientMatchesError,
    RansacError,
    pose_accuracy_table,
)
from oracles import essential_from_poses, rot_x, rot_y


def random_rotation(rng):
    return rot_z(rng.uniform(0, 360)) @ rot_y(rng.uniform(-80, 80)) @ rot_x(rng.uniform(-80, 80))


# ---------------------------------------------------------------------------
# Essential matrix
# ---------------------------------------------------------------------------


def test_essential_recovers_rendered_pair(oblique_scene):
    rig = oblique_scene["rig"]
    corr = oblique_scene["corr"]
    est = estimate_essential(corr, rig.intrinsics, rig.intrinsics, RansacParams(seed=3))
    rel_gt = relative_pose(rig.pose_a, rig.pose_b)
    assert rra(rel_gt.rotation, est.relative_pose.rotation) < 0.1
    assert rta(rel_gt.translation, est.relative_pose.translation) < 0.1
    assert abs(np.linalg.norm(est.relative_pose.translation) - 1) < 1e-9
    s = np.linalg.svd(est.E, compute_uv=False)
    s = s / s[0]
    assert np.allclose(s, [1, 1, 0], atol=1e-6)


def test_essential_inliers_satisfy_epipolar(oblique_scene):
    rig = oblique_scene["rig"]
    corr = oblique_scene["corr"]
    est = estimate_essential(corr, rig.intrinsics, rig.intrinsics, RansacParams(seed=3))
    assert len(est.inliers) == len(corr)
    from lunarforge.pose import _match_rays

    h1, h2 = _match_rays(corr[est.inliers], rig.intrinsics, rig.intrinsics)
    res = np.abs(np.einsum("ni,ni->n", h2, h1 @ est.E.T))
    assert res.max() < 1.0 / rig.intrinsics.focal_px


def test_essential_zero_baseline_flags_degenerate(flat_dem):
    from lunarforge import CameraRig, HapkeParams, SunConfig, render_pair
    from lunarforge.camera import Pose

    intr = Intrinsics(width=32, height=32, fov_deg=45.0)
    pose = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 150.0]))
    rig = CameraRig(intrinsics=intr, pose_a=pose, pose_b=pose, psf_sigma=0.0, rays_per_pixel=1)
    ((prod, _),) = render_pair(flat_dem, rig, [SunConfig(azimuth=100, elevation=45)], HapkeParams())
    corr = gt_correspondences(prod, prod, stride=2)
    with pytest.raises(DegenerateBaselineError):
        estimate_essential(corr, intr, intr, RansacParams(seed=1))


@pytest.mark.parametrize("noise_px", [0.3, 0.7])
@pytest.mark.parametrize("draw", range(20))
def test_essential_inliers_are_the_sampson_inliers_of_the_returned_e(oblique_scene, noise_px, draw):
    # Noisy matches with 30% outliers: the inlier set and E agree, whether the
    # refit reaches a fixed point or stops at its round cap (draws 0 and 2 at
    # 0.3 px, and 1, 8, 13 and 14 at 0.7 px, do not settle).
    rig = oblique_scene["rig"]
    rng = np.random.default_rng(draw)
    pairs = oblique_scene["corr"] + rng.normal(0, noise_px, oblique_scene["corr"].shape)
    bad = rng.choice(len(pairs), size=3 * len(pairs) // 10, replace=False)
    pairs[bad, 2:] += rng.uniform(-20, 20, (len(bad), 2))
    params = RansacParams(inlier_threshold=1.0, seed=0)
    est = estimate_essential(pairs, rig.intrinsics, rig.intrinsics, params)
    h1, h2 = pose_mod._match_rays(pairs, rig.intrinsics, rig.intrinsics)
    sampson = pose_mod._sampson_px(est.E, h1, h2, rig.intrinsics.focal_px)
    assert np.array_equal(est.inliers, np.flatnonzero(sampson < params.inlier_threshold))
    assert 0.5 * len(pairs) < len(est.inliers) < 0.75 * len(pairs)


def test_essential_requires_eight_matches():
    intr = Intrinsics(width=32, height=32, fov_deg=45.0)
    pairs = np.tile([1.0, 2.0, 3.0, 4.0], (7, 1))
    with pytest.raises(InsufficientMatchesError):
        estimate_essential(pairs, intr, intr)


def test_essential_from_poses_zero_baseline():
    from lunarforge.camera import Pose

    p = Pose(rotation=np.eye(3), translation=np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DegenerateBaselineError):
        essential_from_poses(p, p)


# ---------------------------------------------------------------------------
# PnP
# ---------------------------------------------------------------------------


def test_pnp_recovers_rendered_view(oblique_scene):
    rig = oblique_scene["rig"]
    prod_b = oblique_scene["prod_b"]
    spec = oblique_scene["spec"]
    pm = depth_to_pointmap(prod_b)
    stride = 4
    valid = np.isfinite(pm).all(-1)[::stride, ::stride]
    vv, uu = np.meshgrid(np.arange(0, 96, stride, dtype=float),
                         np.arange(0, 96, stride, dtype=float), indexing="ij")
    pixels = np.column_stack([uu[valid], vv[valid]])
    pts = pm[::stride, ::stride][valid]
    pose = solve_pnp((pixels, pts), rig.intrinsics, RansacParams(seed=4))
    rot_err_rad = math.radians(rra(rig.pose_b.rotation, pose.rotation))
    trans_err = np.linalg.norm(pose.translation - rig.pose_b.translation)
    assert rot_err_rad < 1e-4
    assert trans_err < 1e-3 * spec.altitude_m


def test_pnp_with_outliers(oblique_scene):
    rig = oblique_scene["rig"]
    prod_b = oblique_scene["prod_b"]
    pm = depth_to_pointmap(prod_b)
    stride = 6
    valid = np.isfinite(pm).all(-1)[::stride, ::stride]
    vv, uu = np.meshgrid(np.arange(0, 96, stride, dtype=float),
                         np.arange(0, 96, stride, dtype=float), indexing="ij")
    pixels = np.column_stack([uu[valid], vv[valid]])
    pts = pm[::stride, ::stride][valid].copy()
    rng = np.random.default_rng(7)
    n = len(pts)
    bad = rng.choice(n, size=int(0.3 * n), replace=False)
    pts[bad] += rng.normal(0, 0.2 * np.abs(pts).max(), (len(bad), 3))
    pose = solve_pnp((pixels, pts), rig.intrinsics, RansacParams(iterations=500, seed=8))
    assert rra(rig.pose_b.rotation, pose.rotation) < 0.1


def test_pnp_collinear_degenerate():
    intr = Intrinsics(width=64, height=64, fov_deg=45.0)
    ts = np.linspace(0, 1, 10)
    pts = np.column_stack([ts * 100, ts * 40, ts * 10])
    pixels = np.column_stack([ts * 50, ts * 30])
    with pytest.raises(DegenerateGeometryError):
        solve_pnp((pixels, pts), intr)


def test_pnp_too_few_matches():
    intr = Intrinsics(width=64, height=64, fov_deg=45.0)
    with pytest.raises(InsufficientMatchesError):
        solve_pnp((np.zeros((5, 2)), np.zeros((5, 3))), intr)


# ---------------------------------------------------------------------------
# RRA / RTA / accuracy table
# ---------------------------------------------------------------------------


def test_rra_identity():
    r = rot_z(33.0)
    assert rra(r, r) == 0.0


def test_rra_axis_angle_construction():
    rng = np.random.default_rng(12)
    for angle in (0.5, 10.0, 90.0, 179.0):
        r = random_rotation(rng)
        assert rra(r, r @ rot_z(angle)) == pytest.approx(angle, abs=1e-9)


def test_rra_matches_quaternion_oracle():
    rng = np.random.default_rng(13)
    for _ in range(50):
        r1 = random_rotation(rng)
        r2 = random_rotation(rng)
        assert rra(r1, r2) == pytest.approx(oracles.quaternion_angle_deg(r1, r2), abs=1e-9)


def test_rra_small_perturbation_to_zero():
    # Limit property: the error decays with the perturbation, and the atan2
    # form keeps its relative accuracy all the way down.
    r = random_rotation(np.random.default_rng(14))
    for eps in (1e-3, 1e-4, 1e-5, 1e-6):
        assert rra(r, r @ rot_z(eps)) == pytest.approx(eps, rel=1e-6)


def test_rra_resolves_identity_and_extreme_angles():
    rng = np.random.default_rng(23)
    for _ in range(50):
        r = random_rotation(rng)
        assert rra(r, r) < 1e-9
        for angle in (0.001, 90.0, 179.9):
            assert abs(rra(r, r @ rot_z(angle)) - angle) < 1e-9


def test_rta_scale_free():
    assert rta([1, 0, 0], [5, 0, 0]) == 0.0
    assert rta([0, 2, 0], [0, 0, 7]) == pytest.approx(90.0)
    assert rta([1, 1, 0], [-1, -1, 0]) == pytest.approx(180.0)


def test_rta_zero_vector_degenerate():
    with pytest.raises(DegenerateBaselineError):
        rta([0, 0, 0], [1, 0, 0])


def test_accuracy_table_counts():
    table = pose_accuracy_table([1.0, 3.0, 20.0], [2, 5, 15, 30])
    assert table == {2: pytest.approx(1 / 3), 5: pytest.approx(2 / 3),
                     15: pytest.approx(2 / 3), 30: pytest.approx(1.0)}


def test_accuracy_table_all_zero():
    table = pose_accuracy_table([0.0] * 5, [2, 5])
    assert all(v == 1.0 for v in table.values())


def test_accuracy_table_monotone_random():
    rng = np.random.default_rng(15)
    for _ in range(20):
        errors = rng.uniform(0, 40, 50)
        table = pose_accuracy_table(errors, [1, 2, 5, 10, 20, 30])
        vals = list(table.values())
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        shuffled = pose_accuracy_table(rng.permutation(errors), [1, 2, 5, 10, 20, 30])
        assert shuffled == table


def test_accuracy_table_validation():
    with pytest.raises(ValueError):
        pose_accuracy_table([], [2, 5])
    with pytest.raises(ValueError):
        pose_accuracy_table([1.0], [5, 2])


# ---------------------------------------------------------------------------
# Umeyama / RANSAC alignment
# ---------------------------------------------------------------------------


def test_umeyama_identity():
    rng = np.random.default_rng(16)
    pts = rng.normal(0, 10, (40, 3))
    t = umeyama(pts, pts)
    assert t.scale == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(t.rotation, np.eye(3), atol=1e-12)
    assert np.allclose(t.translation, 0, atol=1e-11)


def test_umeyama_recovers_constructed_similarity():
    rng = np.random.default_rng(17)
    src = rng.normal(0, 5, (100, 3))
    r = rot_z(30.0)
    dst = 2.5 * src @ r.T + np.array([1.0, 2.0, 3.0])
    t = umeyama(src, dst)
    assert t.scale == pytest.approx(2.5, abs=1e-9)
    assert np.allclose(t.rotation, r, atol=1e-9)
    assert np.allclose(t.translation, [1, 2, 3], atol=1e-9)
    assert np.max(np.linalg.norm(t.apply(src) - dst, axis=1)) < 1e-9


def test_umeyama_rejects_reflection():
    rng = np.random.default_rng(18)
    src = rng.normal(0, 5, (60, 3))
    dst = src.copy()
    dst[:, 2] *= -1  # pure reflection
    t = umeyama(src, dst)
    assert np.linalg.det(t.rotation) == pytest.approx(1.0, abs=1e-9)
    residual = np.linalg.norm(t.apply(src) - dst, axis=1).max()
    assert residual > 1e-3  # proper rotations cannot explain a reflection


def test_umeyama_residual_invariant_to_common_rigid_motion():
    rng = np.random.default_rng(19)
    src = rng.normal(0, 5, (80, 3))
    dst = src + rng.normal(0, 0.5, src.shape)

    def residual(a, b):
        t = umeyama(a, b)
        return float(np.sum((t.apply(a) - b) ** 2))

    base = residual(src, dst)
    r = random_rotation(rng)
    shift = rng.normal(0, 100, 3)
    moved = residual(src @ r.T + shift, dst @ r.T + shift)
    assert moved == pytest.approx(base, rel=1e-9)


def test_umeyama_collinear_degenerate():
    ts = np.linspace(0, 1, 20)
    line = np.column_stack([ts, 2 * ts, -ts])
    with pytest.raises(DegenerateGeometryError):
        umeyama(line, line * 2)


def test_ransac_params_reject_a_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        RansacParams(seed=-1)


def test_ransac_align_clean_matches_umeyama():
    rng = np.random.default_rng(20)
    src = rng.normal(0, 8, (200, 3))
    r = rot_y(40.0)
    dst = 0.7 * src @ r.T + np.array([5.0, -2.0, 1.0])
    direct = umeyama(src, dst)
    t, inliers = ransac_align(src, dst, RansacParams(iterations=100, inlier_threshold=0.1, seed=2))
    assert inliers.all()
    assert t.scale == pytest.approx(direct.scale, rel=1e-9)
    assert np.allclose(t.rotation, direct.rotation, atol=1e-9)


def test_ransac_align_rejects_gross_outliers():
    rng = np.random.default_rng(21)
    src = rng.normal(0, 8, (300, 3))
    r = rot_x(25.0)
    dst = 1.8 * src @ r.T + np.array([0.0, 4.0, -7.0])
    n_bad = int(0.4 * len(src))
    bad = rng.choice(len(src), size=n_bad, replace=False)
    dst_noisy = dst.copy()
    dst_noisy[bad] += rng.uniform(50, 200, (n_bad, 3))
    t, inliers = ransac_align(src, dst_noisy, RansacParams(iterations=500, inlier_threshold=0.5, seed=3))
    assert not inliers[bad].any()
    good = np.setdiff1d(np.arange(len(src)), bad)
    assert inliers[good].all()
    assert np.max(np.linalg.norm(t.apply(src[good]) - dst[good], axis=1)) < 1e-6


def test_ransac_align_deterministic():
    rng = np.random.default_rng(22)
    src = rng.normal(0, 8, (150, 3))
    dst = src @ rot_z(10.0).T + 3.0
    dst[:30] += rng.uniform(20, 50, (30, 3))
    params = RansacParams(iterations=300, inlier_threshold=0.2, seed=11)
    t1, m1 = ransac_align(src, dst, params)
    t2, m2 = ransac_align(src, dst, params)
    assert np.array_equal(m1, m2)
    assert t1.scale == t2.scale
    assert t1.rotation.tobytes() == t2.rotation.tobytes()


def _outlier_problem(seed, outlier_frac, n=400):
    """src -> 1.8 R src + t with 1 cm noise; a share of dst displaced 50-200 m."""
    rng = np.random.default_rng(seed)
    src = rng.normal(0, 8, (n, 3))
    dst = 1.8 * src @ rot_x(25.0).T + np.array([0.0, 4.0, -7.0]) + rng.normal(0, 0.01, (n, 3))
    bad = rng.choice(n, size=int(outlier_frac * n), replace=False)
    dst[bad] += rng.uniform(50, 200, (len(bad), 3)) * rng.choice([-1, 1], (len(bad), 3))
    truth = np.ones(n, dtype=bool)
    truth[bad] = False
    return src, dst, truth


@pytest.fixture
def umeyama_sizes(monkeypatch):
    """Point counts of every umeyama call ransac_align makes (3 = a hypothesis)."""
    sizes = []
    original = pose_mod.umeyama

    def counting(src, dst, rows=None):
        sizes.append(len(src) if rows is None else len(np.asarray(src)[rows]))
        return original(src, dst, rows)

    monkeypatch.setattr(pose_mod, "umeyama", counting)
    return sizes


@pytest.mark.parametrize("outlier_frac", [0.4, 0.5, 0.6])
def test_ransac_align_recovers_similarity_under_heavy_outliers(outlier_frac):
    src, dst, truth = _outlier_problem(31, outlier_frac)
    t, inliers = ransac_align(src, dst, RansacParams(iterations=2000, inlier_threshold=0.5, seed=5))
    assert np.array_equal(inliers, truth)
    direct = umeyama(src[truth], dst[truth])
    assert t.scale == pytest.approx(direct.scale, abs=1e-6)
    assert np.allclose(t.rotation, direct.rotation, atol=1e-6)
    assert np.allclose(t.translation, direct.translation, atol=1e-6)


def test_ransac_align_refits_to_a_fixed_point():
    # Inlier noise on the scale of the threshold: the winning hypothesis's
    # mask is not yet self-consistent, the refit's must be.
    rng = np.random.default_rng(35)
    src = rng.normal(0, 8, (400, 3))
    dst = 1.8 * src @ rot_x(25.0).T + rng.normal(0, 0.3, (400, 3))
    dst[:120] += rng.uniform(50, 200, (120, 3))
    t, inliers = ransac_align(src, dst, RansacParams(iterations=2000, inlier_threshold=0.5, seed=9))
    assert np.array_equal(inliers, np.linalg.norm(t.apply(src) - dst, axis=1) < 0.5)
    direct = umeyama(src[inliers], dst[inliers])
    assert t.rotation.tobytes() == direct.rotation.tobytes()
    assert t.scale == direct.scale


def test_ransac_align_stops_long_before_the_cap(umeyama_sizes):
    src, dst, _ = _outlier_problem(32, 0.4)
    ransac_align(src, dst, RansacParams(iterations=2000, inlier_threshold=0.5, seed=6))
    assert len(umeyama_sizes) < 100


def test_ransac_align_iterations_is_a_hard_cap(umeyama_sizes):
    # 5% inliers would need ~55k hypotheses for p = 0.999; the cap binds.
    src, dst, _ = _outlier_problem(33, 0.95)
    with pytest.raises(RansacError):
        ransac_align(src, dst, RansacParams(iterations=300, inlier_threshold=0.5, seed=7))
    assert len(umeyama_sizes) == 300


def test_ransac_align_recovers_80_percent_outliers_at_the_default_cap():
    # w = 0.2 needs ~860 hypotheses for p = 0.999, within the default 2000.
    src, dst, truth = _outlier_problem(36, 0.8)
    _, inliers = ransac_align(src, dst, RansacParams(inlier_threshold=0.5, seed=10))
    assert np.array_equal(inliers, truth)


def test_ransac_align_rejects_a_consensus_it_cannot_certify():
    # w = 0.1 needs ~6900 hypotheses, more than the default cap of 2000: the
    # loop may find the true consensus by luck, but it is not certified.
    src, dst, _ = _outlier_problem(37, 0.9)
    with pytest.raises(RansacError, match="too small to certify"):
        ransac_align(src, dst, RansacParams(inlier_threshold=0.5, seed=11))


@pytest.mark.parametrize("outlier_frac, certified", [(0.4, True), (0.6, False)])
def test_ransac_align_cap_sets_the_certifiable_inlier_ratio(outlier_frac, certified):
    # At a cap of 50, w = 0.6 needs 29 hypotheses and is certified; w = 0.4
    # needs 105, so it is rejected even though 50 samples find it most times.
    src, dst, truth = _outlier_problem(38, outlier_frac)
    params = RansacParams(iterations=50, inlier_threshold=0.5, seed=12)
    if certified:
        _, inliers = ransac_align(src, dst, params)
        assert np.array_equal(inliers, truth)
    else:
        with pytest.raises(RansacError, match="too small to certify"):
            ransac_align(src, dst, params)
        _, inliers = ransac_align(src, dst, RansacParams(inlier_threshold=0.5, seed=12))
        assert np.array_equal(inliers, truth)


def test_ransac_align_clean_data_stops_after_one_hypothesis(umeyama_sizes):
    src, dst, _ = _outlier_problem(34, 0.0)
    _, inliers = ransac_align(src, dst, RansacParams(iterations=2000, inlier_threshold=0.5, seed=8))
    assert inliers.all()
    assert umeyama_sizes.count(3) == 1


@st.composite
def similarity_problems(draw):
    """A non-degenerate cloud (flattened like terrain, far from the origin)
    and a random similarity: (src, scale, rotation, translation)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 80))
    spread = draw(st.floats(0.1, 1e3))
    flatness = draw(st.floats(0.02, 1.0))
    src = rng.normal(0, spread, (n, 3)) * [1.0, 1.0, flatness] + rng.normal(0, 1e4, 3)
    centered = src - src.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    assume(sv[2] > 1e-2 * sv[0])
    scale = 10 ** draw(st.floats(-3.0, 3.0))
    return src, scale, random_rotation(rng), rng.normal(0, 1e4, 3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(similarity_problems())
def test_umeyama_round_trips_random_similarities(problem):
    src, scale, rotation, shift = problem
    dst = scale * src @ rotation.T + shift
    t = umeyama(src, dst)
    assert t.scale == pytest.approx(scale, rel=1e-9)
    assert np.allclose(t.rotation, rotation, rtol=0, atol=1e-9)
    extent = scale * np.abs(src).max() + np.abs(shift).max()
    assert np.abs(t.apply(src) - dst).max() <= 1e-10 * extent


@settings(max_examples=40, deadline=None, derandomize=True)
@given(similarity_problems(), st.floats(0.0, 0.5), st.integers(0, 2**16))
def test_ransac_align_recovers_random_similarities_under_outliers(problem, outlier_frac, seed):
    src, scale, rotation, shift = problem
    rng = np.random.default_rng(seed)
    n = len(src)
    src = np.concatenate([src, src[rng.integers(0, n, 4 * n)] + rng.normal(0, 1.0, (4 * n, 3)) * src.std(axis=0)])
    dst = scale * src @ rotation.T + shift
    threshold = 1e-6 * (scale * np.abs(src - src.mean(axis=0)).max())
    dst += rng.normal(0, threshold / 20, dst.shape)
    bad = rng.random(len(src)) < outlier_frac
    dst[bad] += rng.uniform(50, 200, (int(bad.sum()), 3)) * rng.choice([-1, 1], (int(bad.sum()), 3)) * threshold
    assume(bad.sum() <= len(src) - 4)
    t, inliers = ransac_align(src, dst, RansacParams(inlier_threshold=threshold, seed=seed))
    assert np.array_equal(inliers, ~bad)
    assert t.scale == pytest.approx(scale, rel=1e-6)
    assert np.allclose(t.rotation, rotation, rtol=0, atol=1e-6)


def test_residual_inliers_equal_linalg_norm_bit_for_bit():
    # RANSAC's scoring against the formulas it replaced: SimilarityTransform.apply
    # as one expression, np.linalg.norm and camera.norms, including residuals
    # exactly at the threshold (strictly below counts), on float64 clouds and
    # on float32-origin ones, as evaluate gathers them from stored rasters.
    rng = np.random.default_rng(42)
    for origin in [np.float64] * 20 + [np.float32] * 10:
        src = (rng.normal(0, 50, (500, 3)) + rng.normal(0, 1e4, 3)).astype(origin).astype(np.float64)
        t = pose_mod.SimilarityTransform(scale=10 ** rng.uniform(-2, 2), rotation=random_rotation(rng),
                                         translation=rng.normal(0, 1e3, 3))
        applied = t.scale * (src @ t.rotation.T) + t.translation
        assert t.apply(src).tobytes() == applied.tobytes()
        dst = applied + rng.normal(0, 1, src.shape) * rng.choice([0.01, 1.0, 100.0], (500, 1))
        dst = dst.astype(origin).astype(np.float64)
        dist = np.linalg.norm(applied - dst, axis=1)
        assert norms(t.apply(src) - dst).tobytes() == dist.tobytes()
        for threshold in (np.median(dist), *dist[:5], np.nextafter(dist[0], np.inf)):
            assert np.array_equal(pose_mod._residual_inliers(t, src, dst, threshold), dist < threshold)
    identity = pose_mod.SimilarityTransform(scale=1.0, rotation=np.eye(3), translation=np.zeros(3))
    zeros = np.zeros((3, 3))
    at_five = np.array([[3.0, 4.0, 0.0], [0.0, 3.0, 4.0], [4.0, 0.0, 3.0]])
    assert not pose_mod._residual_inliers(identity, zeros, at_five, 5.0).any()
    assert pose_mod._residual_inliers(identity, zeros, at_five, np.nextafter(5.0, 6.0)).all()


@pytest.mark.parametrize("rows", ["partial", "all", "three", "indices"])
def test_umeyama_on_selected_rows_is_umeyama_on_their_gather(rows):
    # float32-origin clouds far from the origin, as evaluate gathers them
    # from stored rasters, on C-ordered and Fortran-ordered arrays: the
    # in-place centring of each gather, and the all-True mask that reads a
    # C-ordered cloud itself, give the gathered fit's bits.
    rng = np.random.default_rng(45)
    n = 3000
    src = (rng.normal(0, 300, (n, 3)) * [1.0, 1.0, 0.1] + [1.5e6, -1.2e6, 1.7e3]).astype(np.float32)
    dst = (0.5 * src.astype(np.float64) @ rot_x(25.0).T + [10.0, -40.0, 900.0]).astype(np.float32)
    dst[: n // 3] += rng.normal(0, 200.0, (n // 3, 3)).astype(np.float32)
    src, dst = src.astype(np.float64), dst.astype(np.float64)
    selected = {
        "partial": rng.random(n) < 0.6,
        "all": np.ones(n, dtype=bool),
        "three": np.isin(np.arange(n), [5, 900, 2999]),
        "indices": rng.choice(n, size=3, replace=False),
    }[rows]
    for a, b in ((src, dst), (np.asfortranarray(src), np.asfortranarray(dst))):
        got, expected = umeyama(a, b, selected), umeyama(a[selected], b[selected])
        assert got.scale == expected.scale
        assert got.rotation.tobytes() == expected.rotation.tobytes()
        assert got.translation.tobytes() == expected.translation.tobytes()


def test_umeyama_counts_selected_rows():
    pts = np.arange(12.0).reshape(4, 3) ** 2
    for rows in (np.array([True, False, True, False]), np.zeros(4, dtype=bool), np.array([0, 2])):
        with pytest.raises(ValueError, match=">= 3 paired points"):
            umeyama(pts, pts, rows)
    assert umeyama(pts, pts, np.array([True, True, False, True])).scale == pytest.approx(1.0)


def test_hypotheses_needed_stopping_rule():
    assert pose_mod._hypotheses_needed(0, 100, 3) == math.inf
    assert pose_mod._hypotheses_needed(100, 100, 3) == 1
    # w = 0.74, s = 3: log(0.001) / log(1 - 0.74**3) = 13.3.
    assert pose_mod._hypotheses_needed(74, 100, 3) == 14
    assert pose_mod._hypotheses_needed(60, 100, 3) == 29
    # w**s underflows to 0 for a tiny ratio and a large sample: no stop.
    assert pose_mod._hypotheses_needed(1, 10**9, 40) == math.inf


def test_essential_and_pnp_deterministic_for_fixed_seed(oblique_scene):
    rig = oblique_scene["rig"]
    pairs = oblique_scene["corr"].copy()
    rng = np.random.default_rng(9)
    bad = rng.choice(len(pairs), size=len(pairs) // 3, replace=False)
    pairs[bad, 2:] += rng.uniform(-20, 20, (len(bad), 2))
    params = RansacParams(inlier_threshold=1.0, seed=10)
    e1 = estimate_essential(pairs, rig.intrinsics, rig.intrinsics, params)
    e2 = estimate_essential(pairs, rig.intrinsics, rig.intrinsics, params)
    assert e1.E.tobytes() == e2.E.tobytes()
    assert np.array_equal(e1.inliers, e2.inliers)

    pm = depth_to_pointmap(oblique_scene["prod_b"])
    vv, uu = np.meshgrid(np.arange(0, 96, 6, dtype=float), np.arange(0, 96, 6, dtype=float),
                         indexing="ij")
    valid = np.isfinite(pm).all(-1)[::6, ::6]
    pixels = np.column_stack([uu[valid], vv[valid]])
    pts = pm[::6, ::6][valid].copy()
    bad = rng.choice(len(pts), size=len(pts) // 3, replace=False)
    pts[bad] += rng.normal(0, 200.0, (len(bad), 3))
    p1 = solve_pnp((pixels, pts), rig.intrinsics, params)
    p2 = solve_pnp((pixels, pts), rig.intrinsics, params)
    assert p1.rotation.tobytes() == p2.rotation.tobytes()
    assert p1.translation.tobytes() == p2.translation.tobytes()


def test_ransac_skips_a_degenerate_sample():
    fits = []

    def fit(rows):
        fits.append(rows)
        if len(fits) == 1:
            raise np.linalg.LinAlgError("singular")
        if len(fits) == 2:
            raise DegenerateGeometryError("collinear")
        return "model"

    def inliers_of(model):
        return np.ones(10, dtype=bool)

    model, mask = pose_mod._ransac("test", 10, 3, fit, inliers_of, RansacParams(), 1)
    assert model == "model" and mask.all()
    # Two skipped samples, one full consensus (the loop stops at once), one refit.
    assert len(fits) == 4 and fits[-1] is mask


def test_ransac_propagates_an_error_that_is_not_a_value_error():
    def fit(rows):
        raise ZeroDivisionError("a bug, not a degenerate sample")

    with pytest.raises(ZeroDivisionError):
        pose_mod._ransac("test", 10, 3, fit, lambda model: np.ones(10, dtype=bool), RansacParams(), 1)


def _scattered_problem(estimator, rng):
    """Scattered inputs that no hypothesis explains at a threshold of 1e-6."""
    intr = Intrinsics(width=96, height=96, fov_deg=45.0)
    params = RansacParams(iterations=50, inlier_threshold=1e-6)
    if estimator == "essential":
        return lambda: estimate_essential(rng.uniform(0, 96, (60, 4)), intr, intr, params)
    if estimator == "PnP":
        pixels, pts = rng.uniform(0, 96, (60, 2)), rng.uniform(-5e4, 5e4, (60, 3))
        return lambda: solve_pnp((pixels, pts), intr, params)
    pred, gt = rng.uniform(-5e4, 5e4, (2, 60, 3))
    return lambda: ransac_align(pred, gt, params)


@pytest.mark.parametrize("estimator", ["essential", "PnP", "similarity"])
def test_each_estimator_reports_no_consensus_by_name(estimator):
    # The pattern of test_evaluate_all_outlier_prediction_flags_alignment,
    # for every estimator: scattered inputs, a threshold where no hypothesis
    # explains even its own sample, and the estimator's message.
    solve = _scattered_problem(estimator, np.random.default_rng(40))
    with pytest.raises(RansacError) as info:
        solve()
    assert str(info.value) == f"{estimator} RANSAC found no consensus set"


def _per_point_pnp_jacobian(pc):
    """The per-point loop construction the vectorised Jacobian replaced."""
    n = len(pc)
    jac = np.zeros((2 * n, 6))
    inv_z = 1.0 / pc[:, 2]
    x, y = pc[:, 0], pc[:, 1]
    j_pc_u = np.column_stack([inv_z, np.zeros(n), -x * inv_z**2])
    j_pc_v = np.column_stack([np.zeros(n), inv_z, -y * inv_z**2])
    for i in range(n):
        px = np.array([[0, -pc[i, 2], pc[i, 1]], [pc[i, 2], 0, -pc[i, 0]], [-pc[i, 1], pc[i, 0], 0]])
        jac[2 * i, 0:3] = j_pc_u[i] @ (-px)
        jac[2 * i, 3:6] = j_pc_u[i]
        jac[2 * i + 1, 0:3] = j_pc_v[i] @ (-px)
        jac[2 * i + 1, 3:6] = j_pc_v[i]
    return jac


def test_pnp_jacobian_matches_per_point_construction():
    rng = np.random.default_rng(24)
    for _ in range(10):
        pc = rng.normal(0, 50, (37, 3))
        pc[:, 2] = rng.uniform(10, 500, 37)
        got = pose_mod._pnp_jacobian(pc)
        want = _per_point_pnp_jacobian(pc)
        assert got.shape == (74, 6)
        assert np.max(np.abs(got - want)) <= 1e-12
