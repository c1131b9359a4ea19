import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lunarforge import (
    HapkeParams,
    PairGroundTruth,
    PairPrediction,
    Pose,
    depth_to_pointmap,
    evaluate_pair,
    gsd,
    lighting_preset,
    render_pair,
    sample_pair,
    scale_invariant_loss,
)
from lunarforge import metrics
from lunarforge.camera import norms, rot_z
from lunarforge.cli import synth_dem_for_band
from lunarforge.metrics import (
    _SSIM_TAPS,
    SCALE_CHUNK_ROWS,
    SSIM_WINDOW,
    DegenerateMetricError,
    _window_mean,
    accuracy_completeness,
    profile_metrics,
    profile_rows,
    relative_error,
    scene_scale,
    slope_metrics,
    ssim_depth,
)


# ---------------------------------------------------------------------------
# Chamfer family
# ---------------------------------------------------------------------------


def test_chamfer_identical_clouds():
    rng = np.random.default_rng(1)
    pts = rng.normal(0, 10, (100, 3))
    assert accuracy_completeness(pts, pts) == (0.0, 0.0, 0.0)


def test_chamfer_uniform_offset():
    rng = np.random.default_rng(2)
    gt = rng.uniform(0, 1000, (150, 3))
    pred = gt + np.array([3.0, 0.0, 0.0])
    acc, compl, chamfer = accuracy_completeness(pred, gt)
    # With a uniform 3 m x-offset every nearest neighbor is within 3 m.
    assert acc <= 3.0 + 1e-12 and compl <= 3.0 + 1e-12
    assert chamfer == pytest.approx((acc + compl) / 2, abs=1e-12)


def test_chamfer_small_offset_exact():
    # Spread points far apart so the offset partner stays the nearest neighbor.
    rng = np.random.default_rng(3)
    gt = rng.uniform(0, 10000, (80, 3))
    pred = gt + np.array([0.0, 0.0, 2.5])
    acc, compl, chamfer = accuracy_completeness(pred, gt)
    assert acc == pytest.approx(2.5, abs=1e-9)
    assert compl == pytest.approx(2.5, abs=1e-9)
    assert chamfer == pytest.approx(2.5, abs=1e-9)


def test_chamfer_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(10):
        pred = rng.normal(0, 50, (200, 3))
        gt = rng.normal(0, 50, (200, 3))
        fast = accuracy_completeness(pred, gt)
        ref = oracles.brute_force_nn_means(pred, gt)
        assert fast == pytest.approx(ref, abs=1e-9)


def test_chamfer_matches_brute_force_on_terrain_with_outliers():
    # A 2.5-D terrain cloud with 40% of the prediction thrown 200 m off, as
    # evaluate scores it: the k-d tree's leaves and boxes must not change
    # a single nearest neighbor.
    rng = np.random.default_rng(41)
    ys, xs = np.meshgrid(np.arange(36) * 4.0, np.arange(40) * 4.0, indexing="ij")
    zs = 30 * np.sin(xs / 40) * np.cos(ys / 25) + rng.normal(0, 0.5, xs.shape)
    gt = np.stack([xs, ys, zs], axis=-1).reshape(-1, 3) + [1.5e5, -2.0e4, -1.7e3]
    for trial in range(3):
        pred = gt + rng.normal(0, 2.0, gt.shape)
        outliers = rng.random(len(gt)) < 0.4
        pred[outliers] += rng.normal(0, 200.0, (int(outliers.sum()), 3))
        fast = accuracy_completeness(pred, gt)
        ref = oracles.brute_force_nn_means(pred, gt)
        assert fast == pytest.approx(ref, abs=1e-9)


def test_chamfer_swap_symmetry():
    rng = np.random.default_rng(5)
    a = rng.normal(0, 5, (60, 3))
    b = rng.normal(0, 5, (70, 3))
    acc_ab, compl_ab, ch_ab = accuracy_completeness(a, b)
    acc_ba, compl_ba, ch_ba = accuracy_completeness(b, a)
    assert acc_ab == compl_ba and compl_ab == acc_ba
    assert ch_ab == ch_ba


def test_chamfer_empty_error():
    with pytest.raises(ValueError):
        accuracy_completeness(np.zeros((0, 3)), np.ones((5, 3)))


def test_relative_error_basic():
    assert relative_error(100.0, 10000.0) == pytest.approx(0.01)
    assert relative_error(0.0, 123.0) == 0.0
    with pytest.raises(DegenerateMetricError):
        relative_error(1.0, 0.0)


def test_relative_error_scales_with_scene():
    rng = np.random.default_rng(6)
    gt = rng.normal(0, 100, (500, 3))
    s1 = scene_scale(gt)
    s2 = scene_scale(2 * gt)
    assert s2 == pytest.approx(2 * s1, rel=1e-12)
    assert relative_error(50.0, s2) == pytest.approx(relative_error(50.0, s1) / 2, rel=1e-12)


@pytest.mark.parametrize("n", [1, SCALE_CHUNK_ROWS - 1, SCALE_CHUNK_ROWS, SCALE_CHUNK_ROWS + 1, 2 * SCALE_CHUNK_ROWS + 7])
def test_scene_scale_in_chunks_is_the_whole_cloud_formula_bit_for_bit(n):
    rng = np.random.default_rng(n)
    gt = (rng.normal(0, 300, (n, 3)) + [1.5e6, -1.2e6, 1.7e3]).astype(np.float32).astype(np.float64)
    assert scene_scale(gt) == float(np.mean(norms(gt - gt.mean(axis=0))))


# ---------------------------------------------------------------------------
# Slope metrics
# ---------------------------------------------------------------------------


def random_terrain(seed, n=48):
    rng = np.random.default_rng(seed)
    ys, xs = np.meshgrid(np.arange(float(n)), np.arange(float(n)), indexing="ij")
    z = 20 * np.sin(xs / 7) + 15 * np.cos(ys / 5) + rng.normal(0, 1, (n, n))
    return z


def test_slope_identity():
    z = random_terrain(7)
    corr, mae = slope_metrics(z, z, 5.0)
    assert corr == pytest.approx(1.0, abs=1e-12)
    assert mae == 0.0


def test_slope_invariant_to_vertical_offset():
    z = random_terrain(8)
    corr, mae = slope_metrics(z + 250.0, z, 5.0)
    assert corr == pytest.approx(1.0, abs=1e-12)
    assert mae == pytest.approx(0.0, abs=1e-12)


def test_slope_sign_flip_vs_pearson_oracle():
    z = random_terrain(9)
    corr, _ = slope_metrics(-z, z, 5.0)
    from lunarforge.terrain import slope_map

    sp = slope_map(-z, 5.0)
    sg = slope_map(z, 5.0)
    assert corr == pytest.approx(oracles.pearson_scalar(sp, sg), abs=1e-12)


def test_slope_random_vs_pearson_oracle():
    a = random_terrain(10)
    b = random_terrain(11)
    corr, mae = slope_metrics(a, b, 2.0)
    from lunarforge.terrain import slope_map

    sa = slope_map(a, 2.0)
    sb = slope_map(b, 2.0)
    assert corr == pytest.approx(oracles.pearson_scalar(sa, sb), abs=1e-12)
    assert mae == pytest.approx(float(np.mean(np.abs(sa - sb))), abs=1e-12)


def test_slope_zero_variance_flagged():
    flat = np.full((16, 16), 3.0)
    with pytest.raises(DegenerateMetricError):
        slope_metrics(flat, flat, 1.0)


# ---------------------------------------------------------------------------
# SSIM
# ---------------------------------------------------------------------------


def test_ssim_identity_exact():
    x = random_terrain(12) + 500.0
    assert ssim_depth(x, x) == 1.0


def test_ssim_mean_shift_closed_form():
    gt = random_terrain(13, n=40) + 300.0
    valid = np.isfinite(gt)
    dr = float(gt.max() - gt.min())
    d = 0.1 * dr
    pred = gt + d
    got = ssim_depth(pred, gt)
    # With equal variances and perfect covariance the structure factor is 1,
    # leaving the closed-form luminance term in the window means.
    mu, full = oracles.gaussian_window_means(gt, valid)
    c1 = (0.01 * dr) ** 2
    mu_y = mu[full]
    mu_x = mu_y + d
    expect = np.mean((2 * mu_x * mu_y + c1) / (mu_x**2 + mu_y**2 + c1))
    assert got == pytest.approx(float(expect), abs=1e-9)


def test_ssim_window_means_match_the_oracle():
    # The separable window against the brute-force 2-D sum, on a masked
    # depth-like raster: same fully-supported windows, same means to 1e-12.
    rng = np.random.default_rng(15)
    img = random_terrain(15, n=40) + 1500.0
    valid = rng.random(img.shape) > 0.01
    valid[8:14, 20:31] = False
    mu, full = oracles.gaussian_window_means(img, valid)
    assert full.sum() > 100
    assert np.array_equal(_window_mean(valid.astype(np.float64)) > 1 - 1e-9, full)
    got = _window_mean(np.where(valid, img, 0.0))
    np.testing.assert_allclose(got[full], mu[full], rtol=1e-12, atol=0)


@pytest.mark.parametrize("shape", [(128, 128), (37, 90), (1, 1), (3, 20), (20, 3)])
def test_window_mean_is_two_correlate1d_passes_bit_for_bit(shape):
    # scipy.ndimage stays the reference here: the numpy passes sum in its order.
    from scipy import ndimage

    rng = np.random.default_rng(list(shape))
    depth_like = 1500.0 + rng.normal(0.0, 40.0, shape)
    for img in (rng.normal(0.0, 1e3, shape), depth_like, depth_like**2, (rng.random(shape) < 0.7) * 1.0):
        img[rng.random(shape) < 0.3] = 0.0  # exact zeros, as off the valid mask
        cols = ndimage.correlate1d(img, _SSIM_TAPS, axis=0, mode="constant", cval=0.0)
        expected = ndimage.correlate1d(cols, _SSIM_TAPS, axis=1, mode="constant", cval=0.0)
        assert _window_mean(img).tobytes() == expected.tobytes()
        # Rows start..stop from only the rows their windows read.
        for start, stop in ((0, 1), (2, shape[0] - 2), (shape[0] // 2, shape[0])):
            if start >= stop:
                continue
            lo, hi = max(start - 5, 0), min(stop + 5, shape[0])
            rows = _window_mean(img[lo:hi], start - lo, stop - lo)
            assert rows.tobytes() == expected[start:stop].tobytes()


def _ssim_outcome(ssim, pred, gt):
    """ssim's value as its exact bits, or the message of its DegenerateMetricError."""
    try:
        return ssim(pred, gt).hex()
    except DegenerateMetricError as exc:
        return f"raises: {exc}"


def _depth_pair(shape, seed, strip_rows):
    """Depth-like rasters, NaN at 1% of pixels and on both sides of strip
    boundaries at least 8 rows apart (in the ground truth above, in the
    prediction alone below)."""
    rng = np.random.default_rng([seed, *shape])
    gt = 1500.0 + rng.normal(0.0, 40.0, shape)
    pred = gt + rng.normal(0.0, 2.0, shape)
    gt[rng.random(shape) < 0.01] = np.nan
    for boundary in range(strip_rows, shape[0], max(strip_rows, 8)):
        col = int(rng.integers(shape[1]))
        gt[boundary - 1, col] = np.nan
        pred[boundary, (col + 7) % shape[1]] = np.nan
    return pred, gt


@pytest.mark.parametrize("strip_rows", [64, 8, 1])
@pytest.mark.parametrize("shape", [(128, 128), (128, 40), (100, 37), (64, 30), (40, 50), (16, 24), (11, 30),
                                   (7, 30), (3, 20), (1, 1)])
def test_ssim_strips_equal_the_whole_view_oracle(monkeypatch, shape, strip_rows):
    # Heights that are and are not multiples of the strip, views shorter than
    # one strip or than the 11-row window (no window has full support), and
    # invalid pixels next to strip boundaries.
    monkeypatch.setattr(metrics, "SSIM_STRIP_ROWS", strip_rows)
    pred, gt = _depth_pair(shape, 16, strip_rows)
    expected = _ssim_outcome(oracles.whole_view_ssim_depth, pred, gt)
    assert _ssim_outcome(ssim_depth, pred, gt) == expected
    assert _ssim_outcome(ssim_depth, gt, gt) == _ssim_outcome(oracles.whole_view_ssim_depth, gt, gt)
    if min(shape) < SSIM_WINDOW:  # a 1 x 1 view is constant before that
        assert expected in ("raises: no window has full valid support", "raises: constant ground-truth depth: L = 0")
    elif min(shape) >= 30:
        assert not expected.startswith("raises")


@pytest.mark.parametrize("strip_rows", [64, 8])
def test_ssim_strips_raise_what_the_whole_view_oracle_raises(monkeypatch, strip_rows):
    monkeypatch.setattr(metrics, "SSIM_STRIP_ROWS", strip_rows)
    pred, gt = _depth_pair((40, 40), 17, strip_rows)
    holes = np.ones((40, 40))
    holes[::9] = np.nan  # every 9th row invalid: no 11-row window is fully valid
    for p, g in ((pred, np.full_like(gt, np.nan)), (pred, np.where(np.isfinite(gt), 1500.0, np.nan)),
                 (pred, gt * holes)):
        expected = _ssim_outcome(oracles.whole_view_ssim_depth, p, g)
        assert expected.startswith("raises")
        assert _ssim_outcome(ssim_depth, p, g) == expected


def test_ssim_random_uncorrelated_small():
    rng = np.random.default_rng(1)
    a = rng.normal(0, 1, (512, 512))
    b = rng.normal(0, 1, (512, 512))
    assert abs(ssim_depth(a, b)) < 0.1


def test_ssim_constant_gt_degenerate():
    with pytest.raises(DegenerateMetricError):
        ssim_depth(np.ones((32, 32)), np.ones((32, 32)))


def test_ssim_respects_valid_mask():
    x = random_terrain(14) + 100.0
    y = x.copy()
    y[:10, :10] = np.nan  # invalid region excluded from both
    assert ssim_depth(y, y) == 1.0


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


def test_profile_rows_include_center():
    assert profile_rows(128, 1) == [64]
    rows = profile_rows(128, 5)
    assert len(rows) == 5 and 64 in rows
    assert rows == sorted(rows)
    assert profile_rows(129, 1) == [64]


def test_profile_identity():
    z = random_terrain(15) + 50.0
    mae, corr = profile_metrics(z, z, n_profiles=5)
    assert mae == 0.0
    assert corr == pytest.approx(1.0, abs=1e-12)


def test_profile_constant_offset():
    z = random_terrain(16) + 50.0
    mae, corr = profile_metrics(z + 5.0, z, n_profiles=5)
    assert mae == pytest.approx(5.0, abs=1e-12)
    assert corr == pytest.approx(1.0, abs=1e-12)


def test_profile_single_is_central_row():
    z = random_terrain(17)
    pred = z.copy()
    pred[z.shape[0] // 2] += 2.0  # only the central row differs
    mae, _ = profile_metrics(pred, z, n_profiles=1)
    assert mae == pytest.approx(2.0, abs=1e-12)
    untouched = z.copy()
    untouched[0] += 99.0  # non-central rows are ignored for n=1
    mae2, corr2 = profile_metrics(untouched, z, n_profiles=1)
    assert mae2 == 0.0 and corr2 == pytest.approx(1.0)


def test_profile_skips_sparse_rows():
    z = random_terrain(18)
    pred = z.copy()
    gt = z.copy()
    gt[z.shape[0] // 2] = np.nan  # central profile has no valid pixels
    mae, corr = profile_metrics(pred, gt, n_profiles=5)
    assert mae == 0.0 and corr == pytest.approx(1.0)
    all_nan = np.full_like(z, np.nan)
    with pytest.raises(DegenerateMetricError):
        profile_metrics(pred, all_nan, n_profiles=3)


# ---------------------------------------------------------------------------
# Scale-invariant loss
# ---------------------------------------------------------------------------


def random_pointmap(seed, h=24, w=24):
    rng = np.random.default_rng(seed)
    pts = rng.normal(0, 100, (h, w, 3)) + np.array([0, 0, -500.0])
    valid = rng.random((h, w)) > 0.1
    return pts, valid


def test_si_loss_identity():
    pts, valid = random_pointmap(19)
    assert scale_invariant_loss(pts[valid], pts[valid]) == 0.0


def test_si_loss_scale_invariance():
    pts, valid = random_pointmap(20)
    base = scale_invariant_loss(pts[valid], pts[valid])
    for s in (1e-3, 1.0, 1e3, 7.3):
        assert scale_invariant_loss(s * pts[valid], pts[valid]) == pytest.approx(base, abs=1e-12)


def test_si_loss_single_displacement_hand_computed():
    h = w = 8
    pts = np.zeros((h, w, 3))
    pts[..., 2] = -100.0
    pred = pts.copy()
    pred[3, 4] = [3.0, -4.0, -100.0]
    z_gt = 100.0
    norms = np.full(h * w, 100.0)
    norms[3 * w + 4] = math.sqrt(3**2 + 4**2 + 100**2)
    z_pred = norms.mean()
    per_pixel = np.linalg.norm(
        pts.reshape(-1, 3) / z_gt - pred.reshape(-1, 3) / z_pred, axis=1
    ).mean()
    assert scale_invariant_loss(pred, pts) == pytest.approx(per_pixel, abs=1e-15)


def test_si_loss_degenerate_origin():
    pts = np.zeros((4, 4, 3))
    with pytest.raises(DegenerateMetricError):
        scale_invariant_loss(pts, pts)


# ---------------------------------------------------------------------------
# evaluate_pair
# ---------------------------------------------------------------------------


def test_evaluate_identity_perfect(nadir_gt_pair):
    gt = nadir_gt_pair["gt"]
    pred = PairPrediction(pointmap_a=nadir_gt_pair["pm_a"], pointmap_b=nadir_gt_pair["pm_b"],
                          pose_a=gt.pose_a, pose_b=gt.pose_b)
    rep = evaluate_pair(pred, gt, seed=0)
    assert rep.chamfer_m < 1e-6
    assert rep.accuracy_m < 1e-6 and rep.completeness_m < 1e-6
    assert rep.chamfer_m == pytest.approx((rep.accuracy_m + rep.completeness_m) / 2, abs=1e-9)
    assert rep.slope_corr > 1 - 1e-9
    assert rep.ssim > 1 - 1e-9
    assert rep.profile_corr > 1 - 1e-9
    assert rep.si_loss < 1e-12
    assert rep.rra_deg == 0.0 and rep.rta_deg == 0.0
    assert rep.flags == {}


FAR_ORIGIN = np.array([1.5e6, -1.2e6, 0.0])  # metres; float32 spacing there is 0.125 m


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.sampled_from(["nadir", "oblique", "dynamic"]), st.integers(0, 9), st.integers(0, 2**16))
def test_evaluate_identity_holds_for_float32_pointmaps_far_from_the_origin(kind, band, seed):
    """A ground-truth copy whose pointmaps and poses sit 1.5e6 m from the
    world origin, stored as float32 like the files, keeps acceptance 05's
    identity values.  Only profile_mae_m feels the 0.125 m float32 spacing:
    the predicted depths come from the stored coordinates (about 1-2 cm)."""
    dem = synth_dem_for_band(kind, band, seed=seed, size=96)
    spec, rig = sample_pair(kind, seed, band, dem, psf_sigma=0.0, rays_per_pixel=1, width=48, height=48)
    ((prod_a, prod_b),) = render_pair(dem, rig, [lighting_preset("side")], HapkeParams(), seed=seed)
    pm_a, pm_b = ((depth_to_pointmap(prod) + FAR_ORIGIN).astype(np.float32) for prod in (prod_a, prod_b))
    pose_a, pose_b = (Pose(rotation=p.rotation, translation=p.translation + FAR_ORIGIN)
                      for p in (rig.pose_a, rig.pose_b))
    gt = PairGroundTruth(
        pointmap_a=pm_a, pointmap_b=pm_b, pose_a=pose_a, pose_b=pose_b,
        depth_a=prod_a.depth.astype(np.float32), depth_b=prod_b.depth.astype(np.float32),
        gsd_m=gsd(spec.altitude_m, rig.intrinsics.fov_deg, rig.intrinsics.width),
    )
    rep = evaluate_pair(PairPrediction(pointmap_a=pm_a, pointmap_b=pm_b, pose_a=pose_a, pose_b=pose_b), gt)
    assert rep.flags == {}
    assert rep.accuracy_m < 1e-6 and rep.completeness_m < 1e-6 and rep.chamfer_m < 1e-6
    assert rep.slope_corr > 1 - 1e-6
    assert rep.ssim > 1 - 1e-6
    assert rep.profile_corr > 1 - 1e-6
    assert rep.si_loss < 1e-9
    assert rep.rra_deg == 0.0 and rep.rta_deg == 0.0


def test_evaluate_negative_seed_raises_instead_of_flagging(nadir_gt_pair):
    gt = nadir_gt_pair["gt"]
    pred = PairPrediction(pointmap_a=nadir_gt_pair["pm_a"], pointmap_b=nadir_gt_pair["pm_b"],
                          pose_a=gt.pose_a, pose_b=gt.pose_b)
    with pytest.raises(ValueError, match="seed"):
        evaluate_pair(pred, gt, seed=-1)


def test_evaluate_similarity_absorbed(nadir_gt_pair):
    gt = nadir_gt_pair["gt"]
    rng = np.random.default_rng(30)
    for s in (0.5, 2.0):
        r = rot_z(rng.uniform(0, 360)) @ oracles.rot_y(rng.uniform(-60, 60))
        t = rng.normal(0, 500, 3)

        def xform(pm):
            pts = s * (pm.reshape(-1, 3) @ r.T) + t
            return pts.reshape(pm.shape)

        pred = PairPrediction(pointmap_a=xform(nadir_gt_pair["pm_a"]),
                              pointmap_b=xform(nadir_gt_pair["pm_b"]),
                              pose_a=gt.pose_a, pose_b=gt.pose_b)
        rep = evaluate_pair(pred, gt, seed=1)
        assert rep.alignment.scale == pytest.approx(1 / s, rel=1e-9)
        assert rep.accuracy_m < 1e-6 and rep.completeness_m < 1e-6 and rep.chamfer_m < 1e-6
        assert rep.slope_corr > 1 - 1e-9
        assert rep.ssim > 1 - 1e-6
        assert rep.si_loss < 1e-9


def test_evaluate_elevation_noise_band(nadir_gt_pair):
    # Monte-Carlo oracle band frozen from pre-build runs: sigma=50 m Gaussian
    # elevation noise on a nadir pair gives chamfer in [30, 70] m.
    gt = nadir_gt_pair["gt"]
    rng = np.random.default_rng(100)

    def noisy(pm):
        pts = pm.copy()
        pts[..., 2] += rng.normal(0, 50.0, pts.shape[:2])
        return pts

    pred = PairPrediction(pointmap_a=noisy(nadir_gt_pair["pm_a"]),
                          pointmap_b=noisy(nadir_gt_pair["pm_b"]),
                          pose_a=gt.pose_a, pose_b=gt.pose_b)
    rep = evaluate_pair(pred, gt, seed=0)
    assert 30.0 <= rep.chamfer_m <= 70.0
    assert rep.slope_corr < 0.99  # strictly below the noiseless value of 1.0


def test_evaluate_zero_baseline_flags_rta(nadir_gt_pair):
    from lunarforge.metrics import PairGroundTruth

    gt0 = nadir_gt_pair["gt"]
    gt = PairGroundTruth(pointmap_a=gt0.pointmap_a, pointmap_b=gt0.pointmap_a,
                         pose_a=gt0.pose_a, pose_b=gt0.pose_a,
                         depth_a=gt0.depth_a, depth_b=gt0.depth_a, gsd_m=gt0.gsd_m)
    pred = PairPrediction(pointmap_a=gt0.pointmap_a, pointmap_b=gt0.pointmap_a,
                          pose_a=gt0.pose_a, pose_b=gt0.pose_a)
    rep = evaluate_pair(pred, gt, seed=0)
    assert rep.rta_deg is None
    assert rep.flags.get("rta_deg") == "degenerate_baseline"
    assert rep.rra_deg == 0.0


def test_report_json_never_nan(nadir_gt_pair):
    import json

    gt = nadir_gt_pair["gt"]
    pred = PairPrediction(pointmap_a=nadir_gt_pair["pm_a"], pointmap_b=nadir_gt_pair["pm_b"],
                          pose_a=gt.pose_a, pose_b=gt.pose_b)
    rep = evaluate_pair(pred, gt, seed=0)
    text = json.dumps(rep.to_json_dict(), allow_nan=False)  # raises on NaN
    assert "NaN" not in text
    keys = set(rep.to_json_dict())
    assert {"accuracy_m", "completeness_m", "chamfer_m", "accuracy_rel", "completeness_rel",
            "chamfer_rel", "slope_corr", "slope_mae_deg", "profile_mae_m", "profile_corr",
            "ssim", "si_loss", "alignment"} <= keys


def test_evaluate_all_outlier_prediction_flags_alignment(nadir_gt_pair):
    gt = nadir_gt_pair["gt"]
    rng = np.random.default_rng(40)

    def scattered(pm):
        return rng.uniform(-5e4, 5e4, pm.shape)

    pred = PairPrediction(pointmap_a=scattered(nadir_gt_pair["pm_a"]),
                          pointmap_b=scattered(nadir_gt_pair["pm_b"]),
                          pose_a=gt.pose_a, pose_b=gt.pose_b)
    # Against a GSD of 1/3 cm the 3-GSD threshold is 1 cm, where no
    # similarity explains even its own 3-point sample, so no hypothesis
    # reaches consensus.  (At the real GSD a similarity that shrinks the
    # scatter onto the terrain catches a few points by chance.)
    rep = evaluate_pair(pred, replace(gt, gsd_m=0.01 / 3), seed=0)
    assert rep.alignment is None
    assert rep.flags["alignment"] == "failed: similarity RANSAC found no consensus set"
    assert rep.chamfer_m is None
    assert rep.rra_deg == pytest.approx(0.0, abs=1e-9)


def test_evaluate_scatter_prediction_fails_certification_at_default_config(nadir_gt_pair):
    # At the default 3-GSD threshold a similarity that shrinks the scatter
    # onto the terrain catches a few points by chance.  So small a consensus
    # would need far more hypotheses than the cap to be found reliably, so
    # the alignment is rejected instead of scored.
    gt = nadir_gt_pair["gt"]
    rng = np.random.default_rng(40)

    def scattered(pm):
        return rng.uniform(-5e4, 5e4, pm.shape)

    pred = PairPrediction(pointmap_a=scattered(nadir_gt_pair["pm_a"]),
                          pointmap_b=scattered(nadir_gt_pair["pm_b"]),
                          pose_a=gt.pose_a, pose_b=gt.pose_b)
    rep = evaluate_pair(pred, gt)
    assert rep.alignment is None
    assert rep.flags["alignment"].startswith("failed: ")
    assert "too small to certify" in rep.flags["alignment"]
    assert rep.chamfer_m is None


def test_evaluate_programming_error_propagates(nadir_gt_pair, monkeypatch):
    import lunarforge.metrics as metrics_mod

    def broken(*args, **kwargs):
        raise TypeError("bug inside the aligner")

    monkeypatch.setattr(metrics_mod, "ransac_align", broken)
    gt = nadir_gt_pair["gt"]
    pred = PairPrediction(pointmap_a=nadir_gt_pair["pm_a"], pointmap_b=nadir_gt_pair["pm_b"],
                          pose_a=gt.pose_a, pose_b=gt.pose_b)
    with pytest.raises(TypeError, match="bug inside the aligner"):
        evaluate_pair(pred, gt, seed=0)
