"""Acceptance gate: each test exercises one release criterion at its stated
tolerance and prints one PASS/FAIL line (run with -s to see them)."""

import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

import oracles
from lunarforge import (
    DemGrid,
    HapkeParams,
    RansacParams,
    depth_to_pointmap,
    estimate_essential,
    gsd,
    gt_correspondences,
    render_pair,
    rra,
    rta,
    sample_pair,
    scale_invariant_loss,
    solve_pnp,
    synth_crater_dem,
)
from lunarforge.camera import CameraRig, Intrinsics, Pose, camera_dirs, relative_pose
from lunarforge.cli import main, synth_dem_for_band
from lunarforge.metrics import accuracy_completeness
from lunarforge.pose import DegenerateBaselineError, ransac_align
from lunarforge.trajectory import lighting_preset

SUN = lighting_preset("side")
HAPKE = HapkeParams()


def report(n, desc, fn):
    try:
        fn()
    except BaseException:
        print(f"\n[ACCEPTANCE {n:02d}] FAIL  {desc}")
        raise
    print(f"\n[ACCEPTANCE {n:02d}] PASS  {desc}")


def tree_digest(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_criterion_01_gsd_table():
    table = [
        (3500, 5.7), (6200, 10.0), (9500, 15.4), (12800, 20.7), (16100, 26.0),
        (19400, 31.4), (22700, 36.7), (26000, 42.1), (29200, 47.2), (30500, 49.3),
    ]

    def check():
        for altitude, expected in table:
            got = gsd(altitude, 45.0, 512)
            assert abs(got - expected) < 0.1, (altitude, got, expected)

    report(1, "GSD reproduces all ten published altitude rows within 0.1 m/px", check)


def test_criterion_02_analytic_flat_render():
    def check():
        flat = DemGrid(cell_size=60.0, origin_x=-1890.0, origin_y=-1890.0, elevations=np.zeros((64, 64)))
        intr = Intrinsics(width=128, height=128, fov_deg=45.0)
        pose = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 2000.0]))
        rig = CameraRig(intrinsics=intr, pose_a=pose, pose_b=pose, psf_sigma=0.0, rays_per_pixel=1)
        ((prod, _),) = render_pair(flat, rig, [SUN], HAPKE, seed=0)
        assert np.isfinite(prod.depth).all()
        vv, uu = np.meshgrid(np.arange(128.0), np.arange(128.0), indexing="ij")
        d = camera_dirs(intr, uu, vv)
        analytic = 2000.0 / (-d[..., 2])
        rel = np.abs(prod.depth - analytic) / analytic
        assert rel.max() < 1e-6, rel.max()

    report(2, "flat-DEM nadir depth matches the analytic plane within 1e-6 relative", check)


def test_criterion_03_intersection_oracle():
    def check():
        rng = np.random.default_rng(2024)
        for seed in (0, 1, 2):
            dem = synth_crater_dem(seed, 96, 96, 5.0, 4, 4)
            n = 10_000
            margin = 2 * dem.cell_size
            x = rng.uniform(dem.x_min + margin, dem.x_max - margin, n)
            y = rng.uniform(dem.y_min + margin, dem.y_max - margin, n)
            zmax = float(dem.elevations.max())
            extent = dem.x_max - dem.x_min
            z = zmax + rng.uniform(0.05, 0.30, n) * extent
            zen = np.radians(rng.uniform(0.0, 50.0, n))
            az = rng.uniform(0, 2 * np.pi, n)
            dirs = np.column_stack(
                [np.sin(zen) * np.cos(az), np.sin(zen) * np.sin(az), -np.cos(zen)]
            )
            origins = np.column_stack([x, y, z])
            from lunarforge._heightfield import intersect_rays

            t_fast, hit_fast = intersect_rays(dem, origins, dirs)
            t_ref, hit_ref = oracles.brute_force_hits(dem, origins, dirs)
            assert np.array_equal(hit_fast, hit_ref)
            err = np.abs(t_fast[hit_fast] - t_ref[hit_ref])
            assert err.max() <= 2e-3 * dem.cell_size, err.max()

    report(3, "10,000 random rays per crater DEM agree with the per-cell oracle", check)


def test_criterion_03_tolerance_holds_for_grazing_rays():
    """Criterion 03's check, hit/miss exact and t within 2e-3 cell, for
    descending rays 50-89.5 degrees from the zenith, where the DDA alternates
    most between x and y steps.  Half start just above zmax and half just
    above the local terrain, so that most of them hit while still grazing."""
    from lunarforge._heightfield import intersect_rays

    rng = np.random.default_rng(2025)
    for seed in (0, 1, 2):
        dem = synth_crater_dem(seed, 96, 96, 5.0, 4, 4)
        n = 3000
        margin = 2 * dem.cell_size
        x = rng.uniform(dem.x_min + margin, dem.x_max - margin, n)
        y = rng.uniform(dem.y_min + margin, dem.y_max - margin, n)
        zmax = float(dem.elevations.max())
        z = np.where(np.arange(n) % 2 == 0, zmax, oracles.bilinear(dem, x, y))
        z = z + rng.uniform(0.01, 2.0, n) * dem.cell_size
        zen = np.radians(rng.uniform(50.0, 89.5, n))
        az = rng.uniform(0, 2 * np.pi, n)
        dirs = np.column_stack([np.sin(zen) * np.cos(az), np.sin(zen) * np.sin(az), -np.cos(zen)])
        origins = np.column_stack([x, y, z])
        t_fast, hit_fast = intersect_rays(dem, origins, dirs)
        t_ref, hit_ref = oracles.brute_force_hits(dem, origins, dirs)
        assert np.array_equal(hit_fast, hit_ref)
        assert 0.5 < hit_fast.mean() < 1.0
        err = np.abs(t_fast[hit_fast] - t_ref[hit_ref])
        assert err.max() <= 2e-3 * dem.cell_size, err.max()


def test_criterion_04_pose_recovery_closed_loop():
    def check():
        dem_cache = {}
        for kind in ("nadir", "oblique", "dynamic"):
            for i in range(20):
                band = i % 10
                key = (kind, band)
                if key not in dem_cache:
                    dem_cache[key] = synth_dem_for_band(kind, band, seed=7, size=128)
                dem = dem_cache[key]
                spec, rig = sample_pair(kind, 1000 + i, band, dem, psf_sigma=0.0,
                                        rays_per_pixel=1, width=64, height=64)
                ((pa, pb),) = render_pair(dem, rig, [SUN], HAPKE, seed=i)
                corr = gt_correspondences(pa, pb, stride=4)
                assert len(corr) >= 8, (kind, i, len(corr))
                rel_gt = relative_pose(rig.pose_a, rig.pose_b)
                est = estimate_essential(corr, rig.intrinsics, rig.intrinsics,
                                         RansacParams(seed=i))
                assert rra(rel_gt.rotation, est.relative_pose.rotation) < 0.1, (kind, i)
                assert rta(rel_gt.translation, est.relative_pose.translation) < 0.1, (kind, i)

                pm_b = depth_to_pointmap(pb)
                stride = 6
                valid = np.isfinite(pm_b).all(-1)[::stride, ::stride]
                vv, uu = np.meshgrid(np.arange(0, 64, stride, dtype=float),
                                     np.arange(0, 64, stride, dtype=float), indexing="ij")
                pixels = np.column_stack([uu[valid], vv[valid]])
                pts = pm_b[::stride, ::stride][valid]
                pose = solve_pnp((pixels, pts), rig.intrinsics, RansacParams(seed=i))
                rot_err_rad = math.radians(rra(rig.pose_b.rotation, pose.rotation))
                trans_err = float(np.linalg.norm(pose.translation - rig.pose_b.translation))
                assert rot_err_rad < 1e-3, (kind, i, rot_err_rad)
                assert trans_err < 1e-3 * spec.altitude_m, (kind, i, trans_err)

    report(4, "essential & PnP recover 20 pairs per trajectory kind (RRA/RTA < 0.1 deg)", check)


def test_criterion_05_metric_identity(tmp_path):
    def check():
        gt_dir = tmp_path / "gt"
        code = main(["generate", "--synth", "--trajectory", "oblique", "--bands", "1",
                     "--pairs", "2", "--seed", "5", "--res", "48", "--synth-size", "112",
                     "--stride", "2", "--lighting", "side", "--out", str(gt_dir)])
        assert code == 0
        pred = tmp_path / "pred"
        pred.mkdir()
        for line in (gt_dir / "manifest.jsonl").read_text().splitlines()[1:]:
            record = json.loads(line)
            shutil.copytree(gt_dir / record["pair_id"], pred / record["pair_id"])
        rep_path = tmp_path / "report.jsonl"
        code = main(["evaluate", "--gt", str(gt_dir), "--pred", str(pred),
                     "--report", str(rep_path)])
        assert code == 0
        lines = [json.loads(ln) for ln in rep_path.read_text().splitlines()]
        aggregate = lines[-1]
        assert aggregate["pairs_missing"] == 0
        assert aggregate["rra_table"]["2"] == 1.0
        assert aggregate["rta_table"]["2"] == 1.0
        for entry in lines[:-1]:
            assert entry["status"] == "ok"
            assert entry["accuracy_m"] < 1e-6
            assert entry["completeness_m"] < 1e-6
            assert entry["chamfer_m"] < 1e-6
            assert entry["slope_corr"] > 1 - 1e-6
            assert entry["ssim"] > 1 - 1e-6
            assert entry["profile_corr"] > 1 - 1e-6
            assert entry["si_loss"] < 1e-9

    report(5, "evaluate(GT as prediction) is perfect: zero errors, RRA@2 = RTA@2 = 100%", check)


def test_criterion_06_alignment_absorption(nadir_gt_pair):
    def check():
        gt = nadir_gt_pair["gt"]
        pm_a, pm_b = nadir_gt_pair["pm_a"], nadir_gt_pair["pm_b"]
        gt_cloud = np.concatenate([pm_a[np.isfinite(pm_a).all(-1)], pm_b[np.isfinite(pm_b).all(-1)]])
        rng = np.random.default_rng(66)
        for s in (0.5, 2.0):
            from lunarforge.camera import rot_z
            from oracles import rot_x

            r = rot_z(rng.uniform(0, 360)) @ rot_x(rng.uniform(-70, 70))
            t = rng.normal(0, 1000, 3)
            pred_cloud = s * gt_cloud @ r.T + t
            transform, inliers = ransac_align(
                pred_cloud, gt_cloud,
                RansacParams(iterations=500, inlier_threshold=3 * gt.gsd_m, seed=3),
            )
            assert inliers.all()
            dist = np.linalg.norm(transform.apply(pred_cloud) - gt_cloud, axis=1)
            assert dist.max() < 1e-6, dist.max()
            acc, compl, chamfer = accuracy_completeness(transform.apply(pred_cloud), gt_cloud)
            assert chamfer < 1e-6

    report(6, "s*R*gt + t predictions evaluate as perfect after RANSAC alignment", check)


def test_criterion_07_scale_invariance():
    def check():
        rng = np.random.default_rng(7)
        for trial in range(5):
            pts = rng.normal(0, 200, (32, 32, 3)) + np.array([0, 0, -1500.0])
            valid = rng.random((32, 32)) > 0.15
            pred = pts + rng.normal(0, 5, pts.shape)
            base = scale_invariant_loss(pred[valid], pts[valid])
            for s in (1e-3, 1.0, 1e3):
                got = scale_invariant_loss(s * pred[valid], pts[valid])
                assert abs(got - base) <= 1e-12, (s, got, base)

    report(7, "pointmap loss is scale-invariant to 1e-12 for s in {1e-3, 1, 1e3}", check)


def test_criterion_08_chamfer_brute_force():
    def check():
        rng = np.random.default_rng(8)
        for _ in range(50):
            pred = rng.normal(0, 100, (200, 3))
            cloud_gt = rng.normal(0, 100, (200, 3))
            fast = accuracy_completeness(pred, cloud_gt)
            ref = oracles.brute_force_nn_means(pred, cloud_gt)
            for a, b in zip(fast, ref):
                assert abs(a - b) < 1e-9

    report(8, "spatial-index chamfer equals O(n^2) brute force on 50 cloud pairs", check)


CRITERION_09_ARGS = ["generate", "--synth", "--trajectory", "dynamic", "--bands", "0",
                     "--pairs", "2", "--seed", "11", "--res", "32", "--synth-size", "112",
                     "--stride", "2", "--lighting", "side"]


def test_criterion_09_generate_determinism(tmp_path, monkeypatch):
    def check():
        digests = []
        for name, workers in (("runA", "1"), ("runB", "1"), ("runC", "8")):
            out = tmp_path / name
            monkeypatch.setenv("LUNARFORGE_THREADS", workers)
            assert main(CRITERION_09_ARGS + ["--out", str(out)]) == 0
            digests.append(tree_digest(out))
        assert digests[0] == digests[1], "repeat run differs"
        assert digests[0] == digests[2], "worker count changed the output"

    report(9, "cmd_generate yields byte-identical trees across runs and workers {1, 8}", check)


@pytest.mark.parametrize("workers, pools", [("1", [1] * 2), ("8", [8] * 2)])
def test_criterion_09_command_renders_in_parallel_only_above_one_thread(
        tmp_path, monkeypatch, renderer_pools, workers, pools):
    # So "workers {1, 8}" compares a serial run with a parallel one: each of
    # the 2 pairs opens one pool, which at 1 thread runs its two view tasks
    # one at a time, and at 8 threads runs them at once, each one band of 32
    # rows.
    monkeypatch.setenv("LUNARFORGE_THREADS", workers)
    assert main(CRITERION_09_ARGS + ["--out", str(tmp_path / "run")]) == 0
    assert renderer_pools == pools


def test_criterion_10_degenerate_inputs(tmp_path, nadir_gt_pair):
    def check():
        # Zero baseline: same pose for both views.
        from lunarforge.metrics import PairGroundTruth, PairPrediction, evaluate_pair

        dem = nadir_gt_pair["dem"]
        rig0 = nadir_gt_pair["rig"]
        rig = CameraRig(intrinsics=rig0.intrinsics, pose_a=rig0.pose_a, pose_b=rig0.pose_a,
                        psf_sigma=0.0, rays_per_pixel=1)
        ((pa, pb),) = render_pair(dem, rig, [SUN], HAPKE, seed=1)
        corr = gt_correspondences(pa, pb, stride=2)
        with pytest.raises(DegenerateBaselineError):
            estimate_essential(corr, rig.intrinsics, rig.intrinsics, RansacParams(seed=1))
        pm_a = depth_to_pointmap(pa)
        pm_b = depth_to_pointmap(pb)
        gt = PairGroundTruth(pointmap_a=pm_a, pointmap_b=pm_b, pose_a=rig.pose_a,
                             pose_b=rig.pose_b, depth_a=pa.depth, depth_b=pb.depth,
                             gsd_m=nadir_gt_pair["gt"].gsd_m)
        pred = PairPrediction(pointmap_a=pm_a, pointmap_b=pm_b, pose_a=rig.pose_a, pose_b=rig.pose_b)
        rep = evaluate_pair(pred, gt, seed=0)
        assert rep.flags.get("rta_deg") == "degenerate_baseline"
        assert rep.rta_deg is None

        # Disjoint footprints under --allow-disjoint: generate + evaluate without crash.
        gt_dir = tmp_path / "gt"
        code = main(["generate", "--synth", "--trajectory", "nadir", "--bands", "0",
                     "--pairs", "1", "--seed", "4", "--res", "32", "--synth-size", "128",
                     "--stride", "2", "--lighting", "side", "--allow-disjoint",
                     "--out", str(gt_dir)])
        assert code == 0
        record = json.loads((gt_dir / "manifest.jsonl").read_text().splitlines()[1])
        from lunarforge import formats

        corr_csv = formats.read_correspondences_csv(gt_dir / record["paths"]["correspondences"])
        assert corr_csv.shape[0] == 0
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        shutil.copytree(gt_dir / record["pair_id"], pred_dir / record["pair_id"])
        rep_path = tmp_path / "rep.jsonl"
        code = main(["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir),
                     "--report", str(rep_path)])
        assert code == 0
        entry = json.loads(rep_path.read_text().splitlines()[0])
        assert entry["status"] == "ok"

    report(10, "zero-baseline flags RTA degeneracy; disjoint pair renders and evaluates", check)
