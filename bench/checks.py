"""Output checks.  Each returns a list of failure messages; empty means pass.

Rendering outputs are checked against the independent fine-step ray marcher
in ``tests/oracles.py`` (acceptance criterion 03 tolerance); evaluate reports
against the identity values of acceptance criterion 05, or against the known
similarity the noisy predictions were made with.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import Scene, read_f32

ORACLE_TOL_CELLS = 2e-3  # acceptance 03: |t - t_oracle| <= 2e-3 * cell size
PIXELS_PER_VIEW = 24
# lunarforge.pose.rra takes acos((trace - 1) / 2); near 0 double-precision
# acos resolves about sqrt(2 * eps) rad ~ 1.2e-6 deg, so identical rotations
# can read ~1e-6 deg.  "RRA = 0" is checked to this resolution.
ANGLE_RESOLUTION_DEG = 1e-5
PAIR_FILES = (
    "image_a.pgm", "image_b.pgm", "depth_a.f32", "depth_b.f32", "pointmap_a.f32",
    "pointmap_b.f32", "correspondences.csv", "meta.json",
)


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


def _check_artifacts(scene: Scene, out: Path) -> list[str]:
    errors = []
    if not scene.single_pair:
        manifest = out / "manifest.jsonl"
        if not manifest.is_file():
            return ["manifest.jsonl missing"]
        lines = [json.loads(ln) for ln in manifest.read_text().splitlines()]
        if not lines or lines[0].get("format") != "lunarforge-manifest":
            errors.append("manifest header missing")
        ids = sorted(rec.get("pair_id") for rec in lines[1:])
        if ids != scene.pair_ids():
            errors.append(f"manifest lists {ids}, expected {scene.pair_ids()}")
    for pair_id in scene.pair_ids():
        for name in PAIR_FILES:
            path = out / pair_id / name
            if not path.is_file() or path.stat().st_size == 0:
                errors.append(f"{pair_id}/{name} missing or empty")
            elif name.endswith(".f32"):
                shape = json.loads(Path(str(path) + ".json").read_text())["shape"]
                if path.stat().st_size != 4 * math.prod(shape):
                    errors.append(f"{pair_id}/{name} size does not match shape {shape}")
                if shape[:2] != [scene.res, scene.res]:
                    errors.append(f"{pair_id}/{name} shape {shape} is not {scene.res}x{scene.res}")
    return errors


def _oracle_depths(dem, origins: np.ndarray, dirs: np.ndarray):
    """Oracle ray depths, starting each ray where it is inside the footprint
    and at most one cell above the highest terrain (the marcher needs an
    origin inside the footprint, and the air above is empty)."""
    from oracles import brute_force_hits

    ox, oy, oz = origins.T
    dx, dy, dz = dirs.T
    zmax = float(np.nanmax(dem.elevations)) + dem.cell_size
    with np.errstate(divide="ignore", invalid="ignore"):
        t_top = np.where(dz < 0, (zmax - oz) / dz, 0.0)
        tx = np.sort(np.stack([(dem.x_min - ox) / dx, (dem.x_max - ox) / dx]), axis=0)
        ty = np.sort(np.stack([(dem.y_min - oy) / dy, (dem.y_max - oy) / dy]), axis=0)
    t_enter = np.fmax(tx[0], ty[0])
    t0 = np.fmax(np.fmax(t_top, t_enter), 0.0)
    # A hair inside the footprint, so the marcher's first sample is in it.
    t0 = np.where(t0 > 0, t0 + 1e-6 * dem.cell_size, t0)
    t, hit = brute_force_hits(dem, origins + t0[:, None] * dirs, dirs)
    return t0 + t, hit


def check_scene(scene: Scene, seed: int, out: Path) -> list[str]:
    """Artifacts complete, and sampled depths agree with the oracle."""
    from lunarforge.camera import Intrinsics, Pose, camera_dirs
    from lunarforge.cli import synth_dem_for_band

    errors = _check_artifacts(scene, out)
    if errors:
        return errors
    rng = np.random.default_rng([seed, 0xC4EC])
    dems = {}
    for pair_id in scene.pair_ids():
        band = int(pair_id.split("_b")[1][:2])
        if band not in dems:
            dems[band] = synth_dem_for_band(scene.kind, band, seed, size=scene.synth_size)
        dem = dems[band]
        meta = json.loads((out / pair_id / "meta.json").read_text())
        intr = Intrinsics.from_json_dict(meta["intrinsics"])
        for view in ("a", "b"):
            pose = Pose.from_json_dict(meta[f"pose_{view}"])
            depth, _ = read_f32(out / pair_id / f"depth_{view}.f32")
            v = rng.integers(0, intr.height, PIXELS_PER_VIEW)
            u = rng.integers(0, intr.width, PIXELS_PER_VIEW)
            dirs = camera_dirs(intr, u.astype(float), v.astype(float)) @ pose.rotation.T
            origins = np.broadcast_to(pose.translation, dirs.shape)
            t_ref, hit_ref = _oracle_depths(dem, origins, dirs)
            got = depth[v, u]
            hit = np.isfinite(got)
            if not np.array_equal(hit, hit_ref):
                errors.append(f"{pair_id} view {view}: {int((hit != hit_ref).sum())} sampled "
                              "pixels disagree with the oracle on hit/miss")
                continue
            err = np.abs(got[hit] - t_ref[hit])
            tol = ORACLE_TOL_CELLS * dem.cell_size
            if err.size and err.max() > tol:
                errors.append(f"{pair_id} view {view}: depth off by {err.max():.4g} m "
                              f"> {tol:.4g} m at {int((err > tol).sum())} sampled pixels")
    return errors


def _rotation_angle_deg(r1: np.ndarray, r2: np.ndarray) -> float:
    cos = (np.trace(r1.T @ r2) - 1.0) / 2.0
    return math.degrees(math.acos(min(1.0, max(-1.0, cos))))


def check_report(report: Path, pair_ids: list[str], predictions: str, expected: dict) -> list[str]:
    """evaluate's report: every pair scored, and the values the predictions imply."""
    try:
        lines = [json.loads(ln) for ln in report.read_text().splitlines()]
    except (OSError, ValueError) as exc:
        return [f"report unreadable: {exc}"]
    if not lines:
        return ["report is empty"]
    aggregate, entries = lines[-1], lines[:-1]
    errors = []
    if sorted(e.get("pair_id") for e in entries) != pair_ids:
        errors.append("report does not list exactly the dataset's pairs")
    if aggregate.get("pairs_evaluated") != len(pair_ids) or aggregate.get("pairs_missing") != 0:
        errors.append(f"aggregate evaluated {aggregate.get('pairs_evaluated')} of {len(pair_ids)}")
    if aggregate.get("rra_table", {}).get("2") != 1.0 or aggregate.get("rta_table", {}).get("2") != 1.0:
        errors.append("RRA@2 and RTA@2 are not both 100%")
    for e in entries:
        pid = e.get("pair_id")
        if e.get("status") != "ok":
            errors.append(f"{pid}: status {e.get('status')}")
            continue
        if max(abs(e["rra_deg"]), abs(e["rta_deg"])) > ANGLE_RESOLUTION_DEG:
            errors.append(f"{pid}: RRA {e['rra_deg']} / RTA {e['rta_deg']} not 0 for exact poses")
        if predictions == "gt":
            identity = (
                e["accuracy_m"] < 1e-6 and e["completeness_m"] < 1e-6 and e["chamfer_m"] < 1e-6
                and e["slope_corr"] > 1 - 1e-6 and e["ssim"] > 1 - 1e-6
                and e["profile_corr"] > 1 - 1e-6 and e["si_loss"] < 1e-9
            )
            if not identity:
                errors.append(f"{pid}: ground truth as prediction is not scored as perfect")
        align = e.get("alignment")
        if not isinstance(align, dict):
            errors.append(f"{pid}: no alignment")
            continue
        scale_err = abs(align["scale"] - expected["scale"]) / expected["scale"]
        rot = np.asarray(align["rotation"]).reshape(3, 3)
        angle = _rotation_angle_deg(rot, np.asarray(expected["rotation"]))
        if scale_err > 0.01 or angle > 0.1:
            errors.append(f"{pid}: alignment scale {align['scale']:.6g} / rotation off by "
                          f"{angle:.4g} deg; expected scale {expected['scale']} within 1%, 0.1 deg")
    return errors
