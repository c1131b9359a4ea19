"""Command-line interface: dataset generation, evaluation, single-pair
rendering, synthetic DEM creation, and visualization.

Subcommands: generate, evaluate, render-pair, synth-dem, visualize.
Exit codes: 0 success, 1 runtime failure, 2 usage error.  All artifacts are
byte-deterministic for a fixed seed, independent of the thread count
(LUNARFORGE_THREADS sets it; the default is min(4, cores)).  generate and
render-pair render one rig after another: each rig's render_pair traces it
once, shades it under every lighting, and renders its two views as two tasks
on one pool of that many threads, each walking its view's row bands in
order.  A rig's depth, pointmaps and correspondences are
computed once and the same bytes are written into each lighting's pair
directory.  evaluate scores the pairs on one such pool.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, formats
from .camera import CameraRig, Pose, gsd
from .metrics import MetricsReport, PairGroundTruth, PairPrediction, evaluate_pair
from .pose import pose_accuracy_table
from .radiometry import HapkeParams
from .renderer import depth_to_pointmap, gt_correspondences, render_pair, resolve_workers
from .terrain import DemGrid, hillshade, load_dem, slope_map, synth_crater_dem, write_dem
from .trajectory import ALTITUDE_BANDS_M, FOV_DEG, KINDS, LIGHTING_PRESETS, lighting_preset, sample_pair


class UsageError(ValueError):
    """Invalid flag combination or value; maps to exit code 2."""


@dataclass
class PairRecord:
    """Manifest entry for one generated stereo pair."""

    pair_id: str
    trajectory: dict
    lighting: str
    paths: dict
    gsd_m: float
    baseline_m: float
    altitude_m: float


def synth_extent_m(kind: str, band_index: int, allow_disjoint: bool) -> float:
    """Tile width needed so both view frusta stay inside a synthetic DEM."""
    alt = ALTITUDE_BANDS_M[band_index] * 1.05
    if kind == "dynamic":
        alt *= 1.30
    tilt_max = 0.0 if kind == "nadir" else 35.0
    half_fov = math.radians(FOV_DEG) / 2
    reach = alt * math.tan(math.radians(tilt_max) + half_fov)
    half = reach + 0.25 * alt
    if allow_disjoint:
        half += 5.5 * alt * math.tan(half_fov)
    return 2.3 * half


def synth_dem_for_band(
    kind: str,
    band_index: int,
    seed: int,
    size: int = 160,
    craters: int = 6,
    octaves: int = 4,
    allow_disjoint: bool = False,
) -> DemGrid:
    extent = synth_extent_m(kind, band_index, allow_disjoint)
    cell = extent / (size - 1)
    return synth_crater_dem(seed, size, size, cell, craters, octaves)


def _rig_artifacts(
    out_dir: Path,
    prefix: str,
    spec,
    dem: DemGrid,
    rig: CameraRig,
    lightings: list[str],
    hapke: HapkeParams,
    render_seed: int,
    stride: int,
) -> list[PairRecord]:
    """Render one rig under each lighting preset and write one pair directory,
    prefix_<lighting>, per lighting; returns their manifest records.  Depth,
    pointmaps and correspondences are the rig's, computed once and written
    into every directory.  A directory whose writing fails is removed."""
    suns = [lighting_preset(lid) for lid in lightings]
    pairs = render_pair(dem, rig, suns, hapke, seed=render_seed)
    prod_a, prod_b = pairs[0]
    corr = gt_correspondences(prod_a, prod_b, stride=stride)
    pointmaps = {"a": depth_to_pointmap(prod_a), "b": depth_to_pointmap(prod_b)}
    baseline_3d = float(np.linalg.norm(rig.pose_b.translation - rig.pose_a.translation))
    gsd_m = gsd(spec.altitude_m, rig.intrinsics.fov_deg, rig.intrinsics.width)

    records = []
    for lid, sun, pair in zip(lightings, suns, pairs):
        pair_id = f"{prefix}_{lid}"
        pair_dir = out_dir / pair_id
        pair_dir.mkdir(parents=True, exist_ok=True)
        try:
            paths = {
                "image_a": f"{pair_id}/image_a.pgm",
                "image_b": f"{pair_id}/image_b.pgm",
                "depth_a": f"{pair_id}/depth_a.f32",
                "depth_b": f"{pair_id}/depth_b.f32",
                "pointmap_a": f"{pair_id}/pointmap_a.f32",
                "pointmap_b": f"{pair_id}/pointmap_b.f32",
                "correspondences": f"{pair_id}/correspondences.csv",
                "meta": f"{pair_id}/meta.json",
            }
            for view, prod in zip("ab", pair):
                formats.write_pgm16(out_dir / paths[f"image_{view}"], prod.image)
                formats.write_f32_raster(
                    out_dir / paths[f"depth_{view}"], prod.depth,
                    {"kind": "ray_depth", "units": "m"},
                )
                formats.write_f32_raster(
                    out_dir / paths[f"pointmap_{view}"], pointmaps[view],
                    {"kind": "pointmap", "frame": "world", "reference_pose": prod.pose.to_json_dict()},
                )
            formats.write_correspondences_csv(out_dir / paths["correspondences"], corr)

            record = PairRecord(
                pair_id=pair_id,
                trajectory=replace(spec, lighting=lid).to_json_dict(),
                lighting=lid,
                paths=paths,
                gsd_m=gsd_m,
                baseline_m=baseline_3d,
                altitude_m=spec.altitude_m,
            )
            meta = asdict(record)
            meta["intrinsics"] = rig.intrinsics.to_json_dict()
            meta["pose_a"] = rig.pose_a.to_json_dict()
            meta["pose_b"] = rig.pose_b.to_json_dict()
            meta["sun"] = sun.to_json_dict()
            meta["hapke"] = hapke.to_json_dict()
            meta["render_seed"] = render_seed
            formats.write_json(out_dir / paths["meta"], meta)
        except BaseException:
            shutil.rmtree(pair_dir, ignore_errors=True)
            raise
        records.append(record)
    return records


def _parse_list(text: str, what: str, kind=int) -> list:
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"bad {what} list: {text!r}") from None


def _check_distinct(what: str, values: list) -> None:
    repeated = sorted({x for x in values if values.count(x) > 1})
    if repeated:
        raise UsageError(f"duplicate {what} entries: {repeated}")


def _thread_count() -> int:
    """resolve_workers(); a bad LUNARFORGE_THREADS is a usage error."""
    try:
        return resolve_workers()
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _scene(args, bands: list[int], lightings: list[str]):
    """Validate the scene flags of generate and render-pair, then build one DEM
    per band.  Returns ({band: DemGrid}, HapkeParams, sample_pair keyword
    arguments).  Invalid values raise UsageError before any DEM is built."""
    if args.trajectory not in KINDS:
        raise UsageError(f"unknown trajectory kind {args.trajectory!r}")
    for band in bands:
        if not 0 <= band < len(ALTITUDE_BANDS_M):
            raise UsageError(f"band index {band} outside [0, {len(ALTITUDE_BANDS_M) - 1}]")
    for lid in lightings:
        if lid not in LIGHTING_PRESETS:
            raise UsageError(f"unknown lighting preset {lid!r}")
    for what, values in (("band", bands), ("lighting preset", lightings)):
        if not values:
            raise UsageError(f"empty {what} list")
        _check_distinct(what, values)
    for message, ok in (
        ("--res must be >= 1", args.res >= 1),
        ("--synth-size must be >= 16", not args.synth or args.synth_size >= 16),
        ("--synth-craters and --synth-octaves must be >= 0", args.synth_craters >= 0 and args.synth_octaves >= 0),
        ("--psf-sigma must be finite and >= 0", math.isfinite(args.psf_sigma) and args.psf_sigma >= 0),
        # Without a PSF each pixel casts one ray whatever this says.
        ("--rays-per-pixel must be >= 1", args.psf_sigma == 0 or args.rays_per_pixel >= 1),
        ("--stride must be >= 1", args.stride >= 1),
    ):
        if not ok:
            raise UsageError(message)
    _thread_count()
    try:
        hapke = HapkeParams(w=args.hapke_w, B0=args.hapke_b0, h_opp=args.hapke_h, xi=args.hapke_xi)
    except ValueError as exc:
        raise UsageError(f"bad Hapke parameters: {exc}") from None
    if not args.dem and not args.synth:
        raise UsageError("either --dem or --synth is required")

    input_dem = load_dem(args.dem, args.dem_format) if args.dem else None
    dems = {
        band: input_dem or synth_dem_for_band(
            args.trajectory, band, args.seed, size=args.synth_size,
            craters=args.synth_craters, octaves=args.synth_octaves,
            allow_disjoint=args.allow_disjoint,
        )
        for band in bands
    }
    rig_args = {
        "width": args.res, "height": args.res, "psf_sigma": args.psf_sigma,
        "rays_per_pixel": args.rays_per_pixel, "allow_disjoint": args.allow_disjoint,
    }
    return dems, hapke, rig_args


def cmd_generate(args) -> int:
    bands = _parse_list(args.bands, "band")
    lightings = _parse_list(args.lighting, "lighting preset", str.strip)
    if args.pairs < 1:
        raise UsageError("--pairs must be >= 1")
    dems, hapke, rig_args = _scene(args, bands, lightings)

    # Sample every rig before rendering any, so a bad rig fails the run first.
    rigs = []
    for band in bands:
        for idx in range(args.pairs):
            pair_seed = args.seed * 100003 + band * 101 + idx
            spec, rig = sample_pair(args.trajectory, pair_seed, band, dems[band], **rig_args)
            rigs.append((band, idx, pair_seed, spec, rig))

    # A rig's lightings share its pair seed, so each rig is traced once and
    # shaded under every lighting.
    out_dir = Path(args.out)
    records = []
    for band, idx, pair_seed, spec, rig in rigs:
        records += _rig_artifacts(
            out_dir, f"{args.trajectory}_b{band:02d}_p{idx:03d}", spec, dems[band], rig, lightings,
            hapke, pair_seed, args.stride,
        )
    header = {
        "format": "lunarforge-manifest",
        "version": 1,
        "seed": args.seed,
        "tool": f"lunarforge {__version__}",
    }
    lines = [json.dumps(header, sort_keys=True, allow_nan=False)]
    for record in sorted(records, key=lambda r: r.pair_id):
        lines.append(json.dumps(asdict(record), sort_keys=True, allow_nan=False))
    (out_dir / "manifest.jsonl").write_text("\n".join(lines) + "\n")
    print(f"generated {len(records)} pairs into {out_dir}")
    return 0


def _read_manifest(gt_dir: Path) -> list[dict]:
    manifest = gt_dir / "manifest.jsonl"
    if not manifest.exists():
        raise UsageError(f"no manifest.jsonl in {gt_dir}")
    records = []
    for line in manifest.read_text().splitlines():
        obj = json.loads(line)
        if obj.get("format") == "lunarforge-manifest":
            continue
        records.append(obj)
    return records


def _load_pointmap(path: Path) -> tuple[np.ndarray, dict]:
    """An HxWx3 pointmap raster, NaN where invalid, and its sidecar."""
    pts, meta = formats.read_f32_raster(path)
    if pts.ndim != 3 or pts.shape[2] != 3:
        raise ValueError(f"{path.name} has shape {pts.shape}, expected HxWx3")
    return pts, meta


def _load_ground_truth(gt_dir: Path, record: dict) -> PairGroundTruth:
    meta = formats.read_json(gt_dir / record["paths"]["meta"])
    pointmaps, depths = [], []
    for view in ("a", "b"):
        pts, pm_meta = _load_pointmap(gt_dir / record["paths"][f"pointmap_{view}"])
        if pm_meta.get("frame") != "world":
            raise ValueError(f"ground-truth pointmap_{view} frame is {pm_meta.get('frame')!r}, expected 'world'")
        depth, _ = formats.read_f32_raster(gt_dir / record["paths"][f"depth_{view}"])
        if depth.shape != pts.shape[:2]:
            raise ValueError(f"ground-truth depth_{view} has shape {depth.shape}, pointmap {pts.shape[:2]}")
        pointmaps.append(pts)
        depths.append(depth)
    return PairGroundTruth(
        pointmap_a=pointmaps[0],
        pointmap_b=pointmaps[1],
        pose_a=Pose.from_json_dict(meta["pose_a"]),
        pose_b=Pose.from_json_dict(meta["pose_b"]),
        depth_a=depths[0],
        depth_b=depths[1],
        gsd_m=float(record["gsd_m"]),
    )


def _load_prediction(pred_dir: Path, pair_id: str) -> PairPrediction | None:
    """One pair's prediction, or None when it has no pointmaps or poses.

    Raises ValueError when only one of pose_a.json and pose_b.json exists or
    a pose is not finite.
    """
    pdir = pred_dir / pair_id
    pm_a = pdir / "pointmap_a.f32"
    pm_b = pdir / "pointmap_b.f32"
    if not pm_a.exists() or not pm_b.exists():
        return None
    pose_files = [pdir / "pose_a.json", pdir / "pose_b.json"]
    present = [f.exists() for f in pose_files]
    if any(present) and not all(present):
        raise ValueError("pose_a.json and pose_b.json must come together")
    if all(present):
        pose_a, pose_b = (Pose.from_json_dict(formats.read_json(f)) for f in pose_files)
    elif (pdir / "meta.json").exists():
        meta = formats.read_json(pdir / "meta.json")
        pose_a = Pose.from_json_dict(meta["pose_a"])
        pose_b = Pose.from_json_dict(meta["pose_b"])
    else:
        return None
    # A non-finite rotation already fails Pose's orthonormality check.
    if not (np.isfinite(pose_a.translation).all() and np.isfinite(pose_b.translation).all()):
        raise ValueError("prediction pose translation is not finite")
    return PairPrediction(
        pointmap_a=_load_pointmap(pm_a)[0],
        pointmap_b=_load_pointmap(pm_b)[0],
        pose_a=pose_a,
        pose_b=pose_b,
    )


def _threshold_key(tau: float) -> str:
    return str(int(tau)) if tau == int(tau) else repr(tau)


def cmd_evaluate(args) -> int:
    gt_dir = Path(args.gt)
    pred_dir = Path(args.pred)
    if not gt_dir.is_dir():
        raise UsageError(f"ground-truth directory {gt_dir} does not exist")
    if not pred_dir.is_dir():
        raise UsageError(f"prediction directory {pred_dir} does not exist")
    n_workers = _thread_count()
    thresholds = _parse_list(args.thresholds, "threshold", float)
    if not thresholds or not all(math.isfinite(t) and t > 0 for t in thresholds):
        raise UsageError(f"--thresholds must list finite values > 0, got {args.thresholds!r}")
    _check_distinct("threshold", thresholds)
    thresholds.sort()
    records = _read_manifest(gt_dir)

    # Pose errors are summarised by the RRA/RTA tables, not by means.
    mean_fields = tuple(f for f in MetricsReport._FIELDS if f not in ("rra_deg", "rta_deg"))

    def score(record):
        """(record, report, error): report None when the prediction is missing
        or failed to load; error describes a load failure."""
        pair_id = record["pair_id"]
        try:
            pred = _load_prediction(pred_dir, pair_id)
            if pred is None:
                return record, None, None
            gt = _load_ground_truth(gt_dir, record)
            for view in ("a", "b"):
                shape = getattr(pred, f"pointmap_{view}").shape
                gt_shape = getattr(gt, f"pointmap_{view}").shape
                if shape != gt_shape:
                    raise ValueError(f"pointmap_{view} has shape {shape}, ground truth {gt_shape}")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return record, None, {"type": type(exc).__name__, "detail": str(exc)}
        return record, evaluate_pair(pred, gt, seed=args.seed), None

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        results = list(pool.map(score, records))  # manifest order preserved

    lines = []
    rra_errors = []
    rta_errors = []
    rta_degenerate = 0
    missing = []
    failed = []
    by_kind: dict[str, list] = {}
    for record, report, error in results:
        pair_id = record["pair_id"]
        if error is not None:
            failed.append(pair_id)
            lines.append({"pair_id": pair_id, "status": "error", "error": error})
            continue
        if report is None:
            missing.append(pair_id)
            lines.append({"pair_id": pair_id, "status": "missing"})
            continue
        entry = {"pair_id": pair_id, "status": "ok", "kind": record["trajectory"]["kind"]}
        entry.update(report.to_json_dict())
        lines.append(entry)
        if report.rra_deg is not None:
            rra_errors.append(report.rra_deg)
        if report.rta_deg is not None:
            rta_errors.append(report.rta_deg)
        elif "rta_deg" in report.flags:
            rta_degenerate += 1
        by_kind.setdefault(record["trajectory"]["kind"], []).append(report)

    aggregate = {
        "type": "aggregate",
        "pairs_total": len(records),
        "pairs_evaluated": len(records) - len(missing) - len(failed),
        "pairs_missing": len(missing),
        "missing": sorted(missing),
        "pairs_failed": len(failed),
        "failed": sorted(failed),
        "rta_degenerate_count": rta_degenerate,
        "all_missing_warning": bool(records) and len(missing) == len(records),
    }
    if rra_errors:
        aggregate["rra_table"] = {
            _threshold_key(t): v for t, v in pose_accuracy_table(rra_errors, thresholds).items()
        }
    if rta_errors:
        aggregate["rta_table"] = {
            _threshold_key(t): v for t, v in pose_accuracy_table(rta_errors, thresholds).items()
        }
    kinds_summary = {}
    for kind, reports in sorted(by_kind.items()):
        summary = {}
        for name in mean_fields:
            vals = [getattr(r, name) for r in reports if getattr(r, name) is not None]
            summary[name] = float(np.mean(vals)) if vals else "degenerate"
        kinds_summary[kind] = summary
    aggregate["by_kind"] = kinds_summary

    report_path = Path(args.report)
    report_path.parent.mkdir(parents=True, exist_ok=True)
    out_lines = [json.dumps(entry, sort_keys=True, allow_nan=False) for entry in lines]
    out_lines.append(json.dumps(aggregate, sort_keys=True, allow_nan=False))
    report_path.write_text("\n".join(out_lines) + "\n")
    if aggregate["all_missing_warning"]:
        print("warning: no predictions found for any pair", file=sys.stderr)
    if failed:
        print(f"warning: {len(failed)} predictions failed to load: {', '.join(sorted(failed))}", file=sys.stderr)
    print(f"evaluated {aggregate['pairs_evaluated']}/{aggregate['pairs_total']} pairs -> {report_path}")
    return 0


def cmd_render_pair(args) -> int:
    dems, hapke, rig_args = _scene(args, [args.band], [args.lighting])
    dem = dems[args.band]
    spec, rig = sample_pair(args.trajectory, args.seed, args.band, dem, **rig_args)
    if args.zero_baseline:
        rig = replace(rig, pose_b=rig.pose_a)
    out_dir = Path(args.out)
    (record,) = _rig_artifacts(
        out_dir, f"{args.trajectory}_b{args.band:02d}_p000", spec, dem, rig, [args.lighting],
        hapke, args.seed, args.stride,
    )
    print(f"rendered {record.pair_id} into {out_dir}")
    return 0


def cmd_synth_dem(args) -> int:
    if args.width < 16 or args.height < 16 or not math.isfinite(args.cell_size) or not args.cell_size > 0:
        raise UsageError("--width and --height must be >= 16 and --cell-size finite and > 0")
    if args.craters < 0 or args.octaves < 0:
        raise UsageError("--craters and --octaves must be >= 0")
    dem = synth_crater_dem(
        args.seed, args.width, args.height, args.cell_size, args.craters, args.octaves
    )
    write_dem(dem, args.out, args.format)
    print(f"wrote {args.width}x{args.height} DEM to {args.out}")
    return 0


def cmd_visualize(args) -> int:
    if args.mode not in ("hillshade", "slope"):
        raise UsageError(f"unknown mode {args.mode!r}; expected hillshade or slope")
    if not math.isfinite(args.azimuth):
        raise UsageError("--azimuth must be finite")
    if not 0 < args.elevation <= 90:
        raise UsageError("--elevation must be in (0, 90]")
    if args.spacing is not None and not (math.isfinite(args.spacing) and args.spacing > 0):
        raise UsageError("--spacing must be finite and > 0")
    raster, meta = formats.read_f32_raster(args.input)
    shape = raster.shape
    if raster.ndim == 3 and shape[2] == 3:
        raster = raster[..., 2]  # pointmap input: use the elevation channel
    if raster.ndim != 2 or min(raster.shape) < 2:
        raise UsageError(f"input raster must be 2D (depth) or HxWx3 (pointmap), at least 2x2; got {shape}")
    # A DEM sidecar (see write_dem) carries its cell size; other rasters default to 1 m.
    spacing = args.spacing if args.spacing is not None else float(meta.get("cell_size", 1.0))
    if args.mode == "hillshade":
        img = hillshade(np.nan_to_num(raster, nan=float(np.nanmean(raster))), spacing,
                        args.azimuth, args.elevation)
    else:
        slopes = slope_map(np.nan_to_num(raster, nan=float(np.nanmean(raster))), spacing)
        img = np.clip(slopes / 45.0, 0.0, 1.0)  # linear 0-45 degree ramp
    formats.write_pgm8(args.out, np.nan_to_num(img, nan=0.0))
    print(f"wrote {args.mode} image to {args.out}")
    return 0


def _add_scene_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dem", help="input DEM path (omit with --synth)")
    p.add_argument("--dem-format", default="raw_f32", choices=["raw_f32", "ascii_grid"])
    p.add_argument("--synth", action="store_true", help="synthesize a crater DEM per band")
    p.add_argument("--synth-size", type=int, default=160, help="synthetic DEM cells per side")
    p.add_argument("--synth-craters", type=int, default=6)
    p.add_argument("--synth-octaves", type=int, default=4)
    p.add_argument("--res", type=int, default=128, help="render resolution (desk-scale default; full is 512)")
    p.add_argument("--psf-sigma", type=float, default=0.5, help="Gaussian PSF sigma in pixels")
    p.add_argument("--rays-per-pixel", type=int, default=4)
    p.add_argument("--stride", type=int, default=4, help="correspondence sampling stride")
    p.add_argument("--allow-disjoint", action="store_true",
                   help="permit non-overlapping stereo footprints (stress case)")
    p.add_argument("--hapke-w", type=float, default=0.25)
    p.add_argument("--hapke-b0", type=float, default=1.0)
    p.add_argument("--hapke-h", type=float, default=0.05)
    p.add_argument("--hapke-xi", type=float, default=-0.25)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lunarforge", description=__doc__)
    parser.add_argument("--version", action="version", version=f"lunarforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="render a batch of stereo pairs with ground truth")
    _add_scene_flags(g)
    g.add_argument("--trajectory", required=True, help="nadir | oblique | dynamic")
    g.add_argument("--bands", default="0", help="comma list of altitude band indices 0..9")
    g.add_argument("--pairs", type=int, default=1, help="pairs per band")
    g.add_argument("--lighting", default="side", help=f"comma list of {'|'.join(LIGHTING_PRESETS)}")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    e = sub.add_parser("evaluate", help="score predictions against a generated dataset")
    e.add_argument("--gt", required=True, help="generated dataset directory")
    e.add_argument("--pred", required=True, help="directory of per-pair predictions")
    e.add_argument("--thresholds", default="2,5,15,30", help="comma list of degrees")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--report", required=True, help="output JSON-lines report path")
    e.set_defaults(func=cmd_evaluate)

    r = sub.add_parser("render-pair", help="render a single stereo pair")
    _add_scene_flags(r)
    r.add_argument("--trajectory", required=True)
    r.add_argument("--band", type=int, default=0)
    r.add_argument("--lighting", default="side", help="|".join(LIGHTING_PRESETS))
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--zero-baseline", action="store_true",
                   help="use the same pose for both views (stress case)")
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_render_pair)

    s = sub.add_parser("synth-dem", help="write a synthetic crater DEM")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--width", type=int, default=160)
    s.add_argument("--height", type=int, default=160)
    s.add_argument("--cell-size", type=float, default=5.0)
    s.add_argument("--craters", type=int, default=6)
    s.add_argument("--octaves", type=int, default=4)
    s.add_argument("--format", default="raw_f32", choices=["raw_f32", "ascii_grid"])
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_synth_dem)

    v = sub.add_parser("visualize", help="hillshade or slope image from a raster")
    v.add_argument("--input", required=True, help="raw f32 raster (depth or pointmap)")
    v.add_argument("--mode", required=True, help="hillshade | slope")
    v.add_argument("--azimuth", type=float, default=315.0)
    v.add_argument("--elevation", type=float, default=45.0)
    v.add_argument("--spacing", type=float, default=None, help="cell spacing in meters")
    v.add_argument("--out", required=True)
    v.set_defaults(func=cmd_visualize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # Every seeded subcommand takes --seed; numpy seeds are non-negative.
        if getattr(args, "seed", 0) < 0:
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except UsageError as exc:
        print(json.dumps({"error": "usage", "detail": str(exc)}), file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure -> machine-readable error JSON
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
