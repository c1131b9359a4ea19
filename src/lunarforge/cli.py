"""Command-line interface: dataset generation, evaluation, single-pair
rendering, synthetic DEM creation, and visualization.

Subcommands: generate, evaluate, render-pair, synth-dem, visualize.  Exit
codes: 0 success, 1 runtime failure, 2 usage error, each failure one JSON line
on stderr.  argparse checks each flag's value where the flag is declared, and
the commands only what spans flags or reads input.  All artifacts are
byte-deterministic for a fixed seed, independent of the thread count
(LUNARFORGE_THREADS sets it; the default is min(4, cores)).  generate and
render-pair render one rig after another: each rig's render_pair traces it
once, shades it under every lighting, and renders its two views as two tasks
on one pool of that many threads, each walking its view's row bands in order.
A rig's depth, pointmaps and correspondences are computed once and the same
bytes are written into each lighting's pair directory.  evaluate scores the
pairs on one such pool: each pair's report entry is ok, missing or error, and
the aggregate is computed from the entries alone, its per-kind means skipping
flagged values.
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
from .metrics import REPORT_FIELDS, PairGroundTruth, PairPrediction, evaluate_pair
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


def _checked(parse, ok, rule: str):
    """An argparse type: parse the flag's text, and accept the value if
    ok(value); otherwise the error says the flag takes `rule`."""
    def check(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {rule}, got {text!r}")
    return check


def _int_at_least(low: int):
    return _checked(int, lambda n: n >= low, f"an integer >= {low}")


_POSITIVE = _checked(float, lambda x: math.isfinite(x) and x > 0, "a finite number > 0")
_BAND = _checked(int, lambda b: 0 <= b < len(ALTITUDE_BANDS_M), f"a band index 0..{len(ALTITUDE_BANDS_M) - 1}")
_LIGHTING = _checked(str.strip, LIGHTING_PRESETS.__contains__, f"one of {'|'.join(LIGHTING_PRESETS)}")


def _comma_list(item):
    """An argparse type: a non-empty comma list of distinct values, each
    parsed and checked by `item`; blank entries are skipped."""
    def parse(text: str) -> list:
        values = [item(tok) for tok in text.split(",") if tok.strip()]
        if not values or len(set(values)) < len(values):
            raise argparse.ArgumentTypeError(f"expected a non-empty list of distinct entries, got {text!r}")
        return values
    return parse


def _thread_count() -> int:
    """resolve_workers(); a bad LUNARFORGE_THREADS is a usage error."""
    try:
        return resolve_workers()
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _scene(args, bands: list[int]):
    """Check the scene flags of generate and render-pair that depend on each
    other or on the environment, then build one DEM per band.  Returns
    ({band: DemGrid}, HapkeParams, sample_pair keyword arguments).  Invalid
    values raise UsageError before any DEM is built."""
    if args.synth and args.synth_size < 16:
        raise UsageError("--synth-size must be >= 16")
    # Without a PSF each pixel casts one ray whatever --rays-per-pixel says.
    if args.psf_sigma != 0 and args.rays_per_pixel < 1:
        raise UsageError("--rays-per-pixel must be >= 1")
    _thread_count()
    try:
        hapke = HapkeParams(w=args.hapke_w, B0=args.hapke_b0, h_opp=args.hapke_h, xi=args.hapke_xi)
    except ValueError as exc:
        raise UsageError(f"bad Hapke parameters: {exc}") from None

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
    dems, hapke, rig_args = _scene(args, args.bands)

    # Sample every rig before rendering any, so a bad rig fails the run first.
    rigs = []
    for band in args.bands:
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
            out_dir, f"{args.trajectory}_b{band:02d}_p{idx:03d}", spec, dems[band], rig, args.lighting,
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
    for number, line in enumerate(manifest.read_text().splitlines(), 1):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            obj = None
        if not isinstance(obj, dict):
            raise UsageError(f"manifest.jsonl line {number} is not a JSON object")
        if obj.get("format") == "lunarforge-manifest":
            continue
        if "pair_id" not in obj:
            raise UsageError(f"manifest.jsonl line {number} has no pair_id")
        pair_id = obj["pair_id"]  # the pair's directory under --pred
        if not (isinstance(pair_id, str) and pair_id and "/" not in pair_id and "\\" not in pair_id):
            raise UsageError(f"manifest.jsonl line {number} pair_id {pair_id!r} is not a directory name")
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
    thresholds = sorted(args.thresholds)
    records = _read_manifest(gt_dir)

    def score(record):
        """The pair's report entry: status ok, missing (no prediction) or
        error (its record, prediction or ground truth failed to load)."""
        pair_id = record["pair_id"]
        try:
            kind = record["trajectory"]["kind"]
            pred = _load_prediction(pred_dir, pair_id)
            if pred is None:
                return {"pair_id": pair_id, "status": "missing"}
            gt = _load_ground_truth(gt_dir, record)
            for view in ("a", "b"):
                shape = getattr(pred, f"pointmap_{view}").shape
                gt_shape = getattr(gt, f"pointmap_{view}").shape
                if shape != gt_shape:
                    raise ValueError(f"pointmap_{view} has shape {shape}, ground truth {gt_shape}")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return {"pair_id": pair_id, "status": "error", "error": {"type": type(exc).__name__, "detail": str(exc)}}
        report = evaluate_pair(pred, gt, seed=args.seed)
        return {"pair_id": pair_id, "status": "ok", "kind": kind, **report.to_json_dict()}

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        entries = list(pool.map(score, records))  # manifest order preserved

    # The aggregate is computed from the entries alone; a flagged value is a string.
    ok = [e for e in entries if e["status"] == "ok"]
    missing = sorted(e["pair_id"] for e in entries if e["status"] == "missing")
    failed = sorted(e["pair_id"] for e in entries if e["status"] == "error")
    aggregate = {
        "type": "aggregate",
        "pairs_total": len(records),
        "pairs_evaluated": len(ok),
        "pairs_missing": len(missing),
        "missing": missing,
        "pairs_failed": len(failed),
        "failed": failed,
        "rta_degenerate_count": sum("rta_deg" in e["flags"] for e in ok),
        "all_missing_warning": bool(records) and len(missing) == len(records),
    }
    for metric in ("rra", "rta"):
        errors = [e[f"{metric}_deg"] for e in ok if isinstance(e[f"{metric}_deg"], float)]
        if errors:
            table = pose_accuracy_table(errors, thresholds)
            aggregate[f"{metric}_table"] = {_threshold_key(t): v for t, v in table.items()}

    def mean(values):
        values = [v for v in values if isinstance(v, float)]
        return float(np.mean(values)) if values else "degenerate"

    # Pose errors are summarised by the tables, not by means.
    aggregate["by_kind"] = {
        kind: {
            name: mean(e[name] for e in ok if e["kind"] == kind)
            for name in REPORT_FIELDS if name not in ("rra_deg", "rta_deg")
        }
        for kind in sorted({e["kind"] for e in ok})
    }

    report_path = Path(args.report)
    report_path.parent.mkdir(parents=True, exist_ok=True)
    out_lines = [json.dumps(entry, sort_keys=True, allow_nan=False) for entry in entries]
    out_lines.append(json.dumps(aggregate, sort_keys=True, allow_nan=False))
    report_path.write_text("\n".join(out_lines) + "\n")
    if aggregate["all_missing_warning"]:
        print("warning: no predictions found for any pair", file=sys.stderr)
    if failed:
        print(f"warning: {len(failed)} pairs failed to load: {', '.join(failed)}", file=sys.stderr)
    print(f"evaluated {aggregate['pairs_evaluated']}/{aggregate['pairs_total']} pairs -> {report_path}")
    return 0


def cmd_render_pair(args) -> int:
    dems, hapke, rig_args = _scene(args, [args.band])
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
    dem = synth_crater_dem(
        args.seed, args.width, args.height, args.cell_size, args.craters, args.octaves
    )
    write_dem(dem, args.out, args.format)
    print(f"wrote {args.width}x{args.height} DEM to {args.out}")
    return 0


def cmd_visualize(args) -> int:
    raster, meta = formats.read_f32_raster(args.input)
    shape = raster.shape
    if raster.ndim == 3 and shape[2] == 3:
        raster = raster[..., 2]  # pointmap input: use the elevation channel
    if raster.ndim != 2 or min(raster.shape) < 2:
        raise UsageError(f"input raster must be 2D (depth) or HxWx3 (pointmap), at least 2x2; got {shape}")
    # A DEM sidecar (see write_dem) carries its cell size; other rasters default to 1 m.
    spacing = args.spacing if args.spacing is not None else float(meta.get("cell_size", 1.0))
    if not (math.isfinite(spacing) and spacing > 0):
        raise UsageError(f"sidecar cell_size must be finite and > 0, got {spacing}")
    finite = np.isfinite(raster)
    if not finite.any():
        raise UsageError("input raster has no finite value")
    raster = np.where(finite, raster, np.nan)  # ±inf cells get the mean of the finite ones, as NaN cells do
    raster = np.nan_to_num(raster, nan=float(np.nanmean(raster)))
    if args.mode == "hillshade":
        img = hillshade(raster, spacing, args.azimuth, args.elevation)
    else:
        img = np.clip(slope_map(raster, spacing) / 45.0, 0.0, 1.0)  # linear 0-45 degree ramp
    formats.write_pgm8(args.out, np.nan_to_num(img, nan=0.0))
    print(f"wrote {args.mode} image to {args.out}")
    return 0


def _add_scene_flags(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--dem", help="input DEM path")
    source.add_argument("--synth", action="store_true", help="synthesize a crater DEM per band")
    p.add_argument("--dem-format", default="raw_f32", choices=["raw_f32", "ascii_grid"])
    p.add_argument("--synth-size", type=int, default=160, help="synthetic DEM cells per side")
    p.add_argument("--synth-craters", type=_int_at_least(0), default=6)
    p.add_argument("--synth-octaves", type=_int_at_least(0), default=4)
    p.add_argument("--res", type=_int_at_least(1), default=128,
                   help="render resolution (desk-scale default; full is 512)")
    p.add_argument("--psf-sigma", type=_checked(float, lambda x: math.isfinite(x) and x >= 0, "a finite number >= 0"),
                   default=0.5, help="Gaussian PSF sigma in pixels")
    p.add_argument("--rays-per-pixel", type=int, default=4)
    p.add_argument("--stride", type=_int_at_least(1), default=4, help="correspondence sampling stride")
    p.add_argument("--allow-disjoint", action="store_true",
                   help="permit non-overlapping stereo footprints (stress case)")
    p.add_argument("--hapke-w", type=float, default=0.25)
    p.add_argument("--hapke-b0", type=float, default=1.0)
    p.add_argument("--hapke-h", type=float, default=0.05)
    p.add_argument("--hapke-xi", type=float, default=-0.25)


class _Parser(argparse.ArgumentParser):
    """Raises every parse error as a UsageError, which main reports as JSON."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lunarforge", description=__doc__)
    parser.add_argument("--version", action="version", version=f"lunarforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="render a batch of stereo pairs with ground truth")
    _add_scene_flags(g)
    g.add_argument("--trajectory", required=True, choices=KINDS)
    g.add_argument("--bands", type=_comma_list(_BAND), default="0",
                   help="comma list of altitude band indices 0..9")
    g.add_argument("--pairs", type=_int_at_least(1), default=1, help="pairs per band")
    g.add_argument("--lighting", type=_comma_list(_LIGHTING), default="side",
                   help=f"comma list of {'|'.join(LIGHTING_PRESETS)}")
    g.add_argument("--seed", type=_int_at_least(0), default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    e = sub.add_parser("evaluate", help="score predictions against a generated dataset")
    e.add_argument("--gt", required=True, help="generated dataset directory")
    e.add_argument("--pred", required=True, help="directory of per-pair predictions")
    e.add_argument("--thresholds", type=_comma_list(_POSITIVE), default="2,5,15,30", help="comma list of degrees")
    e.add_argument("--seed", type=_int_at_least(0), default=0)
    e.add_argument("--report", required=True, help="output JSON-lines report path")
    e.set_defaults(func=cmd_evaluate)

    r = sub.add_parser("render-pair", help="render a single stereo pair")
    _add_scene_flags(r)
    r.add_argument("--trajectory", required=True, choices=KINDS)
    r.add_argument("--band", type=_BAND, default=0)
    r.add_argument("--lighting", default="side", choices=list(LIGHTING_PRESETS))
    r.add_argument("--seed", type=_int_at_least(0), default=0)
    r.add_argument("--zero-baseline", action="store_true",
                   help="use the same pose for both views (stress case)")
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_render_pair)

    s = sub.add_parser("synth-dem", help="write a synthetic crater DEM")
    s.add_argument("--seed", type=_int_at_least(0), default=0)
    s.add_argument("--width", type=_int_at_least(16), default=160)
    s.add_argument("--height", type=_int_at_least(16), default=160)
    s.add_argument("--cell-size", type=_POSITIVE, default=5.0)
    s.add_argument("--craters", type=_int_at_least(0), default=6)
    s.add_argument("--octaves", type=_int_at_least(0), default=4)
    s.add_argument("--format", default="raw_f32", choices=["raw_f32", "ascii_grid"])
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_synth_dem)

    v = sub.add_parser("visualize", help="hillshade or slope image from a raster")
    v.add_argument("--input", required=True, help="raw f32 raster (depth or pointmap)")
    v.add_argument("--mode", required=True, choices=["hillshade", "slope"])
    v.add_argument("--azimuth", type=_checked(float, math.isfinite, "a finite number"), default=315.0)
    v.add_argument("--elevation", type=_checked(float, lambda x: 0 < x <= 90, "degrees in (0, 90]"), default=45.0)
    v.add_argument("--spacing", type=_POSITIVE, default=None, help="cell spacing in meters")
    v.add_argument("--out", required=True)
    v.set_defaults(func=cmd_visualize)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help and --version print and exit 0
        return int(exc.code or 0)
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
