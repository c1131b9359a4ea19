"""Dense-geometry evaluation: Chamfer family, slope and profile statistics,
SSIM on depth maps, the scale-invariant pointmap loss, and the per-pair
evaluation protocol that ties them together.

Degenerate inputs (constant depth, zero-variance slopes, zero baselines) are
reported through flags; no metric silently propagates NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np
from scipy.spatial import cKDTree

from .camera import Pose, norms, relative_pose
from .pose import (
    DegenerateBaselineError,
    RansacError,
    RansacParams,
    SimilarityTransform,
    ransac_align,
    rra,
    rta,
)
from .terrain import slope_map


class DegenerateMetricError(ValueError):
    """Metric undefined for this input (flagged, never NaN)."""


# ---------------------------------------------------------------------------
# Point-cloud distances
# ---------------------------------------------------------------------------


def _nn_distances(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Exact distance from each query to its nearest point.

    The k-d tree splits at the sliding midpoint with leaves of up to 32
    points and keeps its cells' full boxes instead of shrinking them to the
    points.  On terrain clouds of 32k points that builds in under half the
    time of scipy's default tree, and the queries cost about the same.  The
    tree's shape does not enter the distance arithmetic, so the distances
    are the same with any tree.  The tree indexes points in place, without
    a copy of the cloud.
    """
    tree = cKDTree(points, leafsize=32, compact_nodes=False, balanced_tree=False, copy_data=False)
    return tree.query(queries, k=1)[0]


def accuracy_completeness(pred_cloud: np.ndarray, gt_cloud: np.ndarray):
    """Mean nearest-neighbor distances pred->gt (accuracy) and gt->pred
    (completeness); chamfer is their average.  Clouds must be pre-aligned.
    Each mean is taken as soon as its query returns, so one query's
    distances are alive at a time."""
    pred = np.asarray(pred_cloud, dtype=np.float64).reshape(-1, 3)
    gt = np.asarray(gt_cloud, dtype=np.float64).reshape(-1, 3)
    if len(pred) == 0 or len(gt) == 0:
        raise ValueError("point clouds must be non-empty")
    accuracy = float(np.mean(_nn_distances(gt, pred)))
    completeness = float(np.mean(_nn_distances(pred, gt)))
    return accuracy, completeness, (accuracy + completeness) / 2


SCALE_CHUNK_ROWS = 4096  # cloud rows scene_scale centres at a time


def scene_scale(gt_cloud: np.ndarray) -> float:
    """Mean distance of ground-truth points to their centroid.  The cloud is
    centred SCALE_CHUNK_ROWS rows at a time into one buffer of distances."""
    gt = np.asarray(gt_cloud, dtype=np.float64).reshape(-1, 3)
    if len(gt) == 0:
        raise ValueError("empty ground-truth cloud")
    centroid = gt.mean(axis=0)
    distances = np.empty(len(gt))
    for start in range(0, len(gt), SCALE_CHUNK_ROWS):
        rows = slice(start, start + SCALE_CHUNK_ROWS)
        distances[rows] = norms(gt[rows] - centroid)
    return float(np.mean(distances))


def relative_error(metric_m: float, scale_m: float) -> float:
    """Metric normalized by the scene scale."""
    if scale_m <= 0:
        raise DegenerateMetricError("scene scale must be > 0")
    return metric_m / scale_m


# ---------------------------------------------------------------------------
# Slope metrics
# ---------------------------------------------------------------------------


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    a = a - a.mean()
    b = b - b.mean()
    va = float(np.sqrt((a**2).sum()))
    vb = float(np.sqrt((b**2).sum()))
    if va == 0 or vb == 0:
        raise DegenerateMetricError("zero-variance field: correlation undefined")
    # Cauchy-Schwarz bounds the true value; clamp float rounding at the edge.
    return float(np.clip((a * b).sum() / (va * vb), -1.0, 1.0))


def slope_metrics(pred_elev: np.ndarray, gt_elev: np.ndarray, spacing: float):
    """(Pearson correlation, MAE degrees) of slope maps over the shared mask."""
    pred = np.asarray(pred_elev, dtype=np.float64)
    gt = np.asarray(gt_elev, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError("elevation rasters must share a shape")
    sp = slope_map(pred, spacing)
    sg = slope_map(gt, spacing)
    valid = np.isfinite(sp) & np.isfinite(sg)
    if valid.sum() < 2:
        raise DegenerateMetricError("fewer than 2 valid overlapping slope cells")
    corr = _pearson(sp[valid], sg[valid])
    mae = float(np.mean(np.abs(sp[valid] - sg[valid])))
    return corr, mae


# ---------------------------------------------------------------------------
# SSIM on depth
# ---------------------------------------------------------------------------

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


# The normalized 1-D Gaussian; the window is its outer product with itself.
_SSIM_TAPS = np.exp(-((np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2) ** 2) / (2 * SSIM_SIGMA**2))
_SSIM_TAPS /= _SSIM_TAPS.sum()


def _taps_pass(img: np.ndarray, axis: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """One pass of the 11-tap Gaussian along axis, zero outside img, at the
    positions start..stop of that axis (all of them by default).

    The sums run in scipy.ndimage.correlate1d's order for a symmetric filter:
    the centre tap times its weight, then, from the outermost pair of taps
    inward, (x[i - j] + x[i + j]) * w[j] added in turn, w[j] being the weight
    j taps from the centre.  So the result is
    correlate1d(img, _SSIM_TAPS, axis, mode="constant")[start:stop] bit for
    bit, and only the positions within 5 taps of start..stop are read.
    """
    half = SSIM_WINDOW // 2
    n = img.shape[axis]
    stop = n if stop is None else stop
    lo, hi = max(start - half, 0), min(stop + half, n)

    def along(first, end):  # index of positions first..end along axis
        return (slice(None),) * axis + (slice(first, end),)

    # Positions start - half .. stop + half, the ones outside img zero.
    padded = img[along(lo, hi)]
    before, after = half - (start - lo), half - (hi - stop)
    if before or after:
        shape = list(padded.shape)
        shape[axis] += before + after
        padded, inner = np.zeros(shape, dtype=img.dtype), padded
        padded[along(before, before + hi - lo)] = inner

    def at(offset):  # x[i + offset] for every output i, zero outside img
        return padded[along(half + offset, half + offset + stop - start)]

    out = at(0) * _SSIM_TAPS[half]
    pair = np.empty_like(out)
    for j in range(half, 0, -1):
        np.add(at(-j), at(j), out=pair)
        pair *= _SSIM_TAPS[half - j]
        out += pair
    return out


def _window_mean(img: np.ndarray, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Gaussian-weighted mean of img over the SSIM window centred on each
    pixel of rows start..stop (all rows by default), zero outside img.  The
    window is separable, so this is two passes of the 11-tap 1-D Gaussian,
    down the columns and then along the rows: 22 taps per pixel instead of
    121.  The means match the 2-D sum up to rounding (~1e-15 relative)."""
    return _taps_pass(_taps_pass(img, 0, start, stop), 1)


SSIM_STRIP_ROWS = 64  # SSIM map rows computed at a time


def ssim_depth(pred_depth: np.ndarray, gt_depth: np.ndarray) -> float:
    """Mean windowed SSIM over windows whose full support is valid.

    11x11 Gaussian window (sigma 1.5) applied as two separable 11-tap
    passes, K1=0.01, K2=0.03, dynamic range L = max - min of the
    ground-truth depths.

    The map is computed SSIM_STRIP_ROWS rows at a time, each strip reading
    the window's 5-row halo on either side, so only strip-sized means are
    alive.  Every pixel sums the same terms in the same order as a
    whole-view pass, and the fully supported values are averaged in row
    order, so the result is the whole-view one bit for bit.
    """
    pred = np.asarray(pred_depth, dtype=np.float64)
    gt = np.asarray(gt_depth, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError("depth rasters must share a shape")
    valid = np.isfinite(pred) & np.isfinite(gt)
    if not valid.any():
        raise DegenerateMetricError("shared valid mask is empty")
    dr = float(np.max(gt, where=valid, initial=-np.inf) - np.min(gt, where=valid, initial=np.inf))
    if dr == 0:
        raise DegenerateMetricError("constant ground-truth depth: L = 0")

    half = SSIM_WINDOW // 2
    height = len(valid)
    # (first row, end row) of each strip, and of the rows its windows read.
    strips = [(start, min(start + SSIM_STRIP_ROWS, height)) for start in range(0, height, SSIM_STRIP_ROWS)]
    strips = [(start, stop, max(start - half, 0), min(stop + half, height)) for start, stop in strips]
    full = np.empty(valid.shape, dtype=bool)
    for start, stop, lo, hi in strips:
        support = _window_mean(valid[lo:hi].astype(np.float64), start - lo, stop - lo)
        full[start:stop] = support > 1 - 1e-9
    if not full.any():
        raise DegenerateMetricError("no window has full valid support")

    c1 = (SSIM_K1 * dr) ** 2
    c2 = (SSIM_K2 * dr) ** 2
    ssim_values = np.empty(int(full.sum()))  # the map at its fully supported pixels, in row order
    filled = 0
    for start, stop, lo, hi in strips:
        x = np.where(valid[lo:hi], pred[lo:hi], 0.0)
        y = np.where(valid[lo:hi], gt[lo:hi], 0.0)
        mu_x = _window_mean(x, start - lo, stop - lo)
        mu_y = _window_mean(y, start - lo, stop - lo)
        var_x = _window_mean(x * x, start - lo, stop - lo) - mu_x**2
        var_y = _window_mean(y * y, start - lo, stop - lo) - mu_y**2
        cov = _window_mean(x * y, start - lo, stop - lo) - mu_x * mu_y
        del x, y
        ssim_map = ((2 * mu_x * mu_y + c1) * (2 * cov + c2)) / (
            (mu_x**2 + mu_y**2 + c1) * (var_x + var_y + c2)
        )
        strip_values = ssim_map[full[start:stop]]
        ssim_values[filled:filled + len(strip_values)] = strip_values
        filled += len(strip_values)
    return float(np.mean(ssim_values))


# ---------------------------------------------------------------------------
# Depth profiles
# ---------------------------------------------------------------------------


def profile_rows(height: int, n_profiles: int) -> list[int]:
    """Evenly spaced row indices including the central row for odd counts."""
    if n_profiles < 1:
        raise ValueError("n_profiles must be >= 1")
    return [(i + 1) * height // (n_profiles + 1) for i in range(n_profiles)]


def profile_metrics(pred_depth: np.ndarray, gt_depth: np.ndarray, n_profiles: int = 5):
    """(MAE meters, Pearson correlation) averaged over horizontal profiles.

    Profiles with fewer than 2 shared valid pixels are skipped; correlation
    additionally requires non-constant values on both sides.
    """
    pred = np.asarray(pred_depth, dtype=np.float64)
    gt = np.asarray(gt_depth, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError("depth rasters must share a shape")
    maes = []
    corrs = []
    for row in profile_rows(pred.shape[0], n_profiles):
        p = pred[row]
        g = gt[row]
        valid = np.isfinite(p) & np.isfinite(g)
        if valid.sum() < 2:
            continue
        maes.append(float(np.mean(np.abs(p[valid] - g[valid]))))
        try:
            corrs.append(_pearson(p[valid], g[valid]))
        except DegenerateMetricError:
            pass
    if not maes:
        raise DegenerateMetricError("all profiles skipped (too few valid pixels)")
    mae = float(np.mean(maes))
    if not corrs:
        raise DegenerateMetricError("no profile had a defined correlation")
    return mae, float(np.mean(corrs))


# ---------------------------------------------------------------------------
# Scale-invariant pointmap loss
# ---------------------------------------------------------------------------


def scale_invariant_loss(pred_points, gt_points) -> float:
    """Mean per-pixel distance between pointmaps, each normalized by the mean
    distance of its own points to the origin; invariant to global scale.
    pred_points, gt_points: (..., 3) arrays of valid points only (index a
    pointmap by its validity mask first)."""
    pred = np.asarray(pred_points, dtype=np.float64).reshape(-1, 3)
    gt = np.asarray(gt_points, dtype=np.float64).reshape(-1, 3)
    if len(pred) == 0 or pred.shape != gt.shape:
        raise ValueError("pointmaps must share >= 1 valid pixel")
    z_gt = float(np.mean(norms(gt)))
    z_pred = float(np.mean(norms(pred)))
    if z_gt == 0 or z_pred == 0:
        raise DegenerateMetricError("zero normalizer: all points at the origin")
    return float(np.mean(norms(gt / z_gt - pred / z_pred)))


# ---------------------------------------------------------------------------
# Per-pair evaluation
# ---------------------------------------------------------------------------


ALIGN_THRESHOLD_GSD = 3.0  # alignment inlier threshold, in ground-truth GSDs


@dataclass(frozen=True, eq=False)
class PairPrediction:
    """Predicted geometry for one stereo pair: (H, W, 3) pointmaps in any one
    frame and scale, NaN where invalid.  The pointmaps may be held as stored
    (float32, as evaluate reads them); evaluate_pair converts to float64
    where it computes."""

    pointmap_a: np.ndarray
    pointmap_b: np.ndarray
    pose_a: Pose
    pose_b: Pose


@dataclass(frozen=True, eq=False)
class PairGroundTruth:
    """Rendered ground truth for one stereo pair.  The rasters may be held as
    stored (float32, as evaluate reads them); evaluate_pair and the metrics
    convert to float64 where they compute."""

    pointmap_a: np.ndarray  # (H, W, 3) world frame, NaN where invalid
    pointmap_b: np.ndarray
    pose_a: Pose
    pose_b: Pose
    depth_a: np.ndarray
    depth_b: np.ndarray
    gsd_m: float


@dataclass
class MetricsReport:
    accuracy_m: float | None = None
    completeness_m: float | None = None
    chamfer_m: float | None = None
    accuracy_rel: float | None = None
    completeness_rel: float | None = None
    chamfer_rel: float | None = None
    slope_corr: float | None = None
    slope_mae_deg: float | None = None
    profile_mae_m: float | None = None
    profile_corr: float | None = None
    ssim: float | None = None
    si_loss: float | None = None
    rra_deg: float | None = None
    rta_deg: float | None = None
    alignment: SimilarityTransform | None = None
    flags: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {}
        for name in REPORT_FIELDS:
            value = getattr(self, name)
            if value is None:
                out[name] = self.flags.get(name, "degenerate")
            else:
                out[name] = float(value)
        out["alignment"] = self.alignment.to_json_dict() if self.alignment else "degenerate"
        out["flags"] = dict(self.flags)
        return out


# The scalar metrics in report order: every field but the alignment and flags.
REPORT_FIELDS = tuple(f.name for f in fields(MetricsReport) if f.name not in ("alignment", "flags"))


def evaluate_pair(pred: PairPrediction, gt: PairGroundTruth, seed: int = 0) -> MetricsReport:
    """Align the predicted pointmaps to ground truth and score every metric.

    The prediction is aligned to the ground-truth world frame with a RANSAC
    similarity transform (index-paired points, ALIGN_THRESHOLD_GSD, at most
    RansacParams.iterations hypotheses drawn from seed); distances, slope, SSIM,
    profile and pointmap-loss metrics are computed on the aligned
    prediction, and RRA/RTA compare relative poses.  Degeneracies land in
    report.flags instead of NaN.
    """
    report = MetricsReport()
    shared_a = np.isfinite(pred.pointmap_a).all(-1) & np.isfinite(gt.pointmap_a).all(-1)
    shared_b = np.isfinite(pred.pointmap_b).all(-1) & np.isfinite(gt.pointmap_b).all(-1)
    # The rasters may be held as stored (float32); the clouds are float64.
    gt_cloud = np.concatenate([gt.pointmap_a[shared_a], gt.pointmap_b[shared_b]], dtype=np.float64)
    pred_cloud = np.concatenate([pred.pointmap_a[shared_a], pred.pointmap_b[shared_b]], dtype=np.float64)

    # Built outside the try: a bad seed is the caller's error, not degenerate geometry.
    params = RansacParams(inlier_threshold=ALIGN_THRESHOLD_GSD * gt.gsd_m, seed=seed)
    if len(gt_cloud) >= 3:
        try:
            transform, _ = ransac_align(pred_cloud, gt_cloud, params)
            report.alignment = transform
        except (RansacError, ValueError) as exc:  # ValueError covers degenerate geometry
            report.flags["alignment"] = f"failed: {exc}"
    else:
        report.flags["alignment"] = "fewer than 3 shared valid points"

    if report.alignment is not None:
        transform = report.alignment
        aligned_cloud = transform.apply(pred_cloud)
        del pred_cloud
        acc, compl, chamfer = accuracy_completeness(aligned_cloud, gt_cloud)
        report.accuracy_m = acc
        report.completeness_m = compl
        report.chamfer_m = chamfer
        try:
            scale = scene_scale(gt_cloud)
            report.accuracy_rel = relative_error(acc, scale)
            report.completeness_rel = relative_error(compl, scale)
            report.chamfer_rel = relative_error(chamfer, scale)
        except DegenerateMetricError as exc:
            report.flags["relative"] = str(exc)
        del gt_cloud  # the per-view metrics read the ground-truth rasters

        per_view: dict[str, list] = {}

        def score(flag, names, metric, *args):
            try:
                values = metric(*args)
            except DegenerateMetricError as exc:
                report.flags.setdefault(flag, str(exc))
                return
            for name, value in zip(names, values if len(names) > 1 else (values,)):
                per_view.setdefault(name, []).append(value)

        # Dense float64 per-view rasters of elevation and ray depth, NaN off
        # the shared mask: the aligned cloud's values and the ground truth's
        # stored ones scattered onto it, so no metric makes its own copy.
        # Each metric is looked up when it is called, and each raster lives
        # only through the metrics that read it: the pointmap loss, last,
        # builds its own clouds in the ground-truth view-a frame.
        start = 0
        for gt_world, shared, gt_depth, gt_pose in (
            (gt.pointmap_a, shared_a, gt.depth_a, gt.pose_a),
            (gt.pointmap_b, shared_b, gt.depth_b, gt.pose_b),
        ):
            count = int(shared.sum())
            if not count:
                continue
            view_cloud = aligned_cloud[start:start + count]
            start += count
            pred_z = np.full(shared.shape, np.nan)
            pred_z[shared] = view_cloud[:, 2]
            gt_z = np.full(shared.shape, np.nan)
            np.copyto(gt_z, gt_world[..., 2], where=shared)
            score("slope", ("slope_corr", "slope_mae_deg"), slope_metrics, pred_z, gt_z, gt.gsd_m)
            del pred_z, gt_z
            pred_depth = np.full(shared.shape, np.nan)
            pred_depth[shared] = norms(view_cloud - gt_pose.translation)
            gt_depth_m = np.full(shared.shape, np.nan)
            np.copyto(gt_depth_m, gt_depth, where=shared)
            score("ssim", ("ssim",), ssim_depth, pred_depth, gt_depth_m)
            score("profile", ("profile_mae_m", "profile_corr"), profile_metrics, pred_depth, gt_depth_m)
            del pred_depth, gt_depth_m
            score("si_loss", ("si_loss",), scale_invariant_loss,
                  gt.pose_a.world_to_camera(view_cloud), gt.pose_a.world_to_camera(gt_world[shared]))
        for name, values in per_view.items():
            setattr(report, name, float(np.mean(values)))

    rel_gt = relative_pose(gt.pose_a, gt.pose_b)
    rel_pred = relative_pose(pred.pose_a, pred.pose_b)
    report.rra_deg = rra(rel_gt.rotation, rel_pred.rotation)
    try:
        report.rta_deg = rta(rel_gt.translation, rel_pred.translation)
    except DegenerateBaselineError:
        report.flags["rta_deg"] = "degenerate_baseline"
    return report
