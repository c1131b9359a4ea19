"""Memory budgets of the whole-DEM passes on render_large_dem's 640 x 640
DEM, and of evaluating one stereo pair.

A budget is the peak of what one call allocates, traced by tracemalloc.  For
the DEM passes it is in grids: DEM-sized float64 arrays.  Each pass holds at
most one grid besides its result, plus boolean masks (1/8 grid) and row
buffers; the ceiling sweep and DEM synthesis hold only their result and
buffers of a few rows.  For evaluate it is in bytes per shared cloud point.
"""

import shutil
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lunarforge import DemGrid, formats, synth_crater_dem
from lunarforge._heightfield import sun_ceiling
from lunarforge.camera import rot_z
from lunarforge.cli import _load_ground_truth, _load_prediction, _read_manifest, main
from lunarforge.metrics import evaluate_pair
from lunarforge.radiometry import SunConfig, sun_direction

SIZE = 640
GRID = SIZE * SIZE * 8


def _peak_bytes(call):
    """Peak bytes allocated during call(), its result included."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _peak_grids(call):
    """Peak bytes allocated during call(), its result included, in grids."""
    return _peak_bytes(call) / GRID


@pytest.fixture(scope="module")
def dem():
    dem = synth_crater_dem(24, SIZE, SIZE, 3.0, 6, 4)
    dem.cell_max  # cached, as every render reads it before the sweep
    return dem


def _regrid(dem):
    return DemGrid(cell_size=dem.cell_size,
                   origin_x=dem.origin_x, origin_y=dem.origin_y, elevations=dem.elevations)


# One sun per quadrant, so both sweep axes and every flip; None is the zenith.
@pytest.mark.parametrize("azimuth", [30.0, 120.0, 250.0, 300.0, None])
def test_sun_ceiling_holds_its_result_and_row_buffers(dem, azimuth):
    if azimuth is None:
        s = np.array([0.0, 0.0, 1.0])
    else:
        s = sun_direction(SunConfig(azimuth=azimuth, elevation=20.0))
    assert _peak_grids(lambda: sun_ceiling(dem, s)) <= 1.1


def test_cell_max_holds_its_result_and_one_temporary(dem):
    grid = _regrid(dem)
    assert _peak_grids(lambda: grid.cell_max) <= 2.1


def test_dem_validation_copies_no_elevations(dem):
    assert _peak_grids(lambda: _regrid(dem)) <= 0.3


def test_synth_crater_dem_adds_each_octave_in_place():
    """Every octave and crater goes into the grid a block of rows at a time."""
    assert _peak_grids(lambda: synth_crater_dem(24, SIZE, SIZE, 3.0, 6, 4)) <= 1.3


def _noisy_copy(src: Path, dst: Path) -> None:
    """The pair directory src as a noisy prediction, the recipe of the
    eval_noisy workload: 2 m noise, 40% of the points moved by 200 m, then a
    similarity (scale 0.5, a turn about z, a 1 km shift)."""
    shutil.copytree(src, dst)
    rng = np.random.default_rng(7)
    rot = rot_z(rng.uniform(0.0, 360.0))
    offset = rng.normal(0.0, 1000.0, 3)
    for view in ("a", "b"):
        path = dst / f"pointmap_{view}.f32"
        gt, meta = formats.read_f32_raster(path)
        pts = gt + rng.normal(0.0, 2.0, gt.shape)
        outliers = rng.random(gt.shape[:2]) < 0.4
        pts[outliers] = gt[outliers] + rng.normal(0.0, 200.0, (int(outliers.sum()), 3))
        formats.write_f32_raster(path, 0.5 * pts @ rot.T + offset, meta)


def _eval_pair_peak_per_point(predictions):
    """Traced peak of loading one 128 px oblique pair (an eval workload's
    size) and running evaluate_pair on it, in bytes per shared cloud point.
    predictions is "gt" (a copy of the ground truth) or "noisy"."""
    with tempfile.TemporaryDirectory() as tmp:
        gt_dir, pred_dir = Path(tmp) / "gt", Path(tmp) / "pred"
        assert main(["generate", "--synth", "--synth-size", "160", "--trajectory", "oblique", "--res", "128",
                     "--bands", "0", "--pairs", "1", "--lighting", "side", "--seed", "22",
                     "--out", str(gt_dir)]) == 0
        (record,) = _read_manifest(gt_dir)
        pair_id = record["pair_id"]
        (shutil.copytree if predictions == "gt" else _noisy_copy)(gt_dir / pair_id, pred_dir / pair_id)
        pred, gt = _load_prediction(pred_dir, pair_id), _load_ground_truth(gt_dir, record)
        shared = sum(int((np.isfinite(p).all(-1) & np.isfinite(g).all(-1)).sum())
                     for p, g in ((pred.pointmap_a, gt.pointmap_a), (pred.pointmap_b, gt.pointmap_b)))
        del pred, gt
        peak = _peak_bytes(lambda: evaluate_pair(_load_prediction(pred_dir, pair_id), _load_ground_truth(gt_dir, record)))
    return peak / shared


@pytest.mark.parametrize("predictions", ["noisy", "gt"])
def test_evaluate_pair_holds_rasters_as_stored_and_few_cloud_copies(predictions):
    """A pair's four pointmaps and two depths stay float32 as read, and the
    clouds' float64 copies are few: the ground-truth cloud goes once Chamfer
    and the scene scale are taken, a copy's all-inlier refit reads the clouds
    without gathering them, a partial refit holds one centred gather per
    cloud, RANSAC scores in the residual's own buffer, SSIM holds strips and
    each view's rasters go before the pointmap loss.  About 110 B (noisy)
    and 128 B (a copy) per shared point, both in the refit; with float64
    rasters and the clouds kept to the end it was 200 and 226 B, then 140 B
    for noisy predictions with whole-cloud copies in the refit and the
    scoring and 15 view-sized arrays in SSIM, and 176 B for a copy with the
    gathered refit."""
    assert _eval_pair_peak_per_point(predictions) <= {"noisy": 115, "gt": 135}[predictions]
