import numpy as np
import pytest

from lunarforge import DemGrid, HapkeParams, depth_to_pointmap, gt_correspondences, render_pair, sample_pair
from lunarforge.cli import synth_dem_for_band
from lunarforge.metrics import PairGroundTruth
from lunarforge.trajectory import lighting_preset


@pytest.fixture
def renderer_pools(monkeypatch):
    """max_workers of every thread pool the renderer opens."""
    import lunarforge.renderer as renderer

    seen = []

    class Recording(renderer.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            seen.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(renderer, "ThreadPoolExecutor", Recording)
    return seen


@pytest.fixture(scope="session")
def flat_dem():
    return DemGrid(
        width=64, height=64, cell_size=10.0, origin_x=-315.0, origin_y=-315.0,
        elevations=np.zeros((64, 64)),
    )


@pytest.fixture(scope="session")
def crater_dem():
    return synth_dem_for_band("nadir", 0, seed=7, size=128, craters=5, octaves=4)


@pytest.fixture(scope="session")
def oblique_scene():
    """One sigma=0 oblique pair with depth products and GT correspondences."""
    dem = synth_dem_for_band("oblique", 2, seed=7, size=128)
    spec, rig = sample_pair("oblique", 11, 2, dem, psf_sigma=0.0, rays_per_pixel=1, width=96, height=96)
    prod_a, prod_b = render_pair(dem, rig, lighting_preset("overhead"), HapkeParams(), seed=6)
    corr = gt_correspondences(prod_a, prod_b, stride=3)
    return {"dem": dem, "spec": spec, "rig": rig, "prod_a": prod_a, "prod_b": prod_b, "corr": corr}


@pytest.fixture(scope="session")
def nadir_gt_pair():
    """Rendered nadir ground truth packaged for evaluation tests."""
    from lunarforge import gsd

    dem = synth_dem_for_band("nadir", 0, seed=7, size=128)
    spec, rig = sample_pair("nadir", 3, 0, dem, psf_sigma=0.0, rays_per_pixel=1, width=64, height=64)
    prod_a, prod_b = render_pair(dem, rig, lighting_preset("side"), HapkeParams(), seed=5)
    pm_a = depth_to_pointmap(prod_a)
    pm_b = depth_to_pointmap(prod_b)
    gt = PairGroundTruth(
        pointmap_a=pm_a, pointmap_b=pm_b, pose_a=rig.pose_a, pose_b=rig.pose_b,
        depth_a=prod_a.depth, depth_b=prod_b.depth,
        gsd_m=gsd(spec.altitude_m, rig.intrinsics.fov_deg, rig.intrinsics.width),
    )
    return {"dem": dem, "spec": spec, "rig": rig, "gt": gt, "pm_a": pm_a, "pm_b": pm_b}
