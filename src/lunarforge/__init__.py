"""lunarforge: physically-based lunar stereo dataset generation and evaluation."""

from .camera import CameraRig, Intrinsics, Pose, gsd, project, relative_pose, unproject
from .metrics import (
    MetricsReport,
    PairGroundTruth,
    PairPrediction,
    evaluate_pair,
    scale_invariant_loss,
)
from .pose import (
    EssentialEstimate,
    RansacParams,
    SimilarityTransform,
    estimate_essential,
    ransac_align,
    rra,
    rta,
    solve_pnp,
    umeyama,
)
from .radiometry import HapkeParams, SunConfig, hapke_brdf, sun_direction
from .renderer import (
    RenderProduct,
    depth_to_pointmap,
    gt_correspondences,
    render_pair,
)
from .terrain import DemGrid, hillshade, load_dem, sample_height, slope_map, surface_normal, synth_crater_dem, write_dem
from .trajectory import TrajectorySpec, lighting_preset, sample_pair

__version__ = "0.1.0"

__all__ = [
    "CameraRig", "Intrinsics", "Pose", "gsd", "project", "relative_pose", "unproject",
    "MetricsReport", "PairGroundTruth", "PairPrediction", "evaluate_pair",
    "scale_invariant_loss",
    "EssentialEstimate", "RansacParams", "SimilarityTransform", "estimate_essential",
    "ransac_align", "rra", "rta", "solve_pnp", "umeyama",
    "HapkeParams", "SunConfig", "hapke_brdf", "sun_direction",
    "RenderProduct", "depth_to_pointmap", "gt_correspondences", "render_pair",
    "DemGrid", "hillshade", "load_dem", "sample_height", "slope_map",
    "surface_normal", "synth_crater_dem", "write_dem",
    "TrajectorySpec", "lighting_preset", "sample_pair",
]
