"""Ray-traced images, ray-depth maps, pointmaps, and ground-truth correspondences.

render_pair is the one render call.  A view is (rig, view id): view 0 looks
from the rig's pose_a and view 1 from its pose_b, with the rig's intrinsics,
PSF sigma and rays per pixel.  Every view is shaded, and view b takes view a's
exposure gain.  A view's radiance before the gain is a pure function of (DEM,
rig, sun, seed, view id): PSF jitter comes from a single stream keyed by
(seed, view id), pixels are partitioned into row bands whose outputs land in
disjoint buffer slices, and no cross-pixel reductions occur, so results are
bitwise identical for any worker count and across runs.
Each band draws its own jitter, on its own thread: it advances the view's
stream to the band's first row and draws exactly the numbers a whole-view
draw would have given its rows, so no view-sized jitter array is ever held.

Each view splits into the fewest equal, contiguous row bands of at most
BAND_PIXELS pixels whose count is a multiple of the thread count
(resolve_workers), and a pool of that many threads renders them.  So the
threads start with equal shares, and each band is large enough that its
numpy calls run long enough for the threads to overlap.  The plan changes
with the thread count; the pixels do not.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import _heightfield
from .camera import CameraRig, Intrinsics, Pose, gsd, pixel_rays, project_points, unproject
from .radiometry import HapkeParams, SunConfig, shade_points, sun_direction
from .terrain import DemGrid, NodataError, bilinear, sample_height

# Pixels per row band at most.  At 4 PSF rays per pixel a band's trace and
# shading peak at about 210-230 B per ray, so near 7.5 MB per thread.
BAND_PIXELS = 8192


class CameraBelowTerrainError(ValueError):
    """Camera center is on or below the terrain surface."""


@dataclass(frozen=True, eq=False)
class RenderProduct:
    """One rendered view with its ray-depth ground truth."""

    image: np.ndarray  # (H, W) in [0, 1]
    depth: np.ndarray  # (H, W) meters along the central ray, NaN = miss
    intrinsics: Intrinsics
    pose: Pose

    def __post_init__(self):
        img = self.image[np.isfinite(self.image)]
        if img.size and (img.min() < 0 or img.max() > 1):
            raise ValueError("image values must lie in [0, 1]")


def resolve_workers() -> int:
    """Thread count of the tile and pair pools: LUNARFORGE_THREADS when set,
    else min(4, cores).  ValueError when it is set but not a positive
    integer."""
    text = os.environ.get("LUNARFORGE_THREADS")
    if not text:
        return min(4, os.cpu_count() or 1)
    if not text.strip().isdecimal() or int(text) < 1:
        raise ValueError(f"LUNARFORGE_THREADS must be a positive integer, got {text!r}")
    return int(text)


def _row_bands(height: int, width: int, workers: int) -> list[slice]:
    """The fewest equal, contiguous row bands of at most BAND_PIXELS pixels
    (one row if a row is wider) whose count is a multiple of workers, or one
    band per row when there are too few rows for that."""
    rows = max(1, BAND_PIXELS // width)
    count = -(-height // rows)
    count = min(height, -(-count // workers) * workers)
    size, extra = divmod(height, count)
    starts = [i * size + min(i, extra) for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(starts, starts[1:])]


def _psf_jitter(seed: int, view_id: int, rows: slice, width: int, rpp: int, sigma: float) -> np.ndarray:
    """(rows, W, rpp, 2) Gaussian pixel offsets of one row band of a view;
    stratified when rpp is square.

    A view's offsets are one row-major draw from the stream keyed by (seed,
    view id).  Each double takes one PCG64 output, so the band advances the
    stream past the rows above it and draws exactly its own part of that
    draw."""
    height = rows.stop - rows.start
    if sigma == 0:
        return np.zeros((height, width, rpp, 2))
    bits = np.random.PCG64(np.random.SeedSequence(entropy=(int(seed), int(view_id), 0x5AF)))
    bits.advance(rows.start * width * rpp * 2)
    rng = np.random.Generator(bits)
    k = int(round(math.sqrt(rpp)))
    if k * k == rpp:
        base = np.stack(
            np.meshgrid(np.arange(k), np.arange(k), indexing="ij"), axis=-1
        ).reshape(rpp, 2)
        u = (base + rng.random((height, width, rpp, 2))) / k
    else:
        u = rng.random((height, width, rpp, 2))
    # Clamp away from 0/1 so ndtri stays finite.
    u = np.clip(u, 1e-9, 1 - 1e-9)
    return sigma * ndtri(u)


def _render_band(dem, rig, view_id, sun, hapke, seed, rows):
    """Render one horizontal band of rows of one rig view; returns (radiance,
    depth) arrays."""
    intr = rig.intrinsics
    pose = (rig.pose_a, rig.pose_b)[view_id]
    h = rows.stop - rows.start
    w = intr.width
    rpp = rig.rays_per_pixel
    vv, uu = np.meshgrid(np.arange(rows.start, rows.stop, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")

    # Central rays define the depth channel.
    t, hit = _heightfield.intersect_rays(dem, *pixel_rays(intr, pose, uu.ravel(), vv.ravel()))
    depth = np.where(hit, t, np.nan).reshape(h, w)
    del t, hit

    jitter = _psf_jitter(seed, view_id, rows, w, rpp, rig.psf_sigma)
    us = np.repeat(uu.ravel(), rpp) + jitter[..., 0].reshape(-1)
    vs = np.repeat(vv.ravel(), rpp) + jitter[..., 1].reshape(-1)
    del uu, vv, jitter
    origins, dirs = pixel_rays(intr, pose, us, vs)
    del us, vs
    jt, jhit = _heightfield.intersect_rays(dem, origins, dirs)
    # One copy of the hit rays' directions places the points, origin +
    # t * direction, and then turns into their view directions.
    view = dirs[jhit]
    del dirs
    pts = jt[jhit, None] * view
    del jt
    pts += pose.translation
    np.negative(view, out=view)
    shaded = shade_points(dem, pts, view, sun, hapke)
    del pts, view
    radiance = np.zeros(h * w * rpp)
    radiance[jhit] = shaded
    radiance = radiance.reshape(h, w, rpp).mean(axis=2)
    return radiance, depth


def _render(dem, rig, view_id, sun, hapke, seed, gain):
    """Render view view_id (0 = a, 1 = b) of the rig over row bands; returns
    (RenderProduct, the gain applied).

    gain None derives it from this view's own radiance (see exposure_gain).
    """
    intr = rig.intrinsics
    pose = (rig.pose_a, rig.pose_b)[view_id]
    center = pose.translation
    if dem.x_min <= center[0] <= dem.x_max and dem.y_min <= center[1] <= dem.y_max:
        try:
            ground = sample_height(dem, center[0], center[1])
        except NodataError:  # no terrain under the camera to be below
            ground = -np.inf
        if center[2] <= ground:
            raise CameraBelowTerrainError("camera center is below the terrain surface")

    # Shadow rays' (DEM, sun) data before this view's buffers.
    _heightfield.prepare_shadows(dem, sun_direction(sun))
    radiance = np.zeros((intr.height, intr.width))
    depth = np.zeros((intr.height, intr.width))

    n_workers = resolve_workers()
    bands = _row_bands(intr.height, intr.width, n_workers)

    def run(band):
        return band, _render_band(dem, rig, view_id, sun, hapke, seed, band)

    if n_workers == 1 or len(bands) == 1:
        results = [run(b) for b in bands]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(run, bands))
    for band, (rad, dep) in results:
        radiance[band] = rad
        depth[band] = dep

    if gain is None:
        gain = exposure_gain(radiance)
    product = RenderProduct(image=np.clip(radiance * gain, 0.0, 1.0), depth=depth, intrinsics=intr, pose=pose)
    return product, gain


def exposure_gain(radiance: np.ndarray) -> float:
    """Per-pair photometric gain: 1 / (99th percentile), 1.0 for black frames."""
    p99 = float(np.percentile(radiance, 99.0))
    return 1.0 / p99 if p99 > 0 else 1.0


def render_pair(
    dem: DemGrid,
    rig: CameraRig,
    sun: SunConfig,
    hapke: HapkeParams,
    seed: int = 0,
):
    """Render both rig views, PSF-averaged radiance images plus central-ray
    depth, with a shared gain taken from view a's 99th radiance percentile."""
    product_a, gain = _render(dem, rig, 0, sun, hapke, seed, None)
    product_b, _ = _render(dem, rig, 1, sun, hapke, seed, gain)
    return product_a, product_b


def depth_to_pointmap(product: RenderProduct) -> np.ndarray:
    """(H, W, 3) world points origin + depth * direction; NaN where the ray
    missed."""
    intr = product.intrinsics
    vv, uu = np.meshgrid(np.arange(intr.height, dtype=np.float64), np.arange(intr.width, dtype=np.float64), indexing="ij")
    return unproject(intr, product.pose, uu, vv, product.depth)


def gt_correspondences(
    product_a: RenderProduct,
    product_b: RenderProduct,
    stride: int = 1,
) -> np.ndarray:
    """(N, 4) float64 ground-truth matches (u1, v1, u2, v2) from view a into
    view b with an occlusion test.

    Each strided valid pixel of a is unprojected to the world and projected
    into b; it is kept when it lands in bounds and b's ray depth there agrees
    with the point's distance to camera b within 1 GSD, estimated from b's
    median depth.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    intr = product_a.intrinsics
    vv, uu = np.meshgrid(
        np.arange(0, intr.height, stride, dtype=np.float64),
        np.arange(0, intr.width, stride, dtype=np.float64),
        indexing="ij",
    )
    depth_a = product_a.depth[::stride, ::stride]
    valid = np.isfinite(depth_a)
    u1 = uu[valid]
    v1 = vv[valid]
    d1 = depth_a[valid]
    world = unproject(intr, product_a.pose, u1, v1, d1)

    intr_b = product_b.intrinsics
    # u2, v2 are NaN behind camera b, so those points fall outside its image.
    u2, v2, dist_b, _ = project_points(intr_b, product_b.pose, world)

    med = float(np.nanmedian(product_b.depth)) if np.isfinite(product_b.depth).any() else 0.0
    depth_tol = gsd(med, intr_b.fov_deg, intr_b.width) if med > 0 else np.inf
    # Sample b's depth where the projection lands on its pixel grid.
    h, w = product_b.depth.shape
    eps = 1e-6
    inside = (u2 >= -eps) & (u2 <= w - 1 + eps) & (v2 >= -eps) & (v2 <= h - 1 + eps)
    sampled = np.full(u2.shape, np.nan)
    sampled[inside] = bilinear(product_b.depth, u2[inside], v2[inside])
    with np.errstate(invalid="ignore"):
        keep = np.isfinite(sampled) & (np.abs(sampled - dist_b) <= depth_tol)
    # Snap float noise at the image border back onto it.
    u2k = np.clip(u2[keep], 0.0, intr_b.width - 1)
    v2k = np.clip(v2[keep], 0.0, intr_b.height - 1)
    return np.column_stack([u1[keep], v1[keep], u2k, v2k])
