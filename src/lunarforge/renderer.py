"""Ray-traced images, ray-depth maps, pointmaps, and ground-truth correspondences.

render_pair is the one render call and the whole pair driver.  A view is
(rig, view id): view 0 looks from the rig's pose_a and view 1 from its
pose_b, with the rig's intrinsics, PSF sigma and rays per pixel.  render_pair
takes the rig's suns and shades every view under each, and under each sun
view b takes view a's exposure gain.  It checks both cameras against the
terrain, sweeps each sun's shadow ceiling (_heightfield.sun_ceiling) once,
and hands the ceilings down to every row band's shading; no module state
holds them.  A view's radiance under a sun before the gain is a pure
function of (DEM, rig, sun, seed, view id): PSF jitter comes from a single
stream keyed by (seed, view id), pixels are partitioned into row bands whose
outputs land in disjoint buffer slices, and no cross-pixel reductions occur,
so results are bitwise identical for any band plan and thread count,
across runs, and whichever other suns are rendered with it.
Each band draws its own jitter: it advances the view's stream to the band's
first row and draws exactly the numbers a whole-view draw would have given
its rows, so no view-sized jitter array is ever held.

Only shadow rays and the incidence cosine mu0 depend on the sun.  So each
band runs one geometry pass (central and jittered traces, hit points, view
directions, surface normals), takes the emission cosine mu once and each
sun's mu0 from the normals, frees the normals, and then runs one shading pass
per sun: shade_points takes the cosines, not the normals.  Memory stays
bounded per band whatever the number of suns.  Each phase frees what it no
longer needs, so at 4 PSF rays per pixel under a 15-70 degree sun the traced
peak per PSF ray is about 45 B in the central walk, 165 B in the jittered
walk, 155 B at the surface normals, 141 B in the shadow test and 149 B in
the shading.  The walks keep a row that every ray shares, the camera's
origin or the sun's direction, as one value (see _heightfield).

A view is the pool's task: one pool of resolve_workers() threads renders a
rig's two views, and a 1-thread pool renders view a, then view b.  Each view
task walks its row bands in row order, the fewest equal, contiguous bands of
at most BAND_PIXELS pixels, so at most one band per view, two per rig, is in
flight, and each band is large enough that its numpy calls run long enough
for the two views' threads to overlap.  The plan depends on the view's size
alone; the thread count sets only the pool size.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import _heightfield
from .camera import CameraRig, Intrinsics, Pose, gsd, pixel_rays, project_points, unproject
from .radiometry import HapkeParams, SunConfig, shade_points, sun_direction
from .terrain import DemGrid, NodataError, OutOfBoundsError, bilinear, sample_height, surface_normal

# Pixels per row band at most.  At 4 PSF rays per pixel a band's trace and
# shading peak at about 165 B per ray under a 15-70 degree sun, in the
# jittered walk, whatever the number of suns, so near 5.4 MB per view
# task; a 3 degree sun's shadow walk traces most rays and peaks near 199 B
# alone, 215 B with two higher suns.
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
    """Thread count of the render pool, whose tasks are a rig's two views, and
    of evaluate's pair pool: LUNARFORGE_THREADS when set, else min(4, cores).
    ValueError when it is set but not a positive integer."""
    text = os.environ.get("LUNARFORGE_THREADS")
    if not text:
        return min(4, os.cpu_count() or 1)
    if not text.strip().isdecimal() or int(text) < 1:
        raise ValueError(f"LUNARFORGE_THREADS must be a positive integer, got {text!r}")
    return int(text)


def _row_bands(height: int, width: int) -> list[slice]:
    """The fewest equal, contiguous row bands of at most BAND_PIXELS pixels,
    or of one row if a row is wider; a view task renders them in order."""
    rows = max(1, BAND_PIXELS // width)
    count = -(-height // rows)
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


def _render_band(dem, rig, view_id, suns, hapke, seed, ceilings, rows):
    """Render one horizontal band of rows of one rig view under each sun,
    shaded under that sun's ceiling; returns ([radiance per sun], depth).

    The geometry pass (central and jittered traces, hit points, view
    directions, surface normals) runs once and every sun shades it."""
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
    # Normals need a one-cell margin; clamp queries into it.  Only mu0
    # depends on the sun, so the normals go before any shadow ray is traced.
    cs = dem.cell_size
    normals = surface_normal(
        dem, np.clip(pts[:, 0], dem.x_min + cs, dem.x_max - cs), np.clip(pts[:, 1], dem.y_min + cs, dem.y_max - cs)
    )
    mu = np.einsum("ij,ij->i", normals, view)
    mu0s = [normals @ sun_direction(sun) for sun in suns]
    del normals

    radiances = []
    for sun, ceiling, mu0 in zip(suns, ceilings, mu0s):
        shaded = shade_points(dem, pts, mu0, mu, view, sun, hapke, ceiling)
        radiance = np.zeros(h * w * rpp)  # after the shading, so never held across its shadow rays
        radiance[jhit] = shaded
        del shaded
        radiances.append(radiance.reshape(h, w, rpp).mean(axis=2))
    return radiances, depth


def exposure_gain(radiance: np.ndarray) -> float:
    """Per-pair photometric gain: 1 / (99th percentile), 1.0 for black frames."""
    p99 = float(np.percentile(radiance, 99.0))
    return 1.0 / p99 if p99 > 0 else 1.0


def render_pair(
    dem: DemGrid,
    rig: CameraRig,
    suns: Sequence[SunConfig],
    hapke: HapkeParams,
    seed: int = 0,
) -> list[tuple[RenderProduct, RenderProduct]]:
    """Render both rig views under each of suns, a non-empty sequence of
    SunConfig: PSF-averaged radiance images plus central-ray depth.  Returns
    one (view a, view b) per sun, in order; under each sun both views share
    the gain taken from view a's 99th radiance percentile, and every sun's
    products share the two depth arrays.

    Both cameras are checked against the terrain before any work, then each
    sun's shadow ceiling is swept once and one pool renders the two views as
    two tasks.  Each task walks its view's row bands in order, tracing each
    band once and shading it under every sun."""
    if not suns:
        raise ValueError("render_pair needs at least one sun")
    poses = (rig.pose_a, rig.pose_b)
    for pose in poses:
        x, y, z = pose.translation
        try:
            ground = sample_height(dem, x, y)
        except (OutOfBoundsError, NodataError):  # no terrain below the camera
            continue
        if z <= ground:
            raise CameraBelowTerrainError("camera center is below the terrain surface")
    ceilings = [_heightfield.sun_ceiling(dem, sun_direction(sun)) for sun in suns]

    intr = rig.intrinsics
    shape = (intr.height, intr.width)
    radiance = [[np.zeros(shape) for _ in poses] for _ in suns]  # [sun][view]
    depth = [np.zeros(shape) for _ in poses]

    def render_view(view_id):
        for band in _row_bands(intr.height, intr.width):
            rads, dep = _render_band(dem, rig, view_id, suns, hapke, seed, ceilings, band)
            depth[view_id][band] = dep
            for views, rad in zip(radiance, rads):
                views[view_id][band] = rad

    with ThreadPoolExecutor(max_workers=resolve_workers()) as pool:
        list(pool.map(render_view, (0, 1)))

    pairs = []
    for views in radiance:
        gain = exposure_gain(views[0])
        pairs.append(tuple(
            RenderProduct(image=np.clip(rad * gain, 0.0, 1.0), depth=dep, intrinsics=intr, pose=pose)
            for rad, dep, pose in zip(views, depth, poses)
        ))
    return pairs


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
