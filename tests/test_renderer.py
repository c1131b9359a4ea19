import itertools

import numpy as np
import pytest

import oracles
from lunarforge import (
    DemGrid,
    HapkeParams,
    SunConfig,
    depth_to_pointmap,
    gt_correspondences,
    project,
    render_pair,
    sample_pair,
    synth_crater_dem,
)
from lunarforge._heightfield import intersect_rays
from lunarforge.camera import CameraRig, Intrinsics, Pose, camera_dirs
from lunarforge.cli import synth_dem_for_band
from lunarforge.pose import essential_from_poses
from lunarforge.renderer import (
    BAND_PIXELS,
    CameraBelowTerrainError,
    _render,
    _render_band,
    _row_bands,
    exposure_gain,
    resolve_workers,
)
from lunarforge.trajectory import lighting_preset

SUN = SunConfig(azimuth=150.0, elevation=30.0)
HAPKE = HapkeParams()


def pinhole_pair(dem, intr, pose_a, pose_b, sun=SUN, seed=0):
    """render_pair of a one-ray-per-pixel rig without PSF."""
    rig = CameraRig(intr, pose_a, pose_b, psf_sigma=0.0, rays_per_pixel=1)
    return render_pair(dem, rig, sun, HAPKE, seed=seed)


def pinhole_view(dem, intr, pose, sun=SUN, seed=0):
    """The one view of pose: view a of a rig whose views share it."""
    return pinhole_pair(dem, intr, pose, pose, sun=sun, seed=seed)[0]


def random_rays_above(dem, n, seed, max_zenith_deg=50.0):
    """Rays starting inside the footprint, above the terrain, pointing down."""
    rng = np.random.default_rng(seed)
    margin = 2 * dem.cell_size
    x = rng.uniform(dem.x_min + margin, dem.x_max - margin, n)
    y = rng.uniform(dem.y_min + margin, dem.y_max - margin, n)
    zmax = float(np.nanmax(dem.elevations))
    extent = (dem.x_max - dem.x_min)
    z = zmax + rng.uniform(0.05, 0.30, n) * extent
    zen = np.radians(rng.uniform(0.0, max_zenith_deg, n))
    az = rng.uniform(0, 2 * np.pi, n)
    d = np.column_stack([np.sin(zen) * np.cos(az), np.sin(zen) * np.sin(az), -np.cos(zen)])
    return np.column_stack([x, y, z]), d


# ---------------------------------------------------------------------------
# intersect_rays on the flat DEM
# ---------------------------------------------------------------------------


def test_flat_nadir_hit(flat_dem):
    t, hit = intersect_rays(flat_dem, np.array([[0.0, 0.0, 500.0]]), np.array([[0.0, 0.0, -1.0]]))
    assert hit[0]
    assert t[0] == pytest.approx(500.0, abs=2e-5)


def test_flat_tilted_depth(flat_dem):
    h = 200.0
    theta = np.radians([10.0, 30.0, 55.0])
    d = np.column_stack([np.sin(theta), np.zeros(3), -np.cos(theta)])
    t, hit = intersect_rays(flat_dem, np.tile([0.0, 0.0, h], (3, 1)), d)
    assert hit.all()
    assert t == pytest.approx(h / np.cos(theta), rel=1e-6)


def test_miss_exits_footprint(flat_dem):
    # Grazing ray that leaves the grid while still above the surface.
    d = np.array([[1.0, 0.0, -0.001]]) / np.linalg.norm([1.0, 0.0, -0.001])
    _, hit = intersect_rays(flat_dem, np.array([[0.0, 0.0, 100.0]]), d)
    assert not hit[0]


def test_upward_ray_misses(flat_dem):
    _, hit = intersect_rays(flat_dem, np.array([[0.0, 0.0, 10.0]]), np.array([[0.0, 0.0, 1.0]]))
    assert not hit[0]


def test_dda_matches_brute_force_oracle():
    for seed in (0, 1, 2):
        dem = synth_crater_dem(seed, 96, 96, 5.0, 4, 4)
        origins, dirs = random_rays_above(dem, 2000, seed + 10)
        t_fast, hit_fast = intersect_rays(dem, origins, dirs)
        t_ref, hit_ref = oracles.brute_force_hits(dem, origins, dirs)
        assert np.array_equal(hit_fast, hit_ref)
        err = np.abs(t_fast[hit_fast] - t_ref[hit_ref])
        assert err.max() <= 2e-3 * dem.cell_size


# ---------------------------------------------------------------------------
# render_pair
# ---------------------------------------------------------------------------


def test_flat_nadir_depth_analytic(flat_dem):
    intr = Intrinsics(width=128, height=128, fov_deg=45.0)
    pose = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 200.0]))
    prod = pinhole_view(flat_dem, intr, pose, seed=1)
    assert np.isfinite(prod.depth).all()
    vv, uu = np.meshgrid(np.arange(128.0), np.arange(128.0), indexing="ij")
    d = camera_dirs(intr, uu, vv)
    analytic = 200.0 / (-d[..., 2])
    rel = np.abs(prod.depth - analytic) / analytic
    assert rel.max() < 1e-6


def test_camera_below_terrain_error(flat_dem):
    intr = Intrinsics(width=16, height=16, fov_deg=45.0)
    pose = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, -5.0]))
    with pytest.raises(CameraBelowTerrainError):
        pinhole_view(flat_dem, intr, pose)


def test_shadowed_crater_wall_is_black():
    dem = synth_crater_dem(5, 96, 96, 2.0, crater_count=1, fractal_octaves=0)
    z = dem.elevations
    iy, ix = np.unravel_index(np.argmin(z), z.shape)
    center = np.array([dem.origin_x + ix * dem.cell_size, dem.origin_y + iy * dem.cell_size])
    intr = Intrinsics(width=64, height=64, fov_deg=45.0)
    pose = Pose(rotation=np.eye(3), translation=np.array([*center, z[iy, ix] + 80.0]))
    sun = SunConfig(azimuth=90.0, elevation=2.0)
    prod = pinhole_view(dem, intr, pose, sun=sun, seed=2)
    # The inner wall facing away from the sun must contain shaded zeros, and
    # the brute-force shadow oracle must agree there.
    east_half = prod.image[:, 40:]
    assert (east_half == 0).any()
    rows, cols = np.nonzero(prod.image == 0)
    k = len(rows) // 2
    u, v = float(cols[k]), float(rows[k])
    d = camera_dirs(intr, u, v) @ pose.rotation.T
    t, hit = __import__("lunarforge._heightfield", fromlist=["intersect_rays"]).intersect_rays(
        dem, pose.translation[None, :], d[None, :]
    )
    assert hit[0]
    p = pose.translation + t[0] * d
    sun_vec = np.array([0.0, 0.0, 0.0])
    from lunarforge.radiometry import sun_direction

    sun_vec = sun_direction(sun)
    assert oracles.brute_force_shadowed(dem, p, sun_vec, 0.5 * dem.cell_size)


def test_polar_sun_shadows_pixels_a_15_degree_sun_lights():
    from lunarforge._heightfield import shadow_mask
    from lunarforge.radiometry import sun_direction

    dem = synth_dem_for_band("nadir", 0, seed=7, size=96)
    _, rig = sample_pair("nadir", 3, 0, dem, width=64, height=64)
    polar = lighting_preset("polar")
    high = SunConfig(azimuth=polar.azimuth, elevation=15.0)
    images, cast = {}, {}
    for sun in (polar, high):
        prod = pinhole_view(dem, rig.intrinsics, rig.pose_a, sun=sun)
        valid = np.isfinite(prod.depth)
        points = depth_to_pointmap(prod)[valid]
        images[sun] = prod.image[valid]
        cast[sun] = shadow_mask(dem, points, sun_direction(sun))
    assert (images[polar][cast[polar]] == 0).all()
    newly_shadowed = cast[polar] & ~cast[high] & (images[high] > 0)
    assert newly_shadowed.sum() > 0.05 * images[high].size


def test_row_bands_partition_the_rows():
    grid = itertools.product([1, 2, 5, 32, 64, 96, 127, 128, 192, 300, 512, 1000],
                             [1, 32, 96, 128, 192, 512, 8191, 8192, 9000], [1, 2, 3, 4, 8])
    for height, width, threads in grid:
        bands = _row_bands(height, width, threads)
        assert bands[0].start == 0 and bands[-1].stop == height
        assert all(a.stop == b.start for a, b in zip(bands, bands[1:]))
        rows = [b.stop - b.start for b in bands]
        assert min(rows) >= 1 and max(rows) - min(rows) <= 1
        assert len(bands) % threads == 0 or len(bands) == height
        assert max(rows) * width <= BAND_PIXELS or max(rows) == 1
        # The fewest such bands: with one round of threads fewer, a band
        # would be too large.
        fewer = len(bands) - threads
        assert fewer < 1 or -(-height // fewer) * width > BAND_PIXELS


@pytest.mark.parametrize("size, threads, count, rows", [
    (128, 2, 2, 64), (192, 2, 6, 32), (512, 2, 32, 16), (32, 8, 8, 4), (32, 1, 1, 32), (128, 1, 2, 64),
])
def test_row_bands_of_the_benchmark_views(size, threads, count, rows):
    bands = _row_bands(size, size, threads)
    assert len(bands) == count
    assert {b.stop - b.start for b in bands} == {rows}


def test_band_peak_memory_per_jittered_ray():
    """Traced peak of one 64-row band of generate's default 128 px oblique
    scene (band 0, seed 22, PSF 0.5 px, 4 rays per pixel, side sun), the
    band's own PSF jitter draw included: every stage frees what it no longer
    needs, about 210 B per PSF ray."""
    import tracemalloc

    from lunarforge._heightfield import prepare_shadows
    from lunarforge.radiometry import sun_direction

    seed = 22 * 100003  # generate's seed for pair 0 of band 0 under --seed 22
    dem = synth_dem_for_band("oblique", 0, seed=22, size=160)
    _, rig = sample_pair("oblique", seed, 0, dem, width=128, height=128, psf_sigma=0.5, rays_per_pixel=4)
    sun = lighting_preset("side")
    prepare_shadows(dem, sun_direction(sun))
    band = slice(64, 128)  # the second band, whose draw skips the first's

    def render():
        return _render_band(dem, rig, 0, sun, HAPKE, seed, band)

    render()  # the DEM's cached bounds, outside the measurement
    tracemalloc.start()
    try:
        radiance, _ = render()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (radiance > 0).mean() > 0.5  # a lit band: the shading ran
    assert peak / (64 * 128 * 4) <= 300


def test_render_deterministic_across_runs_and_workers(monkeypatch):
    dem = synth_dem_for_band("nadir", 0, seed=7, size=96)
    spec, rig = sample_pair("nadir", 3, 0, dem, width=64, height=64)
    runs = []
    for workers in ("1", "1", "8"):
        monkeypatch.setenv("LUNARFORGE_THREADS", workers)
        pa, pb = render_pair(dem, rig, lighting_preset("side"), HAPKE, seed=9)
        runs.append((pa, pb))
    for pa, pb in runs[1:]:
        assert pa.image.tobytes() == runs[0][0].image.tobytes()
        assert pa.depth.tobytes() == runs[0][0].depth.tobytes()
        assert pb.image.tobytes() == runs[0][1].image.tobytes()
        assert pb.depth.tobytes() == runs[0][1].depth.tobytes()


def test_render_pair_is_two_render_views_with_a_shared_gain():
    dem = synth_dem_for_band("nadir", 0, seed=7, size=96)
    spec, rig = sample_pair("nadir", 3, 0, dem, width=48, height=48)
    sun = lighting_preset("side")
    pa, pb = render_pair(dem, rig, sun, HAPKE, seed=4)
    # Radiance stays below 1 here, so a unit gain leaves it unclipped.
    raw_a, raw_b = (_render(dem, rig, view_id, sun, HAPKE, 4, 1.0)[0] for view_id in (0, 1))
    assert exposure_gain(raw_a.image) != exposure_gain(raw_b.image)
    for prod, raw in ((pa, raw_a), (pb, raw_b)):
        assert prod.image.tobytes() == np.clip(raw.image * exposure_gain(raw_a.image), 0.0, 1.0).tobytes()
        assert prod.depth.tobytes() == raw.depth.tobytes()
    # View a does not depend on pose_b: a rig whose views share one pose
    # renders that pose's one view.
    same_a, _ = render_pair(dem, CameraRig(rig.intrinsics, rig.pose_a, rig.pose_a, rig.psf_sigma, rig.rays_per_pixel),
                            sun, HAPKE, seed=4)
    assert same_a.image.tobytes() == pa.image.tobytes()
    assert same_a.depth.tobytes() == pa.depth.tobytes()


# ---------------------------------------------------------------------------
# the shadow rays' (DEM, sun) memo
# ---------------------------------------------------------------------------


@pytest.fixture
def sweeps(monkeypatch):
    """Sun direction of every sun_ceiling sweep, from an empty memo."""
    from lunarforge import _heightfield

    monkeypatch.setattr(_heightfield, "_memo", None)
    seen = []
    real = _heightfield.sun_ceiling

    def counting(dem, sun_dir):
        seen.append(tuple(sun_dir))
        return real(dem, sun_dir)

    monkeypatch.setattr(_heightfield, "sun_ceiling", counting)
    return seen


@pytest.mark.parametrize("workers", ["1", "8"])
def test_render_pair_sweeps_one_ceiling(sweeps, monkeypatch, workers):
    monkeypatch.setenv("LUNARFORGE_THREADS", workers)
    dem = synth_dem_for_band("nadir", 0, seed=7, size=96)
    _, rig = sample_pair("nadir", 3, 0, dem, width=64, height=64)  # 1 band at 1 thread, 8 at 8
    render_pair(dem, rig, lighting_preset("polar"), HAPKE, seed=1)
    assert len(sweeps) == 1


def _whole_view_jitter(seed, view_id, height, width, rpp, sigma):
    """A view's PSF offsets drawn in one piece: the stream keyed by (seed,
    view id) in row-major order, stratified when rpp is square."""
    from scipy.special import ndtri

    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, view_id, 0x5AF)))
    k = int(round(np.sqrt(rpp)))
    u = rng.random((height, width, rpp, 2))
    if k * k == rpp:
        u = (np.stack(np.meshgrid(np.arange(k), np.arange(k), indexing="ij"), axis=-1).reshape(rpp, 2) + u) / k
    return sigma * ndtri(np.clip(u, 1e-9, 1 - 1e-9))


@pytest.mark.parametrize("rpp", [1, 3, 4, 9])
@pytest.mark.parametrize("height, width", [(128, 128), (192, 192), (37, 50)])
def test_band_jitter_draws_concatenate_to_the_whole_view_draw(height, width, rpp):
    from lunarforge.renderer import _psf_jitter

    whole = _whole_view_jitter(11, 1, height, width, rpp, 0.5)
    for workers in (1, 2, 3, 8):
        bands = _row_bands(height, width, workers)
        drawn = np.concatenate([_psf_jitter(11, 1, rows, width, rpp, 0.5) for rows in bands])
        assert drawn.tobytes() == whole.tobytes(), (workers, len(bands))


def test_psf_jitter_is_drawn_once_per_band_of_each_view(monkeypatch):
    from lunarforge import renderer

    real = renderer._psf_jitter
    seen = []

    def counting(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(renderer, "_psf_jitter", counting)
    dem = synth_dem_for_band("nadir", 0, seed=7, size=96)
    _, rig = sample_pair("nadir", 3, 0, dem, width=32, height=32)
    render_pair(dem, rig, lighting_preset("side"), HAPKE, seed=1)
    # two views, each drawn one row band at a time
    assert len(seen) == 2 * len(_row_bands(32, 32, resolve_workers()))


def test_shadow_tests_under_one_sun_sweep_once(sweeps):
    from lunarforge import shadow_test
    from lunarforge.radiometry import sun_direction

    dem = synth_crater_dem(3, 48, 48, 5.0, 3, 3)
    s = sun_direction(lighting_preset("polar"))
    rng = np.random.default_rng(0)
    for x, y in rng.uniform(dem.x_min, dem.x_max, (50, 2)):
        shadow_test(dem, (x, y, float(oracles.bilinear(dem, x, y)) + 0.1), s)
    assert len(sweeps) == 1


def test_alternating_dems_and_suns_never_reuse_a_stale_ceiling(sweeps):
    """Two same-shape DEMs under two suns, in an order where a ceiling keyed
    by anything less than (this grid, this sun) would be reused: each render
    equals the same render from an empty memo, bit for bit."""
    from lunarforge import _heightfield

    dems = {name: synth_dem_for_band("nadir", 0, seed=seed, size=96) for name, seed in (("A", 7), ("B", 8))}
    assert dems["A"].elevations.shape == dems["B"].elevations.shape
    _, rig = sample_pair("nadir", 3, 0, dems["A"], width=48, height=48)
    suns = {1: lighting_preset("polar"), 2: lighting_preset("side")}

    def render(name, sun):
        return pinhole_view(dems[name], rig.intrinsics, rig.pose_a, sun=suns[sun]).image

    for name, sun in (("A", 1), ("A", 2), ("B", 1), ("A", 1)):
        image = render(name, sun)
        _heightfield._memo = None
        assert image.tobytes() == render(name, sun).tobytes()
    assert len(sweeps) == 8


def test_render_seed_changes_psf_image():
    dem = synth_dem_for_band("nadir", 0, seed=7, size=96)
    spec, rig = sample_pair("nadir", 3, 0, dem, width=32, height=32)
    pa1, _ = render_pair(dem, rig, lighting_preset("side"), HAPKE, seed=1)
    pa2, _ = render_pair(dem, rig, lighting_preset("side"), HAPKE, seed=2)
    assert pa1.image.tobytes() != pa2.image.tobytes()
    # Depth uses the unjittered central ray: seed-independent.
    assert pa1.depth.tobytes() == pa2.depth.tobytes()


def test_image_range_and_validity(oblique_scene):
    prod = oblique_scene["prod_a"]
    valid = np.isfinite(prod.depth)
    assert np.isfinite(prod.depth[valid]).all()
    assert np.isnan(prod.depth[~valid]).all()
    assert prod.image.min() >= 0.0 and prod.image.max() <= 1.0


# ---------------------------------------------------------------------------
# pointmaps
# ---------------------------------------------------------------------------


def test_pointmap_flat_world_z(flat_dem):
    intr = Intrinsics(width=48, height=48, fov_deg=45.0)
    pose = Pose(rotation=np.eye(3), translation=np.array([5.0, -3.0, 150.0]))
    prod = pinhole_view(flat_dem, intr, pose)
    pm = depth_to_pointmap(prod)
    assert np.abs(pm[np.isfinite(pm).all(-1)][:, 2]).max() < 1e-6


def test_pointmap_view1_principal_pixel(flat_dem):
    intr = Intrinsics(width=49, height=49, fov_deg=45.0)  # odd: integer principal point
    pose = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 120.0]))
    prod = pinhole_view(flat_dem, intr, pose)
    pm = pose.world_to_camera(depth_to_pointmap(prod))
    cu, cv = int(intr.cx), int(intr.cy)
    depth = prod.depth[cv, cu]
    assert np.allclose(pm[cv, cu], [0.0, 0.0, -depth], atol=1e-9)


def test_pointmap_reprojection_round_trip(oblique_scene):
    prod = oblique_scene["prod_a"]
    pm = depth_to_pointmap(prod)
    vv, uu = np.meshgrid(np.arange(prod.depth.shape[0], dtype=np.float64),
                         np.arange(prod.depth.shape[1], dtype=np.float64), indexing="ij")
    valid = np.isfinite(pm).all(-1)
    pts = pm[valid]
    u, v, _ = project(prod.intrinsics, prod.pose, pts)
    assert np.max(np.abs(u - uu[valid])) < 1e-3
    assert np.max(np.abs(v - vv[valid])) < 1e-3


# ---------------------------------------------------------------------------
# correspondences
# ---------------------------------------------------------------------------


def test_correspondences_identity_poses(flat_dem):
    intr = Intrinsics(width=32, height=32, fov_deg=45.0)
    pose = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 100.0]))
    prod = pinhole_view(flat_dem, intr, pose)
    corr = gt_correspondences(prod, prod, stride=1)
    assert len(corr) == 32 * 32
    assert np.max(np.abs(corr[:, 0] - corr[:, 2])) < 1e-6
    assert np.max(np.abs(corr[:, 1] - corr[:, 3])) < 1e-6


def test_correspondences_flat_disparity(flat_dem):
    intr = Intrinsics(width=64, height=64, fov_deg=45.0)
    altitude = 300.0
    baseline = 100.0
    pose_a = Pose(rotation=np.eye(3), translation=np.array([-baseline / 2, 0.0, altitude]))
    pose_b = Pose(rotation=np.eye(3), translation=np.array([baseline / 2, 0.0, altitude]))
    pa, pb = pinhole_pair(flat_dem, intr, pose_a, pose_b)
    corr = gt_correspondences(pa, pb, stride=2)
    assert len(corr) > 100
    disparity = corr[:, 0] - corr[:, 2]
    expect = intr.focal_px * baseline / altitude
    assert np.max(np.abs(disparity - expect)) < 0.5
    assert np.max(np.abs(corr[:, 1] - corr[:, 3])) < 1e-6


def test_correspondences_empty_when_nothing_matches(flat_dem):
    from dataclasses import replace

    intr = Intrinsics(width=16, height=16, fov_deg=45.0)
    pose = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 100.0]))
    prod = pinhole_view(flat_dem, intr, pose)
    missed = replace(prod, depth=np.full_like(prod.depth, np.nan))  # every ray missed
    for a, b in ((prod, missed), (missed, prod)):
        corr = gt_correspondences(a, b)
        assert corr.shape == (0, 4)
        assert corr.dtype == np.float64


def test_correspondence_bounds(oblique_scene):
    corr = oblique_scene["corr"]
    intr = oblique_scene["rig"].intrinsics
    assert len(corr) > 0
    assert (corr[:, 0] >= 0).all() and (corr[:, 0] <= intr.width - 1).all()
    assert (corr[:, 2] >= 0).all() and (corr[:, 2] <= intr.width - 1).all()


def test_correspondence_epipolar_residual(oblique_scene):
    rig = oblique_scene["rig"]
    corr = oblique_scene["corr"]
    e = essential_from_poses(rig.pose_a, rig.pose_b)
    from lunarforge.pose import _match_rays

    h1, h2 = _match_rays(corr, rig.intrinsics, rig.intrinsics)
    h1 = h1 / np.linalg.norm(h1, axis=1, keepdims=True)
    h2 = h2 / np.linalg.norm(h2, axis=1, keepdims=True)
    res = np.abs(np.einsum("ni,ni->n", h2, h1 @ e.T))
    assert res.max() < 1e-6


def test_crater_occlusion_against_visibility_oracle():
    # Oblique view over a deep crater: points on the far inner wall are
    # hidden from view b and must be absent from the correspondence set.
    from lunarforge.terrain import add_crater
    from lunarforge.camera import look_at

    z = np.zeros((96, 96))
    coords = np.arange(96.0) * 4.0
    add_crater(z, coords, coords, cx=190.0, cy=190.0, radius=120.0, depth=60.0,
               rim_height=15.0, rim_sigma=20.0)
    dem = DemGrid(width=96, height=96, cell_size=4.0, origin_x=0.0, origin_y=0.0, elevations=z)
    cx, cy = 190.0, 190.0
    floor_z = float(z.min())

    intr = Intrinsics(width=64, height=64, fov_deg=45.0)
    pose_a = Pose(rotation=np.eye(3), translation=np.array([cx, cy, floor_z + 320.0]))
    pose_b = look_at(np.array([cx + 150.0, cy, floor_z + 75.0]), np.array([cx, cy, floor_z]))
    pa, pb = pinhole_pair(dem, intr, pose_a, pose_b)
    stride = 2
    corr = gt_correspondences(pa, pb, stride=stride)
    emitted = {(int(p[0]), int(p[1])) for p in corr}

    pm = depth_to_pointmap(pa)
    valid = np.isfinite(pm).all(-1)[::stride, ::stride]
    vv, uu = np.meshgrid(np.arange(0, 64, stride), np.arange(0, 64, stride), indexing="ij")
    pix_u = uu[valid]
    pix_v = vv[valid]
    worlds = pm[::stride, ::stride][valid]
    vecs = worlds - pose_b.translation
    dists = np.linalg.norm(vecs, axis=1)
    t_ref, hit_ref = oracles.brute_force_hits(dem, np.broadcast_to(pose_b.translation, vecs.shape), vecs / dists[:, None])
    visible = hit_ref & (np.abs(t_ref - dists) < 1.5 * dem.cell_size)
    occluded_found = 0
    for u, v, vis in zip(pix_u, pix_v, visible):
        if not vis:
            occluded_found += 1
            assert (int(u), int(v)) not in emitted, f"occluded pixel ({u},{v}) was emitted"
    assert len(pix_u) > 200
    assert occluded_found > 10  # the scene indeed has occlusion


def test_disjoint_views_zero_correspondences():
    dem = synth_dem_for_band("nadir", 0, seed=7, allow_disjoint=True)
    spec, rig = sample_pair("nadir", 4, 0, dem, psf_sigma=0.0, rays_per_pixel=1,
                            width=32, height=32, allow_disjoint=True)
    pa, pb = render_pair(dem, rig, lighting_preset("side"), HAPKE, seed=1)
    corr = gt_correspondences(pa, pb, stride=2)
    assert len(corr) == 0
