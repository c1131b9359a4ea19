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
from lunarforge._heightfield import intersect_rays, sun_ceiling
from lunarforge.camera import CameraRig, Intrinsics, Pose, camera_dirs, look_at
from lunarforge.cli import synth_dem_for_band
from lunarforge.radiometry import sun_direction
from lunarforge.renderer import (
    BAND_PIXELS,
    CameraBelowTerrainError,
    _render_band,
    _row_bands,
    exposure_gain,
)
from lunarforge.trajectory import lighting_preset

SUN = SunConfig(azimuth=150.0, elevation=30.0)
HAPKE = HapkeParams()


def pinhole_pair(dem, intr, pose_a, pose_b, sun=SUN, seed=0):
    """render_pair of a one-ray-per-pixel rig without PSF."""
    rig = CameraRig(intr, pose_a, pose_b, psf_sigma=0.0, rays_per_pixel=1)
    (pair,) = render_pair(dem, rig, [sun], HAPKE, seed=seed)
    return pair


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
        s = sun_direction(sun)
        cast[sun] = shadow_mask(dem, points, s, sun_ceiling(dem, s))
    assert (images[polar][cast[polar]] == 0).all()
    newly_shadowed = cast[polar] & ~cast[high] & (images[high] > 0)
    assert newly_shadowed.sum() > 0.05 * images[high].size


def test_row_bands_partition_the_rows():
    grid = itertools.product([1, 2, 5, 32, 64, 96, 127, 128, 192, 300, 512, 1000],
                             [1, 32, 96, 128, 192, 512, 8191, 8192, 9000])
    for height, width in grid:
        bands = _row_bands(height, width)
        assert bands[0].start == 0 and bands[-1].stop == height
        assert all(a.stop == b.start for a, b in zip(bands, bands[1:]))
        rows = [b.stop - b.start for b in bands]
        assert min(rows) >= 1 and max(rows) - min(rows) <= 1
        assert max(rows) * width <= BAND_PIXELS or max(rows) == 1
        # The fewest such bands: with one band fewer, a band would be too
        # large.
        fewer = len(bands) - 1
        assert fewer < 1 or -(-height // fewer) * width > BAND_PIXELS


BENCHMARK_VIEW_PLANS = [  # size, threads, band count, band heights
    (128, 2, 2, (64,)), (192, 2, 5, (38, 39)), (512, 2, 32, (16,)),
    (32, 8, 1, (32,)), (32, 1, 1, (32,)), (128, 1, 2, (64,)),
]


@pytest.mark.parametrize("size, threads, count, rows", BENCHMARK_VIEW_PLANS,
                         ids=["-".join(map(str, (s, t, c, *r))) for s, t, c, r in BENCHMARK_VIEW_PLANS])
def test_row_bands_of_the_benchmark_views(monkeypatch, size, threads, count, rows):
    """The plan of a size x size view, and the bands render_pair walks for
    each view at the given thread count: the same plan at every count."""
    from lunarforge import renderer

    bands = _row_bands(size, size)
    assert len(bands) == count
    assert sorted({b.stop - b.start for b in bands}) == list(rows)

    walked = {0: [], 1: []}

    def blank(dem, rig, view_id, suns, hapke, seed, ceilings, band):
        walked[view_id].append(band)
        shape = (band.stop - band.start, size)
        return [np.zeros(shape) for _ in suns], np.zeros(shape)

    monkeypatch.setenv("LUNARFORGE_THREADS", str(threads))
    monkeypatch.setattr(renderer, "_render_band", blank)
    dem = synth_dem_for_band("nadir", 0, seed=7, size=48)
    _, rig = sample_pair("nadir", 3, 0, dem, width=size, height=size)
    render_pair(dem, rig, [lighting_preset("side")], HAPKE)
    assert walked == {0: bands, 1: bands}


def _band_peak_per_ray(lighting_ids):
    """Traced peak bytes per PSF ray of one 64-row band of generate's default
    128 px oblique scene (band 0, seed 22, PSF 0.5 px, 4 rays per pixel) shaded
    under the given lightings, the band's own PSF jitter draw included, and
    the band's radiance under each lighting."""
    import tracemalloc

    seed = 22 * 100003  # generate's seed for pair 0 of band 0 under --seed 22
    dem = synth_dem_for_band("oblique", 0, seed=22, size=160)
    _, rig = sample_pair("oblique", seed, 0, dem, width=128, height=128, psf_sigma=0.5, rays_per_pixel=4)
    suns = [lighting_preset(lid) for lid in lighting_ids]
    ceilings = [sun_ceiling(dem, sun_direction(sun)) for sun in suns]
    band = slice(64, 128)  # the second band, whose draw skips the first's

    def render():
        return _render_band(dem, rig, 0, suns, HAPKE, seed, ceilings, band)

    render()  # the DEM's cached bounds, outside the measurement
    tracemalloc.start()
    try:
        radiances, _ = render()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (64 * 128 * 4), radiances


@pytest.mark.parametrize("lighting", ["side", "polar"])
def test_band_peak_memory_per_jittered_ray(lighting):
    """Every stage frees what it no longer needs, the normals go before the
    shadow test, and the walk keeps a row shared by every ray as one value:
    about 165 B per PSF ray under the side sun, in the jittered walk, and
    199 B under the 3 degree polar sun, whose shadow walk traces most rays."""
    peak, (radiance,) = _band_peak_per_ray([lighting])
    assert (radiance > 0).mean() > 0.5  # a lit band: the shading ran
    assert peak <= {"side": 174, "polar": 210}[lighting]


def test_band_peak_memory_does_not_grow_with_the_suns():
    """A band holds one geometry pass and shades one sun at a time, so a
    second sun adds only its band-sized radiance."""
    one, _ = _band_peak_per_ray(["side"])
    two, radiances = _band_peak_per_ray(["side", "back"])
    assert all((radiance > 0).mean() > 0.5 for radiance in radiances)
    assert two <= 174
    assert two <= one + 8 / 4  # one float64 per pixel, over 4 rays per pixel


def test_render_deterministic_across_runs_and_workers(monkeypatch):
    dem = synth_dem_for_band("nadir", 0, seed=7, size=96)
    spec, rig = sample_pair("nadir", 3, 0, dem, width=64, height=64)
    runs = []
    for workers in ("1", "1", "8"):
        monkeypatch.setenv("LUNARFORGE_THREADS", workers)
        ((pa, pb),) = render_pair(dem, rig, [lighting_preset("side")], HAPKE, seed=9)
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
    ((pa, pb),) = render_pair(dem, rig, [sun], HAPKE, seed=4)
    # Each view rendered as one band of all its rows.
    ceiling = sun_ceiling(dem, sun_direction(sun))
    raw_a, raw_b = (_render_band(dem, rig, view_id, [sun], HAPKE, 4, [ceiling], slice(0, 48)) for view_id in (0, 1))
    assert exposure_gain(raw_a[0]) != exposure_gain(raw_b[0])
    for prod, ((radiance,), depth) in ((pa, raw_a), (pb, raw_b)):
        assert prod.image.tobytes() == np.clip(radiance * exposure_gain(raw_a[0]), 0.0, 1.0).tobytes()
        assert prod.depth.tobytes() == depth.tobytes()
    # View a does not depend on pose_b: a rig whose views share one pose
    # renders that pose's one view.
    ((same_a, _),) = render_pair(dem, CameraRig(rig.intrinsics, rig.pose_a, rig.pose_a, rig.psf_sigma, rig.rays_per_pixel),
                                 [sun], HAPKE, seed=4)
    assert same_a.image.tobytes() == pa.image.tobytes()
    assert same_a.depth.tobytes() == pa.depth.tobytes()


def test_render_pair_matches_the_scalar_reference():
    """A 12x12 px oblique rig over a 24 x 24 crater DEM, 4 PSF rays per pixel,
    rendered under the side and polar suns in one call, against
    oracles.reference_render, which follows every ray on its own.  Hit and
    miss agree exactly and depth within criterion 03's 2e-3 cell; every image
    pixel agrees within 1e-9 (the two differ by rounding alone, about 1e-15),
    so a wrong gain, PSF average, normal, view direction or sun shows."""
    dem = synth_crater_dem(3, 24, 24, 5.0, 2, 2)
    cx, cy, top = (dem.x_min + dem.x_max) / 2, (dem.y_min + dem.y_max) / 2, float(dem.elevations.max())
    rig = CameraRig(
        Intrinsics(12, 12, 70.0),
        look_at([cx - 15, cy - 25, top + 70], [cx, cy, top - 20]),
        look_at([cx + 10, cy - 25, top + 72], [cx + 3, cy, top - 20]),
        psf_sigma=0.5, rays_per_pixel=4,
    )
    suns = [lighting_preset("side"), lighting_preset("polar")]
    depths, images = oracles.reference_render(dem, rig, suns, HAPKE, seed=5)
    pairs = render_pair(dem, rig, suns, HAPKE, seed=5)

    for view_id, depth in enumerate(depths):
        got = pairs[0][view_id].depth
        assert np.array_equal(np.isnan(got), np.isnan(depth))
        assert np.isnan(depth).any()  # some rays leave the footprint
        assert np.nanmax(np.abs(got - depth)) <= 2e-3 * dem.cell_size
        # Some hits lie within a cell of the edge, where the normal is clamped.
        x, y, _ = depth_to_pointmap(pairs[0][view_id])[np.isfinite(depth)].T
        margin = np.minimum.reduce([x - dem.x_min, dem.x_max - x, y - dem.y_min, dem.y_max - y])
        assert (margin < dem.cell_size).any()
    for views, pair in zip(images, pairs):
        for image, prod in zip(views, pair):
            assert np.abs(prod.image - image).max() <= 1e-9
    # The 3 degree sun shadows pixels the side sun lights.
    assert (images[1][0] == 0).sum() > (images[0][0] == 0).sum()


@pytest.mark.parametrize("workers", ["1", "2", "8"])
def test_render_pair_traces_each_band_once_whatever_the_suns(monkeypatch, workers):
    """Three suns cost each row band one central and one jittered trace, as
    one sun does; every other ray is a shadow ray traced inside shadow_mask.
    Each sun's products are byte-identical to a render under that sun alone."""
    import threading

    from lunarforge import _heightfield

    monkeypatch.setenv("LUNARFORGE_THREADS", workers)
    inside_shadow = threading.local()
    primary = []
    real_intersect, real_shadow = _heightfield.intersect_rays, _heightfield.shadow_mask

    def counting_intersect(*args):
        if not getattr(inside_shadow, "on", False):
            primary.append(len(args[1]))
        return real_intersect(*args)

    def flagging_shadow(*args):
        inside_shadow.on = True
        try:
            return real_shadow(*args)
        finally:
            inside_shadow.on = False

    monkeypatch.setattr(_heightfield, "intersect_rays", counting_intersect)
    monkeypatch.setattr(_heightfield, "shadow_mask", flagging_shadow)
    dem = synth_dem_for_band("oblique", 0, seed=7, size=96)
    _, rig = sample_pair("oblique", 3, 0, dem, width=48, height=48)
    suns = [lighting_preset(lid) for lid in ("side", "back", "polar")]
    bands = 2 * len(_row_bands(48, 48))
    pairs = render_pair(dem, rig, suns, HAPKE, seed=2)
    assert len(pairs) == len(suns)
    assert len(primary) == 2 * bands
    assert sum(primary) == 2 * 48 * 48 * (1 + rig.rays_per_pixel)
    for sun, pair in zip(suns, pairs):
        primary.clear()
        (alone,) = render_pair(dem, rig, [sun], HAPKE, seed=2)
        assert len(primary) == 2 * bands
        for got, want in zip(pair, alone):
            assert got.image.tobytes() == want.image.tobytes()
            assert got.depth.tobytes() == want.depth.tobytes()
            assert got.pose is want.pose and got.intrinsics is want.intrinsics
    assert len({pair[0].image.tobytes() for pair in pairs}) == len(suns)  # the suns differ


# ---------------------------------------------------------------------------
# sweeps of the shadow rays' (DEM, sun) ceiling
# ---------------------------------------------------------------------------


@pytest.fixture
def sweeps(monkeypatch):
    """Sun direction of every sun_ceiling sweep."""
    from lunarforge import _heightfield

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
    _, rig = sample_pair("nadir", 3, 0, dem, width=64, height=64)  # 1 band per view
    render_pair(dem, rig, [lighting_preset("polar")], HAPKE, seed=1)
    assert len(sweeps) == 1


@pytest.fixture
def bands(monkeypatch):
    """Rows of every _render_band call."""
    import lunarforge.renderer as renderer

    seen = []
    real = renderer._render_band

    def counting(*args):
        seen.append(args[-1])
        return real(*args)

    monkeypatch.setattr(renderer, "_render_band", counting)
    return seen


def test_camera_b_below_terrain_fails_before_any_work(sweeps, bands, flat_dem):
    intr = Intrinsics(width=16, height=16, fov_deg=45.0)
    above = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 200.0]))
    below = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, -5.0]))
    with pytest.raises(CameraBelowTerrainError):
        pinhole_pair(flat_dem, intr, above, below)
    assert sweeps == [] and bands == []


def test_render_pair_without_suns_fails_before_any_work(sweeps, bands):
    dem = synth_dem_for_band("nadir", 0, seed=7, size=96)
    _, rig = sample_pair("nadir", 3, 0, dem, width=16, height=16)
    for suns in ([], ()):
        with pytest.raises(ValueError, match="at least one sun"):
            render_pair(dem, rig, suns, HAPKE, seed=1)
    assert sweeps == [] and bands == []


def test_generate_sweeps_one_ceiling_per_pair(sweeps, tmp_path):
    """Bands 0 and 5 under the side and back suns are four pairs of two rigs:
    each rig's one render sweeps each sun once, in lighting order; the two
    lightings of a band share its DEM, not its ceiling."""
    from lunarforge.cli import main

    argv = ["generate", "--synth", "--trajectory", "oblique", "--bands", "0,5", "--pairs", "1",
            "--lighting", "side,back", "--res", "16", "--synth-size", "32", "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    side, back = (tuple(sun_direction(lighting_preset(lid))) for lid in ("side", "back"))
    assert sweeps == [side, back, side, back]


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
    plans = {
        "whole view": [0, height],
        "one row per band": list(range(height + 1)),
        "uneven": [0, 5, 6, height // 2 + 3, height],
        "_row_bands": [0] + [rows.stop for rows in _row_bands(height, width)],
    }
    for plan, cuts in plans.items():
        bands = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
        drawn = np.concatenate([_psf_jitter(11, 1, rows, width, rpp, 0.5) for rows in bands])
        assert drawn.tobytes() == whole.tobytes(), plan


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
    render_pair(dem, rig, [lighting_preset("side")], HAPKE, seed=1)
    # two views, each drawn one row band at a time
    assert len(seen) == 2 * len(_row_bands(32, 32))


@pytest.mark.parametrize("band_pixels, count", [(96, 100), (BAND_PIXELS, 2), (96 * 100, 1)],
                         ids=["one row", "default", "whole view"])
def test_render_pair_bytes_do_not_depend_on_the_band_plan(monkeypatch, band_pixels, count):
    """Bands of one row, the default plan (2 bands of 50 rows) and one band
    per view render the same bytes at 1 and 2 threads."""
    from lunarforge import renderer

    dem = synth_dem_for_band("oblique", 0, seed=7, size=96)
    _, rig = sample_pair("oblique", 3, 0, dem, width=96, height=100)
    suns = [lighting_preset("side"), lighting_preset("polar")]
    want = [(p.image.tobytes(), p.depth.tobytes()) for pair in render_pair(dem, rig, suns, HAPKE, seed=6) for p in pair]
    monkeypatch.setattr(renderer, "BAND_PIXELS", band_pixels)
    assert len(_row_bands(100, 96)) == count
    for threads in ("1", "2"):
        monkeypatch.setenv("LUNARFORGE_THREADS", threads)
        got = [(p.image.tobytes(), p.depth.tobytes()) for pair in render_pair(dem, rig, suns, HAPKE, seed=6) for p in pair]
        assert got == want, threads


def test_render_pair_runs_each_view_as_one_task_with_its_bands_in_order(monkeypatch):
    """However many threads, a render is two pool tasks, one per view: at
    most two bands are in flight, and each view's bands run on one thread,
    top to bottom."""
    import threading
    import time
    from concurrent.futures import ThreadPoolExecutor

    from lunarforge import renderer

    submitted = []

    class CountingPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append(args)
            return super().submit(fn, *args, **kwargs)

    lock = threading.Lock()
    live = most = 0
    seen = {0: [], 1: []}  # view id -> [(rows, thread)]
    real = renderer._render_band

    def tracking(dem, rig, view_id, *args):
        nonlocal live, most
        with lock:
            live += 1
            most = max(most, live)
            seen[view_id].append((args[-1], threading.get_ident()))
        try:
            time.sleep(0.005)  # long enough for any other pool task to start
            return real(dem, rig, view_id, *args)
        finally:
            with lock:
                live -= 1

    monkeypatch.setenv("LUNARFORGE_THREADS", "8")
    monkeypatch.setattr(renderer, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(renderer, "_render_band", tracking)
    monkeypatch.setattr(renderer, "BAND_PIXELS", 4 * 32)  # 8 bands of 4 rows per view
    dem = synth_dem_for_band("nadir", 0, seed=7, size=96)
    _, rig = sample_pair("nadir", 3, 0, dem, width=32, height=32)
    render_pair(dem, rig, [lighting_preset("side")], HAPKE, seed=1)
    assert len(submitted) == 2
    assert most <= 2
    for calls in seen.values():
        assert [rows for rows, _ in calls] == _row_bands(32, 32)
        assert len({thread for _, thread in calls}) == 1


def test_render_seed_changes_psf_image():
    dem = synth_dem_for_band("nadir", 0, seed=7, size=96)
    spec, rig = sample_pair("nadir", 3, 0, dem, width=32, height=32)
    ((pa1, _),) = render_pair(dem, rig, [lighting_preset("side")], HAPKE, seed=1)
    ((pa2, _),) = render_pair(dem, rig, [lighting_preset("side")], HAPKE, seed=2)
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
    e = oracles.essential_from_poses(rig.pose_a, rig.pose_b)
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
    dem = DemGrid(cell_size=4.0, origin_x=0.0, origin_y=0.0, elevations=z)
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
    ((pa, pb),) = render_pair(dem, rig, [lighting_preset("side")], HAPKE, seed=1)
    corr = gt_correspondences(pa, pb, stride=2)
    assert len(corr) == 0
