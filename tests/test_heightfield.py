"""Heightfield traversal: the in-cell root cases, a property test against
the per-cell oracle, batching independence, and the sun-ward ceiling that
shadow rays use."""

import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lunarforge import DemGrid
from lunarforge._heightfield import SWEEP_COLUMNS, _clip, intersect_rays, shadow_mask, sun_ceiling
from lunarforge.radiometry import SunConfig, sun_direction
from lunarforge.terrain import synth_crater_dem

CELL = 4.0
ORIGIN = (250.0, -130.0)


def _designed_ray(corners, start_uv, step, w_hit, w_origin):
    """A DEM of the given corner heights and one ray whose hit is known by
    construction.

    In cell units the ray runs (u, v) = start_uv + w * step[:2] and changes
    height by step[2] per unit of w; it meets the bilinear surface at w_hit
    and starts at w_origin.  Returns (dem, origin, unit direction, t_hit).
    """
    e = CELL * np.asarray(corners, dtype=np.float64)
    dem = DemGrid(cell_size=CELL, origin_x=ORIGIN[0], origin_y=ORIGIN[1], elevations=e)
    step = CELL * np.asarray(step, dtype=np.float64)
    hit = np.array([ORIGIN[0] + CELL * start_uv[0], ORIGIN[1] + CELL * start_uv[1], 0.0]) + w_hit * step
    hit[2] = oracles.bilinear(dem, hit[0], hit[1])
    length = float(np.linalg.norm(step))
    return dem, hit - (w_hit - w_origin) * step, step / length, (w_hit - w_origin) * length


SADDLE = [[0.0, 1.0], [1.0, 0.0]]  # z = u + v - 2uv
ANTI_SADDLE = [[1.0, 0.0], [0.0, 1.0]]  # z = 1 - u - v + 2uv

ROOT_CASES = {
    # qa > 0: f = 0.9 - 2.8w + 2w^2 crosses down at 0.5 and back up at 0.9,
    # past the cell exit at 0.8.
    "saddle_qa_positive": (SADDLE, (0.0, 0.2), (1.0, 1.0, -1.2), 0.5, -0.5),
    # qa < 0: f = 0.18 - 2w^2.  The ray is above the surface between the
    # roots -0.3 and 0.3, so the hit is the larger one; the smaller lies
    # outside the cell but ahead of the ray origin.
    "saddle_qa_negative": (ANTI_SADDLE, (0.0, 0.5), (1.0, 1.0, -1.0), 0.3, -0.4),
    # f = 0.3 - 1.9w + 2w^2 is positive at the cell entry (w = 0) and exit
    # (w = 0.9) and dips below between its roots 0.2 and 0.75.
    "vertex_dip": (SADDLE, (0.0, 0.1), (1.0, 1.0, -0.1), 0.2, -1.0),
    # z = 0.5u + 0.25v: gamma is exactly 0, so qa = 0.
    "planar_tilted": ([[0.0, 0.5], [0.25, 0.75]], (0.0, 0.1), (1.0, 0.5, -1.0), 0.4, -0.3),
    # The crossing lies exactly on the boundary u = 1 between two cells.
    "cell_entry": ([[0.0, 0.5, 0.25], [0.25, 0.75, 1.0]], (1.0, 0.5), (1.0, 0.25, -1.0), 0.0, -0.6),
    # The crossing lies exactly on the footprint edge u = 0.
    "footprint_entry": (ANTI_SADDLE, (0.0, 0.25), (1.0, 0.5, -2.0), 0.0, -0.5),
}


@pytest.mark.parametrize("case", sorted(ROOT_CASES))
def test_in_cell_root_matches_the_analytic_hit(case):
    dem, origin, direction, t_exact = _designed_ray(*ROOT_CASES[case])
    t, hit = intersect_rays(dem, origin[None, :], direction[None, :])
    assert hit[0]
    assert abs(t[0] - t_exact) <= 1e-9 * CELL, (t[0], t_exact)


def test_root_cases_are_what_they_claim():
    """Each designed ray stays above the surface over the footprint until its
    analytic hit and is below it just after, so that hit is the first
    crossing; the vertex-dip ray also leaves its cell above the surface."""
    for case, args in ROOT_CASES.items():
        dem, origin, direction, t_exact = _designed_ray(*args)
        p = origin + np.linspace(0.0, t_exact, 400)[:-1, None] * direction
        inside = (p[:, 0] >= dem.x_min) & (p[:, 0] <= dem.x_max) & (p[:, 1] >= dem.y_min) & (p[:, 1] <= dem.y_max)
        assert (p[inside, 2] > oracles.bilinear(dem, p[inside, 0], p[inside, 1])).all(), case
        after = origin + (t_exact + 1e-3 * CELL) * direction
        assert after[2] < oracles.bilinear(dem, after[0], after[1]), case
    _, _, _, w_hit, w_origin = ROOT_CASES["vertex_dip"]
    dem, origin, direction, t_exact = _designed_ray(*ROOT_CASES["vertex_dip"])
    length = t_exact / (w_hit - w_origin)
    exit_point = origin + (0.9 - w_origin) * length * direction
    assert exit_point[2] > oracles.bilinear(dem, exit_point[0], exit_point[1])


def test_oracle_finds_a_dip_shorter_than_a_hundredth_of_a_cell():
    """A grazing ray that is below the saddle for only 0.0017 cell of its
    path (f = 2 (w - 0.2) (w - 0.201) in the ray's cell units, 5e-7 cell
    deep), which a 0.01-cell march from its origin steps over, is a hit for
    the oracle and for intersect_rays, at the analytic point."""
    dem, origin, direction, t_exact = _designed_ray(SADDLE, (0.0, 0.1), (1.0, 1.0, 0.998), 0.2, 0.1)
    t_ref, hit_ref = oracles.brute_force_hits(dem, origin[None, :], direction[None, :])
    t, hit = intersect_rays(dem, origin[None, :], direction[None, :])
    assert hit_ref[0] and hit[0]
    assert abs(t_ref[0] - t_exact) <= 1e-9 * CELL and abs(t[0] - t_exact) <= 1e-9 * CELL


@st.composite
def vertex_dip_rays(draw):
    """_designed_ray arguments for a one-cell saddle and a ray from inside it
    whose first hit is an in-cell vertex dip.

    The ray enters the cell at (0, v0) and leaves it at w_exit.  Along it
    the surface is p0 + p1 w + p2 w^2 with p2 = twist a b < 0, so a ray of
    slope p1 + p2 (r1 + r2) is above it by g = -p2 (w - r1)(w - r2): positive
    where the ray starts and where it leaves the cell, negative between the
    roots r1 < r2 inside the cell.
    """
    z00, z10, z01 = (draw(st.floats(0.0, 1.0)) for _ in range(3))
    twist = draw(st.floats(0.2, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    corners = [[z00, z10], [z01, twist - z00 + z10 + z01]]
    v0 = draw(st.floats(0.05, 0.95))
    a = draw(st.floats(0.3, 1.0))
    b = -np.sign(twist) * draw(st.floats(0.3, 1.0))
    w_exit = min(1.0 / a, (1.0 - v0) / b if b > 0 else v0 / -b)
    f1 = draw(st.floats(0.05, 0.85))
    r1, r2 = f1 * w_exit, draw(st.floats(f1 + 0.05, 0.95)) * w_exit
    p1 = (z10 - z00) * a + (z01 - z00) * b + twist * a * v0
    p2 = twist * a * b
    w_origin = draw(st.floats(0.0, 0.9)) * r1
    return corners, (0.0, v0), (a, b, p1 + p2 * (r1 + r2)), r1, w_origin, w_exit


@settings(max_examples=60, deadline=None, derandomize=True)
@given(vertex_dip_rays())
def test_vertex_dip_first_hits_match_the_oracle(ray):
    """The hit lies strictly inside a cell whose entry and exit are both
    above the surface, so neither end of the piece shows it: the oracle must
    find it at the quadratic's vertex, and intersect_rays at its root."""
    corners, start_uv, step, w_hit, w_origin, w_exit = ray
    dem, origin, direction, t_exact = _designed_ray(corners, start_uv, step, w_hit, w_origin)
    length = t_exact / (w_hit - w_origin)  # metres per unit of w
    for w in (w_origin, w_exit):
        p = origin + (w - w_origin) * length * direction
        assert p[2] > oracles.bilinear(dem, p[0], p[1])
    t_ref, hit_ref = oracles.brute_force_hits(dem, origin[None, :], direction[None, :])
    t, hit = intersect_rays(dem, origin[None, :], direction[None, :])
    assert hit_ref[0] and hit[0]
    assert abs(t_ref[0] - t_exact) <= 2e-3 * CELL
    assert abs(t[0] - t_exact) <= 1e-9 * CELL, (t[0], t_exact)


@st.composite
def crater_scenes(draw):
    seed = draw(st.integers(0, 2**16))
    offset = draw(st.sampled_from([0.0, 1.5e6]))
    min_zenith = draw(st.floats(0.0, 89.5))
    return seed, offset, min_zenith


@settings(max_examples=25, deadline=None, derandomize=True)
@given(crater_scenes())
def test_intersect_rays_matches_the_oracle(scene):
    """Descending rays from above zmax and ascending rays started half a
    cell off the surface, as shadow rays are, grazing ones among them, agree
    with the per-cell oracle on hit/miss exactly and on t to 2e-3 cell
    (acceptance 03)."""
    seed, offset, min_zenith = scene
    base = synth_crater_dem(seed, 32, 32, 5.0, 2, 3)
    dem = DemGrid(cell_size=base.cell_size, origin_x=base.origin_x + offset, origin_y=base.origin_y - offset,
                  elevations=base.elevations)
    rng = np.random.default_rng(seed)
    n = 120
    margin = dem.cell_size
    x = rng.uniform(dem.x_min + margin, dem.x_max - margin, n)
    y = rng.uniform(dem.y_min + margin, dem.y_max - margin, n)
    zen = np.radians(rng.uniform(min_zenith, 89.5, n))
    az = rng.uniform(0.0, 2 * np.pi, n)
    up = np.column_stack([np.sin(zen) * np.cos(az), np.sin(zen) * np.sin(az), np.cos(zen)])
    zmax = float(dem.elevations.max())
    above = np.column_stack([x, y, zmax + rng.uniform(0.01, 3.0, n) * dem.cell_size])
    surface = np.column_stack([x, y, oracles.bilinear(dem, x, y)])
    origins = np.concatenate([above[: n // 2], surface[n // 2:] + 0.5 * dem.cell_size * up[n // 2:]])
    dirs = np.concatenate([-up[: n // 2], up[n // 2:]])
    keep = oracles.bilinear(dem, origins[:, 0], origins[:, 1]) < origins[:, 2]
    keep &= (origins[:, 0] > dem.x_min) & (origins[:, 0] < dem.x_max)
    keep &= (origins[:, 1] > dem.y_min) & (origins[:, 1] < dem.y_max)
    origins, dirs = origins[keep], dirs[keep]

    tol = 2e-3 * dem.cell_size
    t, hit = intersect_rays(dem, origins, dirs)
    t_ref, hit_ref = oracles.brute_force_hits(dem, origins, dirs)
    assert np.array_equal(hit, hit_ref)
    if hit.any():
        assert np.abs(t[hit] - t_ref[hit]).max() <= tol


def _assert_batching_free(dem, origins, dirs, ceiling, rng):
    """intersect_rays on the whole batch, on a permutation of it and on an
    uneven split of it (batches of 0 and 1 rays among them) agrees bit for
    bit."""
    t, hit = intersect_rays(dem, origins, dirs, ceiling)
    assert hit.any() and not hit.all()
    perm = rng.permutation(len(origins))
    t_perm, hit_perm = intersect_rays(dem, origins[perm], dirs[perm], ceiling)
    assert t_perm.tobytes() == t[perm].tobytes() and np.array_equal(hit_perm, hit[perm])
    cuts = [0, 0, 1, 2, 2, 5, *sorted(rng.choice(np.arange(6, len(origins)), 6, replace=False)), len(origins)]
    parts = [intersect_rays(dem, origins[a:b], dirs[a:b], ceiling) for a, b in zip(cuts[:-1], cuts[1:])]
    assert np.concatenate([p[0] for p in parts]).tobytes() == t.tobytes()
    assert np.array_equal(np.concatenate([p[1] for p in parts]), hit)


def test_intersect_rays_does_not_depend_on_batching():
    """Batching independence over a DEM with NaN holes, for descending rays
    from above zmax, rays from outside the footprint, rays with dx == 0 or
    dy == 0, vertical rays, and shadow rays traced with the sun's ceiling."""
    rng = np.random.default_rng(11)
    base = synth_crater_dem(4, 37, 29, 4.0, 3, 3)
    e = base.elevations.copy()
    e[rng.random(e.shape) < 0.05] = np.nan
    dem = DemGrid(cell_size=base.cell_size, origin_x=ORIGIN[0], origin_y=ORIGIN[1], elevations=e)
    zmax = float(np.nanmax(e))
    n = 400
    pad = 4 * dem.cell_size
    x = rng.uniform(dem.x_min - pad, dem.x_max + pad, n)
    y = rng.uniform(dem.y_min - pad, dem.y_max + pad, n)
    origins = np.column_stack([x, y, zmax + rng.uniform(0.1, 20.0, n) * dem.cell_size])
    zen = np.radians(rng.uniform(0.0, 89.0, n))
    az = rng.uniform(0.0, 2 * np.pi, n)
    dirs = np.column_stack([np.sin(zen) * np.cos(az), np.sin(zen) * np.sin(az), -np.cos(zen)])
    dirs[:40, 0] = 0.0
    dirs[40:80, 1] = 0.0
    dirs[80:100] = [0.0, 0.0, -1.0]
    dirs[100:110] = [0.0, 0.0, 1.0]
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    inside = (x > dem.x_min) & (x < dem.x_max) & (y > dem.y_min) & (y < dem.y_max)
    assert inside.any() and not inside.all()
    _assert_batching_free(dem, origins, dirs, None, rng)

    s = _sun(200.0, 8.0)
    px, py = _cell_points(dem, rng, n)
    points = np.column_stack([px, py, oracles.bilinear(dem, px, py)])
    points = points[np.isfinite(points[:, 2])]
    shadow_origins = points + 0.5 * dem.cell_size * s
    _assert_batching_free(dem, shadow_origins, np.broadcast_to(s, shadow_origins.shape),
                          sun_ceiling(dem, s), rng)


def test_broadcast_rows_give_the_bits_of_the_same_rows_written_out():
    """A row broadcast to every ray stays one value in the walk: a camera's
    origin, over rays of which some miss the footprint (so the walk gathers
    the rest) or all meet it (so it reads views), and the sun's direction,
    traced with the sun's ceiling.  (t, hit) has the bits of the same rows
    written out, which the walk gathers row by row."""
    rng = np.random.default_rng(0xB0A)
    base = synth_crater_dem(8, 41, 35, 4.0, 3, 3)
    e = base.elevations.copy()
    e[rng.random(e.shape) < 0.04] = np.nan
    dem = DemGrid(cell_size=base.cell_size, origin_x=ORIGIN[0], origin_y=ORIGIN[1], elevations=e)
    center = np.array([(dem.x_min + dem.x_max) / 2, (dem.y_min + dem.y_max) / 2, float(np.nanmax(e)) + 300.0])
    n = 500
    for spread, clipped in ((1.2, True), (0.05, False)):
        dirs = np.column_stack([rng.uniform(-spread, spread, (n, 2)), -np.ones(n)])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        origins = np.broadcast_to(center, dirs.shape)
        assert (len(_clip(dem, origins, dirs)[0]) < n) == clipped
        t, hit = intersect_rays(dem, origins, dirs)
        t_rows, hit_rows = intersect_rays(dem, np.tile(center, (n, 1)), dirs)
        assert hit.any() and t.tobytes() == t_rows.tobytes() and np.array_equal(hit, hit_rows)

    for azimuth, elevation in ((200.0, 8.0), (75.0, 2.0)):
        s = _sun(azimuth, elevation)
        x, y = _cell_points(dem, rng, n)
        points = np.column_stack([x, y, oracles.bilinear(dem, x, y)])
        origins = points[np.isfinite(points[:, 2])] + 0.5 * dem.cell_size * s
        ceiling = sun_ceiling(dem, s)
        t, hit = intersect_rays(dem, origins, np.broadcast_to(s, origins.shape), ceiling)
        t_rows, hit_rows = intersect_rays(dem, origins, np.tile(s, (len(origins), 1)), ceiling)
        assert hit.any() and not hit.all()
        assert t.tobytes() == t_rows.tobytes() and np.array_equal(hit, hit_rows)


# Horizontal direction components for which cell_size / d overflows or is
# infinite: the walk must treat such a ray as parallel to that axis.
TINY_COMPONENTS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310]


@pytest.mark.parametrize("axis", [0, 1])
def test_axis_parallel_and_subnormal_rays_match_the_oracle(axis):
    """Rays whose dx (or dy) is 0, -0 or subnormal, descending from above
    zmax or from just above the surface, and ascending from half a cell off
    it as shadow rays do, agree with the per-cell oracle (hit/miss exactly, t
    to 2e-3 cell) and do not depend on batching."""
    rng = np.random.default_rng(17 + axis)
    base = synth_crater_dem(9, 33, 27, 5.0, 3, 3)
    dem = DemGrid(cell_size=base.cell_size, origin_x=ORIGIN[0], origin_y=ORIGIN[1], elevations=base.elevations)
    n = 300
    margin = 0.5 * dem.cell_size
    x = rng.uniform(dem.x_min + margin, dem.x_max - margin, n)
    y = rng.uniform(dem.y_min + margin, dem.y_max - margin, n)
    zen = np.radians(rng.uniform(0.0, 89.0, n))
    side = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    dirs = np.zeros((n, 3))
    dirs[:, 1 - axis] = side * np.sin(zen)
    dirs[:, axis] = np.resize(TINY_COMPONENTS, n)
    dirs[:, 2] = -np.cos(zen)
    ground = oracles.bilinear(dem, x, y)
    zmax = float(dem.elevations.max())
    z = np.where(np.arange(n) % 3 == 0, zmax + rng.uniform(0.1, 5.0, n) * dem.cell_size,
                 ground + rng.uniform(0.2, 3.0, n) * dem.cell_size)
    up = np.arange(n) % 3 == 2  # shadow-like rays
    dirs[up, 2] *= -1.0
    z[up] = ground[up] + 0.5 * dem.cell_size
    origins = np.column_stack([x, y, z])
    assert (dirs[:, axis] == np.resize(TINY_COMPONENTS, n)).all()

    t, hit = intersect_rays(dem, origins, dirs)
    t_ref, hit_ref = oracles.brute_force_hits(dem, origins, dirs)
    assert np.array_equal(hit, hit_ref)
    assert np.abs(t[hit] - t_ref[hit]).max() <= 2e-3 * dem.cell_size
    _assert_batching_free(dem, origins, dirs, None, rng)


def _flat_cell_start(z_offset_ulps):
    """A 4x4 DEM whose cell (1, 1) has four corners at one height H (a
    higher corner elsewhere lifts zmax above H), and a point of that cell
    where the bilinear blend of the four equal corners rounds two ulps above
    H.  Returns (dem, start point at H plus z_offset_ulps ulps, its blend)."""
    from lunarforge.terrain import bilinear

    h = 1234.567
    e = np.full((4, 4), h)
    e[0, 0] = h + 50.0
    dem = DemGrid(cell_size=CELL, origin_x=ORIGIN[0], origin_y=ORIGIN[1], elevations=e)
    rng = np.random.default_rng(5)
    x = dem.origin_x + (1.0 + rng.random(200_000)) * CELL
    y = dem.origin_y + (1.0 + rng.random(200_000)) * CELL
    # The grid coordinates the walk computes for a ray that starts at (x, y).
    blend = bilinear(dem.elevations, (x - dem.origin_x) / CELL, (y - dem.origin_y) / CELL)
    k = int(np.flatnonzero(blend >= np.nextafter(np.nextafter(h, np.inf), np.inf))[0])
    z = h
    for _ in range(z_offset_ulps):
        z = np.nextafter(z, np.inf)
    return dem, np.array([x[k], y[k], z]), float(blend[k])


@pytest.mark.parametrize("z_offset_ulps", [0, 1])
def test_a_start_below_the_rounded_blend_of_a_flat_cell_is_an_immediate_hit(z_offset_ulps):
    """A ray starting at (0 ulps) or just above (1 ulp) its cell's highest
    corner, where the blend of the cell's four equal corners rounds above
    that corner and above the start: the start is below the surface that
    z - bilinear(...) < 0 defines, so the ray hits at t = 0, even while it
    climbs away from the cell."""
    dem, origin, blend = _flat_cell_start(z_offset_ulps)
    assert origin[2] - blend < 0 and origin[2] >= dem.elevations[1, 1]
    for direction in ([0.6, 0.0, 0.8], [0.0, 0.0, -1.0], [0.48, 0.36, -0.8]):
        t, hit = intersect_rays(dem, origin[None, :], np.array([direction]))
        assert hit[0] and t[0] == 0.0, (direction, t[0])


CEILING_ELEVATIONS = [1.0, 2.0, 5.0, 15.0, 45.0, 89.5, 90.0]
# Axis-aligned and diagonal suns are the sweep's edge cases (drift 0 and 1);
# None draws a random azimuth.
CEILING_AZIMUTHS = [0.0, 45.0, 90.0, 180.0, 270.0, None]


def _sun(azimuth, elevation):
    """Unit sun direction; at 45 degrees azimuth exactly diagonal (equal x and
    y components), which sun_direction misses by one rounding."""
    if azimuth == 45.0:
        e = np.radians(elevation)
        return np.array([np.cos(e) / np.sqrt(2.0), np.cos(e) / np.sqrt(2.0), np.sin(e)])
    return sun_direction(SunConfig(azimuth=azimuth, elevation=elevation))


def _ceiling_scenes(elevation):
    """(dem, sun direction, rng) over random crater DEMs: odd seeds have NaN
    holes, seeds divisible by 3 sit 1.5e6 m from the origin."""
    for seed in range(4):
        rng = np.random.default_rng([seed, int(elevation * 10)])
        base = synth_crater_dem(int(rng.integers(2**16)), int(rng.integers(16, 40)),
                                int(rng.integers(16, 40)), float(rng.uniform(1.0, 8.0)), 3, 3)
        e = base.elevations.copy()
        if seed % 2:
            e[rng.random(e.shape) < 0.04] = np.nan
        offset = 1.5e6 if seed % 3 == 0 else 0.0
        dem = DemGrid(cell_size=base.cell_size,
                      origin_x=base.origin_x + offset, origin_y=base.origin_y - offset, elevations=e)
        for azimuth in CEILING_AZIMUTHS:
            if azimuth is None:
                azimuth = float(rng.uniform(0.0, 360.0))
            yield dem, _sun(azimuth, elevation), rng


def _cell_points(dem, rng, n):
    """x, y of n random points in random cells."""
    i = rng.integers(0, dem.height - 1, n)
    j = rng.integers(0, dem.width - 1, n)
    return dem.origin_x + (j + rng.random(n)) * dem.cell_size, dem.origin_y + (i + rng.random(n)) * dem.cell_size


@pytest.mark.parametrize("elevation", CEILING_ELEVATIONS)
def test_sun_ceiling_bounds_the_sunward_horizon(elevation):
    """For points in a cell, H - k r along the sun-ward path, over the
    footprint and outside nodata, never exceeds the cell's ceiling.  Paths
    are sampled every 0.02 cell, and half of them start up to two cells
    before a grid vertex and pass exactly through it, where a cell's maximum
    is reached."""
    for dem, s, rng in _ceiling_scenes(elevation):
        ceiling = sun_ceiling(dem, s)
        assert ceiling.shape == (dem.height - 1, dem.width - 1)
        horizontal = np.hypot(s[0], s[1])
        h, k = s[:2] / horizontal, s[2] / horizontal
        x, y = _cell_points(dem, rng, 40)
        vi = rng.integers(0, dem.height, 40)
        vj = rng.integers(0, dem.width, 40)
        before = rng.uniform(0.0, 2.0, 40) * dem.cell_size
        vx = dem.origin_x + vj * dem.cell_size - before * h[0]
        vy = dem.origin_y + vi * dem.cell_size - before * h[1]
        start = (vx >= dem.x_min) & (vx <= dem.x_max) & (vy >= dem.y_min) & (vy <= dem.y_max)
        x, y = np.concatenate([x, vx[start]]), np.concatenate([y, vy[start]])
        through_vertex = np.concatenate([np.full(40, -np.inf), dem.elevations[vi, vj][start] - k * before[start]])

        reach = np.hypot(dem.x_max - dem.x_min, dem.y_max - dem.y_min)
        r = np.arange(0.0, reach, 0.02 * dem.cell_size)
        px = x[:, None] + r * h[0]
        py = y[:, None] + r * h[1]
        inside = (px >= dem.x_min) & (px <= dem.x_max) & (py >= dem.y_min) & (py <= dem.y_max)
        with np.errstate(invalid="ignore"):
            rise = oracles.bilinear(dem, px, py) - k * r
        horizon = np.fmax(np.where(inside & ~np.isnan(rise), rise, -np.inf).max(axis=1), through_vertex)
        i = np.clip(np.floor((y - dem.origin_y) / dem.cell_size).astype(int), 0, dem.height - 2)
        j = np.clip(np.floor((x - dem.origin_x) / dem.cell_size).astype(int), 0, dem.width - 2)
        assert (horizon <= ceiling[i, j]).all()


def _exact_ceiling(dem, s):
    """The sweep's recursion in exact rationals, in the DEM's own (row,
    column) cells: C(p, q) = max(M(p, q), max(C(p', q), C(p', q')) - kL),
    where p' is the next cell sun-ward along the sun's dominant horizontal
    axis, q' the next along the other, M(p, q) the larger cell maximum of
    (p, q) and (p, q'), and kL the sweep's float step taken exactly.  None
    stands for -inf: no terrain sun-ward."""
    sx, sy, sz = (float(c) for c in s)
    swap = abs(sy) > abs(sx)  # the dominant axis is y: p is the row
    dom, minor = (sy, sx) if swap else (sx, sy)
    kl = Fraction(sz * dem.cell_size / abs(dom))
    step_p, step_q = (-1 if dom < 0 else 1), (-1 if minor < 0 else 1)
    cm = dem.cell_max if swap else dem.cell_max.T  # cm[p, q]
    n_p, n_q = cm.shape

    def cell(p, q):
        inside = 0 <= p < n_p and 0 <= q < n_q and not np.isnan(cm[p, q])
        return Fraction(float(cm[p, q])) if inside else None

    def top(*values):
        values = [v for v in values if v is not None]
        return max(values) if values else None

    exact = {}
    for p in (range(n_p - 1, -1, -1) if step_p > 0 else range(n_p)):
        for q in range(n_q):
            behind = top(exact.get((p + step_p, q)), exact.get((p + step_p, q + step_q)))
            exact[p, q] = top(cell(p, q), cell(p, q + step_q), None if behind is None else behind - kl)
    return [[exact[(i, j) if swap else (j, i)] for j in range(dem.width - 1)] for i in range(dem.height - 1)]


def test_sun_ceiling_rounding_margin_covers_the_exact_sweep():
    """The float sweep rounds each subtraction of kL, and its 1e-9 relative
    margin must cover that: over 40 random 12 x 12 DEMs (some with nodata,
    some 1700 m up) and suns, every cell's float ceiling is at least the
    exact one, and exceeds it by no more than the margin's order."""
    for seed in range(40):
        rng = np.random.default_rng([seed, 0xCE1])
        e = rng.normal(0.0, 30.0, (12, 12)) + (1700.0 if seed % 2 else 0.0)
        if seed % 5 == 0:
            e[rng.random(e.shape) < 0.1] = np.nan
        dem = DemGrid(cell_size=float(rng.uniform(0.5, 10.0)),
                      origin_x=float(rng.uniform(-1e3, 1e3)), origin_y=float(rng.uniform(-1e3, 1e3)), elevations=e)
        azimuth = CEILING_AZIMUTHS[seed % len(CEILING_AZIMUTHS)]
        s = _sun(float(rng.uniform(0.0, 360.0)) if azimuth is None else azimuth, float(rng.uniform(1.0, 80.0)))
        ceiling = sun_ceiling(dem, s)
        for i, row in enumerate(_exact_ceiling(dem, s)):
            for j, want in enumerate(row):
                got = ceiling[i, j]
                if want is None:
                    assert got == -np.inf, (seed, i, j)
                    continue
                assert Fraction(float(got)) >= want, (seed, i, j)
                assert got - float(want) <= 4e-9 * (1.0 + abs(got)), (seed, i, j)


# One azimuth inside each of the 8 octants, and the four axes.
SWEEP_AZIMUTHS = [0.0, 90.0, 180.0, 270.0, *(22.5 + 45.0 * k for k in range(8))]


def _edge_and_narrow_dems():
    """Crater DEMs with NaN nodes, a block of nodata cells, and a nodata
    edge column and row of cells, and strips of them 2 and 3 nodes (1 and 2
    cells) wide or high; the last seed has no nodata."""
    for seed in range(3):
        rng = np.random.default_rng([seed, 0x5EE])
        e = synth_crater_dem(seed, 24, 19, 3.0, 3, 3).elevations.copy()
        if seed < 2:
            e[rng.random(e.shape) < 0.06] = np.nan
            e[7:11, 9:14] = np.nan
            edge = slice(None, 2) if seed else slice(-2, None)
            e[:, edge] = np.nan
            e[edge, :] = np.nan
        for grid in (e, e[:, :2], e[:2, :], e[8:11, :], e[:, 8:10], e[7:10, 8:10]):
            yield DemGrid(cell_size=3.0, origin_x=0.0, origin_y=0.0, elevations=grid)


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("elevation", CEILING_ELEVATIONS)
def test_sun_ceiling_equals_the_whole_grid_sweep_bit_for_bit(elevation):
    """The row-buffer sweep gives the bits of oracles.reference_sun_ceiling,
    the sweep over whole-grid arrays, on the ceiling scenes and on the edge
    and narrow DEMs under a sun in every octant and on every axis."""
    for dem, s, _ in _ceiling_scenes(elevation):
        _assert_same_bits(sun_ceiling(dem, s), oracles.reference_sun_ceiling(dem, s))
    for dem in _edge_and_narrow_dems():
        for azimuth in SWEEP_AZIMUTHS:
            s = _sun(azimuth, elevation)
            _assert_same_bits(sun_ceiling(dem, s), oracles.reference_sun_ceiling(dem, s))


def test_sun_ceiling_sweeps_several_column_buffers_bit_for_bit():
    """Along either axis a sweep of more columns than its buffer holds, the
    last buffer partly filled, gives the whole-grid sweep's bits."""
    rng = np.random.default_rng(0x5EE9)
    e = synth_crater_dem(6, 3 * SWEEP_COLUMNS + 6, 2 * SWEEP_COLUMNS + 4, 3.0, 4, 3).elevations.copy()
    e[rng.random(e.shape) < 0.05] = np.nan
    dem = DemGrid(cell_size=3.0, origin_x=0.0, origin_y=0.0, elevations=e)
    for azimuth in SWEEP_AZIMUTHS:
        s = _sun(azimuth, 10.0)
        _assert_same_bits(sun_ceiling(dem, s), oracles.reference_sun_ceiling(dem, s))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sun_ceiling_at_the_exact_zenith_equals_the_whole_grid_sweep():
    """At the exact zenith kL is inf, so a cell with no terrain beside
    terrain sweeps to -inf; its margin must raise no warning, and the
    ceiling is the whole-grid sweep's, bit for bit."""
    zenith = np.array([0.0, 0.0, 1.0])
    dems = [dem for dem, _, _ in _ceiling_scenes(30.0)][::len(CEILING_AZIMUTHS)]
    for dem in [*dems, *_edge_and_narrow_dems()]:
        _assert_same_bits(sun_ceiling(dem, zenith), oracles.reference_sun_ceiling(dem, zenith))


@pytest.mark.parametrize("elevation", CEILING_ELEVATIONS)
def test_shadow_mask_equals_tracing_every_shadow_ray(elevation):
    """The ceiling's two shortcuts (a lit origin, a walk that ends above the
    ceiling) change no shadow ray's answer: shadow_mask equals intersect_rays
    on the same biased origins, bit for bit."""
    for dem, s, rng in _ceiling_scenes(elevation):
        x, y = _cell_points(dem, rng, 300)
        points = np.column_stack([x, y, oracles.bilinear(dem, x, y)])
        points = points[np.isfinite(points[:, 2])]
        origins = points + 0.5 * dem.cell_size * s
        _, traced = intersect_rays(dem, origins, np.broadcast_to(s, origins.shape))
        assert np.array_equal(shadow_mask(dem, points, s, sun_ceiling(dem, s)), traced)


def test_shadow_mask_stays_exact_when_threads_switch_grids_and_suns():
    """Threads that ask for two same-shape grids under two suns at once, each
    with its own ceiling and with a thread switch forced every microsecond,
    each get the answer of tracing every ray."""
    cases = []
    for seed in (1, 2):
        dem = synth_crater_dem(seed, 16, 16, 4.0, 3, 3)
        x, y = _cell_points(dem, np.random.default_rng(seed), 50)
        points = np.column_stack([x, y, oracles.bilinear(dem, x, y)])
        for s in (_sun(90.0, 3.0), _sun(200.0, 10.0)):
            origins = points + 0.5 * dem.cell_size * s
            _, traced = intersect_rays(dem, origins, np.broadcast_to(s, origins.shape))
            cases.append((dem, points, s, sun_ceiling(dem, s), traced))

    def worker(i):
        order = cases[i % 4:] + cases[:i % 4]
        return all(np.array_equal(shadow_mask(dem, p, s, c), ref) for _ in range(20) for dem, p, s, c, ref in order)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            exact = list(pool.map(worker, range(16), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert exact == [True] * 16
