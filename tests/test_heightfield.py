"""Heightfield traversal: the in-cell root cases and a property test against
the fine-step oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lunarforge import DemGrid
from lunarforge._heightfield import intersect_rays
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
    dem = DemGrid(width=e.shape[1], height=e.shape[0], cell_size=CELL,
                  origin_x=ORIGIN[0], origin_y=ORIGIN[1], elevations=e)
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
    cell off the surface, as shadow rays are, agree with the fine-step
    marcher on hit/miss exactly and on t to 2e-3 cell (acceptance 03).

    The marcher samples every 0.01 cell, so on a grazing ray it can step
    over a short dip below the surface and report a later crossing or none.
    A hit that it puts later or misses must be found again by a marcher
    100x finer, started 0.01 cell before that hit.
    """
    seed, offset, min_zenith = scene
    base = synth_crater_dem(seed, 32, 32, 5.0, 2, 3)
    dem = DemGrid(width=base.width, height=base.height, cell_size=base.cell_size,
                  origin_x=base.origin_x + offset, origin_y=base.origin_y - offset,
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
    with np.errstate(invalid="ignore"):
        early = hit & ~(t >= t_ref - tol)
    if early.any():
        back = t[early] - 0.01 * dem.cell_size
        t_fine, hit_ref[early] = oracles.brute_force_hits(
            dem, origins[early] + back[:, None] * dirs[early], dirs[early], step_frac=1e-4
        )
        t_ref[early] = back + t_fine
    assert np.array_equal(hit, hit_ref)
    if hit.any():
        assert np.abs(t[hit] - t_ref[hit]).max() <= tol
