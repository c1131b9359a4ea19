"""Memory budgets of the whole-DEM passes on render_large_dem's 640 x 640 DEM.

A budget is the peak of what one call allocates, traced by tracemalloc, in
grids: DEM-sized float64 arrays.  Each pass holds at most one grid besides
its result, plus boolean masks (1/8 grid) and row buffers.
"""

import tracemalloc

import numpy as np
import pytest

from lunarforge import DemGrid, synth_crater_dem
from lunarforge._heightfield import sun_ceiling
from lunarforge.radiometry import SunConfig, sun_direction

SIZE = 640
GRID = SIZE * SIZE * 8


def _peak_grids(call):
    """Peak bytes allocated during call(), its result included, in grids."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / GRID
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def dem():
    dem = synth_crater_dem(24, SIZE, SIZE, 3.0, 6, 4)
    dem.cell_max  # cached, as every render reads it before the sweep
    return dem


def _regrid(dem):
    return DemGrid(width=dem.width, height=dem.height, cell_size=dem.cell_size,
                   origin_x=dem.origin_x, origin_y=dem.origin_y, elevations=dem.elevations)


# One sun per quadrant, so both sweep axes and every flip; None is the zenith.
@pytest.mark.parametrize("azimuth", [30.0, 120.0, 250.0, 300.0, None])
def test_sun_ceiling_holds_its_result_and_row_buffers(dem, azimuth):
    if azimuth is None:
        s = np.array([0.0, 0.0, 1.0])
    else:
        s = sun_direction(SunConfig(azimuth=azimuth, elevation=20.0))
    assert _peak_grids(lambda: sun_ceiling(dem, s)) <= 1.2


def test_cell_max_holds_its_result_and_one_temporary(dem):
    grid = _regrid(dem)
    assert _peak_grids(lambda: grid.cell_max) <= 2.1


def test_dem_validation_copies_no_elevations(dem):
    assert _peak_grids(lambda: _regrid(dem)) <= 0.3


def test_synth_crater_dem_adds_each_octave_in_place():
    assert _peak_grids(lambda: synth_crater_dem(24, SIZE, SIZE, 3.0, 6, 4)) <= 3.2
