import json
import math
import warnings

import numpy as np
import pytest

from lunarforge import DemGrid, hillshade, load_dem, sample_height, slope_map, surface_normal, synth_crater_dem, write_dem
import oracles
from lunarforge.terrain import DemFormatError, NodataError, OutOfBoundsError, _flat, _value_noise, add_crater, bilinear


def make_dem(elev, cell=1.0, ox=0.0, oy=0.0):
    elev = np.asarray(elev, dtype=np.float64)
    return DemGrid(cell_size=cell, origin_x=ox, origin_y=oy, elevations=elev)


def plane_dem(a, b, c, n=16, cell=1.0):
    ys, xs = np.meshgrid(np.arange(n) * cell, np.arange(n) * cell, indexing="ij")
    return make_dem(a * xs + b * ys + c, cell=cell)


# ---------------------------------------------------------------------------
# load/write
# ---------------------------------------------------------------------------


def test_load_ascii_identity(tmp_path):
    p = tmp_path / "flat.asc"
    p.write_text(
        "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 5\nnodata_value -9999\n"
        "0 0\n0 0\n"
    )
    dem = load_dem(p, "ascii_grid")
    assert dem.width == 2 and dem.height == 2
    assert dem.cell_size == 5
    assert np.all(dem.elevations == 0)


def test_load_ascii_dimension_mismatch(tmp_path):
    p = tmp_path / "bad.asc"
    p.write_text(
        "ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 5\nnodata_value -9999\n"
        "0 0\n0 0\n"
    )
    with pytest.raises(DemFormatError, match="dimension mismatch"):
        load_dem(p, "ascii_grid")


def test_load_ascii_bad_header(tmp_path):
    p = tmp_path / "bad.asc"
    p.write_text("ncols 2\nnrows 2\nxllcorner 0\nwrong 0\ncellsize 5\nnodata_value -9999\n0 0\n0 0\n")
    with pytest.raises(DemFormatError):
        load_dem(p, "ascii_grid")


def test_load_ascii_unmarked_nonfinite(tmp_path):
    p = tmp_path / "nan.asc"
    p.write_text(
        "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 5\nnodata_value -9999\n"
        "0 nan\n0 0\n"
    )
    with pytest.raises(DemFormatError, match="non-finite"):
        load_dem(p, "ascii_grid")


def test_load_ascii_non_utf8_bytes_is_a_format_error(tmp_path):
    p = tmp_path / "bad.asc"
    p.write_bytes(b"ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 5\nnodata_value -9999\n\xff\xfe 0\n0 0\n")
    with pytest.raises(DemFormatError, match="cannot read"):
        load_dem(p, "ascii_grid")


def test_ascii_north_up_row_order(tmp_path):
    # First data row is the northern edge -> highest y internally.
    p = tmp_path / "rows.asc"
    p.write_text(
        "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nnodata_value -9999\n"
        "10 10\n0 0\n"
    )
    dem = load_dem(p, "ascii_grid")
    assert sample_height(dem, 0.5, dem.y_max) == 10.0
    assert sample_height(dem, 0.5, dem.y_min) == 0.0


def test_raw_f32_round_trip_randomized(tmp_path):
    rng = np.random.default_rng(42)
    for k in range(5):
        h, w = rng.integers(2, 40, size=2)
        elev = rng.normal(0, 100, size=(h, w))
        if k % 2:
            elev[rng.random(elev.shape) < 0.1] = np.nan
        dem = DemGrid(cell_size=float(rng.uniform(0.5, 20)),
                      origin_x=float(rng.normal()), origin_y=float(rng.normal()),
                      elevations=elev.astype(np.float32).astype(np.float64))
        p1 = tmp_path / f"a{k}.f32"
        p2 = tmp_path / f"b{k}.f32"
        write_dem(dem, p1, "raw_f32")
        write_dem(load_dem(p1, "raw_f32"), p2, "raw_f32")
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / f"a{k}.f32.json").read_bytes() == (tmp_path / f"b{k}.f32.json").read_bytes()


def test_raw_f32_sidecar_is_the_raster_sidecar(tmp_path):
    dem = plane_dem(0.3, -0.2, 12.0, n=6, cell=2.5)
    p = tmp_path / "d.f32"
    write_dem(dem, p, "raw_f32")
    assert p.read_bytes() == dem.elevations.astype("<f4").tobytes()
    assert json.loads((tmp_path / "d.f32.json").read_text()) == {
        "shape": [6, 6], "cell_size": 2.5, "origin_x": 0.0, "origin_y": 0.0,
    }


def _break_missing_sidecar(p, sidecar, meta):
    sidecar.unlink()


def _break_malformed_json(p, sidecar, meta):
    sidecar.write_text('{"shape": [4, 4], ')


def _break_missing_cell_size(p, sidecar, meta):
    del meta["cell_size"]
    sidecar.write_text(json.dumps(meta))


def _break_size_mismatch(p, sidecar, meta):
    p.write_bytes(p.read_bytes()[:-4])


def _break_legacy_width_height(p, sidecar, meta):
    del meta["shape"]
    meta.update(width=4, height=4)
    sidecar.write_text(json.dumps(meta))


def _break_three_d_shape(p, sidecar, meta):
    sidecar.write_text(json.dumps({**meta, "shape": [2, 2, 4]}))  # the same 16 values


def _break_infinite_cell_size(p, sidecar, meta):
    sidecar.write_text(json.dumps({**meta, "cell_size": float("inf")}))


def _break_nan_origin_x(p, sidecar, meta):
    sidecar.write_text(json.dumps({**meta, "origin_x": float("nan")}))


def _break_infinite_origin_y(p, sidecar, meta):
    sidecar.write_text(json.dumps({**meta, "origin_y": -float("inf")}))


@pytest.mark.parametrize("breaker", [
    _break_missing_sidecar, _break_malformed_json, _break_missing_cell_size,
    _break_size_mismatch, _break_legacy_width_height, _break_three_d_shape,
    _break_infinite_cell_size, _break_nan_origin_x, _break_infinite_origin_y,
], ids=lambda f: f.__name__[len("_break_"):])
def test_load_raw_f32_malformed(tmp_path, breaker):
    p = tmp_path / "d.f32"
    sidecar = tmp_path / "d.f32.json"
    write_dem(plane_dem(0.1, 0.2, 5.0, n=4), p, "raw_f32")
    breaker(p, sidecar, json.loads(sidecar.read_text()))
    with pytest.raises(DemFormatError):
        load_dem(p, "raw_f32")


@pytest.mark.parametrize("bad", [
    {"cellsize": "inf"}, {"cellsize": "nan"}, {"xllcorner": "nan"}, {"yllcorner": "-inf"},
    {"ncols": "inf"}, {"nrows": "nan"}, {"ncols": "-2", "nrows": "-2"},
], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
def test_load_ascii_invalid_header_value(tmp_path, bad):
    header = {"ncols": "2", "nrows": "2", "xllcorner": "0", "yllcorner": "0", "cellsize": "1",
              "nodata_value": "-9999", **bad}
    p = tmp_path / "bad.asc"
    p.write_text("".join(f"{k} {v}\n" for k, v in header.items()) + "1 2\n3 4\n")
    with pytest.raises(DemFormatError):
        load_dem(p, "ascii_grid")


@pytest.mark.parametrize("field, value", [
    ("cell_size", np.inf), ("cell_size", np.nan), ("origin_x", np.nan), ("origin_y", -np.inf),
])
def test_grid_rejects_non_finite_georeferencing(field, value):
    fields = dict(cell_size=1.0, origin_x=0.0, origin_y=0.0, elevations=np.zeros((2, 2)))
    with pytest.raises(ValueError, match=field.split("_")[0]):
        DemGrid(**{**fields, field: value})


def test_grid_size_is_the_shape_of_its_elevations():
    dem = DemGrid(2.0, -1.0, 3.0, np.zeros((3, 5)))
    assert (dem.width, dem.height) == (5, 3)
    assert (dem.x_max, dem.y_max) == (7.0, 7.0)


@pytest.mark.parametrize("shape", [(), (4,), (2, 2, 2), (1, 4), (4, 1), (0, 0)])
def test_grid_rejects_elevations_that_are_not_2d_and_at_least_2x2(shape):
    with pytest.raises(ValueError, match="2-D array of at least 2x2"):
        DemGrid(1.0, 0.0, 0.0, np.zeros(shape))


def test_ascii_round_trip(tmp_path):
    dem = plane_dem(0.3, -0.2, 12.0, n=8, cell=2.5)
    p = tmp_path / "p.asc"
    write_dem(dem, p, "ascii_grid")
    back = load_dem(p, "ascii_grid")
    assert np.allclose(back.elevations, dem.elevations)
    assert back.cell_size == dem.cell_size
    assert back.origin_x == pytest.approx(dem.origin_x)


def test_elevation_range_warning():
    with pytest.warns(UserWarning, match="lunar range"):
        make_dem(np.full((4, 4), 5000.0))


@pytest.mark.parametrize("outlier", [-5000.0, 5000.0])
def test_elevation_range_warning_skips_nodata(outlier):
    e = np.full((4, 5), 100.0)
    e[0] = np.nan
    e[2, 3] = outlier
    with pytest.warns(UserWarning, match="lunar range"):
        make_dem(e)


def test_in_range_and_all_nodata_grids_do_not_warn():
    e = np.full((4, 5), 1800.0)
    e[1, :3] = np.nan
    e[3, 4] = -4300.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_dem(e)
        make_dem(np.full((4, 5), np.nan))


def test_rejects_inf():
    bad = np.zeros((4, 4))
    bad[1, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        make_dem(bad)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_no_features_is_flat():
    dem = synth_crater_dem(3, 32, 32, 5.0, crater_count=0, fractal_octaves=0)
    assert np.all(dem.elevations == 0.0)


def test_synth_deterministic():
    a = synth_crater_dem(9, 48, 40, 2.0, 4, 3)
    b = synth_crater_dem(9, 48, 40, 2.0, 4, 3)
    assert a.elevations.tobytes() == b.elevations.tobytes()
    c = synth_crater_dem(10, 48, 40, 2.0, 4, 3)
    assert a.elevations.tobytes() != c.elevations.tobytes()


# (width, height, lattice): the lattice of synth_crater_dem's octaves reaches
# max(width, height) on small DEMs.
@pytest.mark.parametrize("shape", [(16, 16, 4), (40, 23, 8), (23, 40, 32), (17, 31, 31), (31, 17, 31), (640, 640, 32)])
def test_value_noise_equals_the_four_gather_formula(shape):
    width, height, lattice = shape
    got = _value_noise(np.random.default_rng(lattice), width, height, lattice)(slice(None))
    want = oracles.value_noise_four_gathers(np.random.default_rng(lattice), width, height, lattice)
    assert got.shape == (height, width)
    assert got.tobytes() == want.tobytes()


# (seed, width, height, cell_size, craters, octaves): the lattice reaches the
# DEM's size at 17 x 31 with 5 octaves; 640 x 640 is render_large_dem's DEM.
# The rest have heights of one 64-row block, one row past one or two blocks
# and a partial last block, no craters or no octaves.
@pytest.mark.parametrize("args", [(9, 48, 40, 2.0, 4, 3), (2, 17, 31, 5.0, 3, 5), (24, 640, 640, 3.0, 6, 4),
                                  (11, 33, 64, 1.0, 2, 2), (13, 70, 129, 3.0, 3, 6), (5, 100, 130, 4.0, 0, 4),
                                  (7, 90, 200, 2.5, 5, 0), (3, 257, 65, 6.0, 4, 3)])
def test_synth_equals_its_formula_bit_for_bit(args):
    """Filling the grid a block of rows at a time, each octave scaled and
    added in place, gives the bits of the whole-grid synthesis that adds each
    scaled octave as a new array."""
    want = oracles.reference_synth_elevations(*args)
    assert np.array_equal(synth_crater_dem(*args).elevations.view(np.int64), want.view(np.int64))


def test_cell_max_equals_its_formula_bit_for_bit():
    """cell_max keeps the grouping fmax(fmax(a, b), fmax(c, d)), and with it
    the bits of signed zeros and the NaN of all-nodata cells."""
    rng = np.random.default_rng(0xCE11)
    for shape in [(2, 2), (2, 37), (37, 2), (31, 41), (64, 129)]:
        mixed = rng.choice([-0.0, 0.0, 1.5, -1.5, np.nan], size=shape)
        holes = rng.normal(0.0, 50.0, shape)
        holes[rng.random(shape) < 0.3] = np.nan
        for e in (mixed, holes):
            want = oracles.reference_cell_max(e)
            assert np.array_equal(make_dem(e).cell_max.view(np.int64), want.view(np.int64))


def test_synth_has_no_nodata():
    dem = synth_crater_dem(1, 32, 32, 5.0, 3, 3)
    assert np.isfinite(dem.elevations).all()


def test_crater_extrema_scan():
    # Known crater parameters: scan for minimum inside the bowl and maxima on the rim.
    z = np.zeros((101, 101))
    xs = np.arange(101.0)
    ys = np.arange(101.0)
    add_crater(z, xs, ys, cx=50.0, cy=50.0, radius=20.0, depth=5.0, rim_height=1.0, rim_sigma=4.0)
    iy, ix = np.unravel_index(np.argmin(z), z.shape)
    r_min = math.hypot(ix - 50, iy - 50)
    assert r_min < 20.0  # global minimum inside the crater radius
    iy, ix = np.unravel_index(np.argmax(z), z.shape)
    r_max = math.hypot(ix - 50, iy - 50)
    assert 16.0 < r_max < 24.0  # global maximum on the rim annulus


def test_add_crater_is_bitwise_the_out_of_place_expression():
    # The in-place rim must round exactly as the expression it replaced.
    rng = np.random.default_rng(13)
    for _ in range(20):
        h, w = rng.integers(16, 80, 2)
        cell = rng.uniform(0.5, 30.0)
        xs, ys = np.arange(w) * cell, np.arange(h) * cell
        z = rng.normal(0.0, 50.0, (h, w))
        # Centres may fall outside the grid, radii may exceed it.
        cx, cy = rng.uniform(-0.2, 1.2) * w * cell, rng.uniform(-0.2, 1.2) * h * cell
        radius = rng.uniform(0.02, 0.8) * min(h, w) * cell
        depth, rim_height, rim_sigma = rng.uniform(0.0, 0.3) * radius, rng.uniform(0.0, 0.1) * radius, rng.uniform(0.05, 0.4) * radius

        want = z.copy()
        r = np.hypot(xs[None, :] - cx, ys[:, None] - cy)
        inside = r < radius
        want[inside] -= depth * (1.0 - (r[inside] / radius) ** 2)
        want += rim_height * np.exp(-(((r - radius) / rim_sigma) ** 2))

        add_crater(z, xs, ys, cx, cy, radius, depth, rim_height, rim_sigma)
        assert z.tobytes() == want.tobytes()


def test_synth_single_crater_structure():
    dem = synth_crater_dem(5, 64, 64, 1.0, crater_count=1, fractal_octaves=0)
    z = dem.elevations
    assert z.min() < 0 < z.max()  # bowl below datum, raised rim above
    iy, ix = np.unravel_index(np.argmin(z), z.shape)
    jy, jx = np.unravel_index(np.argmax(z), z.shape)
    assert math.hypot(jx - ix, jy - iy) < 24  # rim peak near the bowl center


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_at_cell_centers():
    rng = np.random.default_rng(0)
    elev = rng.normal(size=(6, 7))
    dem = make_dem(elev, cell=3.0, ox=-4.0, oy=2.0)
    for i in range(6):
        for j in range(7):
            x = dem.origin_x + j * dem.cell_size
            y = dem.origin_y + i * dem.cell_size
            assert sample_height(dem, x, y) == elev[i, j]


def test_sample_reproduces_affine():
    a, b, c = 0.31, -0.17, 4.2
    dem = plane_dem(a, b, c, n=20, cell=2.0)
    rng = np.random.default_rng(1)
    xs = rng.uniform(0, 19 * 2.0, 300)
    ys = rng.uniform(0, 19 * 2.0, 300)
    got = sample_height(dem, xs, ys)
    assert np.max(np.abs(got - (a * xs + b * ys + c))) <= 1e-9


def test_sample_linear_midpoint():
    dem = make_dem([[0.0, 10.0], [0.0, 10.0]])
    assert sample_height(dem, 0.5, 0.5) == pytest.approx(5.0)


def test_sample_out_of_bounds():
    dem = make_dem(np.zeros((4, 4)))
    with pytest.raises(OutOfBoundsError):
        sample_height(dem, -1.0, 0.0)
    with pytest.raises(OutOfBoundsError):
        sample_height(dem, 0.0, 3.5)
    # A NaN coordinate is a bad query, not a nodata cell.
    for x, y in ((np.nan, 1.0), (1.0, np.nan), ([0.5, np.nan], [0.5, 0.5])):
        with pytest.raises(OutOfBoundsError):
            sample_height(dem, x, y)


@pytest.mark.parametrize("query", ["sample_height", "surface_normal"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
def test_a_non_finite_or_huge_coordinate_is_out_of_bounds(query, bad):
    """Both axes are checked against the footprint before a coordinate
    becomes a cell index, so no cast of a NaN, an inf or a 1e300 warns."""
    dem = plane_dem(0.1, 0.2, 3.0, n=8)
    fn = {"sample_height": sample_height, "surface_normal": surface_normal}[query]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for x, y in ((bad, 3.0), (3.0, bad), (bad, bad), ([3.0, bad], [3.0, 3.0]), ([3.0, 3.0], [bad, 3.0])):
            with pytest.raises(OutOfBoundsError):
                fn(dem, x, y)


def test_sample_nodata_neighbor():
    elev = np.zeros((4, 4))
    elev[1, 1] = np.nan
    dem = make_dem(elev)
    with pytest.raises(NodataError):
        sample_height(dem, 0.6, 0.6)


def test_bilinear_matches_oracle():
    dem = synth_crater_dem(3, 24, 20, 5.0, 2, 3)
    rng = np.random.default_rng(12)
    jj, ii = np.meshgrid(np.arange(dem.width, dtype=float), np.arange(dem.height, dtype=float))
    # Random points, then every grid node (cell edges meet there), then the
    # far column and the far row.
    fx = np.concatenate([
        rng.uniform(0, dem.width - 1, 500), jj.ravel(),
        np.full(50, dem.width - 1.0), rng.uniform(0, dem.width - 1, 50),
    ])
    fy = np.concatenate([
        rng.uniform(0, dem.height - 1, 500), ii.ravel(),
        rng.uniform(0, dem.height - 1, 50), np.full(50, dem.height - 1.0),
    ])
    x = dem.origin_x + fx * dem.cell_size
    y = dem.origin_y + fy * dem.cell_size
    got = bilinear(dem.elevations, (x - dem.origin_x) / dem.cell_size, (y - dem.origin_y) / dem.cell_size)
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, oracles.bilinear(dem, x, y), rtol=1e-12, atol=0)


def test_flat_index_is_exact_past_2_to_the_31():
    """int32 cell indices times a row length past 2**31 would wrap in int32;
    _flat forms the product in int64."""
    w = 70_000
    row, col = np.array([70_000, 1], dtype=np.int32), np.array([69_999, 2], dtype=np.int32)
    k = _flat(row, col, w)
    assert k.dtype == np.int64
    assert k.tolist() == [70_000 * 70_000 + 69_999, 70_002]
    assert k[0] > 2**32


def test_bilinear_propagates_nan_corner():
    grid = np.zeros((4, 4))
    grid[1, 1] = np.nan
    # Every query in a cell touching the NaN corner is NaN, even where that
    # corner's weight is zero; cells clear of it stay finite.
    fx = np.array([0.0, 0.5, 0.0, 1.0, 2.5, 3.0])
    fy = np.array([0.0, 0.5, 1.0, 1.0, 2.5, 3.0])
    got = bilinear(grid, fx, fy)
    assert np.isnan(got[:4]).all()
    assert np.array_equal(got[4:], [0.0, 0.0])


def test_bilinear_of_a_nan_query_is_nan():
    """A NaN coordinate finds a cell without a cast warning, and its
    fraction makes the sample NaN."""
    grid = np.arange(16.0).reshape(4, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = bilinear(grid, np.array([np.nan, 1.5, 1.5]), np.array([1.0, np.nan, 1.0]))
    assert np.isnan(got[:2]).all() and got[2] == 5.5


def test_normal_flat(flat_dem):
    n = surface_normal(flat_dem, 0.0, 0.0)
    assert np.allclose(n, [0, 0, 1])


def test_normal_tilted_plane():
    dem = plane_dem(0.1, 0.0, 0.0, n=20)
    n = surface_normal(dem, 9.0, 9.0)
    expect = np.array([-0.1, 0.0, 1.0])
    expect /= np.linalg.norm(expect)
    assert np.allclose(n, expect, atol=1e-12)


def test_normal_unit_length_random():
    dem = synth_crater_dem(2, 48, 48, 3.0, 4, 3)
    rng = np.random.default_rng(3)
    xs = rng.uniform(dem.x_min + dem.cell_size, dem.x_max - dem.cell_size, 200)
    ys = rng.uniform(dem.y_min + dem.cell_size, dem.y_max - dem.cell_size, 200)
    n = surface_normal(dem, xs, ys)
    assert np.max(np.abs(np.linalg.norm(n, axis=-1) - 1)) < 1e-12


def test_normal_is_the_central_difference_of_sample_height():
    # Bit for bit: the normal reads its four samples through one flat-index
    # blend, and must do the same arithmetic as sample_height.
    dem = synth_crater_dem(5, 40, 56, 7.5, 3, 3)
    rng = np.random.default_rng(9)
    s = dem.cell_size
    xs = rng.uniform(dem.x_min + s, dem.x_max - s, 500)
    ys = rng.uniform(dem.y_min + s, dem.y_max - s, 500)
    xs[:3] = dem.x_min + s, dem.x_max - s, 3 * s  # on the margin and on grid lines
    ys[:3] = dem.y_max - s, 4 * s, dem.y_min + s
    dzdx = (sample_height(dem, xs + s, ys) - sample_height(dem, xs - s, ys)) / (2 * s)
    dzdy = (sample_height(dem, xs, ys + s) - sample_height(dem, xs, ys - s)) / (2 * s)
    ref = np.stack([-dzdx, -dzdy, np.ones_like(dzdx)], axis=-1)
    ref /= np.linalg.norm(ref, axis=-1, keepdims=True)
    assert surface_normal(dem, xs, ys).tobytes() == ref.tobytes()
    assert surface_normal(dem, float(xs[5]), float(ys[5])).tobytes() == ref[5].tobytes()


def test_normal_beside_nodata_is_the_cell_slope():
    # On a plane every cell's patch has the plane's slope, so a point whose
    # central difference reaches into the hole still gets the plane normal.
    dem = plane_dem(0.3, -0.2, 5.0, n=24)
    z = dem.elevations.copy()
    z[10:14, 10:14] = np.nan  # nodes 10-13: cells 9-13 touch the hole
    holed = make_dem(z)
    expect = np.array([-0.3, 0.2, 1.0]) / np.linalg.norm([-0.3, 0.2, 1.0])
    # x samples in the hole; y samples in it; both; the hole's wall at
    # x = 9, which rounds into nodata cell 9; the corner (14, 14) of cell 13.
    xs = np.array([8.5, 11.5, 8.5, 9.0, 14.0, 14.0 + 1e-12])
    ys = np.array([11.5, 8.5, 8.5, 11.0, 14.0, 14.0])
    got = surface_normal(holed, xs, ys)
    assert np.allclose(got, expect, rtol=0, atol=1e-12)
    clear = surface_normal(holed, 4.5, 17.5)  # the hole is out of reach
    assert clear.tobytes() == surface_normal(dem, 4.5, 17.5).tobytes()
    with pytest.raises(NodataError):
        surface_normal(holed, 11.5, 11.5)  # inside the hole
    # Node (4, 4) with nodata at (5, 5), (3, 5) and (5, 3): of the four cells
    # around it only the diagonal one, (3, 3), is complete.
    z = dem.elevations.copy()
    z[5, 5] = z[5, 3] = z[3, 5] = np.nan
    assert np.allclose(surface_normal(make_dem(z), 4.0, 4.0), expect, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# slope and hillshade
# ---------------------------------------------------------------------------


def test_slope_constant_zero():
    s = slope_map(np.full((8, 8), 3.7), 1.0)
    assert np.all(s == 0)


def test_slope_plane_01():
    ys, xs = np.meshgrid(np.arange(10.0), np.arange(10.0), indexing="ij")
    s = slope_map(0.1 * xs, 1.0)
    assert np.allclose(s, math.degrees(math.atan(0.1)), atol=1e-9)
    assert s[5, 5] == pytest.approx(5.710593137, abs=1e-6)


def test_slope_plane_xy():
    ys, xs = np.meshgrid(np.arange(12.0), np.arange(12.0), indexing="ij")
    s = slope_map(xs + ys, 1.0)
    assert np.allclose(s, math.degrees(math.atan(math.sqrt(2))), atol=1e-9)
    assert s[3, 3] == pytest.approx(54.7356103172, abs=1e-6)


def test_slope_affine_constant_interior():
    ys, xs = np.meshgrid(np.arange(16.0) * 2.5, np.arange(16.0) * 2.5, indexing="ij")
    s = slope_map(0.25 * xs - 0.4 * ys + 3, 2.5)
    assert np.ptp(s) <= 1e-9


def test_slope_nodata_propagates():
    z = np.zeros((8, 8))
    z[4, 4] = np.nan
    s = slope_map(z, 1.0)
    assert np.isnan(s[4, 4])
    assert np.isnan(s[4, 5])  # central-difference neighbor
    assert s[0, 0] == 0.0


def test_slope_rejects_bad_spacing():
    with pytest.raises(ValueError):
        slope_map(np.zeros((4, 4)), 0.0)


def test_hillshade_flat_overhead_sun():
    assert np.all(hillshade(np.zeros((6, 6)), 1.0, 100.0, 90.0) == 1.0)


def test_hillshade_flat_grazing_sun():
    assert np.all(hillshade(np.zeros((6, 6)), 1.0, 100.0, 0.0) == 0.0)


def test_hillshade_toward_vs_away():
    ys, xs = np.meshgrid(np.arange(10.0), np.arange(10.0), indexing="ij")
    toward = hillshade(-0.2 * xs, 1.0, 90.0, 30.0)  # slope faces east, sun in the east
    away = hillshade(0.2 * xs, 1.0, 90.0, 30.0)
    assert toward[5, 5] > away[5, 5]


def test_hillshade_bounded():
    rng = np.random.default_rng(5)
    for elevation in (5.0, 45.0, 85.0):
        sh = hillshade(rng.normal(0, 10, (20, 20)), 2.0, rng.uniform(0, 360), elevation)
        assert sh.min() >= 0.0 and sh.max() <= 1.0
