"""Digital elevation model handling: load/save, synthesis, sampling, slope and hillshade.

The world frame is a local tangent plane: x east, y north, z up, meters.
Cell (row i, col j) of a DemGrid is centered at
(origin_x + j * cell_size, origin_y + i * cell_size); row index increases
northward internally.  Nodata cells are stored as NaN.  This module owns
grid addressing, for _heightfield too: _cell, _flat, _corners and
_check_footprint are the one cell index, flat index, corner gather and
footprint check, and bilinear the one bilinear sample.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import formats
from .camera import norms

# Site-specific plausibility bounds for lunar south-pole elevations (meters).
LUNAR_ELEVATION_RANGE = (-4350.0, 1850.0)


class DemFormatError(ValueError):
    """Malformed DEM file: bad header, dimension mismatch, or unmarked non-finite values."""


class OutOfBoundsError(ValueError):
    """Query point lies outside the grid's convex footprint."""


class NodataError(ValueError):
    """Query requires a nodata cell."""


@dataclass(frozen=True, eq=False)
class DemGrid:
    """Regular raster of terrain heights with georeferencing metadata; its
    width and height are those of elevations."""

    cell_size: float
    origin_x: float
    origin_y: float
    elevations: np.ndarray  # (height, width) float64, NaN = nodata

    def __post_init__(self):
        if not math.isfinite(self.cell_size) or self.cell_size <= 0:
            raise ValueError("cell_size must be finite and > 0")
        if not (math.isfinite(self.origin_x) and math.isfinite(self.origin_y)):
            raise ValueError("origin_x and origin_y must be finite")
        elev = np.asarray(self.elevations, dtype=np.float64)
        if elev.ndim != 2 or min(elev.shape) < 2:
            raise ValueError(f"elevations must be a 2-D array of at least 2x2, got shape {elev.shape}")
        if np.isinf(elev).any():
            raise ValueError("elevations must be finite or NaN (nodata)")
        # fmin/fmax skip nodata; an all-nodata grid gives NaN, which no bound flags.
        lo, hi = LUNAR_ELEVATION_RANGE
        if np.fmin.reduce(elev, axis=None) < lo or np.fmax.reduce(elev, axis=None) > hi:
            warnings.warn(
                "elevations outside the lunar range "
                f"[{lo}, {hi}] m; site-specific bound, not fatal",
                stacklevel=3,
            )
        elev.flags.writeable = False
        object.__setattr__(self, "elevations", elev)

    @property
    def width(self) -> int:
        return self.elevations.shape[1]

    @property
    def height(self) -> int:
        return self.elevations.shape[0]

    # Bounds that every heightfield traversal reads.  elevations is read-only,
    # so they are computed once per grid and cannot go stale.
    @cached_property
    def cell_max(self) -> np.ndarray:
        """(height-1, width-1) highest corner of each cell; NaN where all four are nodata."""
        e = self.elevations
        m = np.fmax(e[:-1, :-1], e[:-1, 1:])
        # fmax(fmax(a, b), fmax(c, d)): fmax may keep either zero of a tie
        # between -0.0 and 0.0, so this grouping keeps their bits.
        np.fmax(m, np.fmax(e[1:, :-1], e[1:, 1:]), out=m)
        m.flags.writeable = False
        return m

    @cached_property
    def z_range(self) -> tuple[float, float]:
        """(lowest, highest) elevation, ignoring nodata."""
        return float(np.nanmin(self.elevations)), float(np.nanmax(self.elevations))

    # Footprint of valid bilinear interpolation: the rectangle of cell centers.
    @property
    def x_min(self) -> float:
        return self.origin_x

    @property
    def x_max(self) -> float:
        return self.origin_x + (self.width - 1) * self.cell_size

    @property
    def y_min(self) -> float:
        return self.origin_y

    @property
    def y_max(self) -> float:
        return self.origin_y + (self.height - 1) * self.cell_size

    def mean_height(self, window=None) -> float:
        """Mean of non-nodata elevations, optionally restricted to the cells
        whose centers lie in window = (x_lo, x_hi, y_lo, y_hi)."""
        z = self.elevations
        if window is not None:
            xs = self.origin_x + np.arange(self.width) * self.cell_size
            ys = self.origin_y + np.arange(self.height) * self.cell_size
            cmask = (xs >= window[0]) & (xs <= window[1])
            rmask = (ys >= window[2]) & (ys <= window[3])
            if not cmask.any() or not rmask.any():
                raise OutOfBoundsError("window does not intersect the grid")
            z = z[np.ix_(rmask, cmask)]
        if not np.isfinite(z).any():
            raise NodataError("no valid cells in window")
        return float(np.nanmean(z))


def load_dem(path, format: str) -> DemGrid:
    """Read a DEM from disk.

    format "ascii_grid": 6-line header (ncols, nrows, xllcorner, yllcorner,
    cellsize, nodata_value) followed by row-major floats, north-up row order.
    format "raw_f32": the raster format of formats.read_f32_raster (little-endian
    float32, row-major, south-first rows, NaN nodata) whose JSON sidecar at
    <path>.json carries shape [height, width], cell_size, origin_x and origin_y.
    Every read failure, a legacy width/height sidecar included, raises
    DemFormatError.
    """
    path = Path(path)
    if format == "ascii_grid":
        return _load_ascii_grid(path)
    if format == "raw_f32":
        return _load_raw_f32(path)
    raise ValueError(f"unknown DEM format: {format!r}")


def write_dem(dem: DemGrid, path, format: str) -> None:
    """Write a DEM; inverse of load_dem for both formats."""
    path = Path(path)
    if format == "ascii_grid":
        _write_ascii_grid(dem, path)
    elif format == "raw_f32":
        _write_raw_f32(dem, path)
    else:
        raise ValueError(f"unknown DEM format: {format!r}")


_ASCII_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


def _load_ascii_grid(path: Path) -> DemGrid:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DemFormatError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if len(lines) < 6:
        raise DemFormatError("ascii grid header requires 6 lines")
    header = {}
    for i, key in enumerate(_ASCII_HEADER_KEYS):
        parts = lines[i].split()
        if len(parts) != 2 or parts[0].lower() != key:
            raise DemFormatError(f"header line {i + 1} must be '{key} <value>'")
        try:
            header[key] = float(parts[1])
        except ValueError as exc:
            raise DemFormatError(f"bad header value for {key}: {parts[1]!r}") from exc
    if not all(header[key].is_integer() and header[key] > 0 for key in ("ncols", "nrows")):
        raise DemFormatError("ncols/nrows must be positive integers")
    ncols = int(header["ncols"])
    nrows = int(header["nrows"])
    tokens = " ".join(lines[6:]).split()
    if len(tokens) != ncols * nrows:
        raise DemFormatError(
            f"dimension mismatch: header declares {ncols}x{nrows}="
            f"{ncols * nrows} values, file has {len(tokens)}"
        )
    try:
        values = np.array([float(t) for t in tokens], dtype=np.float64)
    except ValueError as exc:
        raise DemFormatError(f"non-numeric elevation token: {exc}") from exc
    nodata = header["nodata_value"]
    mask = values == nodata
    if not np.isfinite(values[~mask]).all():
        raise DemFormatError("non-finite values present without nodata marking")
    values[mask] = np.nan
    grid = values.reshape(nrows, ncols)[::-1]  # north-up file order -> south-first rows
    return _loaded_grid(
        path,
        cell_size=header["cellsize"],
        origin_x=header["xllcorner"] + 0.5 * header["cellsize"],
        origin_y=header["yllcorner"] + 0.5 * header["cellsize"],
        elevations=grid,
    )


def _write_ascii_grid(dem: DemGrid, path: Path) -> None:
    nodata = -9999.0
    corner = (dem.origin_x - 0.5 * dem.cell_size, dem.origin_y - 0.5 * dem.cell_size)
    header = (dem.width, dem.height, *corner, dem.cell_size, nodata)
    lines = [f"{key} {value:.10g}" for key, value in zip(_ASCII_HEADER_KEYS, header)]
    row_format = " ".join(["%.10g"] * dem.width)
    # Rows back to north-up; the elevations hold no inf, so only NaN is replaced.
    lines += [row_format % tuple(row) for row in np.nan_to_num(dem.elevations[::-1], nan=nodata).tolist()]
    path.write_text("\n".join(lines) + "\n")


_GEOREF_KEYS = ("cell_size", "origin_x", "origin_y")


def _load_raw_f32(path: Path) -> DemGrid:
    try:
        elevations, meta = formats.read_f32_raster(path)
        georef = {key: float(meta[key]) for key in _GEOREF_KEYS}
    except KeyError as exc:
        raise DemFormatError(f"sidecar missing key {exc}") from exc
    except (OSError, TypeError, ValueError) as exc:
        raise DemFormatError(f"cannot read raw_f32 DEM {path}: {exc}") from exc
    return _loaded_grid(path, elevations=elevations, **georef)


def _loaded_grid(path: Path, **fields) -> DemGrid:
    """DemGrid(**fields) of a file read from path; a grid it rejects (a raster
    that is not 2-D, a non-finite cell size or origin) is a DemFormatError."""
    try:
        return DemGrid(**fields)
    except ValueError as exc:
        raise DemFormatError(f"invalid DEM {path}: {exc}") from exc


def _write_raw_f32(dem: DemGrid, path: Path) -> None:
    formats.write_f32_raster(path, dem.elevations, {key: getattr(dem, key) for key in _GEOREF_KEYS})


# ---------------------------------------------------------------------------
# Synthetic terrain
# ---------------------------------------------------------------------------

# Rows of the synthetic grid built at a time: a block's temporaries are a
# tenth of a 640-row DEM, so synthesis holds little more than the grid.
SYNTH_BLOCK_ROWS = 64


def _lattice_axis(n: int, lattice: int):
    """(cell, weight) of n evenly spaced samples across lattice cells: the
    lattice cell of each and the smoothstep of its fraction across it."""
    t = np.linspace(0.0, lattice, n)
    cell = np.minimum(t.astype(int), lattice - 1)
    f = t - cell
    return cell, f * f * (3 - 2 * f)


def _value_noise(rng, width: int, height: int, lattice: int):
    """Smoothstep-interpolated value noise in [-1, 1] on a coarse lattice.

    Draws the lattice's nodes from rng and returns noise(rows), the noise at
    a slice of rows of the (height, width) grid; every element is the same
    whichever rows are asked for.
    """
    nodes = rng.uniform(-1.0, 1.0, size=(lattice + 1, lattice + 1))
    (ui, uf), (vi, vf) = _lattice_axis(width, lattice), _lattice_axis(height, lattice)
    cu = 1 - uf

    def noise(rows: slice) -> np.ndarray:
        near, wv = vi[rows], vf[rows]
        first = near[0]  # vi never decreases
        # Blend along u once per lattice row these rows read, then pick and blend rows along v.
        lattice_rows = nodes[first:near[-1] + 2]
        blend = lattice_rows[:, ui] * cu + lattice_rows[:, ui + 1] * uf
        near = near - first
        out = blend[near]
        out *= 1 - wv[:, None]
        far = blend[near + 1]
        far *= wv[:, None]
        out += far
        return out

    return noise


def add_crater(
    z: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    cx: float,
    cy: float,
    radius: float,
    depth: float,
    rim_height: float,
    rim_sigma: float,
) -> None:
    """Superpose one parabolic-bowl crater with a Gaussian rim annulus, in place,
    on z at the ascending cell coordinates xs (columns) and ys (rows).

    The result is bitwise that of the crater over the whole grid, which is
    computed only where it can change z:
    - Only the rows and columns within reach = radius + 30 rim_sigma of the
      centre.  Beyond, there is no bowl and the rim term, rim_height *
      exp(-((r - radius) / rim_sigma)^2), has an exponent below -900, so its
      exp underflows to exactly 0.0.  Adding +0.0 changes no z but -0.0,
      which z must not hold there; a z that starts at +0.0 and only gains
      sums, as synth_crater_dem's, never does.
    - Within them, the rim term is built in r's own buffer, one operation at
      a time, except where its exponent is below -708 and |z| >= 1e-280
      max(1, |rim_height|).  There the term is below |rim_height| e^-708,
      under half an ulp of z, so z + term is z: such a term is not formed,
      and neither are the subnormals of its exp.
    """
    reach = radius + 30 * rim_sigma
    top, bottom = np.searchsorted(ys, (cy - reach, cy + reach))
    left, right = np.searchsorted(xs, (cx - reach, cx + reach))
    z = z[top:bottom, left:right]
    r = np.hypot(xs[left:right][None, :] - cx, ys[top:bottom, None] - cy)
    inside = r < radius
    z[inside] -= depth * (1.0 - (r[inside] / radius) ** 2)
    np.subtract(r, radius, out=r)
    np.divide(r, rim_sigma, out=r)
    np.square(r, out=r)
    np.negative(r, out=r)
    felt = r >= -708
    felt |= np.abs(z) < 1e-280 * max(1.0, abs(rim_height))
    np.exp(r, out=r, where=felt)
    np.multiply(r, rim_height, out=r, where=felt)
    np.add(z, r, out=z, where=felt)


def synth_crater_dem(
    seed: int,
    width: int,
    height: int,
    cell_size: float,
    crater_count: int,
    fractal_octaves: int,
) -> DemGrid:
    """Deterministic synthetic DEM: cratered terrain over 1/f value noise.

    Bitwise reproducible for fixed arguments; contains no nodata.
    """
    if width < 16 or height < 16:
        raise ValueError("synthetic DEM must be at least 16x16")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), 0x1F2E3D)))
    extent = min(width, height) * cell_size
    # Every draw first, in the order of the whole-grid synthesis: each
    # octave's lattice, then each crater.  Amplitudes scale with the tile but
    # saturate at lunar-plausible relief.
    octaves, amp = [], min(0.01 * extent, 400.0)
    for octave in range(fractal_octaves):
        octaves.append((_value_noise(rng, width, height, min(4 * 2**octave, max(width, height))), amp))
        amp *= 0.5
    craters = []
    for _ in range(crater_count):
        cx = rng.uniform(0.1, 0.9) * (width - 1) * cell_size
        cy = rng.uniform(0.1, 0.9) * (height - 1) * cell_size
        radius = rng.uniform(0.06, 0.16) * extent
        depth = min(0.25 * radius, 1200.0) * rng.uniform(0.8, 1.2)
        rim_height = min(0.06 * radius, 280.0) * rng.uniform(0.8, 1.2)
        craters.append((cx, cy, radius, depth, rim_height, 0.2 * radius))
    # Then z, one block of rows at a time: each element gets every octave's
    # scaled noise added to 0, then every crater, as over the whole grid.
    xs = np.arange(width) * cell_size
    ys = np.arange(height) * cell_size
    z = np.zeros((height, width), dtype=np.float64)
    for start in range(0, height, SYNTH_BLOCK_ROWS):
        rows = slice(start, start + SYNTH_BLOCK_ROWS)
        block = z[rows]
        for noise, amp in octaves:
            layer = noise(rows)
            layer *= amp
            block += layer
            del layer
        for crater in craters:
            add_crater(block, xs, ys[rows], *crater)
    return DemGrid(
        cell_size=cell_size,
        origin_x=0.0,
        origin_y=0.0,
        elevations=z,
    )


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _cell(f, n: int):
    """int32 index of the cell holding fractional grid coordinate f, along an
    axis of n nodes, clamped into the grid.  The clamp is taken in float,
    before the cast, so every f gives a valid index without a warning: cell 0
    for NaN, whose fraction f - c stays NaN."""
    c = np.asarray(np.floor(f))  # 0-d for a scalar f, so the clamp works in place
    np.fmin(np.fmax(c, 0, out=c), n - 2, out=c)  # fmax takes NaN to 0
    return c.astype(np.int32)


def _flat(row, col, w: int):
    """int64 flat index row * w + col of a grid w wide: int32 cell indices
    fit a row, a DEM's cell count may exceed 2**31."""
    k = np.multiply(row, w, dtype=np.int64)
    k += col
    return k


def _corners(flat: np.ndarray, k, w: int):
    """(z00, z10, z01, z11): the corners of the cell whose low corner is
    flat[k], on a grid of row length w, the next column first."""
    return flat[k], flat[1:][k], flat[w:][k], flat[w + 1:][k]


def _check_footprint(lo, hi, n: int) -> None:
    """OutOfBoundsError unless every fractional grid coordinate lo >= 0 and
    every hi <= n - 1, along an axis of n nodes, to 1e-9 grid units."""
    eps = 1e-9
    # Written as "inside" so that a NaN coordinate fails every comparison.
    if not np.all((lo >= -eps) & (hi <= n - 1 + eps)):
        raise OutOfBoundsError("query outside the grid footprint")


def bilinear(grid: np.ndarray, fx, fy):
    """Bilinear sample of grid[fy, fx] at fractional (column, row) indices.

    The cell is clamped into the grid, so queries past the last row or column
    extrapolate the border cell; a NaN corner makes the result NaN.  The
    query's coordinates and cells are dropped before the blend, which
    gathers one corner at a time.
    """
    h, w = grid.shape
    j, i = _cell(fx, w), _cell(fy, h)
    k, u, v = _flat(i, j, w), fx - j, fy - i
    del fx, fy, j, i
    flat, cu, cv = grid.ravel(), 1 - u, 1 - v
    return flat[k] * cu * cv + flat[1:][k] * u * cv + flat[w:][k] * cu * v + flat[w + 1:][k] * u * v


def sample_height(dem: DemGrid, x, y):
    """Bilinear terrain height at world (x, y); accepts scalars or arrays."""
    fx = (np.asarray(x, dtype=np.float64) - dem.origin_x) / dem.cell_size
    fy = (np.asarray(y, dtype=np.float64) - dem.origin_y) / dem.cell_size
    _check_footprint(fx, fx, dem.width)
    _check_footprint(fy, fy, dem.height)
    out = bilinear(dem.elevations, fx, fy)
    if not np.isfinite(out).all():
        raise NodataError("bilinear neighborhood contains nodata")
    return float(out) if np.isscalar(x) and np.isscalar(y) else out


def _patch_gradient(flat: np.ndarray, w: int, j, i, fx, fy, spacing: float):
    """(dz/dx, dz/dy) of the bilinear patch of cell (j, i) at fractional
    grid coordinates (fx, fy); NaN where a corner of the cell is nodata."""
    z00, z10, z01, z11 = _corners(flat, _flat(i, j, w), w)
    u, v = fx - j, fy - i
    dzdx = ((z10 - z00) * (1 - v) + (z11 - z01) * v) / spacing
    dzdy = ((z01 - z00) * (1 - u) + (z11 - z10) * u) / spacing
    return dzdx, dzdy


def surface_normal(dem: DemGrid, x, y):
    """Unit upward normal at world (x, y); accepts scalars or arrays.

    The gradient is the central difference of sample_height, step =
    cell_size, along each axis.  Where one of an axis's two samples falls on
    nodata, that axis's gradient is instead the slope of the bilinear patch
    of the cell holding (x, y).  A point on the edge of a nodata cell, such
    as a ray hit on the wall of a hole, may round into that cell, so the
    nearer neighbouring cells are tried next; NodataError if none of them
    is complete.  OutOfBoundsError, before any cell is looked up, if a
    sample lies outside the footprint.
    """
    s = dem.cell_size
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    e, w, h = np.ravel(dem.elevations), dem.width, dem.height

    def grid(c, origin):  # a world coordinate in fractional grid indices
        return (c - origin) / s

    _check_footprint(grid(x - s, dem.origin_x), grid(x + s, dem.origin_x), w)
    _check_footprint(grid(y - s, dem.origin_y), grid(y + s, dem.origin_y), h)
    fx, fy = grid(x, dem.origin_x), grid(y, dem.origin_y)
    # Each axis's two samples are sample_height's one cell either side of
    # (x, y); their grid coordinates are formed where they are used, so only
    # one is held at a time.
    high = bilinear(dem.elevations, grid(x + s, dem.origin_x), fy)
    dzdx = (high - bilinear(dem.elevations, grid(x - s, dem.origin_x), fy)) / (2 * s)
    high = bilinear(dem.elevations, fx, grid(y + s, dem.origin_y))
    dzdy = (high - bilinear(dem.elevations, fx, grid(y - s, dem.origin_y))) / (2 * s)
    del high
    nodata_x, nodata_y = np.isnan(dzdx), np.isnan(dzdy)
    if nodata_x.any() or nodata_y.any():
        j, i = _cell(fx, w), _cell(fy, h)
        gx = gy = np.full(np.shape(fx), np.nan)
        dj, di = np.where(fx - j < 0.5, -1, 1), np.where(fy - i < 0.5, -1, 1)
        for jj, ii in ((j, i), (j + dj, i), (j, i + di), (j + dj, i + di)):
            px, py = _patch_gradient(e, w, _cell(jj, w), _cell(ii, h), fx, fy, s)
            gx, gy = np.where(np.isnan(gx), px, gx), np.where(np.isnan(gy), py, gy)
        dzdx = np.where(nodata_x, gx, dzdx)
        dzdy = np.where(nodata_y, gy, dzdy)
        if np.isnan(dzdx).any() or np.isnan(dzdy).any():
            raise NodataError("bilinear neighborhood contains nodata")
    del fx, fy
    n = np.empty(np.shape(dzdx) + (3,))
    np.negative(dzdx, out=n[..., 0])
    np.negative(dzdy, out=n[..., 1])
    n[..., 2] = 1.0
    del dzdx, dzdy
    n /= norms(n)[..., None]
    return n


# ---------------------------------------------------------------------------
# Slope and hillshade
# ---------------------------------------------------------------------------


def _gradients(elevation: np.ndarray, spacing: float):
    """d/dx and d/dy: central differences interior, one-sided at borders."""
    z = np.asarray(elevation, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 2 or z.shape[1] < 2:
        raise ValueError("elevation raster must be at least 2x2")
    if spacing <= 0:
        raise ValueError("spacing must be > 0")
    dzdy, dzdx = np.gradient(z, spacing)
    return dzdx, dzdy


def slope_map(elevation: np.ndarray, spacing: float) -> np.ndarray:
    """Slope angle arctan |grad z| per cell, degrees in [0, 90); nodata propagates."""
    dzdx, dzdy = _gradients(elevation, spacing)
    slopes = np.degrees(np.arctan(np.hypot(dzdx, dzdy)))
    # Central differences skip the center value: mask nodata cells explicitly.
    return np.where(np.isfinite(np.asarray(elevation, dtype=np.float64)), slopes, np.nan)


def hillshade(
    elevation: np.ndarray,
    spacing: float,
    sun_azimuth: float,
    sun_elevation: float,
) -> np.ndarray:
    """Lambertian shade max(0, n.s) in [0, 1] from azimuth/elevation sun angles."""
    dzdx, dzdy = _gradients(elevation, spacing)
    norm = np.sqrt(dzdx**2 + dzdy**2 + 1.0)
    az = math.radians(sun_azimuth)
    el = math.radians(sun_elevation)
    sx = math.cos(el) * math.sin(az)
    sy = math.cos(el) * math.cos(az)
    sz = math.sin(el)
    shade = (-dzdx * sx - dzdy * sy + sz) / norm
    return np.clip(shade, 0.0, 1.0)
