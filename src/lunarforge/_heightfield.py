"""Vectorized first-hit intersection of rays against a bilinear heightfield.

Traversal is a 2D DDA over the ground-plane cell grid (Amanatides & Woo
1987) with a per-cell max-height early-out.  A descending ray starts where it
drops below the global maximum elevation, since no hit can come before that
plane.  Inside a crossed cell f = ray_z - terrain_z is a quadratic in the ray
parameter; a sign change at the segment end or at the quadratic's vertex
brackets the hit, which is the quadratic's downward root (f' < 0), solved in
closed form.

Shadow rays all share the sun direction s, so they also get a sun-ward
horizon ceiling (horizon mapping, Max 1988).  With h the unit horizontal
direction of s and k = tan(elevation), a ray from o meets the terrain only if
o_z < H(o_xy + r h) - k r for some r >= 0.  The ceiling C+ of a cell bounds
sup_r H(x + r h) - k r over every point x of the cell, with terrain outside
the footprint and in nodata cells absent, as the traversal treats it; so a
ray point above its cell's C+ is lit.  C+ is built in one sweep from the
sun-ward edge (Timonen & Westerholm 2010).  One column along the sun's
dominant axis the ray goes a horizontal distance L, rises k L and drifts at
most one cell along the other axis, so from cell (c, r) it crosses cells
(c, r) and (c, r+1) and then lies in (c+1, r) or (c+1, r+1):

    C+(c, r) = max(M, max(C+(c+1, r), C+(c+1, r+1)) - k L)

with M the larger cellmax of its two column-c cells.  Column c+1 before that
point needs no term in M: there the terrain is a blend (1 - u) E0 + u E1 of
a cell's near edge (corners of the two column-c cells) and far edge (at most
C+ of c+1), and the ray has risen k L u.  Each column reads only its
sun-ward neighbour, so one pass gives the fixed point.  shadow_mask marks a ray lit
without tracing when its origin is above C+, and the traversal ends a shadow
ray as a miss once a segment starts above C+.  Both tests are exact: they
skip only rays that cannot meet the terrain, with a relative margin
(1e-9 (1 + |C+|)) that absorbs rounding in the sweep and in the traversal's
own arithmetic.  C+ is a function of (DEM, sun) alone: the caller sweeps it
once with sun_ceiling and passes it to every shadow_mask call under that sun.
The sweep keeps only a row of state per column, so it holds one DEM-sized
array, the C+ it returns, and writes each finished column into it.

The walk keeps its state only for the live rays, cut down one array at a
time on each step that ends one, and reads the cell grids through flat
indices.  All arithmetic is elementwise per ray, so results are bitwise
identical regardless of how rays are batched or tiled.

Each step moves every live ray into its next cell without a branch:
ix += step_x * go_x and t_max_x += t_delta_x * go_x, and the same on y with
the negated mask.  Whether a ray steps in x or y changes from ray to ray, and
numpy's masked in-place add (where=) is many times slower on such an
incoherent mask than a multiply and a plain add; adding 0 leaves the other
axis's values as they were (up to the sign of a zero t_max, which compares
equal).  t_delta = |cell_size / d| is clamped to the
largest finite float, so a ray parallel to an axis (or with a component so
small that the quotient overflows, which the walk treats as parallel) never
forms inf * 0 = NaN; the clamped values exceed any t_stop, as inf did.

A ray that starts below the surface is a hit at its start (the
self-intersection guard for biased shadow rays).  Its start point is blended
only when it can be below: when it lies no higher than its cell's highest
corner plus a rounding margin, or off the grid by a rounding error, where
bilinear extrapolates.  Primary rays start at the zmax plane and are almost
never such candidates.  The margin is needed: a blend of four equal corners
rounds above them in about one draw in ten, by up to 2 ulps.  Each weight
and product rounds, so a blend exceeds its highest corner by less than 8
unit roundoffs of the largest corner magnitude; the margin, 1e-14 times the
largest elevation magnitude, is about 90 of them.
"""

from __future__ import annotations

import numpy as np

from .terrain import DemGrid, bilinear


@np.errstate(invalid="ignore")  # the margin's -inf + inf at the zenith; NaN maps to -inf below
def sun_ceiling(dem: DemGrid, sun_dir) -> np.ndarray:
    """(height-1, width-1) sun-ward ceiling C+ per cell, raised by the rounding
    margin: a point of a cell strictly above it is lit by the sun in the unit
    direction sun_dir (above the horizon).  -inf where no terrain lies
    sun-ward."""
    sx, sy, sz = (float(c) for c in sun_dir)
    # Sweep frame a[c, r]: c along the sun's dominant horizontal axis, r along
    # the other, both flipped so the sun lies toward increasing c and r.  The
    # sweep writes each column c of the ceiling through the same view.
    swap = abs(sy) > abs(sx)
    dom, minor = (sy, sx) if swap else (sx, sy)
    flips = (slice(None, None, -1 if dom < 0 else 1), slice(None, None, -1 if minor < 0 else 1))
    ceil = np.empty_like(dem.cell_max)
    a, out = ((dem.cell_max, ceil) if swap else (dem.cell_max.T, ceil.T))
    a, out = a[flips], out[flips]
    kl = sz * dem.cell_size / abs(dom) if dom else np.inf  # at the zenith no ray leaves its column
    n_r = a.shape[1]
    # Row buffers one cell longer than a column, that cell NaN: no terrain
    # there.  NaN stands for "no terrain" throughout, as fmax skips it.
    edge = np.full(n_r + 1, np.nan)  # cellmax of column c
    prev = np.full(n_r + 1, np.nan)  # C+ of column c+1, without the margin
    block = np.empty(n_r)  # M
    nxt = np.empty(n_r)
    for c in range(len(a) - 1, -1, -1):
        edge[:n_r] = a[c]
        np.fmax(edge[:-1], edge[1:], out=block)
        np.fmax(prev[:-1], prev[1:], out=nxt)
        nxt -= kl
        np.fmax(block, nxt, out=prev[:n_r])
        # ceil gets C+ raised by the margin 1e-9 (1 + |C+|); prev keeps C+ itself.
        np.abs(prev[:n_r], out=nxt)
        nxt += 1.0
        nxt *= 1e-9
        np.add(prev[:n_r], nxt, out=out[c])
    ceil[np.isnan(ceil)] = -np.inf
    ceil.flags.writeable = False  # shared by every row band's thread
    return ceil


def intersect_rays(dem: DemGrid, origins: np.ndarray, directions: np.ndarray,
                   ceiling: np.ndarray | None = None):
    """First heightfield intersection for a batch of rays.

    origins, directions: (N, 3) float64, directions unit length.
    ceiling: sun_ceiling(dem, s) when every direction is s; a ray then ends
    as a miss once a cell segment starts above it.
    Returns (t, hit): ray parameters (NaN where miss) and a boolean hit mask.
    """
    o = np.asarray(origins, dtype=np.float64)
    d = np.asarray(directions, dtype=np.float64)
    rows, t_rows = _walk(dem, o, d, ceiling)
    t_hit = np.full(len(o), np.nan)
    hit = np.zeros(len(o), dtype=bool)
    t_hit[rows] = t_rows
    hit[rows] = True
    return t_hit, hit


def _slab(lo: float, hi: float, oc: np.ndarray, dc: np.ndarray):
    """(ta, tb): where rays oc + dc t enter and leave lo <= x <= hi.  A ray
    parallel to the slab is inside for every t or for none."""
    t0 = (lo - oc) / dc
    t1 = (hi - oc) / dc
    ta, tb = np.fmin(t0, t1), np.fmax(t0, t1)
    del t0, t1
    par = dc == 0
    if par.any():
        inside = (oc[par] >= lo) & (oc[par] <= hi)
        ta[par] = np.where(inside, -np.inf, np.inf)
        tb[par] = np.where(inside, np.inf, -np.inf)
    return ta, tb


@np.errstate(divide="ignore", invalid="ignore")
def _clip(dem: DemGrid, o: np.ndarray, d: np.ndarray):
    """(ids, t_enter, t_stop): the rays whose stretch t_enter..t_stop inside
    the footprint and the elevation range is not empty, and that stretch."""
    zmin, zmax = dem.z_range
    oz, dz = o[:, 2], d[:, 2]

    # Clip to the footprint rectangle in xy (slab method).
    txa, txb = _slab(dem.x_min, dem.x_max, o[:, 0], d[:, 0])
    tya, tyb = _slab(dem.y_min, dem.y_max, o[:, 1], d[:, 1])
    t_exit = np.minimum(txb, tyb)
    del txb, tyb
    t_enter = np.maximum(txa, tya)
    del txa, tya
    np.maximum(t_enter, 0.0, out=t_enter)

    # Vertical clipping: a descending ray cannot hit before it drops below
    # the global maximum and has certainly crossed below the global minimum;
    # an ascending ray above the global maximum never will.
    down = dz < 0
    t_z = (zmax - oz) / dz
    np.maximum(t_enter, t_z, out=t_enter, where=down)
    t_z[~(dz > 0)] = np.inf  # where an ascending ray leaves the range
    t_z[down] = (zmin - oz[down]) / dz[down]  # and a descending one
    del down
    t_stop = np.minimum(t_exit, t_z)
    del t_exit, t_z
    t_stop += 1e-12
    ids = np.flatnonzero(t_enter <= t_stop)
    return ids, t_enter[ids], t_stop[ids]


def _columns(a: np.ndarray, ids: np.ndarray):
    """The x, y and z columns of rows ids of the (N, 3) array a.  A row
    broadcast to every ray (stride 0: one camera's origin, the sun's
    direction) is filled in rather than gathered."""
    if a.strides[0] == 0 and len(a):
        return tuple(np.full(len(ids), a[0, k]) for k in range(3))
    return tuple(a[ids, k] for k in range(3))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _walk(dem: DemGrid, o: np.ndarray, d: np.ndarray, ceiling):
    """DDA over the cells each ray crosses inside its _clip stretch.  Returns
    (rows, t) of the rays that hit, rows indexing o and d."""
    cs, w, h = dem.cell_size, dem.width, dem.height
    e, cellmax = dem.elevations.ravel(), dem.cell_max.ravel()
    if ceiling is not None:
        ceiling = ceiling.ravel()
    ids, t, t_stop = _clip(dem, o, d)
    ox, oy, oz = _columns(o, ids)
    dx, dy, dz = _columns(d, ids)

    # The walk state of the live rays; ray maps them back to rows of ids.
    ray = np.arange(len(ids))
    z = oz + dz * t
    fx = (ox + dx * t - dem.origin_x) / cs
    fy = (oy + dy * t - dem.origin_y) / cs
    ix = np.clip(np.floor(fx).astype(np.int64), 0, w - 2)
    iy = np.clip(np.floor(fy).astype(np.int64), 0, h - 2)

    # Immediate hit when the ray already starts below the surface inside
    # the footprint (self-intersection guard for biased shadow rays).  Only a
    # start no higher than its cell's highest corner plus the blend's rounding
    # margin, or off the grid by a rounding error (where bilinear
    # extrapolates), can be below, so only those candidates are blended.
    margin = 1e-14 * max(abs(v) for v in dem.z_range)
    below = np.zeros(len(ids), dtype=bool)
    cand = np.flatnonzero((z <= cellmax[iy * (w - 1) + ix] + margin)
                          | (fx < 0) | (fx > w - 1) | (fy < 0) | (fy > h - 1))
    below[cand] = z[cand] - bilinear(dem.elevations, fx[cand], fy[cand]) < 0
    del fx, fy, cand
    hit_rows, hit_t = [np.flatnonzero(below)], [t[below]]

    # Steps fit in int8; cell indices stay int64, as a DEM may exceed 2**31 cells.
    step_x, step_y = (np.where(c > 0, np.int8(1), np.int8(-1)) for c in (dx, dy))
    # A ray parallel to an axis, or so nearly that cs / |d| overflows, never
    # crosses a boundary on it.  t_delta is clamped to the largest float, so
    # that its t_delta * 0 in the branch-free advance is 0, not inf * 0 = NaN.
    big = np.finfo(np.float64).max
    t_delta_x, t_delta_y = np.abs(cs / dx), np.abs(cs / dy)
    t_max_x = np.where(t_delta_x <= big, (dem.origin_x + (ix + (step_x > 0)) * cs - ox) / dx, np.inf)
    t_max_y = np.where(t_delta_y <= big, (dem.origin_y + (iy + (step_y > 0)) * cs - oy) / dy, np.inf)
    np.minimum(t_delta_x, big, out=t_delta_x)
    np.minimum(t_delta_y, big, out=t_delta_y)
    # The ray in cell units, (pu + bu t, pv + bv t), for the crossing test.
    pu, pv = (ox - dem.origin_x) / cs, (oy - dem.origin_y) / cs
    bu, bv = dx / cs, dy / cs
    del ox, oy, dx, dy

    end = below
    while True:
        if end.any():  # one array at a time, so old and new state never coexist
            keep = np.flatnonzero(~end)
            del end
            ray = ray[keep]
            oz = oz[keep]
            dz = dz[keep]
            t = t[keep]
            z = z[keep]
            t_stop = t_stop[keep]
            ix = ix[keep]
            iy = iy[keep]
            step_x = step_x[keep]
            step_y = step_y[keep]
            t_delta_x = t_delta_x[keep]
            t_delta_y = t_delta_y[keep]
            t_max_x = t_max_x[keep]
            t_max_y = t_max_y[keep]
            del keep
        if not ray.size:
            break
        t1 = np.minimum(np.minimum(t_max_x, t_max_y), t_stop)
        z1 = oz + dz * t1
        cell = iy * (w - 1) + ix
        end = t1 >= t_stop

        # Per-cell max-height early-out: skip the crossing test when the ray
        # segment stays above everything the cell can reach (or the cell is
        # all nodata).
        consider = np.minimum(z, z1) <= cellmax[cell]
        if ceiling is not None:
            clear = z > ceiling[cell]
            end |= clear
            consider &= ~clear
        del cell

        s = np.flatnonzero(consider)
        del consider
        if s.size:
            r = ray[s]
            found, t_found = _cell_hits(e, w, s, r, ix, iy, pu, pv, bu, bv, oz, dz, t, t1)
            hit_rows.append(r[found])
            hit_t.append(t_found)
            end[s[found]] = True
        del s

        # Advance every ray to its next cell boundary; a ray that leaves the
        # grid ends (a negative index views as a huge unsigned one).
        t, z = t1, z1
        del t1, z1
        go_x = t_max_x <= t_max_y
        ix += step_x * go_x
        t_max_x += t_delta_x * go_x
        np.logical_not(go_x, out=go_x)
        iy += step_y * go_x
        t_max_y += t_delta_y * go_x
        del go_x
        end |= (ix.view(np.uint64) > w - 2) | (iy.view(np.uint64) > h - 2)
    return ids[np.concatenate(hit_rows)], np.concatenate(hit_t)


def _cell_hits(e, w, sel, r, ix, iy, pu, pv, bu, bv, oz, dz, t0, t1):
    """Crossing test of the walk's rays sel, rays r, over their segments t0..t1
    in cells (ix, iy) of a grid w wide with flat elevations e; in cell units
    ray r is (pu + bu t, pv + bv t), at height oz + dz t.  Returns (found,
    t): the positions in sel of the segments that dip below the cell's
    bilinear patch, and where each first does.  Each gathered temporary is
    dropped once it is used."""
    cx, cy = ix[sel], iy[sel]
    k = cy * w + cx
    z00, z10, z01, z11 = e[k], e[1:][k], e[w:][k], e[w + 1:][k]
    del k
    alpha = z10 - z00
    beta = z01 - z00
    gamma = z00 + z11 - z10 - z01
    del z10, z01, z11
    au, av = pu[r] - cx, pv[r] - cy
    del cx, cy
    bu, bv = bu[r], bv[r]
    qa = -gamma * bu * bv
    qb = dz[sel] - alpha * bu - beta * bv - gamma * (au * bv + av * bu)
    del bu, bv
    qc = oz[sel] - z00 - alpha * au - beta * av - gamma * au * av
    del z00, alpha, beta, gamma, au, av
    t0, t1 = t0[sel], t1[sel]

    f1 = (qa * t1 + qb) * t1 + qc
    tv = qb / (-2 * qa)
    fv = (qa * tv + qb) * tv + qc
    end_cross = f1 < 0
    del f1
    found = np.flatnonzero(end_cross | ((tv > t0) & (tv < t1) & (fv < 0)))
    del fv
    if not found.size:
        return found, t0[found]
    hi = np.where(end_cross, t1, tv)[found]
    qa, qb, qc, lo = qa[found], qb[found], qc[found], t0[found]
    # The hit is the downward root (f' = -sqrt(disc)) of
    # f(lo + s) = qa s^2 + b s + c, taken from the cancellation-free form of
    # the quadratic formula; c/q is also the root of a planar cell (qa = 0).
    # It is not the smallest root: for qa < 0 the ray is above the surface
    # between the two roots.
    b = 2 * qa * lo + qb
    c = (qa * lo + qb) * lo + qc
    up = b > 0
    sq = np.sqrt(np.maximum(b * b - 4 * qa * c, 0.0))
    q = -0.5 * (b + np.where(up, sq, -sq))
    root = lo + np.where(up, q / qa, c / q)
    # fmax/fmin map a NaN root (f = f' = 0 at lo) to lo.
    return found, np.fmin(np.fmax(root, lo), hi)


def shadow_mask(dem: DemGrid, points: np.ndarray, sun_dir: np.ndarray, ceiling: np.ndarray) -> np.ndarray:
    """True where one of the (N, 3) points is shadowed: the sun ray, started
    half a cell toward the sun to clear its own facet, re-hits the terrain.

    ceiling is sun_ceiling(dem, sun_dir).  A ray whose origin lies above its
    cell's ceiling is lit without tracing; the rest are traced in one
    intersect_rays call, which may be empty.
    """
    p = np.asarray(points, dtype=np.float64)
    s = np.asarray(sun_dir, dtype=np.float64)
    cs = dem.cell_size
    bias = 0.5 * cs * s
    ox, oy, oz = (p[:, k] + bias[k] for k in range(3))
    ix = np.clip((ox - dem.origin_x) / cs, 0, dem.width - 2).astype(np.int64)
    iy = np.clip((oy - dem.origin_y) / cs, 0, dem.height - 2).astype(np.int64)
    inside = (ox >= dem.x_min) & (ox <= dem.x_max) & (oy >= dem.y_min) & (oy <= dem.y_max)
    traced = ~(inside & (oz > ceiling[iy, ix]))
    del ox, oy, oz, ix, iy, inside
    shadowed = np.zeros(len(p), dtype=bool)
    rest = p[traced] + bias
    _, shadowed[traced] = intersect_rays(dem, rest, np.broadcast_to(s, rest.shape), ceiling)
    return shadowed
