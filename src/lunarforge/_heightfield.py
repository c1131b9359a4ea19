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
own arithmetic.  C+ is a function of (DEM, sun) alone, so shadow_mask derives
it itself and keeps the last one in a one-slot memo; callers never pass it.

All arithmetic is elementwise per ray, so results are bitwise identical
regardless of how rays are batched or tiled.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

from .terrain import DemGrid, bilinear


def sun_ceiling(dem: DemGrid, sun_dir) -> np.ndarray:
    """(height-1, width-1) sun-ward ceiling C+ per cell, raised by the rounding
    margin: a point of a cell strictly above it is lit by the sun in the unit
    direction sun_dir (above the horizon).  -inf where no terrain lies
    sun-ward."""
    sx, sy, sz = (float(c) for c in sun_dir)
    cm = np.where(np.isnan(dem.cell_max), -np.inf, dem.cell_max)
    # Sweep frame a[c, r]: c along the sun's dominant horizontal axis, r along
    # the other, both flipped so the sun lies toward increasing c and r.
    swap = abs(sy) > abs(sx)
    dom, minor = (sy, sx) if swap else (sx, sy)
    flips = (slice(None, None, -1 if dom < 0 else 1), slice(None, None, -1 if minor < 0 else 1))
    a = (cm if swap else cm.T)[flips]
    kl = sz * dem.cell_size / abs(dom) if dom else np.inf  # at the zenith no ray leaves its column
    n_c, n_r = a.shape
    pad = np.full((n_c, n_r + 1), -np.inf)
    pad[:, :n_r] = a
    block = np.maximum(pad[:, :-1], pad[:, 1:])  # M

    ceil = np.full((n_c, n_r + 1), -np.inf)
    ceil[-1, :n_r] = block[-1]
    nxt = np.empty(n_r)
    for c in range(n_c - 2, -1, -1):
        np.maximum(ceil[c + 1, :-1], ceil[c + 1, 1:], out=nxt)
        nxt -= kl
        np.maximum(block[c], nxt, out=ceil[c, :n_r])

    ceil = ceil[:, :n_r][flips]
    ceil = np.ascontiguousarray(ceil if swap else ceil.T)
    finite = np.isfinite(ceil)
    ceil[finite] += 1e-9 * (1.0 + np.abs(ceil[finite]))
    ceil.flags.writeable = False  # shared by every row band's thread
    return ceil


_memo_lock = threading.Lock()  # row bands shade concurrently
_memo = None  # (weakref to the grid, sun direction, its ceiling)


def prepare_shadows(dem: DemGrid, sun_dir) -> np.ndarray:
    """sun_ceiling(dem, sun_dir) from a one-slot memo of the last (grid, sun).
    The grid is held by weak reference, so a new grid at a freed one's address
    never matches, and the old ceiling is dropped before the next is built."""
    global _memo
    key = tuple(float(c) for c in sun_dir)
    with _memo_lock:
        if _memo is None or _memo[0]() is not dem or _memo[1] != key:
            _memo = None  # free the old ceiling before the sweep
            _memo = (weakref.ref(dem), key, sun_ceiling(dem, key))
        return _memo[2]


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
    n = o.shape[0]
    cs = dem.cell_size
    e = dem.elevations
    zmin, zmax = dem.z_range
    cellmax = dem.cell_max

    ox, oy, oz = o[:, 0], o[:, 1], o[:, 2]
    dx, dy, dz = d[:, 0], d[:, 1], d[:, 2]

    # Clip to the footprint rectangle in xy (slab method).
    with np.errstate(divide="ignore", invalid="ignore"):
        tx0 = (dem.x_min - ox) / dx
        tx1 = (dem.x_max - ox) / dx
        ty0 = (dem.y_min - oy) / dy
        ty1 = (dem.y_max - oy) / dy
    txa, txb = np.fmin(tx0, tx1), np.fmax(tx0, tx1)
    tya, tyb = np.fmin(ty0, ty1), np.fmax(ty0, ty1)
    # Rays parallel to a slab: inside -> unbounded, outside -> empty.
    x_in = (ox >= dem.x_min) & (ox <= dem.x_max)
    y_in = (oy >= dem.y_min) & (oy <= dem.y_max)
    txa = np.where(dx == 0, np.where(x_in, -np.inf, np.inf), txa)
    txb = np.where(dx == 0, np.where(x_in, np.inf, -np.inf), txb)
    tya = np.where(dy == 0, np.where(y_in, -np.inf, np.inf), tya)
    tyb = np.where(dy == 0, np.where(y_in, np.inf, -np.inf), tyb)
    t_exit = np.minimum(txb, tyb)

    # Vertical clipping: a descending ray cannot hit before it drops below
    # the global maximum and has certainly crossed below the global minimum;
    # an ascending ray above the global maximum never will.
    with np.errstate(divide="ignore", invalid="ignore"):
        t_zmax = (zmax - oz) / dz
        t_zmin = np.where(dz < 0, (zmin - oz) / dz, np.inf)
    t_enter = np.maximum(np.maximum(txa, tya), 0.0)
    t_enter = np.where(dz < 0, np.maximum(t_enter, t_zmax), t_enter)
    t_stop = np.minimum(t_exit, np.minimum(t_zmin, np.where(dz > 0, t_zmax, np.inf))) + 1e-12
    alive = t_enter <= t_stop

    t_hit = np.full(n, np.nan)
    hit = np.zeros(n, dtype=bool)

    # Immediate hit when the ray already starts at/below the surface inside
    # the footprint (self-intersection guard for biased shadow rays).
    pz = oz + dz * t_enter
    fx = (ox + dx * t_enter - dem.origin_x) / cs
    fy = (oy + dy * t_enter - dem.origin_y) / cs
    with np.errstate(invalid="ignore"):
        below = alive & ((pz - bilinear(e, fx, fy)) < 0)
    t_hit[below] = t_enter[below]
    hit[below] = True
    alive &= ~below

    # DDA state.
    ix = np.clip(np.floor(fx).astype(np.int64), 0, dem.width - 2)
    iy = np.clip(np.floor(fy).astype(np.int64), 0, dem.height - 2)
    step_x = np.where(dx > 0, 1, -1).astype(np.int64)
    step_y = np.where(dy > 0, 1, -1).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_delta_x = np.abs(cs / dx)
        t_delta_y = np.abs(cs / dy)
        next_x = dem.origin_x + (ix + (step_x > 0)) * cs
        next_y = dem.origin_y + (iy + (step_y > 0)) * cs
        t_max_x = np.where(dx != 0, (next_x - ox) / dx, np.inf)
        t_max_y = np.where(dy != 0, (next_y - oy) / dy, np.inf)
    t_cur = t_enter.copy()

    while alive.any():
        a = np.flatnonzero(alive)
        t0 = t_cur[a]
        t1 = np.minimum(np.minimum(t_max_x[a], t_max_y[a]), t_stop[a])
        cx, cy = ix[a], iy[a]

        # Per-cell max-height early-out: skip the crossing test when the ray
        # segment stays above everything the cell can reach.
        z0 = oz[a] + dz[a] * t0
        seg_zmin = np.minimum(z0, oz[a] + dz[a] * t1)
        cmax = cellmax[cy, cx]
        with np.errstate(invalid="ignore"):
            consider = ~(seg_zmin > cmax)
        if ceiling is not None:
            clear = z0 > ceiling[cy, cx]
            alive[a[clear]] = False
            consider &= ~clear

        if consider.any():
            s = a[consider]
            ts0, ts1 = t0[consider], t1[consider]
            z00 = e[iy[s], ix[s]]
            z10 = e[iy[s], ix[s] + 1]
            z01 = e[iy[s] + 1, ix[s]]
            z11 = e[iy[s] + 1, ix[s] + 1]
            alpha = z10 - z00
            beta = z01 - z00
            gamma = z00 + z11 - z10 - z01
            au = (ox[s] - dem.origin_x) / cs - ix[s]
            av = (oy[s] - dem.origin_y) / cs - iy[s]
            bu = dx[s] / cs
            bv = dy[s] / cs
            qa = -gamma * bu * bv
            qb = dz[s] - alpha * bu - beta * bv - gamma * (au * bv + av * bu)
            qc = oz[s] - z00 - alpha * au - beta * av - gamma * au * av

            f1 = (qa * ts1 + qb) * ts1 + qc
            with np.errstate(invalid="ignore", divide="ignore"):
                tv = np.where(qa != 0, -qb / (2 * qa), np.nan)
                fv = (qa * tv + qb) * tv + qc
                vertex_dip = (tv > ts0) & (tv < ts1) & (fv < 0)
                end_cross = f1 < 0
            found = end_cross | vertex_dip
            if found.any():
                g = s[found]
                qa, qb, qc = qa[found], qb[found], qc[found]
                lo = ts0[found]
                hi = np.where(end_cross[found], ts1[found], tv[found])
                # The hit is the downward root (f' = -sqrt(disc)) of
                # f(lo + s) = qa s^2 + b s + c, taken from the
                # cancellation-free form of the quadratic formula; c/q is
                # also the root of a planar cell (qa = 0).  It is not the
                # smallest root: for qa < 0 the ray is above the surface
                # between the two roots.
                b = 2 * qa * lo + qb
                c = (qa * lo + qb) * lo + qc
                up = b > 0
                sq = np.sqrt(np.maximum(b * b - 4 * qa * c, 0.0))
                q = -0.5 * (b + np.where(up, sq, -sq))
                with np.errstate(invalid="ignore", divide="ignore"):
                    root = lo + np.where(up, q / qa, c / q)
                # fmax/fmin map a NaN root (f = f' = 0 at lo) to lo.
                t_hit[g] = np.fmin(np.fmax(root, lo), hi)
                hit[g] = True
                alive[g] = False

        # Advance the survivors to the next cell boundary.
        a = np.flatnonzero(alive)
        if a.size == 0:
            break
        t1 = np.minimum(np.minimum(t_max_x[a], t_max_y[a]), t_stop[a])
        done = t1 >= t_stop[a]
        alive[a[done]] = False
        a = a[~done]
        if a.size == 0:
            break
        t_cur[a] = t1[~done]
        go_x = t_max_x[a] <= t_max_y[a]
        gx = a[go_x]
        gy = a[~go_x]
        ix[gx] += step_x[gx]
        t_max_x[gx] += t_delta_x[gx]
        iy[gy] += step_y[gy]
        t_max_y[gy] += t_delta_y[gy]
        out = (ix[a] < 0) | (ix[a] > dem.width - 2) | (iy[a] < 0) | (iy[a] > dem.height - 2)
        alive[a[out]] = False

    return t_hit, hit


def shadow_mask(dem: DemGrid, points: np.ndarray, sun_dir: np.ndarray) -> np.ndarray:
    """True where one of the (N, 3) points is shadowed: the sun ray, started
    half a cell toward the sun to clear its own facet, re-hits the terrain.

    The sun's ceiling comes from prepare_shadows, once per (DEM, sun).  A ray
    whose origin lies above its cell's ceiling is lit without tracing; the
    rest are traced in one intersect_rays call, which may be empty.
    """
    p = np.asarray(points, dtype=np.float64)
    s = np.asarray(sun_dir, dtype=np.float64)
    ceiling = prepare_shadows(dem, s)
    cs = dem.cell_size
    origins = p + 0.5 * cs * s
    ox, oy, oz = origins[:, 0], origins[:, 1], origins[:, 2]
    ix = np.clip((ox - dem.origin_x) / cs, 0, dem.width - 2).astype(np.int64)
    iy = np.clip((oy - dem.origin_y) / cs, 0, dem.height - 2).astype(np.int64)
    inside = (ox >= dem.x_min) & (ox <= dem.x_max) & (oy >= dem.y_min) & (oy <= dem.y_max)
    traced = ~(inside & (oz > ceiling[iy, ix]))
    shadowed = np.zeros(len(p), dtype=bool)
    rest = origins[traced]
    _, shadowed[traced] = intersect_rays(dem, rest, np.broadcast_to(s, rest.shape), ceiling)
    return shadowed
