"""Vectorized first-hit intersection of rays against a bilinear heightfield.

Traversal is a 2D DDA over the ground-plane cell grid (Amanatides & Woo
1987) with a per-cell max-height early-out.  A descending ray starts where it
drops below the global maximum elevation, since no hit can come before that
plane.  Inside a crossed cell f = ray_z - terrain_z is a quadratic in the ray
parameter; a sign change at the segment end or at the quadratic's vertex
brackets the hit, which is the quadratic's downward root (f' < 0), solved in
closed form.

All arithmetic is elementwise per ray, so results are bitwise identical
regardless of how rays are batched or tiled.
"""

from __future__ import annotations

import numpy as np

from .terrain import DemGrid, bilinear


def _cell_max(dem: DemGrid) -> np.ndarray:
    e = dem.elevations
    return np.fmax(np.fmax(e[:-1, :-1], e[:-1, 1:]), np.fmax(e[1:, :-1], e[1:, 1:]))


def intersect_rays(dem: DemGrid, origins: np.ndarray, directions: np.ndarray):
    """First heightfield intersection for a batch of rays.

    origins, directions: (N, 3) float64, directions unit length.
    Returns (t, hit): ray parameters (NaN where miss) and a boolean hit mask.
    """
    o = np.asarray(origins, dtype=np.float64)
    d = np.asarray(directions, dtype=np.float64)
    if o.ndim == 1:
        o = o[None, :]
        d = d[None, :]
    n = o.shape[0]
    cs = dem.cell_size
    e = dem.elevations
    zmin = float(np.nanmin(e))
    zmax = float(np.nanmax(e))
    cellmax = _cell_max(dem)

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
        seg_zmin = np.minimum(oz[a] + dz[a] * t0, oz[a] + dz[a] * t1)
        cmax = cellmax[cy, cx]
        with np.errstate(invalid="ignore"):
            consider = ~(seg_zmin > cmax)

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
    """True where a point is shadowed: the sun ray, started half a cell toward
    the sun to clear its own facet, re-hits the terrain."""
    p = np.asarray(points, dtype=np.float64)
    if p.ndim == 1:
        p = p[None, :]
    s = np.asarray(sun_dir, dtype=np.float64)
    origins = p + 0.5 * dem.cell_size * s
    dirs = np.broadcast_to(s, origins.shape)
    _, hit = intersect_rays(dem, origins, dirs)
    return hit
