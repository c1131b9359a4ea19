"""Independent reference implementations used only by tests.

Nothing here shares traversal or search code with the package: the ray
oracle visits every cell a ray crosses, nearest neighbors are O(n^2), rotation
angles go through quaternions, and Pearson is a direct scalar transcription.
"""

from __future__ import annotations

import math

import numpy as np


def bilinear(dem, x, y):
    """Standalone bilinear sample of a DemGrid (duplicated on purpose)."""
    fx = (np.asarray(x, dtype=np.float64) - dem.origin_x) / dem.cell_size
    fy = (np.asarray(y, dtype=np.float64) - dem.origin_y) / dem.cell_size
    j = np.clip(np.floor(fx).astype(int), 0, dem.width - 2)
    i = np.clip(np.floor(fy).astype(int), 0, dem.height - 2)
    u = fx - j
    v = fy - i
    e = dem.elevations
    return (
        e[i, j] * (1 - u) * (1 - v)
        + e[i, j + 1] * u * (1 - v)
        + e[i + 1, j] * (1 - u) * v
        + e[i + 1, j + 1] * u * v
    )


def brute_force_hits(dem, origins, directions):
    """Exhaustive per-cell first-hit oracle; origins must lie inside the
    footprint.  Returns (t, hit) like the production intersector.

    Each ray runs from its origin until it leaves the footprint, drops below
    the lowest terrain or climbs above the highest.  That stretch is cut at
    every grid line it crosses, so each piece lies in one cell, where
    g = ray_z - terrain_z is an exact quadratic; it is fitted through samples
    of bilinear at 1/4, 1/2 and 3/4 of the piece.  The first piece on which
    g goes negative holds the hit, found by bisection on the fitted quadratic
    between the piece's start (g >= 0) and its lowest point.  A ray whose
    origin is below the surface hits at t = 0; nodata cells give NaN samples
    and never hit.
    """
    o = np.asarray(origins, dtype=np.float64)
    d = np.asarray(directions, dtype=np.float64)
    t_hit = np.full(len(o), np.nan)
    hit = np.zeros(len(o), dtype=bool)
    lines = dem.width + dem.height
    chunk = max(1, 2**17 // lines)
    for a in range(0, len(o), chunk):
        t_hit[a:a + chunk], hit[a:a + chunk] = _first_hits(dem, o[a:a + chunk], d[a:a + chunk])
    return t_hit, hit


def _first_hits(dem, o, d):
    """brute_force_hits for one chunk of rays."""
    cs = dem.cell_size
    zmin = float(np.nanmin(dem.elevations))
    zmax = float(np.nanmax(dem.elevations))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Where the stretch ends: footprint exit and leaving the elevation range.
        t_end = np.full(len(o), np.inf)
        for k, lo, hi in ((0, dem.x_min, dem.x_max), (1, dem.y_min, dem.y_max), (2, zmin, zmax)):
            t_end = np.fmin(t_end, np.where(d[:, k] > 0, (hi - o[:, k]) / d[:, k],
                                            np.where(d[:, k] < 0, (lo - o[:, k]) / d[:, k], np.inf)))
        t_end = np.maximum(t_end, 0.0)
        # Every grid-line crossing inside (0, t_end), sorted: the pieces.
        xs = dem.origin_x + cs * np.arange(dem.width)
        ys = dem.origin_y + cs * np.arange(dem.height)
        cuts = np.concatenate([(xs[None, :] - o[:, :1]) / d[:, :1], (ys[None, :] - o[:, 1:2]) / d[:, 1:2]], axis=1)
        cuts = np.where((cuts > 0) & (cuts < t_end[:, None]), cuts, t_end[:, None])
        bounds = np.sort(np.concatenate([np.zeros((len(o), 1)), cuts, t_end[:, None]], axis=1), axis=1)
    t0, t1 = bounds[:, :-1], bounds[:, 1:]

    def g(t):  # t: (rays, pieces)
        p = o[:, None, :] + t[..., None] * d[:, None, :]
        return p[..., 2] - bilinear(dem, p[..., 0], p[..., 1])

    # g = c2 x^2 + c1 x + c0 in x = (t - t0) / (t1 - t0) - 1/2, in [-1/2, 1/2].
    span = t1 - t0
    g1, g2, g3 = g(t0 + 0.25 * span), g(t0 + 0.5 * span), g(t0 + 0.75 * span)
    c2 = 8.0 * (g1 - 2.0 * g2 + g3)
    c1 = 2.0 * (g3 - g1)
    c0 = g2

    def q(x):
        return (c2 * x + c1) * x + c0

    # The lowest point of the piece: the vertex of a convex g, else an end.
    with np.errstate(divide="ignore", invalid="ignore"):
        lowest = np.where(c2 > 0, np.clip(-c1 / (2.0 * c2), -0.5, 0.5), 0.5)
    with np.errstate(invalid="ignore"):
        dips = (span > 0) & ((q(-0.5) < 0) | (q(lowest) < 0))
    starts_below = g(np.zeros((len(o), 1)))[:, 0] < 0

    hit = starts_below | dips.any(axis=1)
    t_hit = np.where(starts_below, 0.0, np.nan)
    rows = np.flatnonzero(~starts_below & hit)
    piece = np.argmax(dips[rows], axis=1)
    c2, c1, c0 = c2[rows, piece], c1[rows, piece], c0[rows, piece]
    # Bisect for the first x with g < 0 between the start (g >= 0 unless the
    # piece starts below) and the lowest point (g < 0).
    lo, hi = np.full(len(rows), -0.5), lowest[rows, piece]
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        above = (c2 * mid + c1) * mid + c0 >= 0
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    x = np.where((c2 * -0.5 + c1) * -0.5 + c0 < 0, -0.5, 0.5 * (lo + hi))
    t_hit[rows] = t0[rows, piece] + (x + 0.5) * span[rows, piece]
    return t_hit, hit


def brute_force_shadowed(dem, point, sun_dir, bias):
    """Oracle shadow test: the biased sun ray through brute_force_hits."""
    origin = np.asarray(point, dtype=np.float64) + bias * np.asarray(sun_dir)
    _, hit = brute_force_hits(dem, origin[None, :], np.asarray(sun_dir)[None, :])
    return bool(hit[0])


def brute_force_nn_means(pred, gt):
    """O(n^2) accuracy/completeness/chamfer."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    d2 = np.sum((pred[:, None, :] - gt[None, :, :]) ** 2, axis=2)
    acc = float(np.mean(np.sqrt(d2.min(axis=1))))
    compl = float(np.mean(np.sqrt(d2.min(axis=0))))
    return acc, compl, (acc + compl) / 2


def quaternion_angle_deg(r1, r2):
    """Rotation angle between two matrices via quaternions."""

    def to_quat(m):
        tr = np.trace(m)
        if tr > 0:
            s = math.sqrt(tr + 1.0) * 2
            return np.array([
                0.25 * s,
                (m[2, 1] - m[1, 2]) / s,
                (m[0, 2] - m[2, 0]) / s,
                (m[1, 0] - m[0, 1]) / s,
            ])
        i = int(np.argmax(np.diag(m)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = math.sqrt(max(1.0 + m[i, i] - m[j, j] - m[k, k], 0.0)) * 2
        q = np.zeros(4)
        q[0] = (m[k, j] - m[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (m[j, i] + m[i, j]) / s
        q[1 + k] = (m[k, i] + m[i, k]) / s
        return q

    q1 = to_quat(np.asarray(r1, dtype=np.float64))
    q2 = to_quat(np.asarray(r2, dtype=np.float64))
    dot = abs(float(q1 @ q2)) / (np.linalg.norm(q1) * np.linalg.norm(q2))
    return math.degrees(2 * math.acos(min(1.0, dot)))


def pearson_scalar(a, b):
    """Direct two-pass Pearson correlation transcription."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    ma = a.mean()
    mb = b.mean()
    num = float(np.sum((a - ma) * (b - mb)))
    den = math.sqrt(float(np.sum((a - ma) ** 2)) * float(np.sum((b - mb) ** 2)))
    return num / den


def hapke_reference(mu0, mu, g, w, b0, h_opp, xi):
    """Standalone transcription of the reflectance closed form."""
    b = b0 / (1.0 + math.tan(g / 2.0) / h_opp)
    p = (1.0 - xi * xi) / (1.0 + 2.0 * xi * math.cos(g) + xi * xi) ** 1.5

    def h(x):
        return (1.0 + 2.0 * x) / (1.0 + 2.0 * x * math.sqrt(1.0 - w))

    return (w / (4.0 * math.pi)) / (mu0 + mu) * ((1.0 + b) * p + h(mu0) * h(mu) - 1.0)


def gaussian_window_means(img, valid, size=11, sigma=1.5):
    """Brute-force per-window Gaussian means over fully-valid windows.

    Returns (means, mask) where mask marks windows with complete support.
    """
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    half = size // 2
    ax = np.arange(size, dtype=np.float64) - half
    g = np.exp(-(ax**2) / (2 * sigma**2))
    kernel = np.outer(g, g)
    kernel /= kernel.sum()
    means = np.full((h, w), np.nan)
    full = np.zeros((h, w), dtype=bool)
    for i in range(half, h - half):
        for j in range(half, w - half):
            patch_valid = valid[i - half : i + half + 1, j - half : j + half + 1]
            if patch_valid.all():
                patch = img[i - half : i + half + 1, j - half : j + half + 1]
                means[i, j] = float(np.sum(kernel * patch))
                full[i, j] = True
    return means, full
