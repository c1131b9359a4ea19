"""Independent reference implementations used only by tests.

Nothing here shares traversal or search code with the package: the ray
oracle visits every cell a ray crosses, nearest neighbors are O(n^2), rotation
angles go through quaternions, and Pearson is a direct scalar transcription.
The whole-DEM passes that work in place (the sun-ward ceiling sweep, cell
maxima, DEM synthesis, each crater) are checked bit for bit against their
formulas over whole-grid arrays here, and the synthetic tile width against
its formula with the family constants written out.  It also holds the helpers only tests need:
rotations about the x and y axes and the ground-truth essential matrix of
two poses.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from lunarforge.camera import Pose, relative_pose
from lunarforge.pose import DegenerateBaselineError


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


def reference_cell_max(e):
    """Highest corner of each cell of elevations e, NaN where all four are
    nodata: one fmax per corner pair and one over the pairs."""
    return np.fmax(np.fmax(e[:-1, :-1], e[:-1, 1:]), np.fmax(e[1:, :-1], e[1:, 1:]))


def reference_sun_ceiling(dem, sun_dir):
    """The sun-ward ceiling C+ swept with whole-grid arrays: no terrain is
    -inf, M is one maximum over a padded copy of the cell maxima, and the
    margin goes on the finite cells of the finished grid at once."""
    sx, sy, sz = (float(c) for c in sun_dir)
    cm = np.where(np.isnan(dem.cell_max), -np.inf, dem.cell_max)
    swap = abs(sy) > abs(sx)
    dom, minor = (sy, sx) if swap else (sx, sy)
    flips = (slice(None, None, -1 if dom < 0 else 1), slice(None, None, -1 if minor < 0 else 1))
    a = (cm if swap else cm.T)[flips]
    kl = sz * dem.cell_size / abs(dom) if dom else np.inf
    n_c, n_r = a.shape
    pad = np.full((n_c, n_r + 1), -np.inf)
    pad[:, :n_r] = a
    block = np.maximum(pad[:, :-1], pad[:, 1:])

    ceil = np.full((n_c, n_r + 1), -np.inf)
    ceil[-1, :n_r] = block[-1]
    for c in range(n_c - 2, -1, -1):
        ceil[c, :n_r] = np.maximum(block[c], np.maximum(ceil[c + 1, :-1], ceil[c + 1, 1:]) - kl)

    ceil = ceil[:, :n_r][flips]
    ceil = np.ascontiguousarray(ceil if swap else ceil.T)
    finite = np.isfinite(ceil)
    ceil[finite] += 1e-9 * (1.0 + np.abs(ceil[finite]))
    return ceil


def value_noise_four_gathers(rng, width, height, lattice):
    """Value noise as each output cell's blend of its four lattice nodes,
    gathered per cell."""
    nodes = rng.uniform(-1.0, 1.0, size=(lattice + 1, lattice + 1))
    u = np.linspace(0.0, lattice, width)
    v = np.linspace(0.0, lattice, height)
    ui = np.minimum(u.astype(int), lattice - 1)
    vi = np.minimum(v.astype(int), lattice - 1)
    uf = u - ui
    vf = v - vi
    uf = uf * uf * (3 - 2 * uf)
    vf = vf * vf * (3 - 2 * vf)
    n00 = nodes[np.ix_(vi, ui)]
    n10 = nodes[np.ix_(vi, ui + 1)]
    n01 = nodes[np.ix_(vi + 1, ui)]
    n11 = nodes[np.ix_(vi + 1, ui + 1)]
    top = n00 * (1 - uf[None, :]) + n10 * uf[None, :]
    bot = n01 * (1 - uf[None, :]) + n11 * uf[None, :]
    return top * (1 - vf[:, None]) + bot * vf[:, None]


def whole_grid_add_crater(z, xs, ys, cx, cy, radius, depth, rim_height, rim_sigma):
    """terrain.add_crater's crater over the whole grid, in place: the bowl
    and the rim's exp at every cell, however far from the centre."""
    r = np.hypot(xs[None, :] - cx, ys[:, None] - cy)
    inside = r < radius
    z[inside] -= depth * (1.0 - (r[inside] / radius) ** 2)
    z += rim_height * np.exp(-(((r - radius) / rim_sigma) ** 2))


def reference_synth_elevations(seed, width, height, cell_size, crater_count, fractal_octaves):
    """synth_crater_dem's elevations from its formula written out: the same
    draws, each octave's scaled noise added as a new array, and each crater's
    bowl and rim as whole-grid expressions."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), 0x1F2E3D)))
    extent = min(width, height) * cell_size
    z = np.zeros((height, width))
    amp = min(0.01 * extent, 400.0)
    for octave in range(fractal_octaves):
        z = z + amp * value_noise_four_gathers(rng, width, height, min(4 * 2**octave, max(width, height)))
        amp *= 0.5
    xs = np.arange(width) * cell_size
    ys = np.arange(height) * cell_size
    for _ in range(crater_count):
        cx = rng.uniform(0.1, 0.9) * (width - 1) * cell_size
        cy = rng.uniform(0.1, 0.9) * (height - 1) * cell_size
        radius = rng.uniform(0.06, 0.16) * extent
        depth = min(0.25 * radius, 1200.0) * rng.uniform(0.8, 1.2)
        rim_height = min(0.06 * radius, 280.0) * rng.uniform(0.8, 1.2)
        r = np.hypot(xs[None, :] - cx, ys[:, None] - cy)
        inside = r < radius
        z[inside] -= depth * (1.0 - (r[inside] / radius) ** 2)
        z = z + rim_height * np.exp(-(((r - radius) / (0.2 * radius)) ** 2))
    return z


def reference_synth_extent_m(kind, band_index, allow_disjoint):
    """Tile width of a synthetic DEM for (kind, band): the formula with its
    constants written out, as it stood before the family table held them."""
    bands = (3500.0, 6200.0, 9500.0, 12800.0, 16100.0, 19400.0, 22700.0, 26000.0, 29200.0, 30500.0)
    alt = bands[band_index] * 1.05
    if kind == "dynamic":
        alt *= 1.30
    tilt_max = 0.0 if kind == "nadir" else 35.0
    half_fov = math.radians(45.0) / 2
    reach = alt * math.tan(math.radians(tilt_max) + half_fov)
    half = reach + 0.25 * alt
    if allow_disjoint:
        half += 5.5 * alt * math.tan(half_fov)
    return 2.3 * half


def reference_render(dem, rig, suns, hapke, seed):
    """Scalar reference of render_pair: (depths, images) with depths[view]
    the (H, W) central-ray depth and images[sun][view] the (H, W) image.

    Each ray is followed on its own: a pixel's rays are its centre offset by
    a Gaussian PSF sample, drawn as one row-major (H, W, rays, 2) array of
    uniforms from the stream keyed by (seed, view id), stratified on a
    k x k grid when rays = k^2, and mapped through the normal inverse CDF.
    Hits come from brute_force_hits.  At a hit the normal is the central
    difference of bilinear heights one cell either side, queried at least one
    cell inside the footprint; the view direction is the reversed ray.  A lit
    facing point returns irradiance * mu0 * hapke_reference(mu0, min(mu, 1),
    g); it is shadowed when brute_force_shadowed hits from half a cell toward
    the sun, and lit when that start leaves the footprint, since the ray then
    moves away from it.  A pixel averages its rays, a miss counting 0, and
    under each sun both views take the gain 1 / p99 of view a's radiance (1
    for a black view) and are clipped to [0, 1].
    """
    intr = rig.intrinsics
    h, w, rpp, sigma = intr.height, intr.width, rig.rays_per_pixel, rig.psf_sigma
    f = intr.width / (2 * math.tan(math.radians(intr.fov_deg) / 2))
    cs = dem.cell_size
    k = round(math.sqrt(rpp))
    gauss = NormalDist()
    sun_dirs = []
    for sun in suns:
        a, e = math.radians(sun.azimuth), math.radians(sun.elevation)
        sun_dirs.append(np.array([math.cos(e) * math.sin(a), math.cos(e) * math.cos(a), math.sin(e)]))

    def ray(pose, u, v):
        d = np.array([(u - intr.cx) / f, -(v - intr.cy) / f, -1.0])
        return pose.rotation @ (d / math.sqrt(d @ d))

    def hits(pose, dirs):
        return brute_force_hits(dem, np.tile(pose.translation, (len(dirs), 1)), np.array(dirs))

    def normal(x, y):
        x = min(max(x, dem.x_min + cs), dem.x_max - cs)
        y = min(max(y, dem.y_min + cs), dem.y_max - cs)
        dzdx = (bilinear(dem, x + cs, y) - bilinear(dem, x - cs, y)) / (2 * cs)
        dzdy = (bilinear(dem, x, y + cs) - bilinear(dem, x, y - cs)) / (2 * cs)
        n = np.array([-dzdx, -dzdy, 1.0])
        return n / math.sqrt(n @ n)

    def radiance(p, view, sun, s):
        n = normal(p[0], p[1])
        mu0, mu = float(n @ s), float(n @ view)
        if mu0 <= 0 or mu <= 0:
            return 0.0
        start = p + 0.5 * cs * s
        inside = dem.x_min <= start[0] <= dem.x_max and dem.y_min <= start[1] <= dem.y_max
        if inside and brute_force_shadowed(dem, p, s, 0.5 * cs):
            return 0.0
        g = math.acos(min(max(float(view @ s), -1.0), 1.0))
        return sun.irradiance * mu0 * hapke_reference(mu0, min(mu, 1.0), g, hapke.w, hapke.B0, hapke.h_opp, hapke.xi)

    def p99(values):
        x = sorted(float(v) for v in values.ravel())
        pos = 0.99 * (len(x) - 1)
        lo = math.floor(pos)
        return x[lo] + (pos - lo) * (x[min(lo + 1, len(x) - 1)] - x[lo])

    pixels = [(v, u) for v in range(h) for u in range(w)]
    depths, radiances = [], [[] for _ in suns]
    for view_id, pose in enumerate((rig.pose_a, rig.pose_b)):
        t, hit = hits(pose, [ray(pose, u, v) for v, u in pixels])
        depths.append(np.where(hit, t, np.nan).reshape(h, w))

        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=(seed, view_id, 0x5AF))))
        draw = rng.random((h, w, rpp, 2))
        dirs = []
        for v, u in pixels:
            for q in range(rpp):
                r0, r1 = draw[v, u, q]
                if k * k == rpp:
                    r0, r1 = (q // k + r0) / k, (q % k + r1) / k
                du = sigma * gauss.inv_cdf(min(max(r0, 1e-9), 1 - 1e-9))
                dv = sigma * gauss.inv_cdf(min(max(r1, 1e-9), 1 - 1e-9))
                dirs.append(ray(pose, u + du, v + dv))
        t, hit = hits(pose, dirs)
        for sun, s, views in zip(suns, sun_dirs, radiances):
            rad = np.zeros((h, w))
            for i, (v, u) in enumerate(pixels):
                total = 0.0
                for q in range(rpp):
                    j = i * rpp + q
                    if hit[j]:
                        total += radiance(pose.translation + t[j] * dirs[j], -dirs[j], sun, s)
                rad[v, u] = total / rpp
            views.append(rad)

    images = []
    for views in radiances:
        top = p99(views[0])
        gain = 1.0 / top if top > 0 else 1.0
        images.append([np.clip(rad * gain, 0.0, 1.0) for rad in views])
    return depths, images


def brute_force_nn_means(pred, gt):
    """O(n^2) accuracy/completeness/chamfer."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    d2 = np.sum((pred[:, None, :] - gt[None, :, :]) ** 2, axis=2)
    acc = float(np.mean(np.sqrt(d2.min(axis=1))))
    compl = float(np.mean(np.sqrt(d2.min(axis=0))))
    return acc, compl, (acc + compl) / 2


def rot_x(deg: float) -> np.ndarray:
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=np.float64)


def rot_y(deg: float) -> np.ndarray:
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=np.float64)


def essential_from_poses(pose_a: Pose, pose_b: Pose) -> np.ndarray:
    """Ground-truth essential matrix (unit Frobenius norm) for two poses."""
    rel = relative_pose(pose_a, pose_b)
    t = rel.translation
    tx = np.array([[0, -t[2], t[1]], [t[2], 0, -t[0]], [-t[1], t[0], 0.0]])
    e = rel.rotation.T @ tx
    n = np.linalg.norm(e)
    if n == 0:
        raise DegenerateBaselineError("zero baseline has no essential matrix")
    return e / n


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


def whole_view_ssim_depth(pred_depth, gt_depth, window=11, sigma=1.5, k1=0.01, k2=0.03):
    """metrics.ssim_depth as one whole-view pass: every window mean is a
    view-sized array, from two scipy.ndimage.correlate1d passes of the
    normalized 11-tap Gaussian with zeros outside the view.  Raises
    DegenerateMetricError with ssim_depth's messages."""
    from scipy import ndimage

    from lunarforge.metrics import DegenerateMetricError

    taps = np.exp(-((np.arange(window) - (window - 1) / 2) ** 2) / (2 * sigma**2))
    taps /= taps.sum()

    def window_mean(img):
        cols = ndimage.correlate1d(img, taps, axis=0, mode="constant", cval=0.0)
        return ndimage.correlate1d(cols, taps, axis=1, mode="constant", cval=0.0)

    pred = np.asarray(pred_depth, dtype=np.float64)
    gt = np.asarray(gt_depth, dtype=np.float64)
    valid = np.isfinite(pred) & np.isfinite(gt)
    if not valid.any():
        raise DegenerateMetricError("shared valid mask is empty")
    gvals = gt[valid]
    dr = float(gvals.max() - gvals.min())
    if dr == 0:
        raise DegenerateMetricError("constant ground-truth depth: L = 0")
    x = np.where(valid, pred, 0.0)
    y = np.where(valid, gt, 0.0)
    full = window_mean(valid.astype(np.float64)) > 1 - 1e-9
    if not full.any():
        raise DegenerateMetricError("no window has full valid support")
    mu_x = window_mean(x)
    mu_y = window_mean(y)
    var_x = window_mean(x * x) - mu_x**2
    var_y = window_mean(y * y) - mu_y**2
    cov = window_mean(x * y) - mu_x * mu_y
    c1 = (k1 * dr) ** 2
    c2 = (k2 * dr) ** 2
    ssim_map = ((2 * mu_x * mu_y + c1) * (2 * cov + c2)) / ((mu_x**2 + mu_y**2 + c1) * (var_x + var_y + c2))
    return float(np.mean(ssim_map[full]))
