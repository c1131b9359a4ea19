"""Relative-pose recovery and scoring: essential matrix, PnP, RRA/RTA, and
RANSAC similarity alignment.

All three estimators run one RANSAC loop, `_ransac`: it draws hypotheses,
scores them and refits the best to a fixed point.  Each estimator passes its
own fit and inlier test; only `ransac_align` also certifies its consensus.

Pixel matches are lifted to projective ray coordinates in each camera's own
frame; the essential matrix here satisfies h2^T E h1 = 0 for those rays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import Intrinsics, Pose, image_plane, orthonormalized, relative_pose


class InsufficientMatchesError(ValueError):
    """Fewer matches than the minimal solver requires."""


class DegenerateBaselineError(ValueError):
    """Matches are explained by a pure rotation: translation unobservable."""


class DegenerateGeometryError(ValueError):
    """Input configuration is rank-deficient (e.g. collinear 3D points)."""


class RansacError(RuntimeError):
    """No hypothesis reached consensus."""


@dataclass(frozen=True)
class RansacParams:
    """Settings shared by every RANSAC estimator in this module.

    The loop stops adaptively: after each new best consensus it needs
    ceil(log(1 - p) / log(1 - w**s)) hypotheses in total, where w is the best
    inlier ratio so far, s the minimal sample size and p = 0.999 the
    confidence of having drawn one all-inlier sample (Fischler & Bolles
    1981).  It stops at once when every point is an inlier.  ``iterations``
    is a hard cap on the number of samples drawn, degenerate ones included.
    Every estimator then refits the best hypothesis to a fixed point (at most
    _REFIT_ROUNDS rounds).  Only ``ransac_align`` also rejects a final
    consensus that would need more than ``iterations`` samples, so the cap
    sets the smallest inlier ratio it can certify: w_min ~ (1 -
    0.001**(1/iterations))**(1/3), about 0.15 at the default 2000 and 0.5 at
    50.
    """

    iterations: int = 2000
    inlier_threshold: float = 1.0  # pixels (essential/PnP) or meters (alignment)
    seed: int = 0  # >= 0, as numpy's SeedSequence needs

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


_CONFIDENCE = 0.999  # p of the adaptive stopping rule
_REFIT_ROUNDS = 20  # cap on _ransac's refit-to-a-fixed-point rounds, for every estimator


def _hypotheses_needed(count: int, n: int, sample_size: int) -> float:
    """Samples needed to draw one all-inlier sample with confidence _CONFIDENCE,
    given `count` of `n` points are inliers.  inf when no point is."""
    if count >= n:
        return 1
    p_good = (count / n) ** sample_size
    if p_good <= 0.0:
        return math.inf
    return math.ceil(math.log(1.0 - _CONFIDENCE) / math.log1p(-p_good))


def _ransac(name: str, n: int, sample_size: int, fit, inliers_of, params: RansacParams, tag: int):
    """The RANSAC loop of every estimator: hypothesise, score, refit.

    `fit(rows)` fits a model to the selected rows and raises ValueError (numpy's
    LinAlgError is one) on a degenerate set, whose sample is then skipped;
    `inliers_of(model)` is its boolean mask over all `n` points.  Samples come
    from a generator seeded by (params.seed, tag).  The best hypothesis is refit
    to a fixed point: fit its inliers and recompute the mask until the mask
    stops changing (at most _REFIT_ROUNDS rounds) or would drop below
    `sample_size` points.  Returns (model, mask); raises RansacError when no
    hypothesis explains `sample_size` points.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(params.seed, tag)))
    mask = None
    best_count = -1
    needed = math.inf
    drawn = 0
    while drawn < min(needed, params.iterations):
        drawn += 1
        try:
            model = fit(rng.choice(n, size=sample_size, replace=False))
        except ValueError:
            continue
        candidate = inliers_of(model)
        count = int(candidate.sum())
        if count > best_count:
            best_count = count
            mask = candidate
            needed = _hypotheses_needed(count, n, sample_size)
    if mask is None or best_count < sample_size:
        raise RansacError(f"{name} RANSAC found no consensus set")
    model = fit(mask)
    for _ in range(_REFIT_ROUNDS):
        refit_mask = inliers_of(model)
        if refit_mask.sum() < sample_size or np.array_equal(refit_mask, mask):
            break
        mask = refit_mask
        model = fit(mask)
    return model, mask


@dataclass(frozen=True, eq=False)
class EssentialEstimate:
    E: np.ndarray            # 3x3, singular values (1, 1, 0) after scaling
    inliers: np.ndarray      # indices into the match list
    relative_pose: Pose      # camera 2 in camera 1's frame, unit-norm translation


@dataclass(frozen=True, eq=False)
class SimilarityTransform:
    """x -> scale * rotation @ x + translation."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be > 0")
        r = np.asarray(self.rotation, dtype=np.float64)
        if not np.allclose(r.T @ r, np.eye(3), atol=1e-9):
            raise ValueError("rotation is not orthonormal within 1e-9")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=np.float64).reshape(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        out = np.asarray(points, dtype=np.float64) @ self.rotation.T
        out *= self.scale
        out += self.translation
        return out

    def to_json_dict(self) -> dict:
        return {
            "scale": float(self.scale),
            "rotation": [float(v) for v in self.rotation.reshape(-1)],
            "translation": [float(v) for v in self.translation],
        }


def _match_rays(matches: np.ndarray, intr1: Intrinsics, intr2: Intrinsics):
    """Projective ray coordinates h = ((u-cx)/f, -(v-cy)/f, -1) per view."""
    m = np.asarray(matches, dtype=np.float64).reshape(-1, 4)
    return image_plane(intr1, m[:, 0], m[:, 1]), image_plane(intr2, m[:, 2], m[:, 3])


def _eight_point(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Least-squares essential matrix with the (1, 1, 0) spectrum enforced."""
    a = np.einsum("ni,nj->nij", h2, h1).reshape(len(h1), 9)
    _, _, vt = np.linalg.svd(a)
    e = vt[-1].reshape(3, 3)
    u, s, vt = np.linalg.svd(e)
    mean = (s[0] + s[1]) / 2
    return u @ np.diag([mean, mean, 0.0]) @ vt


def _sampson_px(e: np.ndarray, h1: np.ndarray, h2: np.ndarray, focal: float) -> np.ndarray:
    """First-order geometric (Sampson) distance, converted to pixels."""
    eh1 = h1 @ e.T
    eth2 = h2 @ e
    num = np.einsum("ni,ni->n", h2, eh1)
    denom = eh1[:, 0] ** 2 + eh1[:, 1] ** 2 + eth2[:, 0] ** 2 + eth2[:, 1] ** 2
    denom = np.maximum(denom, 1e-300)
    return focal * np.abs(num) / np.sqrt(denom)


def _decompose_essential(e: np.ndarray):
    u, _, vt = np.linalg.svd(e)
    if np.linalg.det(u) < 0:
        u = -u
    if np.linalg.det(vt) < 0:
        vt = -vt
    w = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    r1 = u @ w @ vt
    r2 = u @ w.T @ vt
    t = u[:, 2]
    return [(r1, t), (r1, -t), (r2, t), (r2, -t)]


def _triangulate_depths(r21: np.ndarray, t21: np.ndarray, h1: np.ndarray, h2: np.ndarray):
    """Midpoint-method ray parameters (s, w) of each match: p1 = s h1,
    p2 = w h2 with p2 = r21 p1 + t21.  Positive pair means in front of both."""
    a = h1 @ r21.T  # rotated view-1 rays, expressed in camera 2
    b = h2
    # Least squares for [s, w] in s*a - w*b = -t21, per match.
    aa = np.einsum("ni,ni->n", a, a)
    bb = np.einsum("ni,ni->n", b, b)
    ab = np.einsum("ni,ni->n", a, b)
    at = a @ t21
    bt = b @ t21
    det = aa * bb - ab * ab
    det = np.where(np.abs(det) < 1e-300, np.nan, det)
    s = (-at * bb + ab * bt) / det
    w = (-at * ab + aa * bt) / det
    return s, w


def _rotation_residual(h1: np.ndarray, h2: np.ndarray) -> float:
    """RMS angle (radians) left after the best pure rotation h1 -> h2."""
    d1 = h1 / np.linalg.norm(h1, axis=1, keepdims=True)
    d2 = h2 / np.linalg.norm(h2, axis=1, keepdims=True)
    r = orthonormalized(d2.T @ d1)
    cosang = np.clip(np.einsum("ni,ni->n", d1 @ r.T, d2), -1.0, 1.0)
    return float(np.sqrt(np.mean(np.arccos(cosang) ** 2)))


def estimate_essential(
    matches: np.ndarray,
    intr1: Intrinsics,
    intr2: Intrinsics,
    ransac: RansacParams = RansacParams(),
) -> EssentialEstimate:
    """Normalized 8-point solve inside RANSAC with cheirality disambiguation.

    matches holds (u1, v1, u2, v2) rows, as gt_correspondences returns them.
    Returns the pose of camera 2 in camera 1's frame with unit translation.
    The winner is refit to a fixed point (see _ransac); once that converges,
    `inliers` are the matches whose Sampson distance to E is below the
    threshold.  Raises DegenerateBaselineError when a pure rotation explains
    the matches.
    """
    h1, h2 = _match_rays(matches, intr1, intr2)
    n = len(h1)
    if n < 8:
        raise InsufficientMatchesError(f"essential estimation needs >= 8 matches, got {n}")
    if _rotation_residual(h1, h2) < 1e-5:
        raise DegenerateBaselineError(
            "matches are consistent with a pure rotation; baseline unobservable"
        )

    e, inliers = _ransac(
        "essential", n, 8, lambda rows: _eight_point(h1[rows], h2[rows]),
        lambda e: _sampson_px(e, h1, h2, intr1.focal_px) < ransac.inlier_threshold, ransac, 0xE55,
    )

    # Cheirality: pick the candidate putting the most inliers in front of both.
    hi1 = h1[inliers]
    hi2 = h2[inliers]
    best_pose = None
    best_front = -1
    for r21, t21 in _decompose_essential(e):
        s, w = _triangulate_depths(r21, t21, hi1, hi2)
        front = int(np.sum((s > 0) & (w > 0)))
        if front > best_front:
            best_front = front
            best_pose = (r21, t21)
    r21, t21 = best_pose
    r_rel = r21.T
    t_rel = -r21.T @ t21
    t_rel = t_rel / np.linalg.norm(t_rel)
    rel = Pose(rotation=orthonormalized(r_rel), translation=t_rel)
    e_unit = e / np.linalg.norm(e)
    return EssentialEstimate(E=e_unit, inliers=np.flatnonzero(inliers), relative_pose=rel)


# ---------------------------------------------------------------------------
# PnP
# ---------------------------------------------------------------------------


def _dlt_pose(xy: np.ndarray, pts: np.ndarray):
    """DLT estimate of [R|t] mapping world points into the +z-forward frame."""
    n = len(xy)
    a = np.zeros((2 * n, 12))
    xh = np.column_stack([pts, np.ones(n)])
    a[0::2, 0:4] = xh
    a[0::2, 8:12] = -xy[:, 0:1] * xh
    a[1::2, 4:8] = xh
    a[1::2, 8:12] = -xy[:, 1:2] * xh
    _, s, vt = np.linalg.svd(a, full_matrices=False)
    if s[-2] < 1e-10 * s[0]:
        raise DegenerateGeometryError("PnP design matrix is rank deficient")
    p = vt[-1].reshape(3, 4)
    m = p[:, :3]
    det = np.linalg.det(m)
    if abs(det) < 1e-300:
        raise DegenerateGeometryError("degenerate projection matrix")
    # det(M) > 0 pins the free sign of the DLT solution (true M is a rotation).
    if det < 0:
        p = -p
        m = -m
    scale = np.linalg.det(m) ** (1.0 / 3.0)
    r = orthonormalized(m / scale)
    t = p[:, 3] / scale
    return r, t


def _so3_exp(w: np.ndarray) -> np.ndarray:
    theta = np.linalg.norm(w)
    if theta < 1e-12:
        return np.eye(3) + np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0]])
    k = w / theta
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + math.sin(theta) * kx + (1 - math.cos(theta)) * (kx @ kx)


def _pnp_jacobian(pc: np.ndarray) -> np.ndarray:
    """2n x 6 Jacobian of the normalized projections of camera-frame points
    `pc` w.r.t. a left rotation increment w and a translation increment t.
    Rows alternate u, v per point."""
    n = len(pc)
    inv_z = 1.0 / pc[:, 2]
    # d(proj)/d(pc), one row per image axis.
    j_pc = np.zeros((n, 2, 3))
    j_pc[:, 0, 0] = inv_z
    j_pc[:, 0, 2] = -pc[:, 0] * inv_z**2
    j_pc[:, 1, 1] = inv_z
    j_pc[:, 1, 2] = -pc[:, 1] * inv_z**2
    # d(pc)/d(w) = -[pc]x, so a row a maps to a @ -[pc]x = pc x a; d(pc)/d(t) = I.
    jac = np.empty((n, 2, 6))
    jac[:, :, 0:3] = np.cross(pc[:, None, :], j_pc)
    jac[:, :, 3:6] = j_pc
    return jac.reshape(2 * n, 6)


def _gauss_newton_pnp(r, t, xy, pts, iterations=15):
    """Refine (R, t) by minimizing normalized reprojection error."""
    for _ in range(iterations):
        pc = pts @ r.T + t
        z = pc[:, 2]
        if np.any(z <= 0):
            break
        proj = pc[:, :2] / z[:, None]
        res = (proj - xy).reshape(-1)
        jac = _pnp_jacobian(pc)
        jtj = jac.T @ jac
        jtr = jac.T @ res
        try:
            delta = np.linalg.solve(jtj + 1e-12 * np.eye(6), -jtr)
        except np.linalg.LinAlgError:
            break
        r = _so3_exp(delta[0:3]) @ r
        t = t + delta[3:6]
        if np.linalg.norm(delta) < 1e-14:
            break
    return r, t


_FLIP = np.diag([1.0, -1.0, -1.0])  # between the -z-forward camera frame and the +z DLT frame


def solve_pnp(
    matches_2d3d,
    intr: Intrinsics,
    ransac: RansacParams = RansacParams(),
) -> Pose:
    """Camera-to-world pose from (pixel, world point) matches, given as the
    tuple ((N, 2) pixels, (N, 3) world points).

    DLT hypotheses inside RANSAC, refit by DLT to a fixed point, followed by
    Gauss-Newton refinement on the final inlier set.  Needs >= 6
    non-degenerate matches.
    """
    pixels, pts = matches_2d3d
    pixels = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    if n < 6:
        raise InsufficientMatchesError(f"PnP needs >= 6 matches, got {n}")
    centered = pts - pts.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    if svals[1] < 1e-9 * max(svals[0], 1.0):
        raise DegenerateGeometryError("3D points are collinear")

    # Image-plane points in the +z-forward DLT frame: _FLIP negates y and z.
    xy = image_plane(intr, pixels[:, 0], pixels[:, 1])[:, :2] * [1.0, -1.0]
    thresh_norm = ransac.inlier_threshold / intr.focal_px

    def inliers_of(model):
        r, t = model
        pc = pts @ r.T + t
        z = pc[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            proj = pc[:, :2] / z[:, None]
            err = np.linalg.norm(proj - xy, axis=1)
        return (z > 0) & np.isfinite(err) & (err < thresh_norm)

    (r, t), inliers = _ransac(
        "PnP", n, 6, lambda rows: _dlt_pose(xy[rows], pts[rows]), inliers_of, ransac, 0x9A9
    )
    r, t = _gauss_newton_pnp(r, t, xy[inliers], pts[inliers])
    # Back to the -z-forward convention: R_c2w = (F R)^T, center = -R^T t.
    rotation = (_FLIP @ r).T
    center = -r.T @ t
    return Pose(rotation=orthonormalized(rotation), translation=center)


# ---------------------------------------------------------------------------
# Accuracy metrics
# ---------------------------------------------------------------------------


def rra(r_gt: np.ndarray, r_pred: np.ndarray) -> float:
    """Relative rotation angular error in degrees.

    With M = R_gt^T R_pred, the angle is atan2(|vee(M - M^T)| / 2,
    (tr M - 1) / 2): sine and cosine of the same angle, so it stays accurate
    near 0 and 180 degrees where acos of the trace alone does not.
    """
    r_gt = np.asarray(r_gt, dtype=np.float64)
    r_pred = np.asarray(r_pred, dtype=np.float64)
    m = r_gt.T @ r_pred
    vee = np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
    return math.degrees(math.atan2(np.linalg.norm(vee) / 2, (np.trace(m) - 1) / 2))


def rta(t_gt, t_pred) -> float:
    """Angle between translation directions in degrees (sign-sensitive).

    atan2(|a x b|, a.b) equals the arccos of the normalized dot in exact
    arithmetic and stays accurate for near-parallel directions.
    """
    a = np.asarray(t_gt, dtype=np.float64)
    b = np.asarray(t_pred, dtype=np.float64)
    if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
        raise DegenerateBaselineError("zero translation has no direction")
    return math.degrees(math.atan2(np.linalg.norm(np.cross(a, b)), float(a @ b)))


def pose_accuracy_table(errors, thresholds) -> dict:
    """Fraction of errors strictly below each threshold (degrees)."""
    errors = np.asarray(list(errors), dtype=np.float64)
    if errors.size == 0:
        raise ValueError("empty error list")
    thresholds = list(thresholds)
    if sorted(thresholds) != thresholds:
        raise ValueError("thresholds must be sorted ascending")
    return {float(tau): float(np.mean(errors < tau)) for tau in thresholds}


# ---------------------------------------------------------------------------
# Similarity alignment
# ---------------------------------------------------------------------------


def umeyama(src: np.ndarray, dst: np.ndarray) -> SimilarityTransform:
    """Least-squares similarity transform: dst ~= s R src + t.

    Closed form; the rotation determinant is forced to +1 (no reflections).
    """
    src = np.asarray(src, dtype=np.float64).reshape(-1, 3)
    dst = np.asarray(dst, dtype=np.float64).reshape(-1, 3)
    if src.shape != dst.shape or len(src) < 3:
        raise ValueError("umeyama needs >= 3 paired points")
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    ds = src - mu_s
    dd = dst - mu_d
    var_s = (ds**2).sum() / len(src)
    if var_s < 1e-300:
        raise DegenerateGeometryError("source points are coincident")
    cov = dd.T @ ds / len(src)
    u, d, vt = np.linalg.svd(cov)
    if d[1] < 1e-12 * max(d[0], 1.0):
        raise DegenerateGeometryError("point configuration is collinear")
    s_diag = np.ones(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        s_diag[2] = -1
    r = u @ np.diag(s_diag) @ vt
    scale = float((d * s_diag).sum() / var_s)
    if scale <= 0:
        raise DegenerateGeometryError("non-positive similarity scale")
    t = mu_d - scale * r @ mu_s
    return SimilarityTransform(scale=scale, rotation=orthonormalized(r), translation=t)


def _residual_inliers(transform: SimilarityTransform, src: np.ndarray, dst: np.ndarray, threshold: float) -> np.ndarray:
    """Rows where |transform(src) - dst| < threshold.  The norm sums
    (x*x + y*y) + z*z, in the order np.linalg.norm(axis=1) does, so the mask
    is the same bit for bit, without norm's (n, 3) temporaries."""
    d = transform.apply(src)
    d -= dst
    x, y, z = d.T
    return np.sqrt(x * x + y * y + z * z) < threshold


def ransac_align(
    pred_cloud: np.ndarray,
    gt_cloud: np.ndarray,
    ransac: RansacParams = RansacParams(iterations=2000, inlier_threshold=1.0),
):
    """RANSAC over 3-point umeyama hypotheses aligning pred to gt by index.

    Returns (SimilarityTransform, inlier mask).  The threshold is in meters.
    The loop stops adaptively with confidence p = 0.999 (see RansacParams;
    ``iterations`` is a hard cap).  The winner is then refit to a fixed
    point by umeyama on its inliers, as in every estimator here (see
    _ransac).  So the result depends little on which hypothesis found the
    consensus, and so on where the loop stopped.  Raises RansacError when the final consensus is
    too small to certify: finding it with confidence p would take more than
    ``iterations`` hypotheses (at the default 2000, an inlier ratio below
    about 0.15).
    """
    pred = np.asarray(pred_cloud, dtype=np.float64).reshape(-1, 3)
    gt = np.asarray(gt_cloud, dtype=np.float64).reshape(-1, 3)
    if pred.shape != gt.shape or len(pred) < 3:
        raise ValueError("alignment needs >= 3 index-paired points")

    # umeyama is looked up at call time, so a wrapper on pose.umeyama sees every call.
    transform, mask = _ransac(
        "similarity", len(pred), 3, lambda rows: umeyama(pred[rows], gt[rows]),
        lambda transform: _residual_inliers(transform, pred, gt, ransac.inlier_threshold), ransac, 0xA116,
    )
    count = int(mask.sum())
    if _hypotheses_needed(count, len(pred), 3) > ransac.iterations:
        raise RansacError(
            f"consensus of {count}/{len(pred)} points is too small to certify "
            f"within {ransac.iterations} hypotheses"
        )
    return transform, mask
