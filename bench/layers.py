"""Per-layer metrics from one traced invocation.

Input: the span dump written by child.py under the tracer, the child's
``-X importtime`` log, and the median untraced subcommand wall time.
Busy time sums span durations over threads; self time subtracts the part of
a span's interval that its direct child spans cover.  A metric whose layer
did not run on a workload reads 0.
"""

from __future__ import annotations

from collections import defaultdict

RAY_CLASSES = ("central", "jittered", "shadow")
EVAL_METRICS = ("accuracy_completeness", "ssim_depth", "slope_metrics", "profile_metrics",
                "scale_invariant_loss")

# name -> (unit, better); the order is the order printed.  Metric names must
# start with a letter or digit, so module _heightfield reports as heightfield.
PER_LAYER = {
    **{f"heightfield.intersect_rays.{c}.{m}": u
       for c in RAY_CLASSES
       for m, u in (("rays", ("count", "lower")), ("busy_s", ("s", "lower")),
                    ("rays_per_s", ("1/s", "higher")), ("hit_ratio", ("ratio", "higher")))},
    "radiometry.shade_points.points": ("count", "lower"),
    "radiometry.shade_points.busy_s": ("s", "lower"),
    "radiometry.shade_points.self_s": ("s", "lower"),
    "radiometry.shade_points.lit_ratio": ("ratio", "higher"),
    "renderer.render_pair.calls": ("count", "lower"),
    "renderer.render_pair.busy_s": ("s", "lower"),
    "renderer.render_pair.self_s": ("s", "lower"),
    "renderer.render_pair.worker_util": ("ratio", "higher"),
    "renderer.gt_correspondences.matches": ("count", "higher"),
    "renderer.gt_correspondences.busy_s": ("s", "lower"),
    "renderer.depth_to_pointmap.busy_s": ("s", "lower"),
    "terrain.synth_crater_dem.busy_s": ("s", "lower"),
    "trajectory.sample_pair.busy_s": ("s", "lower"),
    "formats.write.bytes": ("bytes", "lower"),
    "formats.write.busy_s": ("s", "lower"),
    "formats.read.bytes": ("bytes", "lower"),
    "formats.read.busy_s": ("s", "lower"),
    "pose.ransac_align.calls": ("count", "lower"),
    "pose.ransac_align.points": ("count", "lower"),
    "pose.ransac_align.busy_s": ("s", "lower"),
    "pose.ransac_align.self_s": ("s", "lower"),
    "pose.ransac_align.umeyama_calls": ("count", "lower"),
    "pose.ransac_align.inlier_ratio": ("ratio", "higher"),
    "pose.umeyama.busy_s": ("s", "lower"),
    "metrics.evaluate_pair.busy_s": ("s", "lower"),
    "metrics.evaluate_pair.self_s": ("s", "lower"),
    **{f"metrics.{m}.busy_s": ("s", "lower") for m in EVAL_METRICS},
    "cli.pair_pool.worker_util": ("ratio", "higher"),
    "cli.import.scipy_s": ("s", "lower"),
    "cli.import.lunarforge_s": ("s", "lower"),
    "trace.untraced_share": ("ratio", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


class _Spans:
    def __init__(self, spans: list[dict]):
        self.by_id = {s["id"]: s for s in spans}
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for s in spans:
            self.by_name[s["name"]].append(s)
            if s["parent"] is not None:
                self.children[s["parent"]].append(s)

    def named(self, name: str) -> list[dict]:
        return self.by_name.get(name, [])

    def busy(self, name: str) -> float:
        return sum(s["t1"] - s["t0"] for s in self.named(name))

    def self_time(self, name: str) -> float:
        return sum(
            (s["t1"] - s["t0"])
            - _covered([(c["t0"], c["t1"]) for c in self.children[s["id"]]], s["t0"], s["t1"])
            for s in self.named(name)
        )

    def total(self, name: str, key: str) -> int:
        return sum(s.get(key, 0) for s in self.named(name))

    def parent_name(self, span: dict) -> str | None:
        parent = self.by_id.get(span["parent"])
        return parent["name"] if parent else None


def ray_classes(spans: _Spans) -> dict[str, list[dict]]:
    """Split intersect_rays calls into central, jittered and shadow rays.

    Calls made inside shadow_mask are shadow rays.  The renderer traces each
    row band's central rays and then its jittered rays, so the other calls
    alternate central, jittered under one parent span (a render_pair, or a
    tile-pool task when the renderer fans bands out to threads).
    """
    classes = {c: [] for c in RAY_CLASSES}
    seen = defaultdict(int)
    for s in sorted(spans.named("_heightfield.intersect_rays"), key=lambda s: s["t0"]):
        if spans.parent_name(s) == "_heightfield.shadow_mask":
            classes["shadow"].append(s)
            continue
        key = (s["parent"], s["thread"])
        classes["central" if seen[key] % 2 == 0 else "jittered"].append(s)
        seen[key] += 1
    return classes


def _import_seconds(importtime_log: str, package: str) -> float:
    """Cumulative import time of the outermost modules of one package."""
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2].rstrip()
        entries.append((len(raw) - len(raw.lstrip()), raw.strip(), int(parts[1])))
    total, stack = 0, []
    # importtime prints children before their parent; reversed, parents come first.
    for indent, name, cumulative_us in reversed(entries):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        match = name == package or name.startswith(package + ".")
        if match and not any(m for _, m in stack):
            total += cumulative_us
        stack.append((indent, match))
    return total / 1e6


def layer_metrics(dump: dict, importtime_log: str, untraced_wall_s: float) -> dict[str, float]:
    spans = _Spans(dump["spans"])
    m = {}
    for cls, members in ray_classes(spans).items():
        rays = sum(s["rays"] for s in members)
        busy = sum(s["t1"] - s["t0"] for s in members)
        prefix = f"heightfield.intersect_rays.{cls}"
        m[f"{prefix}.rays"] = rays
        m[f"{prefix}.busy_s"] = busy
        m[f"{prefix}.rays_per_s"] = _ratio(rays, busy)
        m[f"{prefix}.hit_ratio"] = _ratio(sum(s["hits"] for s in members), rays)

    sp = "radiometry.shade_points"
    m[f"{sp}.points"] = spans.total(sp, "points")
    m[f"{sp}.busy_s"] = spans.busy(sp)
    m[f"{sp}.self_s"] = spans.self_time(sp)
    m[f"{sp}.lit_ratio"] = _ratio(spans.total(sp, "lit"), m[f"{sp}.points"])

    rp = "renderer.render_pair"
    pool_workers = defaultdict(lambda: 1)
    for pool in dump["pools"]:
        if pool["name"] == "renderer.tile_pool" and pool["parent"] is not None:
            pool_workers[pool["parent"]] = max(pool_workers[pool["parent"]], pool["workers"])
    task_s = capacity_s = 0.0
    for s in spans.named(rp):
        tasks = [c for c in spans.children[s["id"]] if c["name"] == "renderer.tile_pool.task"]
        task_s += sum(c["t1"] - c["t0"] for c in tasks)
        capacity_s += (s["t1"] - s["t0"]) * pool_workers[s["id"]] if tasks else 0.0
    m[f"{rp}.calls"] = len(spans.named(rp))
    m[f"{rp}.busy_s"] = spans.busy(rp)
    m[f"{rp}.self_s"] = spans.self_time(rp)
    m[f"{rp}.worker_util"] = _ratio(task_s, capacity_s)
    m["renderer.gt_correspondences.matches"] = spans.total("renderer.gt_correspondences", "matches")
    for name in ("renderer.gt_correspondences", "renderer.depth_to_pointmap",
                 "terrain.synth_crater_dem", "trajectory.sample_pair"):
        m[f"{name}.busy_s"] = spans.busy(name)
    for name in ("formats.write", "formats.read"):
        m[f"{name}.bytes"] = spans.total(name, "bytes")
        m[f"{name}.busy_s"] = spans.busy(name)

    ra = "pose.ransac_align"
    m[f"{ra}.calls"] = len(spans.named(ra))
    m[f"{ra}.points"] = spans.total(ra, "points")
    m[f"{ra}.busy_s"] = spans.busy(ra)
    m[f"{ra}.self_s"] = spans.self_time(ra)
    m[f"{ra}.umeyama_calls"] = sum(spans.parent_name(s) == ra for s in spans.named("pose.umeyama"))
    m[f"{ra}.inlier_ratio"] = _ratio(spans.total(ra, "inliers"), m[f"{ra}.points"])
    m["pose.umeyama.busy_s"] = spans.busy("pose.umeyama")
    m["metrics.evaluate_pair.busy_s"] = spans.busy("metrics.evaluate_pair")
    m["metrics.evaluate_pair.self_s"] = spans.self_time("metrics.evaluate_pair")
    for name in EVAL_METRICS:
        m[f"metrics.{name}.busy_s"] = spans.busy(f"metrics.{name}")

    pools = [p for p in dump["pools"] if p["name"] == "cli.pair_pool"]
    m["cli.pair_pool.worker_util"] = _ratio(
        spans.busy("cli.pair_pool.task"), sum((p["t1"] - p["t0"]) * p["workers"] for p in pools)
    )
    m["cli.import.scipy_s"] = _import_seconds(importtime_log, "scipy")
    m["cli.import.lunarforge_s"] = _import_seconds(importtime_log, "lunarforge")

    wall = dump["t1"] - dump["t0"]
    top = [(s["t0"], s["t1"]) for s in dump["spans"] if s["parent"] is None]
    m["trace.untraced_share"] = _ratio(wall - _covered(top, dump["t0"], dump["t1"]), wall)
    m["trace.overhead_s"] = wall - untraced_wall_s
    return m
