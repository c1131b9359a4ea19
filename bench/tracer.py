"""Outside-in span tracer for lunarforge layers.

The tracer replaces public module attributes with timing wrappers, at the
module where the caller looks each name up (``lunarforge.cli.render_pair``,
not ``lunarforge.renderer.render_pair``), so nothing under ``src/`` changes.
Each wrapped call records one span: name, thread, start, end, parent span and
a few counts taken from its arguments and result.  Spans stay in memory until
the caller dumps them.

Thread pools are traced by replacing the ``ThreadPoolExecutor`` name that a
module uses.  The replacement wraps every submitted task in a ``<pool>.task``
span whose parent is the submitter's open span, so work done on pool threads
stays attached to the layer that fanned it out.
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np


def _file_bytes(path) -> int:
    total = 0
    for p in (str(path), str(path) + ".json"):
        if os.path.exists(p):
            total += os.path.getsize(p)
    return total


def _rays(args, kwargs, result):
    _, hit = result
    return {"rays": int(hit.size), "hits": int(np.count_nonzero(hit))}


def _points(args, kwargs, result):
    return {"points": int(len(result)), "lit": int(np.count_nonzero(result > 0))}


def _matches(args, kwargs, result):
    return {"matches": len(result)}


def _io_bytes(args, kwargs, result):
    return {"bytes": _file_bytes(args[0])}


def _alignment(args, kwargs, result):
    _, mask = result
    return {"points": int(mask.size), "inliers": int(np.count_nonzero(mask))}


# (module where the caller looks the name up, attribute, span name, counts)
TARGETS = (
    ("lunarforge._heightfield", "intersect_rays", "_heightfield.intersect_rays", _rays),
    ("lunarforge._heightfield", "shadow_mask", "_heightfield.shadow_mask", None),
    ("lunarforge.renderer", "shade_points", "radiometry.shade_points", _points),
    ("lunarforge.cli", "render_pair", "renderer.render_pair", None),
    ("lunarforge.cli", "gt_correspondences", "renderer.gt_correspondences", _matches),
    ("lunarforge.cli", "depth_to_pointmap", "renderer.depth_to_pointmap", None),
    ("lunarforge.cli", "synth_crater_dem", "terrain.synth_crater_dem", None),
    ("lunarforge.cli", "sample_pair", "trajectory.sample_pair", None),
    ("lunarforge.formats", "write_pgm16", "formats.write", _io_bytes),
    ("lunarforge.formats", "write_f32_raster", "formats.write", _io_bytes),
    ("lunarforge.formats", "write_correspondences_csv", "formats.write", _io_bytes),
    ("lunarforge.formats", "write_json", "formats.write", _io_bytes),
    ("lunarforge.formats", "read_f32_raster", "formats.read", _io_bytes),
    ("lunarforge.formats", "read_json", "formats.read", _io_bytes),
    ("lunarforge.cli", "evaluate_pair", "metrics.evaluate_pair", None),
    ("lunarforge.metrics", "ransac_align", "pose.ransac_align", _alignment),
    ("lunarforge.pose", "umeyama", "pose.umeyama", None),
    ("lunarforge.metrics", "accuracy_completeness", "metrics.accuracy_completeness", None),
    ("lunarforge.metrics", "ssim_depth", "metrics.ssim_depth", None),
    ("lunarforge.metrics", "slope_metrics", "metrics.slope_metrics", None),
    ("lunarforge.metrics", "profile_metrics", "metrics.profile_metrics", None),
    ("lunarforge.metrics", "scale_invariant_loss", "metrics.scale_invariant_loss", None),
)

# (module whose ThreadPoolExecutor name is replaced, pool name)
POOLS = (
    ("lunarforge.cli", "cli.pair_pool"),
    ("lunarforge.renderer", "renderer.tile_pool"),
)


class Tracer:
    """Collects spans from wrapped lunarforge attributes while installed.

    Use as a context manager: entering patches every target, leaving puts
    every original attribute back, even when the traced code raised.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.pools: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, parent, counts, fn, *args, **kwargs):
        """Run fn inside a span named name, child of parent."""
        span_id = next(self._ids)
        stack = self._stack()
        stack.append(span_id)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            span = {"id": span_id, "parent": parent, "name": name,
                    "thread": threading.get_ident(), "t0": t0, "t1": t1}
            self.spans.append(span)
        if counts is not None:
            span.update(counts(args, kwargs, result))
        return result

    def _wrap(self, name, fn, counts):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, tracer.current(), counts, fn, *args, **kwargs)

        return traced

    def _pool_class(self, base, pool_name):
        tracer = self

        class TracedPool(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._trace = {"name": pool_name, "workers": self._max_workers,
                               "parent": tracer.current(), "t0": perf_counter(), "t1": None}

            def submit(self, fn, /, *args, **kwargs):
                task = {"workers": self._max_workers}
                return super().submit(
                    tracer.call, pool_name + ".task", tracer.current(),
                    lambda *_: task, fn, *args, **kwargs,
                )

            def shutdown(self, wait=True, **kwargs):
                super().shutdown(wait, **kwargs)
                if self._trace["t1"] is None:
                    self._trace["t1"] = perf_counter()
                    tracer.pools.append(self._trace)

        return TracedPool

    # -- install / restore ------------------------------------------------

    def __enter__(self):
        try:
            for module_name, attr, name, counts in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, counts))
            for module_name, pool_name in POOLS:
                module = importlib.import_module(module_name)
                original = getattr(module, "ThreadPoolExecutor")
                if original is not ThreadPoolExecutor:
                    raise RuntimeError(f"{module_name}.ThreadPoolExecutor is already replaced")
                self._saved.append((module, "ThreadPoolExecutor", original))
                setattr(module, "ThreadPoolExecutor", self._pool_class(original, pool_name))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
