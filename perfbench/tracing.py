"""Per-layer spans for one benchmark pass, recorded from outside the package.

`install` replaces the public functions that the `aniso.verify` drivers call
with timing wrappers.  Names are patched where callers look them up:
`verify` binds `from .grid import ...`, so its own module attributes are
replaced, and methods are replaced on their classes.  `Norm.__call__` is
patched beside `Norm.eval` because the class body bound it to the unwrapped
function.  An untraced pass installs none of the wrappers.

Each span is `[name, start, end, parent]`, kept in memory until the pass
ends; `layer_metrics` then turns the spans and counts into the per-layer
metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

DRIVERS = ("check_erosion_laws", "check_minkowski_law", "check_disintegration",
           "run_bubbling")
# norm families the workloads evaluate; a DualNorm is labelled by its
# closed-form partner, or "dual-numeric" when it has none
NORM_FAMILIES = ("euclidean", "ellipse", "smoothmax", "smoothmax-polar", "l1",
                 "linf", "dual-numeric")
NORM_OPS = ("eval", "grad", "hess")


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = [(f"verify.{d}.s", "s") for d in DRIVERS]
    out += [("shapes.gen.calls", "count"), ("shapes.gen.s", "s"),
            ("shapes.union_rho.calls", "count"), ("shapes.union_rho.rays", "count"),
            ("shapes.union_rho.s", "s"),
            ("shapes.two_bubble_profile.rays", "count"), ("shapes.two_bubble_profile.s", "s"),
            ("shapes.level_at.points", "count"), ("shapes.level_at.s", "s"),
            ("shapes.two_bubble_perimeter.s", "s"),
            ("wulff.boundary_mesh.calls", "count"), ("wulff.boundary_mesh.vertices", "count"),
            ("wulff.boundary_mesh.s", "s"),
            ("mesh.curvature.calls", "count"), ("mesh.curvature.vertices", "count"),
            ("mesh.curvature.s", "s"), ("mesh.curvature.flagged_ratio", "ratio"),
            ("grid.rasterize.voxels", "count"), ("grid.rasterize.s", "s"),
            ("grid.distance_transform.calls", "count"),
            ("grid.distance_transform.voxels", "count"),
            ("grid.distance_transform.s", "s"),
            ("grid.distance_transform.voxels_per_s", "1/s"),
            ("grid.dilate.calls", "count"), ("grid.dilate.voxels", "count"),
            ("grid.dilate.s", "s"),
            ("grid.erode.s", "s"), ("grid.components.s", "s"),
            ("grid.reach_along_batch.rays", "count"), ("grid.reach_along_batch.s", "s"),
            ("grid.reach_along_batch.short_ratio", "ratio")]
    for fam in NORM_FAMILIES:
        for op in NORM_OPS:
            out += [(f"norms.{fam}.{op}.calls", "count"),
                    (f"norms.{fam}.{op}.points", "count"),
                    (f"norms.{fam}.{op}.s", "s")]
    out.append(("trace.overhead", "ratio"))
    return out


class Recorder:
    """Spans and counts of one pass, single thread of control."""

    def __init__(self):
        self.spans = []                    # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, fn, name, sizes=None):
        """Wrap fn in a span; ``name`` may be a function of the call's args.

        ``sizes(args, result)`` yields (suffix, n) pairs added to the counts
        under ``<name>.<suffix>``; every call also adds one to ``<name>.calls``.
        """
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            sid = len(spans)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(sid)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            counts[label + ".calls"] += 1
            if sizes is not None:
                for suffix, n in sizes(args, out):
                    counts[f"{label}.{suffix}"] += int(n)
            return out

        return traced

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def _points(v):
    shape = np.shape(v)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _norm_label(op):
    def label(args):
        norm = args[0]
        fam = norm.family
        if fam == "dual":
            fam = norm.partner.family if norm.partner is not None else "dual-numeric"
        return f"norms.{fam}.{op}"
    return label


def _norm_sizes(args, out):
    yield "points", _points(args[1])


def install(rec: Recorder):
    """Patch aniso's layer entry points to record into ``rec``."""
    from aniso import norms, shapes, verify, wulff

    for op in NORM_OPS:
        wrapped = rec.wrap(getattr(norms.Norm, op), _norm_label(op), _norm_sizes)
        setattr(norms.Norm, op, wrapped)
        if op == "eval":
            norms.Norm.__call__ = wrapped

    for driver in DRIVERS:
        setattr(verify, driver, rec.wrap(getattr(verify, driver), f"verify.{driver}"))

    def patch(owner, attr, name, sizes=None):
        setattr(owner, attr, rec.wrap(getattr(owner, attr), name, sizes))

    patch(verify, "gen", "shapes.gen")
    patch(verify, "two_bubble_perimeter", "shapes.two_bubble_perimeter")
    patch(shapes._TwoBubbleProfile, "union_rho", "shapes.union_rho",
          lambda a, out: [("rays", len(a[1]))])
    patch(shapes._TwoBubbleProfile, "__call__", "shapes.two_bubble_profile",
          lambda a, out: [("rays", len(out))])
    for solid in (wulff.WulffShape, shapes.TwoBubbleSolid, shapes.PerturbedWulffSolid):
        patch(solid, "level_at", "shapes.level_at",
              lambda a, out: [("points", np.size(out))])
    patch(wulff.WulffShape, "boundary_mesh", "wulff.boundary_mesh",
          lambda a, out: [("vertices", len(out.vertices))])
    patch(verify, "curvature", "mesh.curvature",
          lambda a, out: [("vertices", len(a[0].vertices)), ("flagged", out.n_flagged)])
    patch(verify, "rasterize", "grid.rasterize",
          lambda a, out: [("voxels", out.occupancy.size)])
    patch(verify, "distance_transform", "grid.distance_transform",
          lambda a, out: [("voxels", a[0].occupancy.size)])
    patch(verify, "dilate", "grid.dilate", lambda a, out: [("voxels", a[0].occupancy.size)])
    patch(verify, "erode", "grid.erode")
    patch(verify, "components", "grid.components")
    patch(verify, "reach_along_batch", "grid.reach_along_batch",
          lambda a, out: [("rays", len(a[1]))])


def layer_metrics(rec: Recorder, reports):
    """Per-layer metric values of one traced pass.

    ``reports`` are the pass's VerificationReports; the short-ray ratio is
    read from the disintegration reports' tau_failures / n_vertices.
    """
    self_s = defaultdict(float)
    span_s = defaultdict(float)
    for (name, start, end, _), own in zip(rec.spans, rec.self_times()):
        self_s[name] += own
        span_s[name] += end - start
    c = rec.counts
    values = {}
    for name, _ in per_layer_names():
        base, _, suffix = name.rpartition(".")
        if suffix == "s":
            values[name] = self_s.get(base, 0.0)
        elif suffix in ("calls", "points", "rays", "voxels", "vertices"):
            values[name] = c.get(name, 0)
    dt = span_s.get("grid.distance_transform", 0.0)
    values["grid.distance_transform.voxels_per_s"] = (
        c.get("grid.distance_transform.voxels", 0) / dt if dt > 0 else 0.0)
    nv = c.get("mesh.curvature.vertices", 0)
    values["mesh.curvature.flagged_ratio"] = c.get("mesh.curvature.flagged", 0) / nv if nv else 0.0
    failures = sum(r.extras.get("tau_failures", 0) for r in reports)
    rays = sum(r.extras.get("n_vertices", 0) for r in reports)
    values["grid.reach_along_batch.short_ratio"] = failures / rays if rays else 0.0
    return values
