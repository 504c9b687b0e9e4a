"""Benchmark workloads: the verification runs a user waits for.

Each workload is a list of cases, each one call of an `aniso.verify` driver.
Seed 0 gives every pass the acceptance radius r = 1.5; any other seed
scales each case's r by a factor drawn uniformly from [0.95, 1.05], drawn
afresh for every pass of a run from (seed, pass index), so a claim can be
rechecked on inputs not used while it was written and a run's median covers
several draws.  Outputs of seed 0 are compared with the committed references
in `reference/`; for other seeds correctness is the driver's own pass/fail.

Requires `aniso` on sys.path (the worker puts the checkout's `src` there).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from aniso import verify
from aniso.norms import parse_norm
from aniso.shapes import ShapeSpec

RBAR = 1.5
JITTER = 0.05
REL_TOL = 1e-9
# The 3D workloads run on coarser grids than the drivers' 3D default (spacing
# rbar/48), so that several passes fit in one run and its median is steady:
# at the defaults one pass took 20 s.  dilate-reach-3d also uses a coarser
# mesh (resolution 4, not 5): the number of relaxation rounds of an outward
# dilation changes with r (4 to 8 rounds at the defaults), so each pass is
# one draw of a wide distribution and a run needs many of them.
EROSION_SPACING_FRAC = 1 / 32
DILATE_SPACING_FRAC = 1 / 24
DILATE_RESOLUTION = 4
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


@dataclass(frozen=True)
class Case:
    name: str
    driver: str
    kwargs: dict


def _radii(seed, pass_index, n):
    if seed == 0:
        return [RBAR] * n
    rng = random.Random(f"{seed}/{pass_index}")
    return [RBAR * (1.0 + rng.uniform(-JITTER, JITTER)) for _ in range(n)]


def _erosion_3d(seed, pass_index):
    norms = ("euclidean", "ellipse:1,4,2", "smoothmax:0.1")
    return [Case(f"erosion {n}", "check_erosion_laws",
                 {"shape": ShapeSpec("wulff", parse_norm(n, 3), r=r),
                  "spacing": r * EROSION_SPACING_FRAC})
            for n, r in zip(norms, _radii(seed, pass_index, len(norms)))]


def _dilate_reach_3d(seed, pass_index):
    r1, r2 = _radii(seed, pass_index, 2)
    ball = parse_norm("euclidean", 3)
    return [Case("minkowski euclidean", "check_minkowski_law",
                 {"shape": ShapeSpec("wulff", ball, r=r1), "pairs": [(0.2, 0.5), (0.1, 0.3)],
                  "spacing": r1 * DILATE_SPACING_FRAC, "resolution": DILATE_RESOLUTION}),
            Case("disintegration euclidean", "check_disintegration",
                 {"shape": ShapeSpec("wulff", ball, r=r2),
                  "spacing": r2 * DILATE_SPACING_FRAC, "resolution": DILATE_RESOLUTION})]


def _bubbling_2d(seed, pass_index):
    (r,) = _radii(seed, pass_index, 1)
    spec = ShapeSpec("two-bubble", parse_norm("smoothmax:0.5", 2), r=r, neck_width=0.49 * r)
    return [Case("bubbling smoothmax 2d", "run_bubbling",
                 {"h_list": (1, 2, 3), "base_spec": spec, "dim": 2})]


def _tiny_2d(seed, pass_index):
    (r,) = _radii(seed, pass_index, 1)
    return [Case("erosion euclidean 2d", "check_erosion_laws",
                 {"shape": ShapeSpec("wulff", parse_norm("euclidean", 2), r=r)})]


# BENCHMARK.json records why each workload was chosen; "selftest-2d" is a
# tiny case that only backs selftest.py
WORKLOADS = {
    "erosion-3d": _erosion_3d,
    "dilate-reach-3d": _dilate_reach_3d,
    "bubbling-2d": _bubbling_2d,
    "selftest-2d": _tiny_2d,
}


def build(workload, seed, pass_index=0):
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[workload](seed, pass_index)


def run_case(case):
    """Call the case's driver, looked up at call time so trace wrappers apply."""
    fn = getattr(verify, case.driver)
    out = fn(**case.kwargs)
    return out[0] if isinstance(out, tuple) else out


_EXACT_ROWS = ("erosion-volume", "erosion-perimeter", "minkowski-")


def outputs(report):
    """Named outputs of one report: {key: [value, exact]}.

    Voxel volumes (eroded, dilated, symmetric differences) and counts must
    repeat exactly; every other value is compared to REL_TOL relative.
    """
    out = {}
    for row in report.rows:
        exact = row["name"].startswith(_EXACT_ROWS) or "detail" in row
        out[f"row {row['name']}"] = [row["measured"], exact]
    ex = report.extras
    for i, v in enumerate(ex.get("measured_volumes", [])):
        out[f"eroded volume {i}"] = [float(v), True]
    for key in ("tau_failures", "n_vertices"):
        if key in ex:
            out[key] = [int(ex[key]), True]
    for row in ex.get("sequence_rows", []):
        h = row["h"]
        out[f"h={h} counts"] = [list(row["counts"]), True]
        out[f"h={h} symdiff"] = [float(row["symdiff"]), True]
        out[f"h={h} per_gap"] = [float(row["per_gap"]), False]
    return out


def mismatches(got, ref):
    """Keys whose values leave the reference; empty when the case matches."""
    bad = sorted(set(got) ^ set(ref))
    for key in set(got) & set(ref):
        (g, exact), (r, _) = got[key], ref[key]
        if exact or not isinstance(r, float):
            ok = g == r
        else:
            ok = abs(g - r) <= REL_TOL * abs(r) if r != 0 else g == 0
        if not ok:
            bad.append(key)
    return bad


def reference_path(workload):
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload):
    with open(reference_path(workload)) as fh:
        return json.load(fh)
