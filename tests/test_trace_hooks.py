"""The benchmark's trace wrappers must still find every name they patch.

`perfbench/tracing.py` patches functions and methods of `aniso` by name; a
rename or deletion here would only show in a traced benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_with_tracing(code):
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path[:0] = sys.argv[1:]\n" + code,
         os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr


def test_trace_hooks_install():
    _run_with_tracing("import tracing; tracing.install(tracing.Recorder())")


def test_every_driver_runs_traced():
    # the keyword arguments perfbench/workloads.py passes, on tiny 2D inputs; a
    # traced argument passed by keyword would break the wrappers' size hooks
    _run_with_tracing("""
import tracing
from aniso import ShapeSpec, parse_norm, verify
rec = tracing.Recorder()
tracing.install(rec)
ball = ShapeSpec("wulff", parse_norm("euclidean", 2), r=1.5)
grid = {"spacing": 0.06, "resolution": 256}
verify.check_erosion_laws(shape=ball, **grid)
verify.check_minkowski_law(shape=ball, pairs=[(0.2, 0.5), (0.1, 0.3)], **grid)
verify.check_disintegration(shape=ball, **grid)
pair = ShapeSpec("two-bubble", parse_norm("smoothmax:0.5", 2), r=1.5, neck_width=0.49 * 1.5)
verify.run_bubbling(h_list=(1,), base_spec=pair, dim=2, **grid)
for driver in tracing.DRIVERS:
    assert rec.counts[f"verify.{driver}.calls"] == 1, driver
for name in ("shapes.gen.calls", "shapes.two_bubble_perimeter.calls", "mesh.curvature.vertices",
             "grid.rasterize.voxels", "grid.distance_transform.voxels", "grid.dilate.voxels",
             "grid.erode.calls", "grid.components.calls", "grid.reach_along_batch.rays"):
    assert rec.counts[name] > 0, name
""")


def test_polar_labels():
    # a polar is labelled by its own family; the numeric engine by "dual-numeric"
    _run_with_tracing("""
import tracing
from aniso import DualNorm, EuclideanNorm, parse_norm
label = tracing._norm_label("eval")
for dim in (2, 3):
    for spec, fam in [("euclidean", "euclidean"), ("ellipse:1,4" if dim == 2 else
                      "ellipse:1,4,2", "ellipse"), ("lp:3", "lp"),
                      ("smoothmax:0.1", "smoothmax-polar"), ("l1", "linf"), ("linf", "l1")]:
        got = label((parse_norm(spec, dim).dual(),))
        assert got == f"norms.{fam}.eval", (spec, dim, got)
assert label((DualNorm(EuclideanNorm(3)),)) == "norms.dual-numeric.eval"
""")
