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
