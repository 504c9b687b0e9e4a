"""What a fresh interpreter loads.

Each benchmark pass runs in a new interpreter, so every module a pass imports
is paid in its time and memory.  `scipy.spatial` costs about 0.1 s and 1 MB
to load, and no 2D bubbling pass nor crystalline Wulff polytope needs it.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bubbling_and_crystalline_identity_skip_scipy_spatial():
    code = """
import sys
from aniso import ShapeSpec, check_wulff_identity, parse_norm, run_bubbling
pair = ShapeSpec("two-bubble", parse_norm("smoothmax:0.5", 2), r=1.5, neck_width=0.49 * 1.5)
run_bubbling(h_list=(1,), base_spec=pair, dim=2, spacing=0.06, resolution=256)
for dim in (2, 3):
    for family in ("l1", "linf"):
        assert check_wulff_identity(parse_norm(family, dim)).passed
loaded = sorted(m for m in sys.modules if m.startswith("scipy.spatial"))
assert not loaded, loaded
"""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path[:0] = sys.argv[1:]\n" + code,
         os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
