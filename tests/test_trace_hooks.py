"""The benchmark's trace wrappers must still find every name they patch.

`perfbench/tracing.py` patches functions and methods of `aniso` by name; a
rename or deletion here would only show in a traced benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_trace_hooks_install():
    code = ("import sys; sys.path[:0] = sys.argv[1:]\n"
            "import tracing; tracing.install(tracing.Recorder())")
    proc = subprocess.run(
        [sys.executable, "-c", code, os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
