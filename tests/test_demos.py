"""The demos are not run by the suite, so check that what they import exists."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _aniso_imports(path):
    """(module, name) for each `from aniso[.x] import name`; (module, None)
    for each `import aniso[.x]`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "aniso":
                yield from ((node.module, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names if a.name.split(".")[0] == "aniso")


def _resolves(module, name):
    """Whether `import module` works and, given a name, module.name exists
    (as an attribute or as a submodule)."""
    try:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_demos_import_from_aniso():
    assert DEMOS and all(any(_aniso_imports(p)) for p in DEMOS)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    missing = [f"{m}.{n}" if n else m for m, n in _aniso_imports(path) if not _resolves(m, n)]
    assert not missing, f"{path.name} imports names aniso does not have: {missing}"
