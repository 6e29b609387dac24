"""The package imports nothing beyond numpy and the standard library."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "t2vad"
ALLOWED = {"numpy", "t2vad", *sys.stdlib_module_names}


def imported_roots(source: str) -> set[str]:
    """Top-level names of the absolute imports in `source`; relative imports
    stay inside the package."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_imported_roots_sees_every_import_form():
    source = ("import scipy.linalg\nfrom numba import njit\nfrom . import dtw\n"
              "import numpy as np, os\n\ndef f():\n    import torch\n")
    assert imported_roots(source) == {"scipy", "numba", "numpy", "os", "torch"}


def test_package_imports_only_numpy_the_standard_library_and_itself():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    foreign = {str(path.relative_to(PACKAGE)): sorted(imported_roots(path.read_text()) - ALLOWED)
               for path in modules}
    assert {name: roots for name, roots in foreign.items() if roots} == {}


def unused_imports(source: str) -> set[str]:
    """Names that `source` imports but never reads; a name listed in its
    `__all__` counts as read. `from __future__` features are not names."""
    tree = ast.parse(source)
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            read.update(ast.literal_eval(node.value))
    return imported - read


def test_unused_imports_sees_every_import_form():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from typing import Any, Callable\nfrom . import dtw, rng as r\n"
              "__all__ = ['dtw']\n\ndef f(x: Callable):\n    Any = np.zeros(r)\n")
    assert unused_imports(source) == {"os", "Any"}


def test_no_module_imports_a_name_it_never_uses():
    """The package, its tests and its demos."""
    leftovers = {str(path.relative_to(ROOT)): sorted(unused_imports(path.read_text()))
                 for tree in (PACKAGE, ROOT / "tests", ROOT / "demos")
                 for path in sorted(tree.rglob("*.py"))}
    assert {name: names for name, names in leftovers.items() if names} == {}
