"""The package imports nothing beyond numpy and the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "t2vad"
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
