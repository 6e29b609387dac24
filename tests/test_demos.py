"""The demos import only names the package still defines.

Parsing is enough: a demo that imports a deleted function fails here
without being run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def package_imports(path):
    """(module, name or None) for every import of t2vad in the file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "t2vad":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "t2vad":
                    yield alias.name, None


def test_there_are_demos():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    imports = list(package_imports(path))
    assert imports, f"{path.name} imports nothing from t2vad"
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is None or hasattr(mod, name):
            continue
        submodule = hasattr(mod, "__path__") and importlib.util.find_spec(f"{module}.{name}")
        assert submodule, f"{path.name}: {module} has no {name}"
