"""Every demo runs to completion against the current package.

Each `demos/*.py` runs in its own interpreter with `PYTHONPATH=src`, so a
demo broken at the attribute level (a field or method that no longer
exists) fails here, not only one that imports a deleted name. The import
check stays because its failure names the missing import without running
anything. None of the demos writes files; all seven take about ten
seconds together.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, f"{path.name} exited {proc.returncode}:\n{proc.stderr}"
    assert proc.stdout.strip(), f"{path.name} printed nothing"
    assert list(tmp_path.iterdir()) == [], f"{path.name} wrote files"
