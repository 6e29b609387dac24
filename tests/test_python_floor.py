"""The package's source parses as the oldest Python that pyproject.toml admits."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "t2vad"


def python_floor() -> tuple[int, int]:
    """(major, minor) of pyproject.toml's `requires-python = ">=X.Y"`."""
    match = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text(), re.M)
    assert match, "pyproject.toml states no requires-python >= floor"
    return int(match[1]), int(match[2])


def test_parsing_at_3_10_rejects_3_11_syntax():
    with pytest.raises(SyntaxError, match="3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def test_every_module_parses_at_the_python_floor():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    floor = python_floor()
    for path in modules:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)
