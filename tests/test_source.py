"""Rules on the package source itself."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "yangbaxter"
MODULES = sorted(PACKAGE.glob("*.py"))


def test_package_modules_found():
    assert "verify.py" in {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    # python -O strips assert, so no check may rely on one
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert on lines {lines}"


def _outside_imports(tree):
    """Modules imported by tree that are neither relative nor standard library."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.partition(".")[0] not in sys.stdlib_module_names]


def test_outside_imports_rule_flags_third_party_modules():
    tree = ast.parse("import os.path\nfrom . import x\nfrom .y import z\nimport numpy as np\n"
                     "from scipy.linalg import lu\n")
    assert _outside_imports(tree) == ["numpy", "scipy.linalg"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_are_relative_or_standard_library(path):
    # the package promises no runtime dependencies beyond the standard library
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _outside_imports(tree) == [], f"{path.name} imports outside the standard library"
