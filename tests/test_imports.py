"""The runtime needs the standard library only.

Every import in ``src/acalg`` names a module of the standard library (its top
level is in ``sys.stdlib_module_names``) or is relative to the package.  Of
the package's modules, only ``scalars`` imports ``fractions``: every other
module computes on ints and scalars.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "acalg"


def _absolute_imports(tree):
    """(module, line) for each import not relative to the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            yield name, node.lineno


def _outside_imports(tree):
    """(module, line) for each import that leaves the standard library."""
    for name, line in _absolute_imports(tree):
        if name.partition(".")[0] not in sys.stdlib_module_names:
            yield name, line


def test_the_package_imports_the_standard_library_only():
    found = [
        f"{path.name}:{line} imports {name}"
        for path in sorted(SOURCE.glob("*.py"))
        for name, line in _outside_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


@pytest.mark.parametrize(
    "source, outside",
    [
        ("import re, collections.abc", []),
        ("from __future__ import annotations", []),
        ("from .algebra import product", []),
        ("from . import reps", []),
        ("import numpy", ["numpy"]),
        ("import os, sympy.matrices", ["sympy.matrices"]),
        ("from hypothesis import given", ["hypothesis"]),
        ("def f():\n    import pytest", ["pytest"]),
    ],
)
def test_the_check_tells_outside_imports(source, outside):
    assert [name for name, _ in _outside_imports(ast.parse(source))] == outside


def _fractions_imports(tree):
    """The line of each import of ``fractions``."""
    return [line for name, line in _absolute_imports(tree) if name.partition(".")[0] == "fractions"]


def test_only_scalars_imports_fractions():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "scalars.py"
        for line in _fractions_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


@pytest.mark.parametrize(
    "source, lines",
    [
        ("from fractions import Fraction", [1]),
        ("import os\nimport fractions as f", [2]),
        ("def f():\n    from fractions import Fraction", [2]),
        ("from .scalars import gaussian\nimport decimal", []),
    ],
)
def test_the_check_tells_fractions_imports(source, lines):
    assert _fractions_imports(ast.parse(source)) == lines
