"""One carrier class over per-degree records.

A carrier is ``Carrier(name, first_degree, record)``, and ``record(k)`` holds
degree k's ``values``, ``dim`` and ``coordinates(row)``.  g's and h's records
are ``lie``'s; B's is the word record.  The tests check that each record
charts its own basis, and ``ast`` guards keep per-carrier subclasses out of
the package and the chart's tag columns inside ``linalg``.
"""

import ast
from pathlib import Path

import pytest

from acalg.cohomology import CARRIERS, Carrier, _WordRecord, get_carrier
from acalg.lie import _g_basis, _graded_basis
from acalg.scalars import ONE

SOURCE = Path(__file__).resolve().parents[1] / "src" / "acalg"


def test_the_built_in_carriers_are_records():
    assert [(c.name, c.first_degree, c.record) for c in CARRIERS.values()] == [
        ("g", 1, _g_basis),
        ("h", 1, _graded_basis),
        ("B", 0, _WordRecord),
    ]
    assert all(type(c) is Carrier for c in CARRIERS.values())


@pytest.mark.parametrize(
    "name, degrees", [("g", range(1, 9)), ("h", range(1, 9)), ("B", range(0, 11))]
)
def test_each_record_charts_its_own_basis(name, degrees):
    carrier = get_carrier(name)
    for k in degrees:
        basis = carrier.basis(k)
        assert carrier.dim(k) == len(basis), k
        assert carrier.coordinates(basis, k) == [{n: ONE} for n in range(len(basis))], k
        assert all(carrier.element({n: 1}, k) == b for n, b in enumerate(basis)), k


def _defined_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _base_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for base in node.bases:
                yield base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)


def _source_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCE.glob("*.py")}


def test_the_package_has_one_carrier_class():
    trees = _source_trees()
    subclassing = [module for module, tree in trees.items() if "Carrier" in _base_names(tree)]
    assert subclassing == []
    retired = [
        f"{module}: {name}" for module, tree in trees.items()
        for name in _defined_names(tree) if name in ("_LieCarrier", "_WordCarrier")
    ]
    assert retired == []


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name
                yield alias.asname


def test_only_linalg_knows_the_chart_tag():
    # every coordinate read goes through linalg.Chart, so no other module tags rows
    tagging = [
        module for module, tree in _source_trees().items()
        if "_TAG" in {*_defined_names(tree), *_imported_names(tree)}
    ]
    assert tagging == ["linalg.py"]
