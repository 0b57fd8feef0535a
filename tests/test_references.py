"""No dead helpers.

Every module-level function and class, and every method whose name is not a
dunder, defined in ``src/acalg`` is referenced by name somewhere in
``src/acalg``, ``tests`` or ``bench`` outside its own definition.  A name is
referenced by a ``Name`` or an ``Attribute`` node, or by a string constant
that is the name: ``__all__`` lists names as strings, and the bench tracer
looks up the functions it wraps by name.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "acalg"
READERS = (SOURCE, ROOT / "tests", ROOT / "bench")

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree):
    """(name, line) of each module-level function and class and of each
    method whose name is not a dunder."""
    for node in tree.body:
        if not isinstance(node, _DEFINITIONS):
            continue
        yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, item.lineno


def _references(tree):
    """The names the tree refers to, each outside every definition of that
    same name, so a recursive call does not keep a function alive."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, _DEFINITIONS):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = None
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def _unreferenced(defining, readers):
    """(name, line) of each definition in the tree ``defining`` that no tree
    in ``readers`` refers to."""
    referenced = set().union(*(_references(tree) for tree in readers))
    return [(name, line) for name, line in _definitions(defining) if name not in referenced]


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_definition_in_the_package_is_referenced():
    readers = [_parse(path) for folder in READERS for path in sorted(folder.rglob("*.py"))]
    found = [
        f"{path.name}:{line} defines {name}"
        for path in sorted(SOURCE.glob("*.py"))
        for name, line in _unreferenced(_parse(path), readers)
    ]
    assert found == []


# the expected names are string constants, and so references themselves:
# none of them may name a definition of the package
@pytest.mark.parametrize(
    "source, unreferenced",
    [
        ("def used():\n    pass\n\nused()", []),
        ("def orphan(k, b):\n    return split_B(k, b)[0]", ["orphan"]),
        ("def loop(n):\n    return loop(n - 1)", ["loop"]),
        ("class C:\n    def m(self):\n        pass\n\nC()", ["m"]),
        ("class C:\n    def m(self):\n        pass\n\nC().m()", []),
        ("class C:\n    def __init__(self):\n        pass\n\nC()", []),
        ("__all__ = ['exported']\n\ndef exported():\n    pass", []),
        ("def outer():\n    def inner():\n        pass\n\nouter()", []),
    ],
)
def test_the_check_tells_unreferenced_definitions(source, unreferenced):
    tree = ast.parse(source)
    assert [name for name, _ in _unreferenced(tree, [tree])] == unreferenced


# the packed code of a normal monomial is its attribute ``packed``; these
# are the helpers and tables that build and read it
_PACKED_HELPERS = {"_monomial", "_passes", "_CODE"}


def _packed_code_reads(tree):
    """(line, name) of each read of ``packed`` as an attribute, and of each
    attribute, name or imported name in ``tree`` that names a helper."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name, names = node.attr, _PACKED_HELPERS | {"packed"}
        elif isinstance(node, (ast.Name, ast.alias)):
            name, names = getattr(node, "id", None) or node.name, _PACKED_HELPERS
        else:
            continue
        if name in names:
            yield node.lineno, name


def test_only_algebra_reads_the_packed_code():
    # B's word index is stated once, in algebra beside the codes it reads,
    # and every other module asks it for words and word columns
    found = [
        f"{path.name}:{line} reads {name}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "algebra.py"
        for line, name in _packed_code_reads(_parse(path))
    ]
    assert found == []


@pytest.mark.parametrize(
    "source, reads",
    [
        ("row = mono.packed", [(1, "packed")]),
        ("from .algebra import _monomial, words", [(1, "_monomial")]),
        ("x = _passes(y, head)\nz = _CODE['mu']", [(1, "_passes"), (2, "_CODE")]),
        ("packed = 1\nwords(packed)", []),
        ("import acalg.algebra as a\na._monomial(4)", [(2, "_monomial")]),
    ],
)
def test_the_check_tells_packed_code_reads(source, reads):
    assert sorted(_packed_code_reads(ast.parse(source))) == reads
