"""Every memo cache in the package is bounded.

An ``lru_cache`` or ``cache`` decorator in ``src/acalg`` must name a finite
``maxsize``: a cache keyed by user input would otherwise grow for the life of
the process.  ``generator_element`` is keyed by the four generator names
alone, so it is the one listed exception.  The rewrite engine's module-level
tables, the step tables and the monomial cache, are no decorators, so their
bounds are checked by filling them.
"""

import ast
import itertools
from pathlib import Path

import pytest

from acalg import algebra

SOURCE = Path(__file__).resolve().parents[1] / "src" / "acalg"
UNBOUNDED_ALLOWED = {"generator_element"}


def _cache_kind(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name if name in ("lru_cache", "cache") else None


def _is_bounded(decorator) -> bool:
    """True for ``lru_cache(n)`` or ``lru_cache(maxsize=n)`` with n a
    positive integer written as a constant expression such as ``1 << 17``."""
    if _cache_kind(decorator) != "lru_cache" or not isinstance(decorator, ast.Call):
        return False
    sizes = decorator.args[:1] + [kw.value for kw in decorator.keywords if kw.arg == "maxsize"]
    if len(sizes) != 1:
        return False
    try:
        size = eval(compile(ast.Expression(sizes[0]), "<maxsize>", "eval"), {"__builtins__": {}})
    except NameError:
        return False
    return isinstance(size, int) and size > 0


def _unbounded_caches():
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    if _cache_kind(decorator) and not _is_bounded(decorator):
                        yield node.name, f"{path.name}:{decorator.lineno}"


def test_every_cache_has_a_finite_maxsize():
    found = [where for name, where in _unbounded_caches() if name not in UNBOUNDED_ALLOWED]
    assert found == []


@pytest.mark.parametrize(
    "source, bounded",
    [
        ("@lru_cache(maxsize=64)", True),
        ("@functools.lru_cache(1 << 17)", True),
        ("@lru_cache", False),
        ("@lru_cache()", False),
        ("@lru_cache(maxsize=None)", False),
        ("@lru_cache(maxsize=0)", False),
        ("@lru_cache(maxsize=SIZE)", False),
        ("@cache", False),
        ("@functools.cache", False),
    ],
)
def test_the_rule_reads_decorators(source, bounded):
    decorator = ast.parse(f"{source}\ndef f(): pass").body[0].decorator_list[0]
    assert _cache_kind(decorator)
    assert _is_bounded(decorator) is bounded


def _rewrite_all(max_length, after_each=lambda: None):
    out = []
    for length in range(max_length + 1):
        for word in itertools.product(algebra.GENERATORS, repeat=length):
            out.append(tuple(algebra.rewrite_word(word, s) for s in ("leftmost", "rightmost")))
            after_each()
    return out


def test_the_rewrite_tables_stay_within_their_bounds(monkeypatch):
    tables = algebra.LEFTMOST_STEPS + algebra.RIGHTMOST_STEPS
    unbounded = _rewrite_all(5)  # the default bounds: these words never reach them
    monkeypatch.setattr(algebra, "_STEPS_SIZE", 16)
    monkeypatch.setattr(algebra, "_MONO_CACHE_SIZE", 32)
    for table in tables:
        table.clear()
    algebra._MONO_CACHE.clear()
    sizes = []

    def record():
        sizes.append([len(table) for table in tables] + [len(algebra._MONO_CACHE)])

    assert _rewrite_all(5, record) == unbounded
    bounds = [16] * len(tables) + [32]
    for n, bound in enumerate(bounds):
        assert max(size[n] for size in sizes) == bound, n
        # filled past its bound, and so cleared
        assert any(b[n] < a[n] for a, b in zip(sizes, sizes[1:])), n
