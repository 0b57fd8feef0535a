"""Every memo cache in the package is bounded.

An ``lru_cache`` or ``cache`` decorator in ``src/acalg`` must name a finite
``maxsize``: a cache keyed by user input would otherwise grow for the life of
the process.  ``generator_element`` is keyed by the four generator names
alone, so it is the one listed exception.
"""

import ast
from pathlib import Path

import pytest

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
