"""Outside-in layer tracer: spans and counters wrapped around acalg's entry points.

The engine carries no instrumentation, so the benchmark wraps each layer
entry point from outside.  A ``from .linalg import solve_columns`` binds the
function into the importing module, so a module-level function is replaced
under every name in every ``acalg`` module that holds the same object; a
class method is replaced once on its class.  Modules are reached through
``importlib.import_module``: ``import acalg.cohomology as C`` would bind the
``cohomology`` function that ``acalg/__init__.py`` re-exports, not the
submodule.

An entry point that a later version of acalg no longer has is skipped, so
its layer records no calls (which the worker reports as a problem) instead
of breaking the run.  A span's self time is its duration minus the time of
the spans it directly encloses.  The program is single-threaded with no queues, so nothing waits
and there is no waiting time to report.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import time
from collections import Counter

# span name -> (module, class or None, attribute)
SPANS = (
    ("algebra.rewrite_word", "acalg.algebra", None, "rewrite_word"),
    ("algebra.product", "acalg.algebra", None, "product"),
    ("lie.basis", "acalg.lie", None, "lie_basis"),
    ("lie.basis", "acalg.lie", None, "h_basis"),
    ("linalg.span_add", "acalg.linalg", "SpanReducer", "add"),
    ("linalg.span_contains", "acalg.linalg", "SpanReducer", "contains"),
    ("linalg.nullspace", "acalg.linalg", "ExactMatrix", "nullspace"),
    ("linalg.rank", "acalg.linalg", "ExactMatrix", "rank"),
    ("linalg.solve_columns", "acalg.linalg", None, "solve_columns"),
    ("linalg.matmul", "acalg.linalg", "ExactMatrix", "__matmul__"),
    ("cohomology.ad_matrix", "acalg.cohomology", None, "ad_matrix"),
    ("cohomology.cohomology_data", "acalg.cohomology", None, "cohomology_data"),
    ("cohomology.induced_map", "acalg.cohomology", None, "induced_map"),
    ("cohomology.les_check", "acalg.cohomology", None, "les_check"),
    ("mc.is_mc", "acalg.mc", None, "is_mc"),
    ("mc.strata_nullity", "acalg.mc", None, "strata_nullity"),
    ("mc.quotient_nullity", "acalg.mc", None, "quotient_nullity"),
    ("reps.verify_relations", "acalg.reps", None, "verify_relations"),
    ("reps.quotient_faithfulness", "acalg.reps", None, "quotient_faithfulness"),
    ("exprs.parse_element", "acalg.exprs", None, "parse_element"),
    ("exprs.render", "acalg.exprs", None, "render"),
    ("cli.main", "acalg.cli", None, "main"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in SPANS))

COUNTERS = (
    "scalars.created",
    "scalars.zero_tests",
    "algebra.rewrite_word.terms_out",
    "lie.basis.candidates",
    "lie.basis.accepted",
    "cli.main.nonzero_exit",
)

#: B-carrier degrees whose ad_mubar matrix goes into the census
CENSUS_DEGREES = (8, 9, 10)


class Tracer:
    """Spans and counters for one traced run; ``install`` patches, ``remove``
    restores every patched attribute."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()
        # one entry per open span: the time taken by the spans it encloses
        self._open: list[list[float]] = []
        self._parents: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        # census: degree -> matrix, then degree -> rank from its nullspace
        self.census_matrices: dict[int, object] = {}
        self.census_ranks: dict[int, int] = {}
        # (hits, misses) of the word memo cache behind product, at install
        # and at removal
        self.rewrite_cache: list[tuple[int, int]] = []
        self._tallies: dict[str, object] = {}

    # -- wrapping ------------------------------------------------------------------

    def _span(self, name, fn, after=None):
        open_spans, parents = self._open, self._parents
        calls, self_s = self.calls, self.self_s
        clock = self.clock

        def traced(*args, **kwargs):
            parent = parents[-1] if parents else None
            inner = [0.0]
            open_spans.append(inner)
            parents.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                open_spans.pop()
                parents.pop()
                if open_spans:
                    open_spans[-1][0] += duration
                calls[name] += 1
                self_s[name] += duration - inner[0]
            if after is not None:
                after(args, result, parent)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module_name, attr, name, after):
        original = getattr(importlib.import_module(module_name), attr, None)
        if original is None:
            return
        wrapper = self._span(name, original, after)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "acalg" and not mod_name.startswith("acalg."):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, wrapper)

    def install(self) -> "Tracer":
        hooks = {
            "algebra.rewrite_word": self._after_rewrite,
            "linalg.span_add": self._after_span_add,
            "linalg.nullspace": self._after_nullspace,
            "cohomology.ad_matrix": self._after_ad_matrix,
            "cli.main": self._after_main,
        }
        for name, module_name, cls_name, attr in SPANS:
            after = hooks.get(name)
            if cls_name is None:
                self._patch_function(module_name, attr, name, after)
            else:
                cls = getattr(importlib.import_module(module_name), cls_name, None)
                if cls is not None and attr in cls.__dict__:
                    self._set(cls, attr, self._span(name, cls.__dict__[attr], after))
        self._count_scalars()
        self._read_rewrite_cache()
        return self

    def remove(self) -> None:
        self._read_rewrite_cache()
        for counter, tick in self._tallies.items():
            self.counters[counter] += tick()
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _count_scalars(self):
        cls = importlib.import_module("acalg.scalars").GaussianRational
        for attr, counter in (("__post_init__", "scalars.created"), ("is_zero", "scalars.zero_tests")):
            original = cls.__dict__.get(attr)
            if original is not None:
                self._set(cls, attr, self._counted(counter, original))

    def _counted(self, counter, fn):
        # tens of millions of calls on cone_B: a C-level tick costs a third
        # of a Counter update, and the count is read once, at removal
        tick = itertools.count().__next__
        self._tallies[counter] = tick

        def counted(scalar):
            tick()
            return fn(scalar)

        return counted

    def _read_rewrite_cache(self):
        cache = getattr(importlib.import_module("acalg.algebra"), "_rewrite_cached", None)
        if hasattr(cache, "cache_info"):
            info = cache.cache_info()
            self.rewrite_cache.append((info.hits, info.misses))

    def rewrite_cache_hit_ratio(self) -> float:
        """Hits over lookups of the word memo cache while installed; 0 if
        there were none or the cache no longer exists."""
        if len(self.rewrite_cache) != 2:
            return 0.0
        (hits0, misses0), (hits1, misses1) = self.rewrite_cache
        lookups = hits1 - hits0 + misses1 - misses0
        return (hits1 - hits0) / lookups if lookups else 0.0

    # -- counters read at layer boundaries ---------------------------------------

    def _after_rewrite(self, args, result, parent):
        self.counters["algebra.rewrite_word.terms_out"] += len(result)

    def _after_span_add(self, args, result, parent):
        # the basis builders offer each nonzero candidate to a SpanReducer
        if parent == "lie.basis":
            self.counters["lie.basis.candidates"] += 1
            self.counters["lie.basis.accepted"] += bool(result)

    def _after_main(self, args, result, parent):
        self.counters["cli.main.nonzero_exit"] += result != 0

    def _after_ad_matrix(self, args, result, parent):
        k, carrier = args[1], args[2] if len(args) > 2 else "g"
        name = carrier if isinstance(carrier, str) else carrier.name
        if name == "B" and k in CENSUS_DEGREES and k not in self.census_matrices:
            self.census_matrices[k] = result.matrix

    def _after_nullspace(self, args, result, parent):
        matrix = args[0]
        for k, census in self.census_matrices.items():
            if census is matrix and k not in self.census_ranks:
                self.census_ranks[k] = matrix.ncols - len(result)

    # -- results -------------------------------------------------------------------

    def census(self) -> dict[int, tuple[int, int, int, int]]:
        """degree -> (rows, cols, nonzeros, rank) of ad_mubar from B_k to B_k+1.

        Nonzeros are counted on the Fraction parts, after the run, so the
        count adds no scalar zero-tests and no time to any span.
        """
        out = {}
        for k, matrix in sorted(self.census_matrices.items()):
            nnz = sum(1 for row in matrix.rows for x in row if x.re or x.im)
            out[k] = (matrix.nrows, matrix.ncols, nnz, self.census_ranks.get(k, -1))
        return out
