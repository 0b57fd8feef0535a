"""The benchmark's layer tracer still finds acalg's entry points.

``bench/tracer.py`` wraps acalg's layer functions from outside and skips an
entry point it cannot find, so a renamed or deleted function would only show
up as a traced benchmark run that records no calls of that layer.  These
tests load the tracer as it is, check every name it wraps, trace one
small run through every layer, and trace a small run of each workload's own
path against the layers ``bench/worker.py`` requires of that workload.
"""

import ast
import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from acalg.reps import build_example_rep

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER_PATH = BENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("acalg_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _required_layers():
    """``REQUIRED_LAYERS`` of ``bench/worker.py``, read without importing it."""
    tree = ast.parse((BENCH / "worker.py").read_text(encoding="utf-8"))
    (node,) = [
        node for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "REQUIRED_LAYERS"
    ]
    return ast.literal_eval(node.value)


REQUIRED_LAYERS = _required_layers()


@pytest.mark.parametrize("name, module_name, cls_name, attr", tracer.SPANS)
def test_every_span_resolves(name, module_name, cls_name, attr):
    module = importlib.import_module(module_name)
    if cls_name is None:
        assert callable(getattr(module, attr, None)), name
    else:
        cls = getattr(module, cls_name, None)
        assert cls is not None and attr in cls.__dict__, name


def test_counter_hooks_resolve():
    scalar = importlib.import_module("acalg.scalars").GaussianRational
    assert "__post_init__" in scalar.__dict__ and "is_zero" in scalar.__dict__
    assert hasattr(importlib.import_module("acalg.algebra")._rewrite_cached, "cache_info")


def test_a_traced_run_records_every_layer(capsys):
    # through the module attributes, which the tracer replaces (the package
    # itself re-exports the `cohomology` function under the submodule's name)
    algebra, cli, cohomology, exprs, mc, reps = (
        importlib.import_module(f"acalg.{name}")
        for name in ("algebra", "cli", "cohomology", "exprs", "mc", "reps")
    )
    rep = build_example_rep(Fraction(1, 3), 0, 0)
    # a cold cohomology cache, so les_check builds its ad matrices again
    cohomology._cohomology_data_cached.cache_clear()
    traced = tracer.Tracer().install()
    try:
        # products read normal forms from a memo cache, which may be warm
        assert algebra.rewrite_word(("del", "mubar")) == algebra.rewrite_word(("del", "mubar"), "rightmost")
        assert cohomology.les_check(3).passed
        assert mc.is_mc(1, 0, 0, 0)
        assert mc.strata_nullity(1, 1) == 0
        assert not reps.verify_relations(rep)
        assert reps.quotient_faithfulness(rep)
        assert exprs.render(exprs.parse_element("[del, del]")) == "2*del.del"
        assert cli.main(["dims", "--carrier", "g", "--max", "2"]) == 0
    finally:
        traced.remove()
    capsys.readouterr()
    for name in tracer.SPAN_NAMES:
        assert traced.calls[name], name
    assert traced.counters["scalars.created"] and traced.counters["scalars.zero_tests"]


def test_a_traced_cold_product_records_rewrite_word():
    # lie_tower reaches the rewrite layer only through product and its memo
    # cache, so a cold product must still call rewrite_word by the name the
    # tracer replaces
    algebra = importlib.import_module("acalg.algebra")
    algebra._rewrite_cached.cache_clear()
    traced = tracer.Tracer().install()
    try:
        mu, mubar = algebra.generator_element("mu"), algebra.generator_element("mubar")
        assert len(algebra.product(mu, mubar)) == 3
    finally:
        traced.remove()
    assert traced.calls["algebra.rewrite_word"] == 1
    assert traced.counters["algebra.rewrite_word.terms_out"] == 3


def _cone_B(tmp_path):
    cohomology = importlib.import_module("acalg.cohomology")
    # these caches, as in a fresh process: les_check reaches product only
    # through the check that ad_mubar squares to zero, as B's ad maps are
    # read off the word index
    cohomology._cohomology_data_cached.cache_clear()
    cohomology._generator_columns.cache_clear()
    cohomology._squares_to_zero.cache_clear()
    mubar = importlib.import_module("acalg.algebra").generator_element("mubar")
    yield lambda: cohomology.les_check(3).passed
    yield lambda: cohomology.cohomology_dims(mubar, 3, "B") == {0: 1, 1: 1, 2: 1, 3: 1}


def _queries(tmp_path):
    cli = importlib.import_module("acalg.cli")
    family = str(tmp_path / "family.json")
    for argv in (
        ["rep", "example", "--alpha", "2/7", "--beta", "1/5", "--emit", family],
        ["normal-form", "mu*mubar"],
        ["bracket", "mubar", "del"],
        ["--format", "json", "mc", "check", "--", "1", "0", "0", "1/3"],
        ["--format", "json", "mc", "nullity", "--", "2/9", "1/4"],
        ["--format", "json", "rep", "verify", family],
        ["--format", "json", "rep", "faithful", family],
        ["--format", "json", "cohomology", "--diff", "st", "5/7", "3/11", "--carrier", "g", "--max", "4"],
    ):
        yield lambda argv=argv: cli.main(argv) == 0


def _lie_tower(tmp_path):
    lie = importlib.import_module("acalg.lie")
    lie._graded_basis.cache_clear()
    lie._g_basis.cache_clear()
    importlib.import_module("acalg.algebra")._rewrite_cached.cache_clear()
    for k in range(1, 5):
        yield lambda k=k: lie.dim_g(k) == (4, 3, 2, 3)[k - 1]
    for k in range(1, 4):
        yield lambda k=k: lie.dim_h(k) == (2, 3, 2)[k - 1]


def _rewrite_sweep(tmp_path):
    algebra = importlib.import_module("acalg.algebra")
    word = ("del", "mubar", "delbar")
    yield lambda: algebra.rewrite_word(word) == algebra.rewrite_word(word, "rightmost")


WORKLOAD_PATHS = {
    "cone_B": _cone_B,
    "queries": _queries,
    "lie_tower": _lie_tower,
    "rewrite_sweep": _rewrite_sweep,
}


@pytest.mark.parametrize("workload", sorted(REQUIRED_LAYERS))
def test_a_traced_workload_path_records_its_required_layers(workload, tmp_path, capsys):
    # each path first clears the caches that, warm, would hide a required layer
    ops = list(WORKLOAD_PATHS[workload](tmp_path))
    traced = tracer.Tracer().install()
    try:
        results = [op() for op in ops]
    finally:
        traced.remove()
    capsys.readouterr()
    assert all(results), results
    for layer in REQUIRED_LAYERS[workload]:
        assert traced.calls[layer] or traced.counters[layer], layer
