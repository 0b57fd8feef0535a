"""The benchmark's layer tracer still finds acalg's entry points.

``bench/tracer.py`` wraps acalg's layer functions from outside and skips an
entry point it cannot find, so a renamed or deleted function would only show
up as a traced benchmark run that records no calls of that layer.  These
tests load the tracer as it is, check every name it wraps, and trace one
small run through every layer.
"""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from acalg.reps import build_example_rep

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("acalg_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


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
