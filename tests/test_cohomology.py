import importlib
import itertools
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, partial
from types import SimpleNamespace

import pytest

from acalg import linalg
from acalg.algebra import (
    DEL,
    DELBAR,
    GENERATORS,
    MU,
    MUBAR,
    AlgebraElement,
    NormalMonomial,
    generator_element,
    graded_commutator,
    product,
    row_in_A,
    words,
)
from acalg.cohomology import (
    Carrier,
    _cohomology_data_cached,
    _cone_failures,
    _delta_columns,
    _generator_columns,
    _homology,
    _squares_to_zero,
    ad_matrix,
    cohomology,
    cohomology_data,
    cohomology_dims,
    frolicher_E1,
    get_carrier,
    induced_map,
    les_check,
    split_B,
)
from acalg.errors import InvalidDegree, NotADifferential, NotInSubalgebra, NotWellDefined
from acalg.lie import d_lie, dim_h, lie_generator
from acalg.linalg import ExactMatrix, SpanReducer, solve_columns
from acalg.mc import d_st, g1_coordinates, g1_element
from acalg.scalars import I, ONE
from lie_reference import pbw_series, reference_coordinates, reference_graded_basis
from vectors import apply, same_span, transpose, transposed_solve

def gen(sym):
    return generator_element(sym)


def from_word(*letters):
    return AlgebraElement.from_word(letters)


def kernel_of(a, k, carrier):
    """The reduced-echelon kernel basis of ad_a out of degree k, as
    ``cohomology_data`` chooses its representatives from it."""
    return ad_matrix(a, k, carrier).matrix.nullspace()


def columns_of(raw_map, source, target):
    """The columns of the linear map ``raw_map`` on elements, from the
    source's degree of its carrier to the target's."""
    return target.carrier.coordinates(
        [raw_map(b) for b in source.carrier.basis(source.degree)], target.degree
    )


# -- adjoint matrices -----------------------------------------------------------


def test_ad_mubar_kernel_on_degree_one():
    matrix = ad_matrix(lie_generator(MUBAR), 1, "g").matrix
    kernel = matrix.nullspace()
    named = [g1_coordinates(lie_generator(MUBAR)), g1_coordinates(lie_generator(DELBAR))]
    assert same_span(kernel, named)


def test_ad_d_kernel_on_degree_one():
    matrix = ad_matrix(d_lie(), 1, "g").matrix
    kernel = matrix.nullspace()
    named = [
        g1_coordinates(d_lie()),
        g1_coordinates(g1_element(3, 1, -1, -3)),
    ]
    assert same_span(kernel, named)


def test_ad_zero_is_zero_matrix():
    zero = g1_element(0, 0, 0, 0)
    matrix = ad_matrix(zero, 2, "g").matrix
    assert matrix.is_zero()
    assert matrix.shape == (2, 3)


def test_ad_matrix_shapes_and_bases():
    gm = ad_matrix(lie_generator(MUBAR), 3, "B")
    assert gm.matrix.shape == (16, 8)
    assert len(gm.source_basis) == 8
    assert len(gm.target_basis) == 16


def test_ad_matrix_builds_no_basis_until_one_is_read():
    # les_check(10)'s map out of B_10 needs only dim B_11, not its words
    words.cache_clear()
    gm = ad_matrix(lie_generator(MUBAR), 10, "B")
    assert gm.matrix.shape == (2048, 1024)
    assert words.cache_info().currsize == 0
    carrier = get_carrier("B")
    assert len(gm.target_basis) == carrier.dim(11)
    assert gm.target_basis == words(11) and gm.source_basis == words(10)


def test_ad_squares_to_zero_at_matrix_level():
    diffs = [d_lie(), lie_generator(MUBAR), lie_generator(MU), d_st(2, 1), d_st(1, 3)]
    for a in diffs:
        for k in range(1, 6):
            low = ad_matrix(a, k, "g").matrix
            high = ad_matrix(a, k + 1, "g").matrix
            assert (high @ low).is_zero(), (str(a.value), k)
    for k in range(0, 6):
        low = ad_matrix(lie_generator(MUBAR), k, "B").matrix
        high = ad_matrix(lie_generator(MUBAR), k + 1, "B").matrix
        assert (high @ low).is_zero(), k


def test_produced_matrix_ranks_are_transpose_invariant():
    for a, carrier, k in [
        (d_lie(), "g", 2),
        (lie_generator(MUBAR), "B", 4),
        (lie_generator(MU), "h", 3),
    ]:
        matrix = ad_matrix(a, k, carrier).matrix
        assert matrix.rank() == transpose(matrix).rank()


def reference_ad_columns(value, k, carrier):
    """_ad_columns as it was before ad maps were assembled from per-generator
    columns and read off the word index or the records' echelon forms: one
    commutator per basis element, then one coordinate solve.  Kept as the
    reference the assembled maps must reproduce."""
    images = [graded_commutator(value, x) for x in carrier.basis(k)]
    return reference_coordinates(carrier.basis(k + 1), images, k + 1)


# g as a carrier of its own, read from the two-seed reference builder, so its
# maps are built and cached apart from those of g
_UncachedLieCarrier = partial(Carrier, "g", 1, partial(reference_graded_basis, GENERATORS))


@dataclass(frozen=True)
class _MixedRecord:
    """Degree k of g with the first two basis elements replaced by their sum
    and difference.  The basis is no longer bihomogeneous, so the
    generators' contributions to one ad_a entry can cancel.  Its degree-1
    basis mixes mubar into delbar, so neither element lies in B and each
    commutator is formed; above degree 1 the mixed elements lie in B and
    their maps are read off B's word columns.  The reference record's
    echelon form charts the unmixed basis, so each row's coordinates are
    solved."""

    k: int

    @cached_property
    def values(self):
        values = reference_graded_basis(GENERATORS, self.k).values
        if len(values) < 2:
            return values
        first, second = values[:2]
        return (first + second, first - second) + values[2:]

    @property
    def dim(self):
        return len(self.values)

    def coordinates(self, row):
        return solve_columns([row_in_A(b, self.k) for b in self.values], [row])[0]


_MixedLieCarrier = partial(Carrier, "g", 1, _MixedRecord)


AD_ELEMENTS = [
    d_lie(),
    lie_generator(MUBAR),
    lie_generator(MU),
    lie_generator(DELBAR),
    lie_generator(DEL),
    d_st(2, 1),
    d_st(Fraction(1, 2), 3 + I),
    g1_element(0, 0, 0, 0),
]


@pytest.mark.parametrize(
    "carrier, degrees",
    [("g", range(1, 8)), ("h", range(1, 8)), ("B", range(0, 9))],
)
def test_ad_matrix_matches_the_reference(carrier, degrees):
    carrier = get_carrier(carrier)
    for a in AD_ELEMENTS:
        for k in degrees:
            expected = ExactMatrix.from_columns(
                reference_ad_columns(a.value, k, carrier), nrows=carrier.dim(k + 1)
            )
            assert ad_matrix(a, k, carrier).matrix == expected, (str(a.value), k)


@pytest.mark.parametrize("sym", GENERATORS)
def test_B_generator_columns_match_the_product_reference(sym):
    # B's maps are read off the word index; the reference forms each
    # commutator by product and reads its coordinates in B_{k+1}
    carrier = get_carrier("B")
    g = gen(sym)
    for k in range(0, 11):
        columns = _generator_columns(sym, k, carrier)
        want = carrier.coordinates([graded_commutator(g, b) for b in carrier.basis(k)], k + 1)
        assert columns == want, (sym, k)
        # where g*b_n and b_n*g are one word: delbar.delbar^k and del^k.del,
        # words 0 and 2^(k+1) - 1 of B_(k+1); they add for odd k and cancel
        # for even k
        if sym == DELBAR:
            assert columns[0] == ({0: 2 * ONE} if k % 2 else {}), k
        elif sym == DEL:
            assert columns[2**k - 1] == ({2 ** (k + 1) - 1: 2 * ONE} if k % 2 else {}), k


@pytest.mark.parametrize("carrier", [_UncachedLieCarrier(), _MixedLieCarrier()])
def test_uncached_carrier_matches_the_reference(carrier):
    for a in AD_ELEMENTS:
        for k in range(1, 8):
            expected = ExactMatrix.from_columns(
                reference_ad_columns(a.value, k, carrier), nrows=carrier.dim(k + 1)
            )
            assert ad_matrix(a, k, carrier).matrix == expected, (str(a.value), k)
    # cohomology does not depend on the basis
    for k in range(1, 5):
        assert cohomology_data(d_lie(), k, carrier).dim == cohomology_data(d_lie(), k, "g").dim


# -- cohomology tables ------------------------------------------------------------


def test_h_subalgebra_table():
    mubar = lie_generator(MUBAR)
    dims = {k: cohomology(mubar, k, "h")[0] for k in range(1, 7)}
    assert dims == {1: 1, 2: 1, 3: 0, 4: 0, 5: 0, 6: 0}


def test_h_subalgebra_representatives():
    mubar = lie_generator(MUBAR)
    data1 = cohomology_data(mubar, 1, "h")
    delbar_coords = data1.carrier.coordinates([gen(DELBAR)], 1)[0]
    kernel = SpanReducer(kernel_of(mubar, 1, "h"))
    assert kernel.contains(delbar_coords)
    assert not SpanReducer(data1.image).contains(delbar_coords)

    data2 = cohomology_data(mubar, 2, "h")
    named = graded_commutator(gen(DEL), gen(DELBAR))
    named_coords = data2.carrier.coordinates([named], 2)[0]
    kernel2 = kernel_of(mubar, 2, "h")
    assert SpanReducer(kernel2).contains(named_coords)
    assert not SpanReducer(data2.image).contains(named_coords)
    # image together with the named class fills the kernel
    completed = SpanReducer(data2.image + [named_coords])
    assert all(completed.contains(v) for v in kernel2)


def test_B_table_is_one_in_every_degree():
    mubar = lie_generator(MUBAR)
    dims = {k: cohomology(mubar, k, "B")[0] for k in range(0, 9)}
    assert dims == {k: 1 for k in range(0, 9)}


@pytest.mark.parametrize(
    "a, k_max",
    [
        (gen(MUBAR), 10),
        (gen(MU), 10),
        (d_lie(), 8),
        (d_st(2, 1), 8),
        (d_st(Fraction(1, 2), 3 + I), 7),
    ],
    ids=["mubar", "mu", "d", "st-2-1", "st-1/2-3+i"],
)
def test_B_tables_are_the_symmetric_algebra_of_h_tables(a, k_max):
    # B = U(h), and by PBW H(U(h), ad a) is the free graded-commutative
    # algebra on H(h, ad a): an independent certificate of B's tables,
    # which share no map with h's; h's zeros above degree 2 come from the
    # weight bound and B's from elimination, so this also checks the bound
    h_dims = cohomology_dims(a, k_max, "h")
    B_dims = cohomology_dims(a, k_max, "B")
    assert list(B_dims.values()) == pbw_series(h_dims, k_max)


def test_pbw_series_counts_monomials():
    assert pbw_series({}, 3) == [1, 0, 0, 0]
    assert pbw_series({1: 2}, 4) == [1, 2, 1, 0, 0]
    assert pbw_series({2: 1}, 6) == [1, 0, 1, 0, 1, 0, 1]
    assert pbw_series({1: 1, 2: 1}, 5) == [1, 1, 1, 1, 1, 1]


def test_d_cohomology_table():
    d = d_lie()
    assert cohomology(d, 1, "g")[0] == 2
    for k in range(2, 7):
        assert cohomology(d, k, "g")[0] == 0


def test_d_cohomology_representative_span():
    data = cohomology_data(d_lie(), 1, "g")
    named = [g1_coordinates(d_lie()), g1_coordinates(g1_element(3, 1, -1, -3))]
    assert same_span(kernel_of(d_lie(), 1, "g"), named)
    assert data.dim == 2
    # with nothing arriving from degree 0, the representatives span the kernel
    assert same_span(data.rep_coords, named)


def test_not_a_differential():
    bad = g1_element(1, 0, 0, 1)  # mubar + mu squares to a nonzero bracket
    for _ in range(2):  # the verdict is cached, and raises on every call
        with pytest.raises(NotADifferential):
            cohomology(bad, 1, "g")


@pytest.mark.parametrize("entry", [cohomology, cohomology_dims, cohomology_data])
def test_every_entry_point_checks_a_request_in_one_order(entry):
    # the carrier first, then the degree, then [a, a] = 0, and a refused
    # request builds no cohomology data
    _cohomology_data_cached.cache_clear()
    bad = g1_element(1, 0, 0, 1)  # mubar + mu squares to a nonzero bracket
    # of degrees 2 and 3; the second does not square to zero either
    off_degree = (gen(DELBAR) * gen(DEL), gen(DELBAR) * gen(DEL) * gen(DEL))
    for a in (bad, *off_degree):
        with pytest.raises(ValueError, match="unknown carrier"):
            entry(a, 3, "nope")
    for a in off_degree:
        with pytest.raises(InvalidDegree):
            entry(a, 3, "g")
    with pytest.raises(NotADifferential):
        entry(bad, 3, "g")
    assert _cohomology_data_cached.cache_info().currsize == 0


# -- zero degrees from the weight bound -----------------------------------------------

BOUND_DIFFERENTIALS = [
    d_lie(),
    lie_generator(MUBAR),
    lie_generator(MU),
    d_st(2, 1),
    d_st(Fraction(1, 2), 3 + I),
    3 * d_st(1, 2).value,
    d_st(0, 1),  # mu: the bound is read through mu alone
    g1_element(0, 0, 0, 0),  # no mubar or mu coefficient: never certified
]


@pytest.mark.parametrize("carrier, k_max", [("g", 9), ("h", 9), ("B", 7)])
def test_certified_zeros_match_the_direct_path(carrier, k_max):
    carrier = get_carrier(carrier)
    for a in BOUND_DIFFERENTIALS:
        direct = [cohomology_data(a, k, carrier) for k in range(carrier.first_degree, k_max + 1)]
        assert cohomology_dims(a, k_max, carrier) == {d.degree: d.dim for d in direct}, str(a)
        for d in direct:
            reps = tuple(carrier.element(vec, d.degree) for vec in d.rep_coords)
            assert cohomology(a, d.degree, carrier) == (d.dim, reps), (str(a), d.degree)


def has_entry(value, k, carrier):
    """Whether ``_cohomology_data_cached`` holds (value, k, carrier): a
    probe that hits it, and builds the entry when it misses."""
    hits = _cohomology_data_cached.cache_info().hits
    _cohomology_data_cached(value, k, carrier)
    return _cohomology_data_cached.cache_info().hits == hits + 1


def test_certified_degrees_build_no_data_for_the_differential():
    a = d_st(2, 1)
    g = get_carrier("g")
    for k in range(2, 6):
        _cohomology_data_cached.cache_clear()
        assert cohomology(a, k, g) == (0, ())
        assert not has_entry(a.value, k, g), k


def test_other_carriers_take_the_direct_path():
    carrier = _UncachedLieCarrier()
    d = d_lie()
    for k in range(2, 5):
        assert cohomology(d, k, carrier) == (0, ())
        assert has_entry(d.value, k, carrier), k


def test_a_non_differential_is_refused_where_the_bound_would_certify():
    bad = g1_element(1, 1, 0, 0)
    assert cohomology_data(lie_generator(MUBAR), 3, "g").dim == 0
    with pytest.raises(NotADifferential):
        cohomology(bad, 3, "g")
    with pytest.raises(NotADifferential):
        cohomology_dims(bad, 3, "g")


def test_degree_zero_conventions():
    mubar = lie_generator(MUBAR)
    assert cohomology(mubar, 0, "B")[0] == 1  # spanned by the unit
    data = cohomology_data(mubar, 1, "g")
    assert data.image == []  # nothing arrives from degree 0 on g


# -- the splitting of B ------------------------------------------------------------


def test_split_examples():
    x, y = split_B(2, from_word(DELBAR, DEL))
    assert x.is_zero() and y == from_word(DEL)
    x, y = split_B(2, from_word(DEL, DELBAR) + from_word(DELBAR, DELBAR))
    assert x == from_word(DELBAR) and y == from_word(DELBAR)
    with pytest.raises(InvalidDegree):
        split_B(0, AlgebraElement.one())


def test_split_reconstructs():
    carrier = get_carrier("B")
    for k in range(1, 6):
        for b in carrier.basis(k):
            x, y = split_B(k, b)
            rebuilt = product(gen(DEL), x) + product(gen(DELBAR), y)
            assert rebuilt == b


def test_split_of_adjoint_image():
    # the cone identity, on a couple of explicit elements
    mubar = gen(MUBAR)
    for x_word, y_word in [((DELBAR,), (DEL,)), ((DEL, DEL), (DELBAR, DEL))]:
        x, y = from_word(*x_word), from_word(*y_word)
        k = len(x_word) + 1
        b = product(gen(DEL), x) + product(gen(DELBAR), y)
        got_x, got_y = split_B(k + 1, graded_commutator(mubar, b))
        want_x = -graded_commutator(mubar, x)
        want_y = -(product(gen(DELBAR), x) + graded_commutator(mubar, y))
        assert got_x == want_x
        assert got_y == want_y


# -- the long exact sequence -------------------------------------------------------


def test_les_check_passes():
    report = les_check(4)
    assert report.passed, report.summary()
    assert report.first_failure() is None
    names = {r.name for r in report.records}
    assert names == {
        "cone-block-identity",
        "skew-commutation",
        "exactness-at-delbar-node",
        "exactness-at-connecting-node",
        "exactness-at-cone-node",
    }
    assert [(r.name, r.degree) for r in report.records] == (
        [("cone-block-identity", k) for k in (1, 2, 3, 4)]
        + [("skew-commutation", k) for k in (0, 1, 2, 3)]
        + [("exactness-at-delbar-node", k) for k in (0, 1, 2, 3)]
        + [("exactness-at-connecting-node", k) for k in (1, 2, 3, 4)]
        + [("exactness-at-cone-node", k) for k in (0, 1, 2, 3)]
    )


def ad_from_columns(columns):
    """The element map whose word rows out of B_j are ``columns[j]``."""
    carrier = get_carrier("B")

    def ad_mubar(x):
        if x.is_zero():
            return x
        j = x.degree()
        out = {}
        for i, c in carrier.coordinates([x], j)[0].items():
            for m, y in columns[j][i].items():
                out[m] = out.get(m, 0 * ONE) + c * y
        return carrier.element({m: y for m, y in out.items() if y}, j + 1)

    return ad_mubar


def test_les_check_witness_is_the_first_failing_base(monkeypatch):
    # ad_mubar wrong on one word of B_2 breaks the block identity at degree
    # 2, where that word is del*delbar, and at degree 3, and skew-commutation
    # at degree 2; the cohomology part is stopped before it starts
    module = importlib.import_module("acalg.cohomology")
    carrier = get_carrier("B")
    columns = {j: _generator_columns(MUBAR, j, carrier) for j in range(0, 5)}
    columns[2] = [dict(r) for r in columns[2]]
    columns[2][2] = {}

    class Stop(Exception):
        pass

    def stop(*args):
        raise Stop

    reports = []

    class Report(module.LesReport):
        def __init__(self, *args):
            super().__init__(*args)
            reports.append(self)

    monkeypatch.setattr(module, "_generator_columns", lambda sym, k, c: columns[k])
    monkeypatch.setattr(module, "cohomology_data", stop)
    monkeypatch.setattr(module, "LesReport", Report)
    with pytest.raises(Stop):
        les_check(4)
    block, skew = reference_cone_failures(4, ad_from_columns(columns))
    want = [("cone-block-identity", k, w) for k, w in enumerate(block, start=1) if w]
    want += [("skew-commutation", k, w) for k, w in enumerate(skew) if w]
    failed = [(r.name, r.degree, r.witness) for r in reports[0].records if not r.passed]
    assert failed == want
    assert failed == [
        ("cone-block-identity", 2, f"block identity fails on {carrier.basis(1)[0]}"),
        ("cone-block-identity", 3, f"block identity fails on {carrier.basis(2)[2]}"),
        ("skew-commutation", 2, f"skew-commutation fails on {carrier.basis(2)[2]}"),
    ]
    assert len(reports[0].records) == 8


def count_calls(monkeypatch, *functions):
    """Replace each function by a counting wrapper under every name the
    acalg modules hold it by; returns the list of the calls made."""
    calls = []

    def counted(function):
        def wrapper(*args, **kwargs):
            calls.append((function.__name__, args))
            return function(*args, **kwargs)

        return wrapper

    for function in functions:
        wrapper = counted(function)
        for name, module in list(sys.modules.items()):
            if name.startswith("acalg"):
                for attr, value in list(vars(module).items()):
                    if value is function:
                        monkeypatch.setattr(module, attr, wrapper)
    return calls


def test_les_check_with_warm_ad_maps_calls_no_product(monkeypatch):
    les_check(6)
    # a cold cohomology cache, so (c) builds its kernels and images again
    _cohomology_data_cached.cache_clear()
    calls = count_calls(monkeypatch, product)
    assert les_check(6).passed
    assert calls == []


def test_les_check_with_cold_ad_maps_calls_no_product(monkeypatch):
    # B's generator maps come from the word index, so with its differential
    # already checked les_check rewrites no word at all
    algebra = importlib.import_module("acalg.algebra")
    _squares_to_zero(gen(MUBAR))
    _generator_columns.cache_clear()
    _cohomology_data_cached.cache_clear()
    calls = count_calls(monkeypatch, product, algebra.rewrite_word)
    assert les_check(6).passed
    assert calls == []
    # nor do they touch the rewrite engine's bounded step tables, which
    # B_12's 4096 heads would fill and clear
    tables = algebra.LEFTMOST_STEPS + algebra.RIGHTMOST_STEPS
    steps = [dict(table) for table in tables]
    carrier = get_carrier("B")
    for k in range(0, 13):
        for sym in GENERATORS:
            _generator_columns(sym, k, carrier)
    assert [dict(table) for table in tables] == steps


def reference_cone_failures(k_max, ad_mubar):
    """les_check's parts (a) and (b) element by element, with product and
    split_B, as les_check ran them before it read ad_mubar off the cached
    word rows and the word maps off the word index."""
    carrier = get_carrier("B")
    delbar, del_ = gen(DELBAR), gen(DEL)
    block_fails, skew_fails = [], []
    for k in range(0, k_max):
        block_fail = skew_fail = None
        for base in carrier.basis(k):
            ad_base = ad_mubar(base)
            delbar_base = product(delbar, base)
            ad_delbar_base = ad_mubar(delbar_base)
            if block_fail is None and (
                split_B(k + 2, ad_mubar(product(del_, base))) != (-ad_base, -delbar_base)
                or split_B(k + 2, ad_delbar_base) != (AlgebraElement.zero(), -ad_base)
            ):
                block_fail = f"block identity fails on {base}"
            if skew_fail is None and ad_delbar_base != -product(delbar, ad_base):
                skew_fail = f"skew-commutation fails on {base}"
            if block_fail and skew_fail:
                break
        block_fails.append(block_fail)
        skew_fails.append(skew_fail)
    return block_fails, skew_fails


def test_les_check_matches_the_element_reference():
    report = les_check(8)
    block, skew = reference_cone_failures(8, lambda x: graded_commutator(gen(MUBAR), x))
    assert [(r.name, r.degree, r.passed, r.witness) for r in report.records[:16]] == (
        [("cone-block-identity", k, w is None, w) for k, w in enumerate(block, start=1)]
        + [("skew-commutation", k, w is None, w) for k, w in enumerate(skew)]
    )
    assert len(report.records) == 40 and report.passed


@pytest.mark.parametrize(
    "k, n, how", [(1, 1, "drop"), (2, 3, "scale"), (3, 0, "add"), (4, 9, "scale"), (5, 17, "drop")]
)
def test_a_corrupted_column_fails_both_passes_alike(k, n, how):
    carrier = get_carrier("B")
    columns = {j: [dict(r) for r in _generator_columns(MUBAR, j, carrier)] for j in range(0, 7)}
    row = columns[k][n]
    if how == "add":
        row[min(set(range(2 ** (k + 1))) - set(row))] = ONE
    elif how == "scale":
        first = next(iter(row))
        row[first] = row[first] * 2
    else:
        del row[next(iter(row))]

    failures = _cone_failures(6, columns.__getitem__)
    assert failures == reference_cone_failures(6, ad_from_columns(columns))
    assert any(w is not None for w in failures[0] + failures[1])


def test_les_exactness_reads_the_maps_at_each_node(monkeypatch):
    # each node H^j is read between the map arriving at it and the map
    # leaving it; on B every H^j is one class, so a swapped pair gives the
    # same verdicts, and only the maps' degrees tell the pairs apart
    cohomology_module = importlib.import_module("acalg.cohomology")
    ends, nodes = {}, []

    def traced_induced_map(source, target, columns):
        matrix = induced_map(source, target, columns)
        ends[id(matrix)] = (source.degree, target.degree)
        return matrix

    def traced_homology(incoming, outgoing):
        nodes.append((ends.get(id(incoming)), ends.get(id(outgoing))))
        return _homology(incoming, outgoing)

    monkeypatch.setattr(cohomology_module, "induced_map", traced_induced_map)
    monkeypatch.setattr(cohomology_module, "_homology", traced_homology)
    exactness = [r for r in les_check(5).records if r.name.startswith("exactness")]
    # nothing arrives at H^0 by delbar: that map is the zero map from 0
    expected = {
        "exactness-at-delbar-node": lambda j: ((j - 1, j) if j else None, (j, j + 1)),
        "exactness-at-connecting-node": lambda j: ((j - 1, j), (j, j - 1)),
        "exactness-at-cone-node": lambda j: ((j + 1, j), (j, j + 1)),
    }
    assert nodes == [expected[r.name](r.degree) for r in exactness]


def test_les_check_rejects_tiny_degree():
    with pytest.raises(InvalidDegree):
        les_check(1)


def test_alternating_isomorphism_pattern():
    """The induced maps alternate: multiplication by delbar is an iso from
    even into odd cohomology and zero from odd; the connecting map is an iso
    from even into odd and zero from odd."""
    mubar = lie_generator(MUBAR)
    carrier = get_carrier("B")
    data = {k: cohomology_data(mubar, k, carrier) for k in range(0, 7)}
    delbar = gen(DELBAR)
    for j in range(0, 6):
        up = induced_map(
            data[j], data[j + 1], columns_of(lambda x: product(delbar, x), data[j], data[j + 1])
        )
        if j % 2 == 0:
            assert up.rank() == 1, j
        else:
            assert up.is_zero(), j
    for j in range(1, 7):
        down = induced_map(
            data[j], data[j - 1], columns_of(lambda x: split_B(j, x)[0], data[j], data[j - 1])
        )
        if j % 2 == 0:
            assert down.rank() == 1, j
        else:
            assert down.is_zero(), j


def test_cohomology_ring_of_B():
    """H(B, ad_mubar) is the free graded-commutative algebra on the classes
    of delbar (odd) and [del, delbar] (even): the products of the canonical
    class monomials are closed and non-exact, while odd*odd dies."""
    mubar = lie_generator(MUBAR)
    carrier = get_carrier("B")
    omega = graded_commutator(gen(DEL), gen(DELBAR))

    def canonical(degree):
        power = degree // 2
        out = AlgebraElement.one()
        for _ in range(power):
            out = product(out, omega)
        if degree % 2:
            out = product(gen(DELBAR), out)
        return out

    data = {k: cohomology_data(mubar, k, carrier) for k in range(0, 9)}

    def class_of(elt, k):
        coords = carrier.coordinates([elt], k)[0]
        assert SpanReducer(kernel_of(mubar, k, carrier)).contains(coords), (str(elt), k)
        return data[k].classes([coords])[0]

    for k in range(0, 9):
        # the canonical class spans H^k
        assert class_of(canonical(k), k), k
    for j in range(1, 8):
        for l in range(1, 8):
            if j + l > 8:
                continue
            prod = product(canonical(j), canonical(l))
            cls = class_of(prod, j + l)
            if j % 2 and l % 2:
                assert not cls, (j, l)
            else:
                assert cls, (j, l)


# -- the two-step page --------------------------------------------------------------


def test_E1_on_g():
    table = frolicher_E1("g", 5)
    assert table == {1: 2, 2: 0, 3: 0, 4: 0, 5: 0}


def test_E1_dominates_total_cohomology():
    table = frolicher_E1("g", 5)
    d_dims = cohomology_dims(d_lie(), 5, "g")
    for k in range(1, 6):
        assert table[k] >= d_dims[k], k


def test_homology_reads_the_node_between_two_maps():
    def matrix(*columns, nrows):
        return ExactMatrix.from_columns(list(columns), nrows=nrows)

    # C^0 -> C^1 -> C^2 with e_0 -> e_0 and then e_1 -> e_0: the composite
    # is zero, and the node C^1 keeps nothing, C^2 one of its two vectors,
    # and C^1 with nothing arriving its kernel e_0
    incoming = matrix({0: ONE}, nrows=2)
    outgoing = matrix({}, {0: ONE}, nrows=2)
    assert _homology(incoming, outgoing) == 0
    assert _homology(outgoing, ExactMatrix.zeros(0, 2)) == 1
    assert _homology(ExactMatrix.zeros(2, 0), outgoing) == 1
    # e_0 -> e_0 twice: the composite is not zero, whatever the ranks say
    assert _homology(incoming, matrix({0: ONE}, {}, nrows=2)) is None
    assert _homology(matrix({0: ONE}, nrows=1), matrix({0: ONE}, nrows=1)) is None


def test_E1_refuses_an_induced_delbar_that_does_not_square_to_zero(monkeypatch):
    # H^k(B, ad mubar) is one class for k >= 0, so a 1x1 identity out of
    # every degree composes to the identity; nothing arrives at degree 0
    def identity(source, target, columns):
        return ExactMatrix.from_columns([{0: ONE}] * source.dim, nrows=target.dim)

    monkeypatch.setattr(importlib.import_module("acalg.cohomology"), "induced_map", identity)
    with pytest.raises(NotWellDefined, match="induced delbar does not square to zero at degree 1"):
        frolicher_E1("B", 3)


# a carrier that is zero in every degree
_ZERO_RECORD = SimpleNamespace(values=(), dim=0, coordinates=lambda row: None if row else {})
_ZeroCarrier = partial(Carrier, "zero-test", 1, lambda k: _ZERO_RECORD)


def test_E1_on_zero_carrier():
    table = frolicher_E1(_ZeroCarrier(), 4)
    assert table == {1: 0, 2: 0, 3: 0, 4: 0}


@pytest.mark.parametrize("carrier, k", [("g", 0), ("h", 0), ("B", -1)])
def test_empty_degree_has_empty_data(carrier, k):
    # frolicher_E1 reads the degree below each carrier's first one
    mubar = lie_generator(MUBAR)
    data = cohomology_data(mubar, k, carrier)
    assert (data.degree, data.dim, cohomology(mubar, k, carrier)) == (k, 0, (0, ()))
    assert data.rep_coords == kernel_of(mubar, k, carrier) == data.image == data.residues == []


def test_get_carrier_rejects_unknown():
    with pytest.raises(ValueError):
        get_carrier("nope")


def test_B_dim_is_closed_form():
    carrier = get_carrier("B")
    assert carrier.dim(-1) == 0
    for k in range(13):
        assert carrier.dim(k) == len(carrier.basis(k)) == 2**k


def test_B_coordinates_of_word_n_are_the_unit_row_n():
    carrier = get_carrier("B")
    for k in range(11):
        basis = carrier.basis(k)
        words = itertools.product((DELBAR, DEL), repeat=k)
        assert list(basis) == [AlgebraElement({NormalMonomial(w): ONE}) for w in words]
        assert carrier.coordinates(basis, k) == [{n: ONE} for n in range(1 << k)]
        assert all(carrier.element({n: ONE}, k) == b for n, b in enumerate(basis))


def test_B_names_its_terms_outside_B():
    carrier = get_carrier("B")
    with pytest.raises(NotInSubalgebra, match=r"^element has terms outside B: mubar$"):
        carrier.coordinates([gen(MUBAR)], 1)
    # every term outside B, in the canonical order, whatever the term order
    with pytest.raises(NotInSubalgebra) as info:
        carrier.coordinates([gen(MU) + gen(DEL) + gen(MUBAR)], 1)
    assert info.value.offending == (NormalMonomial((), (MUBAR,)), NormalMonomial((), (MU,)))


def test_dims_and_les_check_build_no_word_of_B():
    # a record holds coordinates only, so the cone checks and a dims table
    # read B's word index and never form its words
    mubar = lie_generator(MUBAR)
    for cache in (words, _generator_columns, _cohomology_data_cached):
        cache.cache_clear()
    assert les_check(6).passed
    assert cohomology_dims(mubar, 6, "B") == {k: 1 for k in range(7)}
    assert words.cache_info().currsize == 0
    # and the representatives are still formed on request: [del, delbar]^3,
    # the sum of the eight words made of delbar.del and del.delbar
    blocks = itertools.product(((DELBAR, DEL), (DEL, DELBAR)), repeat=3)
    cube = sum((from_word(*itertools.chain(*b)) for b in blocks), AlgebraElement.zero())
    assert cohomology(mubar, 6, "B") == (1, (cube,))


def test_cohomology_caches_are_bounded():
    for cache in (words, _generator_columns, _squares_to_zero):
        assert cache.cache_info().maxsize is not None
    maxsize = _cohomology_data_cached.cache_info().maxsize
    assert maxsize is not None
    for n in range(1, maxsize + 9):
        cohomology_data(d_st(Fraction(n, n + 1), 1), 1, "g")
        assert _cohomology_data_cached.cache_info().currsize <= maxsize


# -- classes and induced maps ------------------------------------------------------


def reference_rep_coords(data, kernel):
    """The representatives as they were chosen before residues were kept:
    the kernel vectors a reducer seeded with the image accepts, in order."""
    reducer = SpanReducer(data.image)
    return [vec for vec in kernel if reducer.add(vec)]


def reference_classes(data, vectors):
    """CohomologyData.classes as it was before it read the image span: one
    transposed solve against [representatives | image], keeping the
    representatives' coordinates.  Kept as the reference the residue solve
    must reproduce."""
    solved = transposed_solve(data.rep_coords + data.image, vectors)
    dim = data.dim
    return [None if s is None else {j: x for j, x in s.items() if j < dim} for s in solved]


CLASS_DIFFERENTIALS = [
    lie_generator(MUBAR),
    lie_generator(MU),
    d_lie(),
    d_st(2, 1),
    d_st(Fraction(1, 2), 3 + I),
]


@pytest.mark.parametrize(
    "carrier, degrees",
    [("g", range(1, 7)), ("h", range(1, 7)), ("B", range(0, 9))],
)
def test_classes_match_the_reference(carrier, degrees):
    carrier = get_carrier(carrier)
    for a in CLASS_DIFFERENTIALS:
        for k in degrees:
            where = (str(a.value), carrier.name, k)
            data = cohomology_data(a, k, carrier)
            matrix = ad_matrix(a, k, carrier).matrix
            kernel = matrix.nullspace()
            assert data.rep_coords == reference_rep_coords(data, kernel), where
            # a unit vector is off the kernel when its column of ad_a is nonzero
            hit = {j for _, j, _ in matrix.nonzero()}
            off_kernel = [{j: ONE} for j in sorted(hit)]
            vectors = kernel + data.image + off_kernel
            got = data.classes(vectors)
            assert got == reference_classes(data, vectors), where
            n = len(kernel)
            assert got[n : n + len(data.image)] == [{}] * len(data.image), where
            assert got[n + len(data.image) :] == [None] * len(off_kernel), where


def full_loop_record(data, kernel):
    """The representatives and residues as they were chosen when every kernel
    vector was reduced modulo the image, with no stop at dim ker - rank im."""
    image_span, accepted = SpanReducer(data.image), SpanReducer()
    chosen = [(vec, r) for vec in kernel if accepted.add(r := image_span.reduce(vec))]
    return [vec for vec, _ in chosen], [r for _, r in chosen]


@pytest.mark.parametrize(
    "carrier, degrees",
    [("g", range(1, 8)), ("h", range(1, 8)), ("B", range(0, 8))],
)
def test_the_early_stop_keeps_the_full_loop_record(carrier, degrees):
    carrier = get_carrier(carrier)
    for a in CLASS_DIFFERENTIALS:
        for k in degrees:
            data = cohomology_data(a, k, carrier)
            kernel = ad_matrix(a, k, carrier).matrix.nullspace()
            want = full_loop_record(data, kernel)
            assert (data.rep_coords, data.residues) == want, (str(a.value), carrier.name, k)


def reference_induced_map(a, source, target, raw_map):
    """induced_map as it was before it mapped each family in one batch: every
    vector is mapped, converted and checked on its own, against spans built
    afresh, for cohomology data of ad_a.  Kept as the reference the batched
    version must reproduce."""
    kernel_span = SpanReducer(kernel_of(a, target.degree, target.carrier))
    image_span = SpanReducer(target.image)

    def coordinates(vec):
        mapped = raw_map(source.carrier.element(vec, source.degree))
        return target.carrier.coordinates([mapped], target.degree)[0]

    for vec in kernel_of(a, source.degree, source.carrier):
        if not kernel_span.contains(coordinates(vec)):
            raise NotWellDefined(f"induced map does not preserve kernels at degree {source.degree}")
    for vec in source.image:
        if not image_span.contains(coordinates(vec)):
            raise NotWellDefined(f"induced map does not preserve images at degree {source.degree}")
    columns = []
    for vec in source.rep_coords:
        cls = reference_classes(target, [coordinates(vec)])[0]
        if cls is None:
            raise NotWellDefined("image of a cocycle is not a cocycle")
        columns.append(cls)
    return ExactMatrix.from_columns(columns, nrows=target.dim) if columns else ExactMatrix.zeros(target.dim, 0)


def test_induced_maps_match_the_per_vector_reference():
    mubar = lie_generator(MUBAR)
    delbar = gen(DELBAR)
    # every up and down map of les_check through degree 7
    data = {k: cohomology_data(mubar, k, "B") for k in range(0, 8)}
    cases = [(data[j], data[j + 1], lambda x: product(delbar, x)) for j in range(0, 7)]
    cases += [(data[j], data[j - 1], lambda x, j=j: split_B(j, x)[0]) for j in range(1, 8)]
    # every ad_delbar map of frolicher_E1 through degree 5
    for name in ("g", "h", "B"):
        carrier = get_carrier(name)
        k_min = 0 if name == "B" else 1
        pages = {k: cohomology_data(mubar, k, carrier) for k in range(k_min - 1, 7)}
        raw = lambda x: graded_commutator(delbar, x)
        cases += [(pages[k], pages[k + 1], raw) for k in range(k_min - 1, 6)]
    for source, target, raw_map in cases:
        want = reference_induced_map(mubar, source, target, raw_map)
        got = induced_map(source, target, columns_of(raw_map, source, target))
        assert got == want, (source.carrier.name, source.degree, target.degree)


def test_les_check_columns_match_the_element_maps():
    # the word index (see algebra.words): delbar*b_n and del*b_n are
    # words n and 2^k + n of B_{k+1}, and the connecting map strips a del
    carrier = get_carrier("B")
    for k in range(0, 10):
        up = carrier.basis(k + 1)
        for n, b in enumerate(carrier.basis(k)):
            assert product(gen(DELBAR), b) == up[n], (k, n)
            assert product(gen(DEL), b) == up[2**k + n], (k, n)
    for k in range(1, 10):
        want = carrier.coordinates([split_B(k, b)[0] for b in carrier.basis(k)], k - 1)
        assert _delta_columns(k) == want, k


def reference_E1(carrier, k_max):
    """frolicher_E1 with every induced map built by reference_induced_map
    from the element map [delbar, -]."""
    carrier = get_carrier(carrier)
    mubar = lie_generator(MUBAR)
    k_min = carrier.first_degree
    data = {k: cohomology_data(mubar, k, carrier) for k in range(k_min - 1, k_max + 2)}
    raw = lambda x: graded_commutator(gen(DELBAR), x)
    maps = {
        k: reference_induced_map(mubar, data[k], data[k + 1], raw)
        for k in range(k_min - 1, k_max + 1)
    }
    return {
        k: maps[k].ncols - maps[k].rank() - maps[k - 1].rank() for k in range(k_min, k_max + 1)
    }


@pytest.mark.parametrize("carrier", ["g", "h", "B"])
def test_E1_matches_the_element_reference(carrier):
    assert frolicher_E1(carrier, 7) == reference_E1(carrier, 7)


@pytest.mark.parametrize("k", range(0, 5))
def test_induced_map_rejects_a_map_that_breaks_kernels(k):
    mubar = lie_generator(MUBAR)
    source, target = cohomology_data(mubar, k, "B"), cohomology_data(mubar, k + 1, "B")
    with pytest.raises(NotWellDefined, match="does not preserve kernels"):
        induced_map(source, target, columns_of(lambda x: product(gen(DEL), x), source, target))


@pytest.mark.parametrize("carrier", ["g", "h", "B"])
def test_a_term_of_another_degree_is_not_well_defined_on_every_carrier(carrier):
    mubar = lie_generator(MUBAR)
    source, target = cohomology_data(mubar, 2, carrier), cohomology_data(mubar, 3, carrier)
    # the columns cannot be written in the target basis, so the helper's
    # coordinates raise before induced_map sees them
    with pytest.raises(NotWellDefined, match=f"degree 2 term in {carrier}_3: "):
        induced_map(source, target, columns_of(lambda x: x, source, target))
    with pytest.raises(NotWellDefined, match=f"degree 1 term in {carrier}_2: "):
        get_carrier(carrier).coordinates([gen(DEL)], 2)


@pytest.mark.parametrize("carrier", ["g", "h", "B"])
def test_a_term_of_another_degree_is_named_the_same_in_either_term_order(carrier):
    # del + del.delbar.del and del.delbar.del + del are one element with two
    # term orders; either way the error names its least term of another degree
    a, b = gen(DEL), from_word(DEL, DELBAR, DEL)
    assert a + b == b + a and list((a + b)._terms) != list((b + a)._terms)
    for elements in ([a + b], [b + a]):
        with pytest.raises(NotWellDefined, match=rf"^degree 1 term in {carrier}_2: del$"):
            get_carrier(carrier).coordinates(elements, 2)
    with pytest.raises(NotWellDefined, match=rf"^degree 3 term in {carrier}_1: del.delbar.del$"):
        get_carrier(carrier).coordinates([b + a], 1)


def test_g_and_h_generator_maps_call_no_solve(monkeypatch):
    # their coordinates are read off each record's echelon form
    def refuse(*args):
        raise AssertionError("solve_columns called")

    for module in (linalg, importlib.import_module("acalg.cohomology")):
        monkeypatch.setattr(module, "solve_columns", refuse)
    _generator_columns.cache_clear()
    for name in ("g", "h"):
        carrier = get_carrier(name)
        for k in range(1, 7):
            for sym in GENERATORS:
                assert len(_generator_columns(sym, k, carrier)) == carrier.dim(k), (name, sym, k)


def test_g_and_h_generator_maps_form_no_product_inside_B(monkeypatch):
    # h, and g above degree 1, lie in B, so their maps are read off B's word
    # columns; in g_1 only mubar and mu lie outside B and have [g, b] formed
    dim_h(8)  # the tower itself is built by products
    _generator_columns.cache_clear()
    cohomology_module = importlib.import_module("acalg.cohomology")
    formed = []

    def record(g, b):
        formed.append(b)
        return graded_commutator(g, b)

    monkeypatch.setattr(cohomology_module, "graded_commutator", record)
    g1 = get_carrier("g")
    for sym in GENERATORS:
        _generator_columns(sym, 1, g1)
    assert formed == [gen(MUBAR), gen(MU)] * len(GENERATORS)

    def refuse(*args):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(cohomology_module, "graded_commutator", refuse)
    monkeypatch.setattr(importlib.import_module("acalg.algebra"), "product", refuse)
    for name, first in (("h", 1), ("g", 2)):
        carrier = get_carrier(name)
        for k in range(first, 8):
            for sym in GENERATORS:
                assert len(_generator_columns(sym, k, carrier)) == carrier.dim(k), (name, sym, k)


def test_induced_map_rejects_a_target_missing_images():
    mubar = lie_generator(MUBAR)
    left_delbar = lambda x: product(gen(DELBAR), x)
    source, target = cohomology_data(mubar, 3, "B"), cohomology_data(mubar, 4, "B")
    assert induced_map(source, target, columns_of(left_delbar, source, target)).shape == (1, 1)
    # the same kernel, but every kernel vector a representative: no image
    kernel = kernel_of(mubar, 4, "B")
    no_image = replace(
        target, rep_coords=kernel, image=[], image_span=SpanReducer(), residues=kernel
    )
    with pytest.raises(NotWellDefined, match="does not preserve images at degree 3"):
        induced_map(source, no_image, columns_of(left_delbar, source, no_image))


def test_induced_map_checks_kernels_before_images():
    # on B_2 for ad mubar the image is spanned by the word e_0 and the
    # representative is e_1 + e_2; e_3 is outside the kernel
    data = cohomology_data(lie_generator(MUBAR), 2, "B")
    carrier = data.carrier
    assert data.image_span.contains({0: ONE}) and data.rep_coords == [{1: ONE, 2: ONE}]
    assert not SpanReducer(kernel_of(lie_generator(MUBAR), 2, "B")).contains({3: ONE})

    def linear_map(columns):
        matrix = ExactMatrix.from_columns(columns, nrows=carrier.dim(2))
        return lambda x: carrier.element(apply(matrix, carrier.coordinates([x], 2)[0]), 2)

    # e_0 -> e_1 + e_2: the representative goes to 0, the image leaves the image
    keeps_reps = linear_map([{1: ONE, 2: ONE}, {}, {}, {}])
    with pytest.raises(NotWellDefined, match="does not preserve images at degree 2"):
        induced_map(data, data, columns_of(keeps_reps, data, data))
    # and e_1 -> e_3 as well: the representative leaves the kernel
    breaks_both = linear_map([{1: ONE, 2: ONE}, {3: ONE}, {}, {}])
    with pytest.raises(NotWellDefined, match="does not preserve kernels at degree 2"):
        induced_map(data, data, columns_of(breaks_both, data, data))
