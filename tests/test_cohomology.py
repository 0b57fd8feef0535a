import importlib
from dataclasses import replace
from fractions import Fraction

import pytest

from acalg.algebra import (
    DEL,
    DELBAR,
    GENERATORS,
    MU,
    MUBAR,
    AlgebraElement,
    generator_element,
    graded_commutator,
    product,
    words_of_length,
)
from acalg.cohomology import (
    Carrier,
    _LieCarrier,
    _cohomology_data_cached,
    _cone_failures,
    _generator_columns,
    _squares_to_zero,
    _words,
    ad_matrix,
    cohomology,
    cohomology_data,
    cohomology_dims,
    delta_map,
    frolicher_E1,
    get_carrier,
    induced_map,
    les_check,
    split_B,
)
from acalg.errors import InvalidDegree, NotADifferential, NotWellDefined
from acalg.lie import d_lie, lie_generator
from acalg.linalg import ExactMatrix, SpanReducer, solve_columns
from acalg.mc import d_st, g1_coordinates, g1_element
from acalg.scalars import I, ONE
from vectors import apply, same_span, transpose

def gen(sym):
    return generator_element(sym)


def from_word(*letters):
    return AlgebraElement.from_word(letters)


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
    columns: one commutator per basis element, then one coordinate solve.
    Kept as the reference the assembled maps must reproduce."""
    images = [graded_commutator(value, x) for x in carrier.basis(k)]
    return carrier.coordinates(images, k + 1) if images else []


class _UncachedLieCarrier(_LieCarrier):
    """The built-in g carrier as an object of its own, so its maps are
    built and cached apart from those of g."""

    def __init__(self):
        super().__init__("g", GENERATORS)


class _MixedLieCarrier(_UncachedLieCarrier):
    """g with the first two basis elements of each degree replaced by their
    sum and difference.  The basis is no longer bihomogeneous, so the
    generators' contributions to one ad_a entry can cancel.  Its rows come
    from the generic ``Carrier.rows``, computed from this basis."""

    rows = Carrier.rows

    def basis(self, k):
        basis = super().basis(k)
        if len(basis) < 2:
            return basis
        first, second = basis[:2]
        return (first + second, first - second) + basis[2:]


AD_ELEMENTS = [
    d_lie(),
    lie_generator(MUBAR),
    lie_generator(MU),
    lie_generator(DELBAR),
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
    kernel = SpanReducer(data1.kernel)
    assert kernel.contains(delbar_coords)
    assert not SpanReducer(data1.image).contains(delbar_coords)

    data2 = cohomology_data(mubar, 2, "h")
    named = graded_commutator(gen(DEL), gen(DELBAR))
    named_coords = data2.carrier.coordinates([named], 2)[0]
    assert SpanReducer(data2.kernel).contains(named_coords)
    assert not SpanReducer(data2.image).contains(named_coords)
    # image together with the named class fills the kernel
    completed = SpanReducer(data2.image + [named_coords])
    assert all(completed.contains(v) for v in data2.kernel)


def test_B_table_is_one_in_every_degree():
    mubar = lie_generator(MUBAR)
    dims = {k: cohomology(mubar, k, "B")[0] for k in range(0, 9)}
    assert dims == {k: 1 for k in range(0, 9)}


def test_d_cohomology_table():
    d = d_lie()
    assert cohomology(d, 1, "g")[0] == 2
    for k in range(2, 7):
        assert cohomology(d, k, "g")[0] == 0


def test_d_cohomology_representative_span():
    data = cohomology_data(d_lie(), 1, "g")
    named = [g1_coordinates(d_lie()), g1_coordinates(g1_element(3, 1, -1, -3))]
    assert same_span(data.kernel, named)
    assert data.dim == 2
    # with nothing arriving from degree 0, the representatives span the kernel
    assert same_span(data.rep_coords, named)


def test_not_a_differential():
    bad = g1_element(1, 0, 0, 1)  # mubar + mu squares to a nonzero bracket
    for _ in range(2):  # the verdict is cached, and raises on every call
        with pytest.raises(NotADifferential):
            cohomology(bad, 1, "g")


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


def test_les_check_witness_is_the_first_failing_base(monkeypatch):
    # a left multiplication by delbar that is wrong on one word of B_2 breaks
    # the block identity at degree 3 and skew-commutation at degree 2 there;
    # the cohomology part is stopped before it starts
    module = importlib.import_module("acalg.cohomology")
    bad = get_carrier("B").basis(2)[2]
    delbar = gen(DELBAR)

    def broken_product(a, b):
        if a == delbar and b == bad:
            return AlgebraElement.zero()
        return product(a, b)

    class Stop(Exception):
        pass

    def stop(*args):
        raise Stop

    reports = []

    class Report(module.LesReport):
        def __init__(self, *args):
            super().__init__(*args)
            reports.append(self)

    monkeypatch.setattr(module, "product", broken_product)
    monkeypatch.setattr(module, "cohomology_data", stop)
    monkeypatch.setattr(module, "LesReport", Report)
    with pytest.raises(Stop):
        les_check(4)
    failed = [(r.name, r.degree, r.witness) for r in reports[0].records if not r.passed]
    assert failed == [
        ("cone-block-identity", 3, f"block identity fails on {bad}"),
        ("skew-commutation", 2, f"skew-commutation fails on {bad}"),
    ]
    assert len(reports[0].records) == 8


def reference_cone_failures(k_max, ad_mubar):
    """les_check's parts (a) and (b) element by element, as les_check ran
    them before it read ad_mubar off the cached word rows."""
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

    def ad_mubar(x):
        if x.is_zero():
            return x
        j = x.degree()
        out = {}
        for i, c in carrier.coordinates([x], j)[0].items():
            for m, y in columns[j][i].items():
                out[m] = out.get(m, 0 * ONE) + c * y
        return carrier.element({m: y for m, y in out.items() if y}, j + 1)

    failures = _cone_failures(6, columns.__getitem__)
    assert failures == reference_cone_failures(6, ad_mubar)
    assert any(w is not None for w in failures[0] + failures[1])


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
        up = induced_map(data[j], data[j + 1], lambda x: product(delbar, x))
        if j % 2 == 0:
            assert up.rank() == 1, j
        else:
            assert up.is_zero(), j
    for j in range(1, 7):
        down = induced_map(data[j], data[j - 1], lambda x, j=j: delta_map(j, x))
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
        assert SpanReducer(data[k].kernel).contains(coords), (str(elt), k)
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


class _ZeroCarrier(Carrier):
    name = "zero-test"

    def basis(self, k):
        return ()

    def coordinates(self, elements, k):
        for e in elements:
            assert e.is_zero()
        return [{} for _ in elements]


def test_E1_on_zero_carrier():
    table = frolicher_E1(_ZeroCarrier(), 4)
    assert table == {1: 0, 2: 0, 3: 0, 4: 0}


@pytest.mark.parametrize("carrier, k", [("g", 0), ("h", 0), ("B", -1)])
def test_empty_degree_has_empty_data(carrier, k):
    # frolicher_E1 reads the degree below each carrier's first one
    data = cohomology_data(lie_generator(MUBAR), k, carrier)
    assert (data.degree, data.dim, data.representatives) == (k, 0, ())
    assert data.rep_coords == data.kernel == data.image == data.residues == []


def test_get_carrier_rejects_unknown():
    with pytest.raises(ValueError):
        get_carrier("nope")


def test_B_dim_is_closed_form():
    carrier = get_carrier("B")
    assert carrier.dim(-1) == 0
    for k in range(13):
        assert carrier.dim(k) == sum(1 for _ in words_of_length(k)) == 2**k


def test_cohomology_caches_are_bounded():
    for cache in (_words, _generator_columns, _squares_to_zero):
        assert cache.cache_info().maxsize is not None
    maxsize = _cohomology_data_cached.cache_info().maxsize
    assert maxsize is not None
    for n in range(1, maxsize + 9):
        cohomology_data(d_st(Fraction(n, n + 1), 1), 1, "g")
        assert _cohomology_data_cached.cache_info().currsize <= maxsize


# -- classes and induced maps ------------------------------------------------------


def reference_rep_coords(data):
    """The representatives as they were chosen before residues were kept:
    the kernel vectors a reducer seeded with the image accepts, in order."""
    reducer = SpanReducer(data.image)
    return [vec for vec in data.kernel if reducer.add(vec)]


def reference_classes(data, vectors):
    """CohomologyData.classes as it was before it read the image span: one
    solve against [representatives | image], keeping the representatives'
    coordinates.  Kept as the reference the residue solve must reproduce."""
    solved = solve_columns(data.rep_coords + data.image, vectors)
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
            assert data.rep_coords == reference_rep_coords(data), where
            # a unit vector is off the kernel when its column of ad_a is nonzero
            hit = {j for _, j, _ in ad_matrix(a, k, carrier).matrix.nonzero()}
            off_kernel = [{j: ONE} for j in sorted(hit)]
            vectors = data.kernel + data.image + off_kernel
            got = data.classes(vectors)
            assert got == reference_classes(data, vectors), where
            n = len(data.kernel)
            assert got[n : n + len(data.image)] == [{}] * len(data.image), where
            assert got[n + len(data.image) :] == [None] * len(off_kernel), where


def reference_induced_map(source, target, raw_map):
    """induced_map as it was before it mapped each family in one batch: every
    vector is mapped, converted and checked on its own, against spans built
    afresh.  Kept as the reference the batched version must reproduce."""
    kernel_span = SpanReducer(target.kernel)
    image_span = SpanReducer(target.image)

    def coordinates(vec):
        mapped = raw_map(source.carrier.element(vec, source.degree))
        return target.carrier.coordinates([mapped], target.degree)[0]

    for vec in source.kernel:
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
    cases += [(data[j], data[j - 1], lambda x, j=j: delta_map(j, x)) for j in range(1, 8)]
    # every ad_delbar map of frolicher_E1 through degree 5
    for name in ("g", "h", "B"):
        carrier = get_carrier(name)
        k_min = 0 if name == "B" else 1
        pages = {k: cohomology_data(mubar, k, carrier) for k in range(k_min - 1, 7)}
        raw = lambda x: graded_commutator(delbar, x)
        cases += [(pages[k], pages[k + 1], raw) for k in range(k_min - 1, 6)]
    for source, target, raw_map in cases:
        want = reference_induced_map(source, target, raw_map)
        assert induced_map(source, target, raw_map) == want, (source.carrier.name, source.degree, target.degree)


@pytest.mark.parametrize("k", range(0, 5))
def test_induced_map_rejects_a_map_that_breaks_kernels(k):
    mubar = lie_generator(MUBAR)
    source, target = cohomology_data(mubar, k, "B"), cohomology_data(mubar, k + 1, "B")
    with pytest.raises(NotWellDefined, match="does not preserve kernels"):
        induced_map(source, target, lambda x: product(gen(DEL), x))


@pytest.mark.parametrize("carrier", ["g", "h", "B"])
def test_a_term_of_another_degree_is_not_well_defined_on_every_carrier(carrier):
    mubar = lie_generator(MUBAR)
    source, target = cohomology_data(mubar, 2, carrier), cohomology_data(mubar, 3, carrier)
    with pytest.raises(NotWellDefined, match=f"degree 2 term in {carrier}_3: "):
        induced_map(source, target, lambda x: x)
    with pytest.raises(NotWellDefined, match=f"degree 1 term in {carrier}_2: "):
        get_carrier(carrier).coordinates([gen(DEL)], 2)


def test_induced_map_rejects_a_target_missing_images():
    mubar = lie_generator(MUBAR)
    left_delbar = lambda x: product(gen(DELBAR), x)
    source, target = cohomology_data(mubar, 3, "B"), cohomology_data(mubar, 4, "B")
    assert induced_map(source, target, left_delbar).shape == (1, 1)
    # the same kernel, but every kernel vector a representative: no image
    no_image = replace(
        target,
        dim=len(target.kernel),
        rep_coords=target.kernel,
        image=[],
        image_span=SpanReducer(),
        residues=target.kernel,
    )
    with pytest.raises(NotWellDefined, match="does not preserve images at degree 3"):
        induced_map(source, no_image, left_delbar)


def test_induced_map_checks_kernels_before_images():
    # on B_2 for ad mubar the image is spanned by the word e_0 and the
    # representative is e_1 + e_2; e_3 is outside the kernel
    data = cohomology_data(lie_generator(MUBAR), 2, "B")
    carrier = data.carrier
    assert data.image_span.contains({0: ONE}) and data.rep_coords == [{1: ONE, 2: ONE}]
    assert not SpanReducer(data.kernel).contains({3: ONE})

    def linear_map(columns):
        matrix = ExactMatrix.from_columns(columns, nrows=carrier.dim(2))
        return lambda x: carrier.element(apply(matrix, carrier.coordinates([x], 2)[0]), 2)

    # e_0 -> e_1 + e_2: the representative goes to 0, the image leaves the image
    keeps_reps = linear_map([{1: ONE, 2: ONE}, {}, {}, {}])
    with pytest.raises(NotWellDefined, match="does not preserve images at degree 2"):
        induced_map(data, data, keeps_reps)
    # and e_1 -> e_3 as well: the representative leaves the kernel
    breaks_both = linear_map([{1: ONE, 2: ONE}, {3: ONE}, {}, {}])
    with pytest.raises(NotWellDefined, match="does not preserve kernels at degree 2"):
        induced_map(data, data, breaks_both)
