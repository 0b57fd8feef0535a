import importlib
import random
from fractions import Fraction

import pytest

from acalg.algebra import (
    DEL,
    DELBAR,
    GENERATORS,
    MU,
    MUBAR,
    AlgebraElement,
    basis_A,
    generator_element,
    graded_commutator,
    restrict_to_B,
    row_in_A,
)
from acalg.cohomology import get_carrier
from acalg.errors import InvalidDegree, NotInSubalgebra, OutOfDomain
from acalg.lie import (
    D_MU,
    D_MUBAR,
    HolElement,
    LieElement,
    _g_basis,
    _graded_basis,
    bracket,
    d_lie,
    derivation_apply,
    dim_g,
    dim_h,
    h_basis,
    lie_basis,
    lie_generator,
    project_hol,
)
from acalg.linalg import Chart, SpanReducer, combine
from acalg.scalars import ONE, ZERO, Scalar
from lie_reference import dynkin, reference_coordinates, reference_graded_basis
from vectors import same_span

lie = importlib.import_module("acalg.lie")


def super_pbw_dims(max_k):
    """Solve prod_{odd}(1+q^k)^{d_k} prod_{even}(1-q^k)^{-d_k} = 1/(1-2q)
    for the d_k, one degree at a time, with exact rational series arithmetic.

    This is the independent counting oracle for the Lie dimensions: the
    right-hand side is the dimension series of the span of delbar/del words,
    and the left-hand side is how a free odd/even-graded Lie algebra fills
    its enveloping algebra.
    """
    target = [Fraction(2) ** k for k in range(max_k + 1)]

    def mul(series, other):
        out = [Fraction(0)] * (max_k + 1)
        for i, a in enumerate(series):
            if not a:
                continue
            for j, b in enumerate(other):
                if i + j > max_k:
                    break
                out[i + j] += a * b
        return out

    def binomial_series(k, exponent, sign):
        # (1 + sign*q^k)^(-exponent for sign=-1 ... ) expanded directly
        out = [Fraction(0)] * (max_k + 1)
        out[0] = Fraction(1)
        if sign > 0:  # (1+q^k)^exponent
            coeff = Fraction(1)
            for n in range(1, exponent + 1):
                if n * k > max_k:
                    break
                coeff = coeff * (exponent - n + 1) / n
                out[n * k] = coeff
        else:  # (1-q^k)^(-exponent)
            coeff = Fraction(1)
            n = 1
            while n * k <= max_k:
                coeff = coeff * (exponent + n - 1) / n
                out[n * k] = coeff
                n += 1
        return out

    dims = {}
    running = [Fraction(0)] * (max_k + 1)
    running[0] = Fraction(1)
    for k in range(1, max_k + 1):
        d_k = int(target[k] - running[k])
        dims[k] = d_k
        if d_k:
            factor = binomial_series(k, d_k, +1 if k % 2 else -1)
            running = mul(running, factor)
    return dims


EXPECTED_LIE_DIMS = {1: 4, 2: 3, 3: 2, 4: 3, 5: 6, 6: 11, 7: 18, 8: 30}


def test_series_oracle_self_consistency():
    dims = super_pbw_dims(8)
    assert dims[1] == 2
    assert {k: dims[k] for k in range(2, 9)} == {
        k: EXPECTED_LIE_DIMS[k] for k in range(2, 9)
    }


def test_lie_basis_degree_one():
    basis = lie_basis(1)
    assert [str(b) for b in basis] == ["1*mubar", "1*delbar", "1*del", "1*mu"]
    with pytest.raises(InvalidDegree):
        lie_basis(0)
    with pytest.raises(InvalidDegree):
        dim_g(-2)


def test_graded_basis_cache_is_bounded():
    assert _graded_basis.cache_info().maxsize is not None
    assert _g_basis.cache_info().maxsize is not None


def test_lie_dims_match_series_oracle():
    dims = super_pbw_dims(7)
    assert dim_g(1) == 4
    for k in range(2, 8):
        assert dim_g(k) == dims[k], k
        assert dim_h(k) == dims[k], k
    assert dim_h(1) == 2


def test_degree_two_basis_span():
    delbar, del_ = generator_element(DELBAR), generator_element(DEL)
    named = [
        graded_commutator(del_, del_),
        graded_commutator(delbar, delbar),
        graded_commutator(del_, delbar),
    ]
    ours = [b.value for b in lie_basis(2)]
    assert same_span(
        [row_in_A(v, 2) for v in ours],
        [row_in_A(v, 2) for v in named],
    )


def test_h_and_g_spans_agree_above_degree_one():
    for k in range(2, 7):
        g_span = [row_in_A(b.value, k) for b in lie_basis(k)]
        h_span = [row_in_A(b.value, k) for _, b in h_basis(k)]
        assert same_span(g_span, h_span), k



def test_h_degree_two_basis_is_the_three_squares():
    delbar, del_ = generator_element(DELBAR), generator_element(DEL)
    assert [b.value for _, b in h_basis(2)] == [
        graded_commutator(delbar, delbar),
        graded_commutator(delbar, del_),
        graded_commutator(del_, del_),
    ]


def test_g_and_h_bases_differ_by_scalars_from_degree_two():
    assert [str(b) for b in lie_basis(1)][1:3] == [str(b) for _, b in h_basis(1)]
    assert str(lie_basis(2)[2]) == "-1*del.del"
    assert str(h_basis(2)[2][1]) == "2*del.del"
    assert h_basis(2)[2][0] == (DEL, DEL)

def test_bracket_examples():
    mubar, delbar, del_, mu = (lie_generator(s) for s in GENERATORS)
    assert bracket(mubar, del_).value == -AlgebraElement.from_word((DELBAR, DELBAR))
    assert bracket(del_, del_).value == AlgebraElement.from_word((DEL, DEL)).scale(2)
    inner = bracket(del_, delbar)
    assert bracket(mubar, inner).value.is_zero()
    assert bracket(mubar, inner).degree == 3


def test_lie_element_certification():
    # delbar.del alone is not a bracket combination in degree 2
    with pytest.raises(OutOfDomain):
        LieElement(AlgebraElement.from_word((DELBAR, DEL)), 2)
    ok = LieElement(graded_commutator(generator_element(DELBAR), generator_element(DEL)), 2)
    assert ok.degree == 2
    with pytest.raises(InvalidDegree):
        LieElement(generator_element(DELBAR), 2)


def reference_in_lie_span(value, degree):
    """lie._in_lie_span as it was before each degree kept its echelon form:
    a fresh elimination of all of lie_basis(degree) on every call.  Kept as
    the reference the certification must reproduce."""
    if value.is_zero():
        return True
    reducer = SpanReducer(row_in_A(b.value, degree) for b in lie_basis(degree))
    return reducer.contains(row_in_A(value, degree))


@pytest.mark.parametrize("k", range(1, 8))
def test_certification_matches_the_reference(k):
    rng = random.Random(k)
    basis, monomials = lie_basis(k), basis_A(k)
    accepted = rejected = 0
    for _ in range(30):
        value = AlgebraElement.zero()
        for b in rng.sample(basis, rng.randint(0, min(3, len(basis)))):
            value = value + b.value.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        for mono in rng.sample(monomials, rng.choice((0, 0, 1, 2))):
            value = value + AlgebraElement({mono: Scalar(rng.choice((-2, -1, 1, 2)))})
        if reference_in_lie_span(value, k):
            accepted += 1
            assert LieElement(value, k).value == value
        else:
            rejected += 1
            with pytest.raises(OutOfDomain):
                LieElement(value, k)
    # degree 1 of g is all of A_1
    assert accepted and (rejected or k == 1)


def test_dimensions_build_no_rows_or_spans():
    _graded_basis.cache_clear()
    _g_basis.cache_clear()
    basis_A.cache_clear()
    for k in range(2, 9):
        dim_g(k)
    # above degree 1, dim g_k is read off h's record
    assert _g_basis.cache_info().currsize == 0
    for k in range(1, 9):
        dim_g(k)
        dim_h(k)
        built = vars(_graded_basis(k))
        assert "values" not in built and "chart" not in built, k
    assert "values" not in vars(_g_basis(1)) and "chart" not in vars(_g_basis(1))
    # each candidate's row in A is read off its codes: no A_k is listed
    for k in range(1, 12):
        dim_g(k)
    for k in range(1, 11):
        dim_h(k)
    assert basis_A.cache_info().currsize == 0


def test_degree_one_certification_builds_no_span(monkeypatch):
    _graded_basis.cache_clear()
    _g_basis.cache_clear()
    monkeypatch.setattr(lie, "SpanReducer", None)
    monkeypatch.setattr(lie, "Chart", None)
    rng = random.Random(1)
    for _ in range(50):
        value = AlgebraElement.zero()
        for sym in GENERATORS:
            value = value + generator_element(sym).scale(Fraction(rng.randint(-3, 3), 2))
        assert LieElement(value, 1).value == value
    assert LieElement(d_lie().value).degree == 1
    assert _graded_basis.cache_info().currsize == _g_basis.cache_info().currsize == 0


@pytest.mark.parametrize("k", range(1, 12))
def test_one_tower_matches_the_two_seed_reference(k):
    g_ref, h_ref = reference_graded_basis(GENERATORS, k), reference_graded_basis((DELBAR, DEL), k)
    assert lie_basis(k) == tuple(b for _, b in g_ref.pairs)
    assert h_basis(k) == h_ref.pairs
    # the g carrier charts the reference's elements as its unit rows
    units = [{n: ONE} for n in range(len(g_ref.pairs))]
    assert get_carrier("g").coordinates(g_ref.values, k) == units
    assert dim_g(k) == len(g_ref.pairs)
    # certification accepts and rejects exactly as the reference's solve does
    rng = random.Random(f"tower-{k}")
    basis, monomials = lie_basis(k), basis_A(k)
    values = []
    for _ in range(40):
        value = AlgebraElement.zero()
        for b in rng.sample(basis, min(3, len(basis))):
            value = value + b.value.scale(rng.randint(-2, 2))
        for mono in rng.sample(monomials, rng.choice((0, 1))):
            value = value + AlgebraElement({mono: Scalar(rng.choice((-1, 1)))})
        values.append(value)
    verdicts = set()
    for value, solved in zip(values, reference_coordinates(g_ref.values, values, k)):
        expected = solved is not None
        verdicts.add(expected)
        try:
            accepted = LieElement(value, k).value == value
        except OutOfDomain:
            accepted = False
        assert accepted == expected, (k, str(value))
    # degree 1 of g is all of A_1
    assert verdicts == ({True} if k == 1 else {True, False})


@pytest.mark.parametrize("k", [3, 6])
def test_certification_and_coordinates_build_one_echelon_form(monkeypatch, k):
    _graded_basis.cache_clear()
    _g_basis.cache_clear()
    basis = lie_basis(k)  # built first: the builder's own reducer is not counted
    built = []

    class CountingChart(Chart):
        def __init__(self, rows):
            built.append(k)
            super().__init__(rows)

    monkeypatch.setattr(lie, "Chart", CountingChart)
    value = basis[0].value + basis[-1].value
    assert LieElement(value, k).value == value
    assert get_carrier("g").coordinates([value], k) == [{0: ONE, len(basis) - 1: ONE}]
    assert built == [k]


@pytest.mark.parametrize("k", range(2, 8))
def test_the_dynkin_map_fixes_exactly_what_certification_accepts(k):
    rng = random.Random(f"dynkin-{k}")
    basis, words = h_basis(k), get_carrier("B").basis(k)
    verdicts = set()
    for _ in range(20):
        value = AlgebraElement.zero()
        for _, b in rng.sample(basis, min(2, len(basis))):
            value = value + b.value.scale(rng.randint(-2, 2))
        for word in rng.sample(words, rng.choice((0, 1))):
            value = value + word.scale(rng.choice((-1, 1)))
        row = row_in_A(value, k)
        fixed = dynkin(row, k) == combine([(Scalar(k), row)])
        verdicts.add(fixed)
        try:
            accepted = LieElement(value, k).value == value
        except OutOfDomain:
            accepted = False
        assert accepted == fixed, (k, str(value))
    assert verdicts == {True, False}


def test_ideal_property():
    for k in range(1, 7):
        for h in lie_basis(k):
            try:
                restrict_to_B(h.value)
            except NotInSubalgebra:
                continue
            for sym in GENERATORS:
                value = bracket(lie_generator(sym), h).value
                restrict_to_B(value)  # raises on failure


def test_bracket_closure_recertifies_at_higher_degree():
    a = lie_basis(3)[0]
    b = lie_basis(4)[1]
    out = bracket(a, b)  # certification against lie_basis(7) happens inside
    assert out.degree == 7
    coords = row_in_A(out.value, 7)
    assert same_span(
        [row_in_A(x.value, 7) for x in lie_basis(7)] ,
        [row_in_A(x.value, 7) for x in lie_basis(7)] + [coords],
    )


def test_heisenberg_subalgebra():
    mubar, mu = lie_generator(MUBAR), lie_generator(MU)
    center = bracket(mubar, mu)
    assert not center.value.is_zero()
    assert bracket(mubar, center).value.is_zero()
    assert bracket(mu, center).value.is_zero()


# -- derivations ---------------------------------------------------------------


def test_derivation_defining_values():
    delbar, del_ = generator_element(DELBAR), generator_element(DEL)
    assert derivation_apply(D_MUBAR, "delbar").value.is_zero()
    assert derivation_apply(D_MUBAR, "del").value == (
        graded_commutator(delbar, delbar).scale(Fraction(-1, 2))
    )
    assert derivation_apply(D_MU, "delbar").value == (
        graded_commutator(del_, del_).scale(Fraction(-1, 2))
    )
    assert derivation_apply(D_MU, "del").value.is_zero()
    assert derivation_apply(D_MU, D_MUBAR).value == -graded_commutator(del_, delbar)


def test_derivation_leibniz_example():
    assert derivation_apply(D_MUBAR, ("del", "delbar")).value.is_zero()


def test_derivation_domain():
    with pytest.raises(OutOfDomain):
        derivation_apply(D_MUBAR, D_MUBAR)
    with pytest.raises(OutOfDomain):
        derivation_apply(D_MUBAR, "mubar")
    with pytest.raises(OutOfDomain):
        derivation_apply(D_MU, ("del", D_MUBAR))


def test_semidirect_cross_check():
    mubar, mu = lie_generator(MUBAR), lie_generator(MU)
    for k in range(1, 6):
        for expr, h in h_basis(k):
            assert derivation_apply(D_MUBAR, expr).value == bracket(mubar, h).value
            assert derivation_apply(D_MU, expr).value == bracket(mu, h).value
    # the derivation symbol realizes the mubar generator
    assert derivation_apply(D_MU, D_MUBAR).value == bracket(mu, mubar).value


def _symbolic_derivative(expr):
    """Differentiate a bracket expression, keeping the result as a linear
    combination [(coeff, expression), ...] so it can be differentiated again.
    Written against the defining values only, independent of the engine's
    Leibniz recursion."""
    if expr == "delbar":
        return []
    if expr == "del":
        return [(Fraction(-1, 2), ("delbar", "delbar"))]
    left, right = expr
    sign = -1 if _expr_degree(left) % 2 else 1
    out = [(c, (e, right)) for c, e in _symbolic_derivative(left)]
    out += [(sign * c, (left, e)) for c, e in _symbolic_derivative(right)]
    return out


def _expr_degree(expr):
    if isinstance(expr, str):
        return 1
    return _expr_degree(expr[0]) + _expr_degree(expr[1])


def _realize(terms):
    from acalg.lie import bracket_word_value

    total = AlgebraElement.zero()
    for coeff, expr in terms:
        total = total + bracket_word_value(expr).scale(coeff)
    return total


def test_derivation_squares_to_zero():
    targets = ["delbar", "del"] + [expr for expr, _ in h_basis(2)]
    for expr in targets:
        once = _symbolic_derivative(expr)
        # the symbolic derivative agrees with the engine
        assert _realize(once) == derivation_apply(D_MUBAR, expr).value, expr
        twice = [
            (c1 * c2, e2) for c1, e1 in once for c2, e2 in _symbolic_derivative(e1)
        ]
        assert _realize(twice).is_zero(), expr
        # and the composition matches bracketing twice on the realization
        mubar = lie_generator(MUBAR)
        again = bracket(mubar, derivation_apply(D_MUBAR, expr))
        assert again.value.is_zero(), expr


# -- quotient -------------------------------------------------------------------


def test_project_hol():
    f_d = project_hol(d_lie())
    assert f_d == HolElement(ONE, ONE)
    assert project_hol(lie_generator(MUBAR)).is_zero()
    delbar, del_ = lie_generator(DELBAR), lie_generator(DEL)
    assert project_hol(bracket(del_, delbar)).is_zero()
    assert project_hol(delbar) == HolElement(ONE, ZERO)


def test_hol_element_display():
    assert str(HolElement()) == "0"
    assert "delbar" in str(HolElement(ONE, ZERO))
