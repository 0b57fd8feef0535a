import random
from fractions import Fraction

import pytest

from acalg.algebra import (
    DEL,
    DELBAR,
    MUBAR,
    AlgebraElement,
    basis_A,
    generator_element,
    graded_commutator,
)
from acalg.errors import ExprSyntaxError, NonHomogeneousOperand
from acalg.exprs import MAX_DEPTH, parse, parse_element, render
from acalg.scalars import GaussianRational


def test_relation_expressions_vanish():
    assert parse_element("[mubar,del] + 1/2*[delbar,delbar]").is_zero()
    assert parse_element("mubar*mubar").is_zero()
    assert parse_element("[mu,delbar] + 1/2*[del,del]").is_zero()
    assert parse_element("[mubar,mu] + [delbar,del]").is_zero()


def test_scalars_and_precedence():
    assert parse_element("2*delbar") == generator_element(DELBAR).scale(2)
    assert parse_element("1/2*del + 1/2*del") == generator_element(DEL)
    assert parse_element("i*i") == -AlgebraElement.one()
    assert parse_element("3+1/2*i") == AlgebraElement.one().scale(
        GaussianRational(3, Fraction(1, 2))
    )
    assert parse_element("-del") == -generator_element(DEL)
    assert parse_element("del.mubar") == AlgebraElement.from_word((DEL, MUBAR))
    assert parse_element("(mubar+mu)*(mubar+mu)") == parse_element(
        "-[delbar,del]"
    )


def test_unicode_aliases():
    assert parse_element("[μ̄,∂]") == parse_element("[mubar,del]")
    assert parse_element("∂̄*μ") == parse_element("delbar*mu")


def test_bracket_requires_homogeneous_operands():
    with pytest.raises(NonHomogeneousOperand):
        parse_element("[mubar + delbar*del, mu]")


def test_a_syntax_error_comes_before_a_domain_error():
    # the bracket alone is not homogeneous, but the whole text is parsed first
    with pytest.raises(ExprSyntaxError) as info:
        parse_element("[mubar + delbar*del, mu] +")
    assert (info.value.line, info.value.column) == (1, 27)


def test_parse_returns_the_postfix_program():
    program = parse("-[mubar, 2*del] + mu.mu")
    assert [op[0] for op in program] == [
        "value", "value", "value", "*", "[", "neg", "value", "value", "*", "+"
    ]
    assert [op[1] for op in program if op[0] == "value"] == [
        generator_element(MUBAR),
        AlgebraElement.one().scale(GaussianRational(2)),
        generator_element(DEL),
        generator_element("mu"),
        generator_element("mu"),
    ]


def test_syntax_error_positions():
    with pytest.raises(ExprSyntaxError) as info:
        parse("[del")
    assert info.value.line == 1
    assert info.value.column == 5
    with pytest.raises(ExprSyntaxError) as info:
        parse("mubar + ")
    assert info.value.column == 9
    with pytest.raises(ExprSyntaxError) as info:
        parse("foo")
    assert info.value.column == 1
    with pytest.raises(ExprSyntaxError) as info:
        parse("del *\n* del")
    assert info.value.line == 2
    with pytest.raises(ExprSyntaxError):
        parse("(del")
    with pytest.raises(ExprSyntaxError):
        parse("del del")
    with pytest.raises(ExprSyntaxError):
        parse("1 ? 2")


def test_round_trip_random_elements():
    rng = random.Random(501)
    monos = [m for k in range(0, 5) for m in basis_A(k)]
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(0, 5)):
            coeff = GaussianRational(
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                if rng.random() < 0.5
                else Fraction(0),
            )
            terms[rng.choice(monos)] = coeff
        element = AlgebraElement(terms)
        assert parse_element(render(element)) == element


def test_round_trip_specific_shapes():
    cases = [
        AlgebraElement.zero(),
        AlgebraElement.one(),
        AlgebraElement.one().scale(GaussianRational(0, Fraction(-2, 3))),
        generator_element(MUBAR).scale(GaussianRational(-1)),
        AlgebraElement.from_word((DEL, MUBAR)).scale(GaussianRational(1, 1)),
    ]
    for element in cases:
        assert parse_element(render(element)) == element


def test_nested_brackets_elaborate():
    inner = graded_commutator(generator_element(DEL), generator_element(DELBAR))
    expected = graded_commutator(generator_element(MUBAR), inner)
    assert parse_element("[mubar,[del,delbar]]") == expected
    assert expected.is_zero()


def test_nesting_limit():
    mu = generator_element("mu")
    assert parse_element("(" * MAX_DEPTH + "mu" + ")" * MAX_DEPTH) == mu
    assert isinstance(parse_element("[" * MAX_DEPTH + "del" + ", mu]" * MAX_DEPTH), AlgebraElement)
    with pytest.raises(ExprSyntaxError) as info:
        parse("1 + " + "(" * (MAX_DEPTH + 1) + "mu" + ")" * (MAX_DEPTH + 1))
    assert (info.value.line, info.value.column) == (1, 5 + MAX_DEPTH)


def test_long_chains_elaborate():
    del_ = generator_element(DEL)
    assert parse_element("-".join(["del"] * 2999)) == del_.scale(-2997)
    assert parse_element(".".join(["del"] * 1500)) == AlgebraElement.from_word((DEL,) * 1500)
