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
from acalg.exprs import _UNICODE_ALIASES, MAX_DEPTH, _tokenize, parse, parse_element, render
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


# -- the scanner ----------------------------------------------------------------


@pytest.mark.parametrize(
    "text, message, column",
    [
        ("²", "unexpected character '²'", 1),
        ("①", "unexpected character '①'", 1),
        ("1²", "unexpected character '²'", 2),
        ("1/²", "unexpected character '/'", 2),
    ],
)
def test_digits_that_fraction_cannot_read_are_syntax_errors(text, message, column):
    # str.isdigit accepts these characters, but they are no decimal digits
    with pytest.raises(ExprSyntaxError) as info:
        parse_element(text)
    assert str(info.value) == f"{message} (line 1, column {column})"
    assert (info.value.line, info.value.column) == (1, column)


def test_decimal_digits_of_other_scripts_are_numbers():
    assert parse_element("٣*mu") == parse_element("3*mu")
    assert render(parse_element("٣*mu")) == "3*mu"


def test_positions_after_a_carriage_return_and_line_feed():
    assert [tuple(tok) for tok in _tokenize("mu\r\n  1/2")] == [
        ("name", "mu", 1, 1),
        ("num", "1/2", 2, 3),
        ("end", "", 2, 6),
    ]
    with pytest.raises(ExprSyntaxError) as info:
        parse("del *\r\n* del")
    assert (info.value.line, info.value.column) == (2, 1)


def test_a_number_too_long_to_read_is_a_syntax_error_at_its_token():
    with pytest.raises(ExprSyntaxError) as info:
        parse("mu + " + "9" * 5000)
    assert (info.value.line, info.value.column) == (1, 6)


_SYMBOLS = "+-*.[](),"


def _reference_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """The character-by-character scanner the regular expression replaced,
    kept as the reference; it reads numbers with ``str.isdigit``, so it
    differs only on texts holding a digit that is no decimal digit."""
    tokens = []
    line, col = 1, 1
    n = 0
    length = len(text)
    while n < length:
        ch = text[n]
        if ch == "\n":
            line += 1
            col = 1
            n += 1
            continue
        if ch.isspace():
            n += 1
            col += 1
            continue
        start_col = col
        if ch.isdigit():
            m = n
            while m < length and text[m].isdigit():
                m += 1
            if m < length and text[m] == "/" and m + 1 < length and text[m + 1].isdigit():
                m += 1
                while m < length and text[m].isdigit():
                    m += 1
            tokens.append(("num", text[n:m], line, start_col))
            col += m - n
            n = m
            continue
        if ch in ("μ", "∂", "µ"):
            m = n + 1
            if m < length and text[m] == "̄":
                m += 1
            word = _UNICODE_ALIASES.get(text[n:m])
            if word is None:
                raise ExprSyntaxError(f"unknown operator symbol {text[n:m]!r}", line, start_col)
            tokens.append(("name", word, line, start_col))
            col += m - n
            n = m
            continue
        if ch.isalpha() and ch.isascii():
            m = n
            while m < length and text[m].isascii() and (text[m].isalnum() or text[m] == "_"):
                m += 1
            tokens.append(("name", text[n:m], line, start_col))
            col += m - n
            n = m
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, line, start_col))
            n += 1
            col += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(("end", "", line, col))
    return tokens


def _scan(tokenize, text):
    """The tokens as tuples, or the error's (message, line, column)."""
    try:
        return [tuple(tok) for tok in tokenize(text)]
    except ExprSyntaxError as exc:
        return (str(exc), exc.line, exc.column)


#: ASCII, the Unicode aliases and their parts, other whitespace, decimal
#: digits of other scripts, and characters no token starts with
SCANNER_ALPHABET = [chr(c) for c in range(128)] + [
    "mu", "mubar", "del", "delbar", "1/2", "12", "/0",
    "μ̄", "∂̄", "µ̄", "μ", "∂", "µ", "\u0304",
    "\n", "\r", "\t", "\r\n", "\xa0", "\x1c", "\u3000",
    "٣", "𝟙", "é", "^",
]


def test_scanner_matches_the_reference_scanner():
    # half the texts from the pieces that scan alone, so that most of those
    # texts reach the end and every position in them is compared
    scannable = [piece for piece in SCANNER_ALPHABET if isinstance(_scan(_tokenize, piece), list)]
    rng = random.Random(1204)
    for n in range(50_000):
        pieces = SCANNER_ALPHABET if n % 2 else scannable
        text = "".join(rng.choices(pieces, k=rng.randint(0, 12)))
        assert _scan(_tokenize, text) == _scan(_reference_tokenize, text), repr(text)
