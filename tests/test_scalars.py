import random
from fractions import Fraction

import pytest

from acalg.scalars import (
    GaussianRational,
    I,
    ONE,
    ZERO,
    as_scalar,
    scalar_from_text,
)


def rand_scalar(rng, complex_part=True):
    re = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    im = Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if complex_part else Fraction(0)
    return GaussianRational(re, im)


def test_basic_arithmetic():
    a = GaussianRational(Fraction(1, 2), Fraction(3))
    b = GaussianRational(Fraction(-2), Fraction(1, 3))
    assert a + b == GaussianRational(Fraction(-3, 2), Fraction(10, 3))
    assert a * ONE == a
    assert a * ZERO == ZERO
    assert I * I == -ONE
    assert (a - a).is_zero()


def test_field_axioms_random():
    rng = random.Random(101)
    for _ in range(200):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if a:
            assert a * a.inverse() == ONE
            assert (b / a) * a == b


def test_division_and_powers():
    a = GaussianRational(Fraction(3), Fraction(-2))
    assert a / a == ONE
    assert a**0 == ONE
    assert a**3 == a * a * a
    assert a**-2 == ONE / (a * a)
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_conjugate():
    a = GaussianRational(Fraction(2, 7), Fraction(-5, 3))
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).im == 0


def test_reduced_invariants():
    a = GaussianRational(Fraction(2, 4), Fraction(-6, 4))
    assert a.re.denominator == 2 and a.re.numerator == 1
    assert a.im.denominator == 2 and a.im.numerator == -3
    assert a.re.denominator > 0 and a.im.denominator > 0


def test_text_examples():
    assert scalar_from_text("-1/2") == GaussianRational(Fraction(-1, 2))
    assert scalar_from_text("3+1/2*i") == GaussianRational(3, Fraction(1, 2))
    assert scalar_from_text("3-1/2*i") == GaussianRational(3, Fraction(-1, 2))
    assert scalar_from_text("1/2*i") == GaussianRational(0, Fraction(1, 2))
    assert scalar_from_text("i") == I
    assert scalar_from_text("-i") == -I
    assert scalar_from_text("0") == ZERO


def test_text_round_trip_random():
    rng = random.Random(55)
    for _ in range(200):
        a = rand_scalar(rng, complex_part=rng.random() < 0.5)
        assert scalar_from_text(str(a)) == a


@pytest.mark.parametrize("text", ["12*i", "-12*i", "3/12*i", "0+12*i", "5-120/7*i"])
def test_text_multi_digit_imaginary(text):
    value = scalar_from_text(text)
    assert value.im != 0
    assert scalar_from_text(str(value)) == value


def test_text_round_trip_multi_digit():
    rng = random.Random(56)
    for _ in range(300):
        a = GaussianRational(
            Fraction(rng.randint(-999, 999), rng.randint(1, 99)) * rng.randint(0, 1),
            Fraction(rng.randint(-999, 999), rng.randint(1, 99)),
        )
        assert scalar_from_text(str(a)) == a


@pytest.mark.parametrize("text", ["1/0", "1/0*i", "2+1/00*i", "-3/0"])
def test_text_zero_denominator_is_value_error(text):
    with pytest.raises(ValueError):
        scalar_from_text(text)


@pytest.mark.parametrize("bad", ["", "x", "1/2/3", "3 4", "1+2", "i*i", "1//2", "+-1"])
def test_text_rejects_garbage(bad):
    with pytest.raises(ValueError):
        scalar_from_text(bad)


def test_as_scalar_coercion():
    assert as_scalar(3) == GaussianRational(3)
    assert as_scalar(Fraction(1, 2)) == GaussianRational(Fraction(1, 2))
    with pytest.raises(TypeError):
        as_scalar(1.5)


def test_truth_goes_through_is_zero(monkeypatch):
    # the benchmark counts zero tests by wrapping is_zero, so bool() must call it
    calls = []
    original = GaussianRational.is_zero
    monkeypatch.setattr(GaussianRational, "is_zero", lambda x: calls.append(x) or original(x))
    values = [GaussianRational(0), GaussianRational(0, 1), GaussianRational(Fraction(-1, 2)), I]
    assert [bool(x) for x in values] == [False, True, True, True]
    assert calls == values
