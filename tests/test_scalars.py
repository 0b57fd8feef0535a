import operator
import random
from dataclasses import dataclass
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


# -- the frozen-dataclass GaussianRational that the slotted class replaced ------
# Kept verbatim with its helpers (renamed to RefScalar, with its own ONE) as
# the reference for the differential tests below: every result must equal its
# result, part by part, in text and in hash.


def _frac_text(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class RefScalar:
    """An element re + im*sqrt(-1) of Q(i)."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RefScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return RefScalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RefScalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RefScalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RefScalar(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        norm = o.re * o.re + o.im * o.im
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        return RefScalar(
            (self.re * o.re + self.im * o.im) / norm,
            (self.im * o.re - self.re * o.im) / norm,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return RefScalar(-self.re, -self.im)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (REF_ONE / self) ** (-n)
        out = REF_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "RefScalar":
        return REF_ONE / self

    def conjugate(self) -> "RefScalar":
        return RefScalar(self.re, -self.im)

    # -- predicates & display ----------------------------------------------

    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        if self.im == 0:
            return _frac_text(self.re)
        if self.re == 0:
            return f"{_frac_text(self.im)}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{_frac_text(self.re)}{sign}{_frac_text(abs(self.im))}*i"

    def __repr__(self) -> str:
        return f"RefScalar({self})"


REF_ONE = RefScalar(1)


def rand_operand(rng):
    """An int, a Fraction (integral or not) or a scalar (real or not); zero
    parts and zero divisors occur."""
    def rational():
        if rng.random() < 0.5:
            return rng.randint(-20, 20)
        return Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 4, 6, 7]))

    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-20, 20)
    if kind == 1:
        return Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 5]))
    # a scalar's parts, real (kind 2) or not (kind 3)
    return (rational(), rational() if kind == 3 else 0)


def both(value):
    """The operand as it is given to the new class and to the reference."""
    if isinstance(value, tuple):
        return GaussianRational(*value), RefScalar(*value)
    return value, value


def assert_agrees(got, want):
    assert type(got) is GaussianRational and type(want) is RefScalar
    assert (got.re, got.im) == (want.re, want.im)
    for part, ref_part in ((got.re, want.re), (got.im, want.im)):
        # a part is an int exactly when it is integral
        assert (type(part) is int) == (ref_part.denominator == 1)
        assert type(part) in (int, Fraction)
    assert str(got) == str(want)
    assert repr(got) == repr(want).replace("RefScalar", "GaussianRational")
    assert hash(got) == hash(want)
    assert bool(got) == bool(want) and got.is_zero() == want.is_zero()


BINARY_OPS = [
    operator.add,
    operator.sub,
    operator.mul,
    operator.truediv,
]


def test_differential_against_dataclass_reference():
    rng = random.Random(5)
    for _ in range(3000):
        x, y = rand_operand(rng), rand_operand(rng)
        if not isinstance(x, tuple) and not isinstance(y, tuple):
            continue
        (a, ra), (b, rb) = both(x), both(y)
        for op in BINARY_OPS:
            try:
                want = op(ra, rb)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    op(a, b)
                continue
            assert_agrees(op(a, b), want)
        if isinstance(x, tuple) and isinstance(y, tuple):
            assert (a == b) == (ra == rb)
            assert (a != b) == (ra != rb)


def test_differential_unary_and_powers():
    rng = random.Random(6)
    for _ in range(1000):
        value = rand_operand(rng)
        if not isinstance(value, tuple):
            value = (value, 0)
        a, ra = both(value)
        assert_agrees(-a, -ra)
        assert_agrees(a.conjugate(), ra.conjugate())
        assert_agrees(scalar_from_text(str(a)), ra)
        for n in range(-3, 5):
            if n < 0 and not ra:
                with pytest.raises(ZeroDivisionError):
                    a**n
            else:
                assert_agrees(a**n, ra**n)


def test_integral_fraction_parts_are_ints():
    a = GaussianRational(Fraction(4, 2), Fraction(-6, 3))
    assert type(a.re) is int and type(a.im) is int
    assert (a.re, a.im) == (2, -2)
    half = GaussianRational(Fraction(1, 2))
    assert type((half + half).re) is int
    assert type((GaussianRational(6) / GaussianRational(3)).re) is int
    assert type((GaussianRational(1) / GaussianRational(2)).re) is Fraction
    assert type(GaussianRational(True).re) is int


def test_dict_keys_and_equality_across_forms():
    assert {GaussianRational(Fraction(4, 2)): 1}[GaussianRational(2)] == 1
    assert hash(GaussianRational(Fraction(4, 2), 1)) == hash(RefScalar(2, 1))
    assert GaussianRational(3) != 3
    assert not (GaussianRational(3) == 3)
    assert not (GaussianRational(Fraction(1, 2)) == Fraction(1, 2))
    assert GaussianRational(3) == GaussianRational(Fraction(3))


def test_rejects_other_operands():
    with pytest.raises(TypeError):
        GaussianRational(1.5)
    with pytest.raises(TypeError):
        ONE + 1.5
    with pytest.raises(TypeError):
        ONE * "x"


def test_post_init_runs_once_per_scalar_created(monkeypatch):
    # the benchmark counts scalars created by wrapping __post_init__, so
    # every path that creates one must run it exactly once
    calls = []
    original = GaussianRational.__post_init__

    def counted(x):
        calls.append(x)
        original(x)

    monkeypatch.setattr(GaussianRational, "__post_init__", counted)
    a, b = GaussianRational(Fraction(1, 2), 3), GaussianRational(-2)
    c = GaussianRational(5)
    paths = {
        "constructor": lambda: GaussianRational(Fraction(4, 2), -1),
        "add": lambda: a + b,
        "add real": lambda: b + c,
        "sub": lambda: a - b,
        "sub real": lambda: b - c,
        "mul": lambda: a * b,
        "mul real": lambda: b * c,
        "div": lambda: a / b,
        "div real": lambda: b / c,
        "neg": lambda: -a,
        "conjugate": lambda: a.conjugate(),
        "as_scalar int": lambda: as_scalar(3),
        "as_scalar Fraction": lambda: as_scalar(Fraction(1, 2)),
        "scalar_from_text": lambda: scalar_from_text("3-1/2*i"),
    }
    for name, path in paths.items():
        calls.clear()
        result = path()
        assert len(calls) == 1 and calls[0] is result, name
    calls.clear()
    assert as_scalar(a) is a and calls == []


def test_creation_counts_match_reference(monkeypatch):
    # mixed int/Fraction operands create the coerced operand too: the count
    # of scalars created on every path is the reference's count
    counts = {GaussianRational: 0, RefScalar: 0}
    for cls in counts:
        original = cls.__post_init__

        def counted(x, cls=cls, original=original):
            counts[cls] += 1
            original(x)

        monkeypatch.setattr(cls, "__post_init__", counted)
    rng = random.Random(7)
    for _ in range(300):
        x, y = rand_operand(rng), rand_operand(rng)
        if not isinstance(x, tuple):
            x = (x, 0)
        (a, ra), (b, rb) = both(x), both(y)
        reflected = [lambda s, t: t + s, lambda s, t: t - s, lambda s, t: t * s]
        for op in BINARY_OPS + reflected:
            for s, t in ((a, b), (ra, rb)):
                try:
                    op(s, t)
                except ZeroDivisionError:
                    pass
        for n in (-2, 3) if ra else (3,):
            a**n
            ra**n
        assert counts[GaussianRational] == counts[RefScalar]
