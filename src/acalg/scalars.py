"""Exact Gaussian-rational scalars.

The coefficient field everywhere in this package is Q(i): numbers a + b*i
with a, b rational.  Nothing here ever touches floating point, so the field
axioms hold exactly.

Each part is stored in one canonical form: an ``int`` when it is integral
and a reduced ``fractions.Fraction`` (positive denominator) otherwise.  The
seven defining relations have coefficients 1, -1 and 1/2, so nearly every
scalar the package meets is a small integer, and ``int`` arithmetic is
tens of times cheaper than ``Fraction`` arithmetic.  ``*`` skips every
product with a zero imaginary part: two real scalars cost one product and a
real times a non-real scalar two, where each skipped product would be a
``Fraction`` product when a part is not integral; ``+`` and ``-`` need no
such path, as 0 + 0 on ints costs nothing.  Since
``hash(Fraction(n)) == hash(n)`` and ``Fraction(n) == n``, the two forms
agree as dict keys, and ``.numerator`` / ``.denominator`` read both alike.

Every scalar created runs ``__post_init__`` exactly once: it is the single
normaliser, and ``bool()`` goes through ``is_zero``.  Instances are
immutable by convention; nothing assigns a part after construction.

Text format (used by the CLI and the representation files):

    "a/b"         e.g.  "-1/2", "3"
    "a/b+c/d*i"   e.g.  "3+1/2*i", "-1-2*i"
    "c/d*i"       e.g.  "1/2*i", "-i", "i"
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import NumberTooLong


def _part(x):
    """The canonical form of a rational part: int if integral, else Fraction."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return None


class GaussianRational:
    """An element re + im*sqrt(-1) of Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re
        self.im = im
        self.__post_init__()

    def __post_init__(self):
        if type(self.re) is not int:
            self.re = _part(self.re)
        if type(self.im) is not int:
            self.im = _part(self.im)

    # -- arithmetic ---------------------------------------------------------
    # The hot operators +, - and * test the operand's type inline and call
    # _coerce only when it is not a scalar; the rarer ones always call it.
    # Skipping the call saves 4 % of lie_tower's wall_s, and the real branch
    # of * another 8 % (bench/run.py, ten alternating pairs each).  A real
    # times a non-real scalar, as linalg's mixed rows meet them, takes two
    # products, not four.

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        if d:
            if b:
                return GaussianRational(a * c - b * d, a * d + b * c)
            return GaussianRational(a * c, a * d)
        if b:
            return GaussianRational(a * c, b * c)
        return GaussianRational(a * c, 0)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, o.re, o.im
        norm = c * c + d * d
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        return GaussianRational(Fraction(a * c + b * d, norm), Fraction(b * c - a * d, norm))

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (ONE / self) ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "GaussianRational":
        return ONE / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- equality, predicates & display ---------------------------------------

    def __eq__(self, other):
        # parts are canonical, so equal values have equal parts; like a
        # dataclass, a scalar never equals an int or a Fraction
        if type(other) is not GaussianRational:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

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
        return f"GaussianRational({self})"


Scalar = GaussianRational

ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
HALF = GaussianRational(Fraction(1, 2))


def as_scalar(x) -> Scalar:
    """Coerce an int, Fraction or Scalar to a Scalar."""
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(x)


def _frac_text(f: int | Fraction) -> str:
    """The one place an exact number becomes text."""
    try:
        if f.denominator == 1:
            return str(f.numerator)
        return f"{f.numerator}/{f.denominator}"
    except ValueError:  # more digits than Python converts to text
        raise NumberTooLong(
            f"a result has a number of more than {sys.get_int_max_str_digits()} digits"
        ) from None


#: an unsigned rational as ``Fraction`` reads it: decimal digits, then
#: optionally '/' and more digits; the expression scanner reads numbers by it
UNSIGNED_RATIONAL = r"\d+(?:/\d+)?"
# the real part may not end inside a number or right before '*': otherwise
# "12*i" would split into the real part 1 and the imaginary part 2*i
_SCALAR_RE = re.compile(
    rf"^(?P<re>[+-]?{UNSIGNED_RATIONAL}(?![\d/*]))?"
    rf"(?P<im>(?:(?P<imsign>[+-])?(?:(?P<imcoef>{UNSIGNED_RATIONAL})\*)?i))?$"
)


def scalar_from_text(text: str) -> Scalar:
    """Parse the scalar text format; raises ValueError on malformed input."""
    s = text.strip()
    m = _SCALAR_RE.match(s)
    if not m or (m.group("re") is None and m.group("im") is None):
        raise ValueError(f"not a scalar literal: {text!r}")
    try:
        re_part = Fraction(m.group("re") or 0)
        coef = Fraction(m.group("imcoef") or 1)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar literal: {text!r}") from None
    except ValueError:  # the pattern admits digits only: more than Python reads
        raise ValueError(
            f"number with more than {sys.get_int_max_str_digits()} digits in scalar literal"
        ) from None
    im_part = Fraction(0)
    if m.group("im") is not None:
        # a sign is required between the real and imaginary parts
        if m.group("re") is not None and m.group("imsign") is None:
            raise ValueError(f"not a scalar literal: {text!r}")
        if m.group("imsign") == "-":
            coef = -coef
        im_part = coef
    return GaussianRational(re_part, im_part)
