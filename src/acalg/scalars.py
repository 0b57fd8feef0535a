"""Exact Gaussian-rational scalars.

The coefficient field everywhere in this package is Q(i): numbers a + b*i
with a, b reduced rationals.  ``fractions.Fraction`` supplies the reduced
rational arithmetic (positive denominators, gcd-reduced), so the field
axioms hold exactly and nothing here ever touches floating point.

Text format (used by the CLI and the representation files):

    "a/b"         e.g.  "-1/2", "3"
    "a/b+c/d*i"   e.g.  "3+1/2*i", "-1-2*i"
    "c/d*i"       e.g.  "1/2*i", "-i", "i"
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class GaussianRational:
    """An element re + im*sqrt(-1) of Q(i)."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
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
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / norm,
            (self.im * o.re - self.re * o.im) / norm,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
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
        return f"GaussianRational({self})"


Scalar = GaussianRational

ZERO = GaussianRational(0)
ONE = GaussianRational(1)
MINUS_ONE = GaussianRational(-1)
I = GaussianRational(0, 1)
HALF = GaussianRational(Fraction(1, 2))


def as_scalar(x) -> Scalar:
    """Coerce an int, Fraction or Scalar to a Scalar."""
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(_as_fraction(x))


def _frac_text(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


_RAT = r"[+-]?\d+(?:/\d+)?"
# the real part may not end inside a number or right before '*': otherwise
# "12*i" would split into the real part 1 and the imaginary part 2*i
_SCALAR_RE = re.compile(
    rf"^(?P<re>{_RAT}(?![\d/*]))?(?P<im>(?:(?P<imsign>[+-])?(?:(?P<imcoef>\d+(?:/\d+)?)\*)?i))?$"
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
    im_part = Fraction(0)
    if m.group("im") is not None:
        # a sign is required between the real and imaginary parts
        if m.group("re") is not None and m.group("imsign") is None:
            raise ValueError(f"not a scalar literal: {text!r}")
        if m.group("imsign") == "-":
            coef = -coef
        im_part = coef
    return GaussianRational(re_part, im_part)
