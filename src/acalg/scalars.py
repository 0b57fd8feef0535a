"""Exact Gaussian-rational scalars.

The coefficient field everywhere in this package is Q(i): numbers a + b*i
with a, b rational.  Nothing here ever touches floating point, so the field
axioms hold exactly.

A scalar is stored as one integer triple: the ints ``a``, ``b`` and ``n``
of (a + b*i)/n, with n > 0 and gcd(a, b, n) = 1, so equal values have equal
triples.  ``+``, ``-``, ``*`` and ``/`` are int arithmetic on the triples
followed by one ``math.gcd`` of three arguments, which ``__post_init__``
takes: it is the single normaliser, and every scalar created runs it
exactly once.  The seven defining relations have coefficients 1, -1 and
1/2, so nearly every scalar the package meets has n = 1, and then the
normaliser does nothing.  ``bool()`` goes through ``is_zero``.  Instances
are immutable by convention; nothing assigns to a triple after
construction.

The parts ``.re`` and ``.im`` are read-only properties, each an ``int``
when integral and a reduced ``fractions.Fraction`` otherwise; a scalar is
also built from ``int`` or ``Fraction`` parts.  ``hash(x)`` equals
``hash((x.re, x.im))``, computed from the triple by ``Fraction``'s own
formula.  This module is the only one in the package that imports
``fractions``.

Text format (used by the CLI and the representation files):

    "a/b"         e.g.  "-1/2", "3"
    "a/b+c/d*i"   e.g.  "3+1/2*i", "-1-2*i"
    "c/d*i"       e.g.  "1/2*i", "-i", "i"
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd

from .errors import NumberTooLong

_new = object.__new__
_MODULUS = sys.hash_info.modulus


def _ratio(x) -> tuple[int, int]:
    """An int or Fraction part as (numerator, denominator)."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, int):
        return int(x), 1
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def gaussian(a: int, b: int, n: int) -> "GaussianRational":
    """The scalar (a + b*i)/n for ints a, b and n != 0, normalised."""
    x = _new(GaussianRational)
    x.a = a
    x.b = b
    x.n = n
    x.__post_init__()
    return x


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if type(x) is int:
        return gaussian(x, 0, 1)
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return None


def _part(p: int, n: int):
    """p/n as an int when integral, else as a reduced Fraction."""
    return p if n == 1 else p // n if not p % n else Fraction(p, n)


def _part_hash(p: int, n: int) -> int:
    """hash(Fraction(p, n)) for n > 0, by ``Fraction.__hash__``'s formula.
    It reads the value only, so p/n need not be reduced while n has an
    inverse modulo the hash modulus."""
    try:
        h = hash(hash(abs(p)) * pow(n, -1, _MODULUS))
    except ValueError:  # n is a multiple of the modulus: reduce p/n first
        g = gcd(p, n)
        if (n // g) % _MODULUS:
            return _part_hash(p // g, n // g)
        h = sys.hash_info.inf
    h = h if p >= 0 else -h
    return -2 if h == -1 else h


class GaussianRational:
    """An element (a + b*sqrt(-1))/n of Q(i)."""

    __slots__ = ("a", "b", "n")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.n = re, im, 1
        else:
            (p, q), (r, s) = _ratio(re), _ratio(im)
            self.a, self.b, self.n = p * s, r * q, q * s
        self.__post_init__()

    def __post_init__(self):
        n = self.n
        if n != 1:
            g = gcd(self.a, self.b, n)
            if n < 0:
                g = -g
            if g != 1:
                self.a //= g
                self.b //= g
                self.n = n // g

    @property
    def re(self):
        return _part(self.a, self.n)

    @property
    def im(self):
        return _part(self.b, self.n)

    # -- arithmetic ---------------------------------------------------------
    # The hot operators +, - and * test the operand's type inline and call
    # _coerce only when it is not a scalar; the rarer ones always call it.
    # An int or Fraction operand becomes a scalar first, as in RefScalar, the
    # reference of tests/test_scalars.py, so both create equally many scalars.

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        n, m = self.n, other.n
        if n == m:
            return gaussian(self.a + other.a, self.b + other.b, n)
        return gaussian(self.a * m + other.a * n, self.b * m + other.b * n, n * m)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        n, m = self.n, other.n
        if n == m:
            return gaussian(self.a - other.a, self.b - other.b, n)
        return gaussian(self.a * m - other.a * n, self.b * m - other.b * n, n * m)

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
        a, b, c, d = self.a, self.b, other.a, other.b
        return gaussian(a * c - b * d, a * d + b * c, self.n * other.n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        c, d, m = o.a, o.b, o.n
        norm = c * c + d * d
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        a, b = self.a * m, self.b * m
        return gaussian(a * c + b * d, b * c - a * d, self.n * norm)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return gaussian(-self.a, -self.b, self.n)

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
        return gaussian(self.a, -self.b, self.n)

    # -- equality, predicates & display ---------------------------------------

    def __eq__(self, other):
        # triples are canonical, so equal values have equal triples; like a
        # dataclass, a scalar never equals an int or a Fraction
        if type(other) is not GaussianRational:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.n == other.n

    def __hash__(self):
        a, b, n = self.a, self.b, self.n
        if n == 1:
            return hash((a, b))
        # equal to hash((self.re, self.im)): a tuple's hash reads its items'
        # hashes, and an int in (-modulus, modulus) other than -1 hashes to itself
        return hash((_part_hash(a, n), _part_hash(b, n) if b else 0))

    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        re_part, im_part = self.re, self.im
        if im_part == 0:
            return _frac_text(re_part)
        if re_part == 0:
            return f"{_frac_text(im_part)}*i"
        sign = "+" if im_part > 0 else "-"
        return f"{_frac_text(re_part)}{sign}{_frac_text(abs(im_part))}*i"

    def __repr__(self) -> str:
        return f"GaussianRational({self})"


Scalar = GaussianRational

ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
HALF = gaussian(1, 0, 2)


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


#: an unsigned rational: decimal digits, then optionally '/' and more
#: digits; the expression scanner reads numbers by it
UNSIGNED_RATIONAL = r"\d+(?:/\d+)?"
# the real part may not end inside a number or right before '*': otherwise
# "12*i" would split into the real part 1 and the imaginary part 2*i
_SCALAR_RE = re.compile(
    rf"^(?P<re>[+-]?{UNSIGNED_RATIONAL}(?![\d/*]))?"
    rf"(?P<im>(?:(?P<imsign>[+-])?(?:(?P<imcoef>{UNSIGNED_RATIONAL})\*)?i))?$"
)


def _read_ratio(text: str) -> tuple[int, int]:
    """(p, q) of text matching an optionally signed ``UNSIGNED_RATIONAL``;
    raises ZeroDivisionError when q is 0, and ValueError on a number of more
    digits than Python reads."""
    num, _, den = text.partition("/")
    p, q = int(num), int(den or 1)
    if q == 0:
        raise ZeroDivisionError(f"zero denominator in {text!r}")
    return p, q


def rational_from_text(text: str) -> Scalar:
    """The real scalar that ``UNSIGNED_RATIONAL`` text denotes; raises as
    ``_read_ratio`` does."""
    p, q = _read_ratio(text)
    return gaussian(p, 0, q)


def scalar_from_text(text: str) -> Scalar:
    """Parse the scalar text format; raises ValueError on malformed input."""
    s = text.strip()
    m = _SCALAR_RE.match(s)
    if not m or (m.group("re") is None and m.group("im") is None):
        raise ValueError(f"not a scalar literal: {text!r}")
    try:
        p, q = _read_ratio(m.group("re") or "0")
        r, s = _read_ratio(m.group("imcoef") or "1")
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar literal: {text!r}") from None
    except ValueError:  # the pattern admits digits only: more than Python reads
        raise ValueError(
            f"number with more than {sys.get_int_max_str_digits()} digits in scalar literal"
        ) from None
    if m.group("im") is None:
        r = 0
    else:
        # a sign is required between the real and imaginary parts
        if m.group("re") is not None and m.group("imsign") is None:
            raise ValueError(f"not a scalar literal: {text!r}")
        if m.group("imsign") == "-":
            r = -r
    return gaussian(p * s, r * q, q * s)
