"""The graded Lie algebra inside A, its subalgebras and derivations.

The primitive Lie algebra g sits inside A with bracket the graded
commutator.  Degree 1 is spanned by the four generators; above it g equals
the Lie subalgebra h generated by delbar and del.  Only h is built, degree
by degree, as graded commutators [delbar, -] and [del, -] against the
previous basis, with a greedy exact-rank selection making it deterministic;
g's basis above degree 1 is h's with some elements times -1/2 (``_g_basis``).

Each degree of h is built once, into one cached record: its bracket words
and elements, and, on first use, their values and the ``linalg.Chart`` of
their rows in ``basis_A(k)``, which gives a row of A_k its membership and
its coordinates at once; g's record keeps h's words.
``lie_basis``, ``h_basis``, the g and h carriers and the Maurer-Cartan check
read these records, and a ``LieElement`` above degree 1 is certified by g's.

h is the free Lie superalgebra on delbar, del, so ad_mubar and ad_mu on it
are the derivations fixed by their values there, as D_MUBAR and D_MU encode:

    D_mubar:  delbar -> 0,              del -> -1/2 [delbar, delbar]
    D_mu:     delbar -> -1/2 [del, del], del -> 0,  D_mubar -> -[del, delbar]

extended by the graded Leibniz rule, an independent cross-check of the bracket.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Union

from .algebra import (
    DEL,
    DELBAR,
    GENERATORS,
    AlgebraElement,
    d_element,
    generator_coefficients,
    generator_element,
    graded_commutator,
    row_in_A,
)
from .errors import InvalidDegree, OutOfDomain
from .linalg import Chart, Row, SpanReducer
from .scalars import HALF, Scalar, ZERO

#: nested-tuple bracket expressions over the leaves below
BracketWord = Union[str, tuple]

D_MUBAR = "D_mubar"
D_MU = "D_mu"


class LieElement:
    """A homogeneous element of g, certified to lie in span(lie_basis)."""

    __slots__ = ("value", "degree")

    def __init__(self, value: AlgebraElement, degree: int | None = None, *, _trusted=False):
        own_degree = value.degree()
        if degree is None:
            degree = own_degree if own_degree is not None else 1
        if own_degree is not None and own_degree != degree:
            raise InvalidDegree(f"element has degree {own_degree}, not {degree}")
        if degree < 1:
            raise InvalidDegree(f"Lie elements live in degrees >= 1, got {degree}")
        if not _trusted and not _in_lie_span(value, degree):
            raise OutOfDomain(f"not in the degree-{degree} Lie span: {value}")
        self.value = value
        self.degree = degree

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def scale(self, coeff) -> "LieElement":
        return LieElement(self.value.scale(coeff), self.degree, _trusted=True)

    def __add__(self, other: "LieElement") -> "LieElement":
        if self.degree != other.degree:
            raise InvalidDegree("cannot add Lie elements of different degrees")
        return LieElement(self.value + other.value, self.degree, _trusted=True)

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + other.scale(-1)

    def __neg__(self) -> "LieElement":
        return self.scale(-1)

    def __eq__(self, other) -> bool:
        return isinstance(other, LieElement) and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"LieElement(degree={self.degree}, {self.value})"


def lie_generator(sym: str) -> LieElement:
    return LieElement(generator_element(sym), 1, _trusted=True)


def d_lie() -> LieElement:
    """d = mubar + delbar + del + mu as a degree-1 Lie element."""
    return LieElement(d_element(), 1, _trusted=True)


def _in_lie_span(value: AlgebraElement, degree: int) -> bool:
    # g_1 is all of A_1; above it, g's chart is the one g's coordinates read
    return (degree == 1 or value.is_zero()
            or _g_basis(degree).coordinates(row_in_A(value, degree)) is not None)


@dataclass(frozen=True)
class _GradedBasis:
    """One degree of a graded basis: the (bracket word, element) pairs in
    selection order, with their values and the ``linalg.Chart`` of their
    rows in ``basis_A(k)`` built on first use, so that a caller asking only
    for the pairs builds nothing more."""

    k: int
    pairs: tuple[tuple[BracketWord, LieElement], ...]

    @cached_property
    def values(self) -> tuple[AlgebraElement, ...]:
        return tuple(b.value for _, b in self.pairs)

    @property
    def dim(self) -> int:
        return len(self.pairs)

    @cached_property
    def chart(self) -> Chart:
        return Chart(row_in_A(v, self.k) for v in self.values)

    def coordinates(self, row: Row) -> Row | None:
        """A row of A_k's coordinates in the values, or None outside their span."""
        return self.chart.coordinates(row)


# 32 degrees; dim A_k = 9 * 2^(k-2) keeps far fewer within reach
@lru_cache(maxsize=32)
def _graded_basis(k: int) -> _GradedBasis:
    """Degree-k basis of h, grown from delbar and del, with the bracket word
    that produced each element.

    For k >= 2 the candidates are the commutators [delbar, b] then [del, b]
    over the degree k-1 basis, and a maximal independent subset is selected
    greedily in that order.
    """
    if k == 1:
        return _GradedBasis(1, tuple((sym, lie_generator(sym)) for sym in (DELBAR, DEL)))
    reducer = SpanReducer()
    selected: list[tuple[BracketWord, LieElement]] = []
    for g in (DELBAR, DEL):
        g_elt = generator_element(g)
        for expr, h in _graded_basis(k - 1).pairs:
            candidate = graded_commutator(g_elt, h.value)
            if candidate.is_zero():
                continue
            if reducer.add(row_in_A(candidate, k)):
                selected.append(((g, expr), LieElement(candidate, k, _trusted=True)))
    return _GradedBasis(k, tuple(selected))


def _del_del_root(word: BracketWord) -> bool:
    return word == (DEL, DEL) or not isinstance(word[1], str) and _del_del_root(word[1])


@lru_cache(maxsize=32)
def _g_basis(k: int) -> _GradedBasis:
    """Degree-k basis of g: the four generators, and above degree 1 h's
    record with its elements rescaled and its bracket words kept."""
    if k == 1:
        return _GradedBasis(1, tuple((sym, lie_generator(sym)) for sym in GENERATORS))
    # g_2 is [delbar, delbar], [delbar, del], [delbar, mu] and h_2 is
    # [delbar, delbar], [delbar, del], [del, del], where [delbar, mu] =
    # -1/2 [del, del] by the relation [mu, delbar] + 1/2 [del, del] = 0.
    # Every later candidate in either tower is [delbar, b] or [del, b] over
    # the previous basis, and a greedy independent choice does not change
    # when candidates are rescaled by nonzero scalars.  So element n of g_k
    # is element n of h_k, times -1/2 when its word grows from (del, del).
    pairs = _graded_basis(k).pairs
    return _GradedBasis(k, tuple((w, b.scale(-HALF) if _del_del_root(w) else b) for w, b in pairs))


def lie_basis(k: int) -> tuple[LieElement, ...]:
    """Deterministic basis of the degree-k piece of g (see :func:`h_basis`)."""
    if k < 1:
        raise InvalidDegree(f"lie_basis needs a positive degree, got {k}")
    return tuple(b for _, b in _g_basis(k).pairs)


def dim_g(k: int) -> int:
    """Dimension of the degree-k piece of g, which is h's for k >= 2."""
    return dim_h(k) if k >= 2 else len(lie_basis(k))


def bracket(a: LieElement, b: LieElement) -> LieElement:
    """Graded commutator of two Lie elements, re-certified on construction."""
    value = graded_commutator(a.value, b.value)
    return LieElement(value, a.degree + b.degree)


# -- the subalgebra h generated by delbar, del -------------------------------


def bracket_word_degree(expr: BracketWord) -> int:
    if isinstance(expr, str):
        return 1
    left, right = expr
    return bracket_word_degree(left) + bracket_word_degree(right)


def bracket_word_value(expr: BracketWord) -> AlgebraElement:
    """Realize a bracket expression over delbar/del inside A."""
    if isinstance(expr, str):
        if expr in (DELBAR, DEL):
            return generator_element(expr)
        raise OutOfDomain(f"not a delbar/del bracket expression leaf: {expr!r}")
    left, right = expr
    return graded_commutator(bracket_word_value(left), bracket_word_value(right))


def h_basis(k: int) -> tuple[tuple[BracketWord, LieElement], ...]:
    """Basis of the degree-k piece of h, with defining bracket expressions.

    Every element is the value of a bracket word in delbar and del, as the
    derivations D_mubar and D_mu need.  For k >= 2, element n of lie_basis(k)
    is element n here, times -1/2 if its word grows from (del, del), else 1.
    """
    if k < 1:
        raise InvalidDegree(f"h_basis needs a positive degree, got {k}")
    return _graded_basis(k).pairs


def dim_h(k: int) -> int:
    return len(h_basis(k))


# -- derivations --------------------------------------------------------------


def _derivation_on_leaf(which: str, leaf: str) -> AlgebraElement:
    delbar = generator_element(DELBAR)
    del_ = generator_element(DEL)
    if which == D_MUBAR:
        if leaf == DELBAR:
            return AlgebraElement.zero()
        if leaf == DEL:
            return graded_commutator(delbar, delbar).scale(-HALF)
    elif which == D_MU:
        if leaf == DELBAR:
            return graded_commutator(del_, del_).scale(-HALF)
        if leaf == DEL:
            return AlgebraElement.zero()
        if leaf == D_MUBAR:
            return -graded_commutator(del_, delbar)
    else:
        raise OutOfDomain(f"unknown derivation: {which!r}")
    raise OutOfDomain(f"{which} is not defined on {leaf!r}")


def _derivation_value(which: str, expr: BracketWord) -> AlgebraElement:
    if isinstance(expr, str):
        return _derivation_on_leaf(which, expr)
    left, right = expr
    d_left = _derivation_value(which, left)
    d_right = _derivation_value(which, right)
    v_left = bracket_word_value(left)
    v_right = bracket_word_value(right)
    sign = -1 if bracket_word_degree(left) % 2 else 1
    return graded_commutator(d_left, v_right) + graded_commutator(
        v_left, d_right
    ).scale(sign)


def derivation_apply(which: str, h: BracketWord) -> LieElement:
    """Apply D_mubar or D_mu to a bracket expression over delbar, del.

    ``h`` is a leaf ('delbar', 'del', or 'D_mubar' when which == 'D_mu') or a
    nested pair of bracket expressions; the derivation is extended by the
    graded Leibniz rule D[x, y] = [Dx, y] + (-1)^|x| [x, Dy].
    """
    value = _derivation_value(which, h)
    degree = bracket_word_degree(h) + 1
    return LieElement(value, degree)


# -- the abelian quotient -----------------------------------------------------


@dataclass(frozen=True)
class HolElement:
    """An element of the two-dimensional abelian quotient, degree 1.

    The quotient kills mubar and mu; what is left is spanned by the classes
    of delbar and del, and every bracket vanishes.
    """

    coeff_delbar: Scalar = ZERO
    coeff_del: Scalar = ZERO

    def is_zero(self) -> bool:
        return not (self.coeff_delbar or self.coeff_del)

    def coords(self) -> list[Scalar]:
        return [self.coeff_delbar, self.coeff_del]

    def bracket(self, other: "HolElement") -> "HolElement":
        """The quotient is abelian: every bracket is zero."""
        return HOL_ZERO

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return f"{self.coeff_delbar}*delbar + {self.coeff_del}*del"


HOL_ZERO = HolElement()


def project_hol(a: LieElement) -> HolElement:
    """Quotient map onto the abelian pair: drop mubar/mu, keep delbar/del.

    In degrees >= 2 the quotient is zero, so everything maps to 0 there.
    """
    if a.degree != 1:
        return HOL_ZERO
    _, y, z, _ = generator_coefficients(a.value)
    return HolElement(y, z)
