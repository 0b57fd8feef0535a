"""The Maurer-Cartan locus in degree 1 and its twisted-cubic chart.

A degree-1 element a = x*mubar + y*delbar + z*del + w*mu squares to zero
(as a graded bracket, [a, a] = 0) exactly when the three quadrics

    x*z - y^2,   y*w - z^2,   x*w - y*z

vanish; expanding [a, a] in the degree-2 basis gives

    [a, a] = (y^2 - x*z)[delbar,delbar] + 2(y*z - x*w)[delbar,del]
             + (z^2 - y*w)[del,del].

``is_mc`` evaluates both and insists they agree.  The cubic curve
d_{s,t} = s^3 mubar + s^2 t delbar + s t^2 del + t^3 mu parametrizes the
locus; its companion dJ_{s,t}, the parameter derivatives, the bidegree
rescaling phi_{s,t}, and the nullity of the abelian-quotient map on first
cohomology are all provided here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import (
    DEL,
    DELBAR,
    GENERATORS,
    AlgebraElement,
    basis_A,
    d_element,
    generator_coefficients,
    generator_element,
    graded_commutator,
    product,
    row_in_A,
)
from .cohomology import ad_matrix, cohomology_dims
from .errors import DegeneratePoint, InternalInconsistency
from .lie import LieElement, d_lie, project_hol
from .linalg import Row, SpanReducer, solve_columns
from .scalars import I, ONE, ZERO, Scalar, as_scalar


def g1_element(x, y, z, w) -> LieElement:
    """The degree-1 element with coordinates (x, y, z, w) on
    (mubar, delbar, del, mu)."""
    coeffs = [as_scalar(c) for c in (x, y, z, w)]
    value = AlgebraElement.zero()
    for coeff, sym in zip(coeffs, GENERATORS):
        if coeff:
            value = value + generator_element(sym).scale(coeff)
    return LieElement(value, 1, _trusted=True)


def g1_coordinates(a: LieElement) -> list[Scalar]:
    return generator_coefficients(a.value)


def quadric_values(x, y, z, w) -> tuple[Scalar, Scalar, Scalar]:
    x, y, z, w = (as_scalar(c) for c in (x, y, z, w))
    return (x * z - y * y, y * w - z * z, x * w - y * z)


@lru_cache(maxsize=1)
def _square_basis_columns() -> tuple[Row, Row, Row]:
    """[delbar,delbar], [delbar,del] and [del,del] as rows in basis_A(2);
    ``solve_columns`` only reads them."""
    delbar, del_ = generator_element(DELBAR), generator_element(DEL)
    basis = (
        graded_commutator(delbar, delbar),
        graded_commutator(delbar, del_),
        graded_commutator(del_, del_),
    )
    return tuple(row_in_A(b, 2) for b in basis)


def square_coefficients(x, y, z, w) -> tuple[Scalar, Scalar, Scalar]:
    """Coordinates of [a, a] on ([delbar,delbar], [delbar,del], [del,del]),
    computed through the actual graded commutator in A."""
    a = g1_element(x, y, z, w).value
    square = graded_commutator(a, a)
    coords = solve_columns(_square_basis_columns(), [row_in_A(square, 2)])[0]
    if coords is None:
        raise InternalInconsistency(f"[a, a] escaped the expected span: {square}")
    return tuple(coords.get(j, ZERO) for j in range(3))


@dataclass(frozen=True)
class McVerdict:
    is_mc: bool
    quadrics: tuple[Scalar, Scalar, Scalar]
    square_coords: tuple[Scalar, Scalar, Scalar]

    def __bool__(self) -> bool:
        return self.is_mc


def is_mc(x, y, z, w) -> McVerdict:
    """Maurer-Cartan membership with its double certificate.

    The quadric verdict and the bracket-expansion verdict are computed
    independently and must agree; a mismatch raises
    :class:`InternalInconsistency`.
    """
    quadrics = quadric_values(x, y, z, w)
    by_quadrics = not any(quadrics)
    square = square_coefficients(x, y, z, w)
    by_bracket = not any(square)
    if by_quadrics != by_bracket:
        raise InternalInconsistency(
            f"quadric verdict {by_quadrics} vs bracket verdict {by_bracket} "
            f"at ({x}, {y}, {z}, {w})"
        )
    return McVerdict(by_quadrics, quadrics, square)


@dataclass(frozen=True)
class MCPoint:
    """A point of the Maurer-Cartan locus; membership checked on construction."""

    x: Scalar
    y: Scalar
    z: Scalar
    w: Scalar

    def __post_init__(self):
        for name in ("x", "y", "z", "w"):
            object.__setattr__(self, name, as_scalar(getattr(self, name)))
        if any(quadric_values(self.x, self.y, self.z, self.w)):
            raise DegeneratePoint(
                f"({self.x}, {self.y}, {self.z}, {self.w}) is not a Maurer-Cartan point"
            )

    def element(self) -> LieElement:
        return g1_element(self.x, self.y, self.z, self.w)

    def coords(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        return (self.x, self.y, self.z, self.w)


def d_st(s, t) -> LieElement:
    """The cubic-curve differential s^3 mubar + s^2 t delbar + s t^2 del + t^3 mu."""
    s, t = as_scalar(s), as_scalar(t)
    return g1_element(s**3, s**2 * t, s * t**2, t**3)


def dJ_st(s, t) -> LieElement:
    """The companion sqrt(-1)(3 s^3 mubar + s^2 t delbar - s t^2 del - 3 t^3 mu)."""
    s, t = as_scalar(s), as_scalar(t)
    return g1_element(
        I * (3 * s**3),
        I * (s**2 * t),
        -(I * (s * t**2)),
        -(I * (3 * t**3)),
    )


def tangent_basis(s, t) -> tuple[LieElement, LieElement]:
    """The two parameter derivatives of d_{s,t}; a basis of the kernel of
    ad_{d_{s,t}} on degree 1 whenever (s, t) != (0, 0)."""
    s, t = as_scalar(s), as_scalar(t)
    if not (s or t):
        raise DegeneratePoint("tangent basis is undefined at (0, 0)")
    ds = g1_element(3 * s**2, 2 * s * t, t**2, ZERO)
    dt = g1_element(ZERO, s**2, 2 * t * s, 3 * t**2)
    return ds, dt


def kernel_g1(a: LieElement) -> list[LieElement]:
    """Basis of ker(ad_a) on degree 1, i.e. the degree-1 cocycles."""
    matrix = ad_matrix(a, 1, "g").matrix
    return [g1_element(*(row.get(j, ZERO) for j in range(4))) for row in matrix.nullspace()]


def strata_nullity(s, t) -> int:
    """Nullity of the abelian-quotient map on first cohomology at d_{s,t}.

    First cohomology equals the degree-1 cocycles (degree 0 vanishes), so
    this is dim ker(ad) restricted to degree 1 minus the rank of its image
    under the quotient projection.
    """
    return quotient_nullity(d_st(s, t))[1]


def quotient_nullity(a: LieElement) -> tuple[int, int]:
    """(dim of degree-1 cocycles, nullity of the quotient map on them)."""
    kernel = kernel_g1(a)
    reducer = SpanReducer()
    rank = 0
    for vec in kernel:
        hol = project_hol(vec)
        row = {j: c for j, c in ((0, hol.coeff_delbar), (1, hol.coeff_del)) if c}
        if reducer.add(row):
            rank += 1
    return len(kernel), len(kernel) - rank


# -- the rescaling operator ---------------------------------------------------


def phi_scale(elt: AlgebraElement, s, t) -> AlgebraElement:
    """Multiply each bidegree-(p, q) component by s^(p+2q) t^(2p+q)."""
    s, t = as_scalar(s), as_scalar(t)
    terms = []
    for mono, coeff in elt.terms():
        p, q = mono.bidegree
        terms.append((mono, coeff * s ** (p + 2 * q) * t ** (2 * p + q)))
    return AlgebraElement.from_terms(terms)


@dataclass
class PhiReport:
    s: Scalar
    t: Scalar
    max_degree: int
    checked: int
    passed: bool
    witness: str | None = None


def phi_conjugation_check(s, t, k_max: int, rep=None) -> PhiReport:
    """Verify phi_{s,t} d = d_{s,t} phi_{s,t} on A up to degree ``k_max``.

    Both sides act by left multiplication on each basis monomial, with the
    bidegree read off the monomial.  When ``rep`` is given, the same identity
    is also checked on its action matrices, with phi acting diagonally by
    vector bidegree.
    """
    s, t = as_scalar(s), as_scalar(t)
    if not (s and t):
        raise DegeneratePoint("phi_{s,t} is invertible only for s*t != 0")
    d = d_element()
    d_curve = d_st(s, t).value
    checked = 0
    for k in range(0, k_max + 1):
        for mono in basis_A(k):
            m = AlgebraElement({mono: ONE})
            lhs = phi_scale(product(d, m), s, t)
            rhs = product(d_curve, phi_scale(m, s, t))
            checked += 1
            if lhs != rhs:
                return PhiReport(s, t, k_max, checked, False, f"monomial {mono}")
    if rep is not None:
        from . import reps as reps_mod

        n = len(rep.labels)
        phi_diag = [
            s ** (p + 2 * q) * t ** (2 * p + q) for (p, q) in rep.bidegrees
        ]
        m_d = reps_mod.act(rep, d)
        m_curve = reps_mod.act(rep, d_curve)
        for i in range(n):
            for j in range(n):
                lhs = phi_diag[i] * m_d.entry(i, j)
                rhs = m_curve.entry(i, j) * phi_diag[j]
                checked += 1
                if lhs != rhs:
                    return PhiReport(
                        s, t, k_max, checked, False,
                        f"rep entry ({rep.labels[i]}, {rep.labels[j]})",
                    )
    return PhiReport(s, t, k_max, checked, True)


def cohomology_dims_match(s, t, k_max: int) -> bool:
    """dim H^k(g, ad_{d_{s,t}}) == dim H^k(g, ad_d) for k <= k_max."""
    return cohomology_dims(d_st(s, t), k_max, "g") == cohomology_dims(
        d_lie(), k_max, "g"
    )
