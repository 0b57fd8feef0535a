"""Adjoint differentials, cohomology, and the mapping-cone checks.

Three carriers are supported, named by the letters the CLI uses:

    'g'  the full graded Lie algebra (degree 0 is zero),
    'h'  the Lie subalgebra generated by delbar and del,
    'B'  its enveloping algebra: the span of pure delbar/del words
         (degree 0 is the span of 1).

For a degree-1 element a with [a, a] = 0, ``ad_matrix`` realizes [a, -] as an
exact matrix between consecutive graded pieces and ``cohomology`` returns the
degree-wise dimension together with deterministic representatives: the
earliest kernel vectors, in the kernel's reduced-echelon enumeration, that
complete the image to the kernel.

Each degree keeps one span, the echelon form of its image.  A kernel vector
is a representative when its residue modulo that span is independent of
the earlier representatives' residues; a vector's class is its residue
solved against the representatives' residues; and an induced map checks
that the image lands in the target's image span.

A degree-1 element is a = x mubar + y delbar + z del + w mu, and [a, -] is
linear in a, so ad_a = x ad_mubar + y ad_delbar + z ad_del + w ad_mu.  Each
generator's map is built once per (generator, degree, carrier) and kept in
a bounded cache; every differential's map is assembled from them, so the
map out of degree k also serves as the map into degree k + 1.  Each
generator must map the carrier into itself, as all four do on g, h and B.

The generator maps and the cohomology data are cached by the carrier object
itself, so the built-in carriers and any other ``Carrier`` take one path.
The g and h carriers read each degree's basis, and its rows in A for the
coordinate solves, from the one record per degree that ``lie`` builds.

``les_check`` verifies the mapping-cone identity for ad_mubar on B, the skew
commutation of ad_mubar with left multiplication by delbar, and the
node-by-node exactness of the induced long sequence on cohomology.
``frolicher_E1`` computes the two-step page H(H(-, ad_mubar), ad_delbar).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

from .algebra import (
    DEL,
    DELBAR,
    GENERATORS,
    MUBAR,
    AlgebraElement,
    NormalMonomial,
    generator_coefficients,
    generator_element,
    graded_commutator,
    product,
    restrict_to_B,
    row_in_A,
    words_of_length,
)
from .errors import InvalidDegree, NotADifferential, NotWellDefined
from .lie import LieElement, _graded_basis
from .linalg import ExactMatrix, Row, SpanReducer, solve_columns
from .scalars import ONE, Scalar


class Carrier:
    """A graded coefficient space with a deterministic basis per degree.

    Coordinates are rows: dicts from a basis index to a nonzero coefficient.
    ``first_degree`` is the lowest degree whose piece can be nonzero.
    """

    name = "?"
    first_degree = 1

    def basis(self, k: int) -> tuple[AlgebraElement, ...]:
        raise NotImplementedError

    def dim(self, k: int) -> int:
        return len(self.basis(k))

    def rows(self, k: int) -> Sequence[Row]:
        """basis(k) as rows in basis_A(k); ``coordinates`` only reads them."""
        return [row_in_A(b, k) for b in self.basis(k)]

    def coordinates(self, elements: Sequence[AlgebraElement], k: int) -> list[Row]:
        """Coordinates of degree-k elements in basis(k); raises if outside."""
        try:
            rhs = [row_in_A(e, k) for e in elements]
        except KeyError as exc:
            mono = exc.args[0]
            raise NotWellDefined(f"degree {mono.degree} term in {self.name}_{k}: {mono}") from None
        solved = solve_columns(self.rows(k), rhs)
        for n, coords in enumerate(solved):
            if coords is None:
                raise NotWellDefined(
                    f"element is outside carrier {self.name} at degree {k}: {elements[n]}"
                )
        return solved

    def element(self, coords: Row, k: int) -> AlgebraElement:
        basis = self.basis(k)
        out = AlgebraElement.zero()
        for j, c in coords.items():
            out = out + basis[j].scale(c)
        return out


class _LieCarrier(Carrier):
    """A graded Lie algebra, zero in degree 0, with the basis grown from the
    degree-1 generators ``seed`` in each degree k >= 1."""

    def __init__(self, name: str, seed: tuple[str, ...]):
        self.name = name
        self.seed = seed

    def basis(self, k: int) -> tuple[AlgebraElement, ...]:
        return _graded_basis(self.seed, k).values if k >= 1 else ()

    def rows(self, k: int) -> Sequence[Row]:
        return _graded_basis(self.seed, k).rows if k >= 1 else ()


@dataclass(frozen=True)
class _Words:
    """B_k: its words as monomials, their positions, and the basis elements."""

    monomials: tuple[NormalMonomial, ...]
    index: dict[NormalMonomial, int]
    basis: tuple[AlgebraElement, ...]


# B_k has 2^k words: far fewer than 32 degrees can ever be built
@lru_cache(maxsize=32)
def _words(k: int) -> _Words:
    monomials = tuple(NormalMonomial(word) for word in words_of_length(k))
    return _Words(
        monomials,
        {mono: n for n, mono in enumerate(monomials)},
        tuple(AlgebraElement({mono: ONE}) for mono in monomials),
    )


class _WordCarrier(Carrier):
    """B: all words in delbar, del; degree 0 is spanned by the unit."""

    name = "B"
    first_degree = 0

    def basis(self, k: int) -> tuple[AlgebraElement, ...]:
        if k < 0:
            return ()
        return _words(k).basis

    def dim(self, k: int) -> int:
        return 2**k if k >= 0 else 0

    def coordinates(self, elements: Sequence[AlgebraElement], k: int) -> list[Row]:
        index = _words(k).index
        out: list[Row] = []
        for e in elements:
            row: Row = {}
            for mono, coeff in e.terms():
                n = index.get(mono)
                if n is None:
                    restrict_to_B(e)
                    raise NotWellDefined(f"degree {mono.degree} term in B_{k}: {mono}")
                row[n] = coeff
            out.append(row)
        return out

    def element(self, coords: Row, k: int) -> AlgebraElement:
        monomials = _words(k).monomials
        return AlgebraElement({monomials[j]: c for j, c in coords.items()})


CARRIERS = {
    "g": _LieCarrier("g", GENERATORS),
    "h": _LieCarrier("h", (DELBAR, DEL)),
    "B": _WordCarrier(),
}


def get_carrier(which) -> Carrier:
    if isinstance(which, Carrier):
        return which
    try:
        return CARRIERS[which]
    except KeyError:
        raise ValueError(f"unknown carrier {which!r}; expected one of g, h, B") from None


@dataclass(frozen=True)
class GradedMap:
    """A linear map between graded pieces, in their deterministic bases."""

    source_basis: tuple[AlgebraElement, ...]
    target_basis: tuple[AlgebraElement, ...]
    matrix: ExactMatrix


def _as_degree_one(a) -> AlgebraElement:
    value = a.value if isinstance(a, LieElement) else a
    if not value.is_zero() and value.degree() != 1:
        raise InvalidDegree("adjoint differentials take a degree-1 element")
    return value


def _ad_columns(value: AlgebraElement, k: int, carrier: Carrier) -> list[Row]:
    """Coordinates of [value, b] in degree k + 1, for each b in basis(k).

    [a, -] is linear in a, so ad_a = sum_j c_j ad_{g_j} over the generators
    g_j with nonzero coefficients c_j in a; the columns of each ad_{g_j} are
    built once per (generator, degree, carrier) and then only combined.
    """
    columns: list[Row] = [{} for _ in carrier.basis(k)]
    for sym, coeff in zip(GENERATORS, generator_coefficients(value)):
        if not coeff:
            continue
        for column, generator_column in zip(columns, _generator_columns(sym, k, carrier)):
            for i, x in generator_column.items():
                y = coeff * x
                column[i] = column[i] + y if i in column else y
    return [{i: x for i, x in column.items() if x} for column in columns]


# 3 built-in carriers x 4 generators x 32 degrees, the degree bound of
# `_words`; the rows are shared, so `_ad_columns` only reads them
@lru_cache(maxsize=384)
def _generator_columns(sym: str, k: int, carrier: Carrier) -> list[Row]:
    """Coordinates of [g, b] in degree k + 1, for each b in basis(k), for the
    generator g named ``sym``."""
    g = generator_element(sym)
    images = [graded_commutator(g, x) for x in carrier.basis(k)]
    return carrier.coordinates(images, k + 1) if images else []


def ad_matrix(a, k: int, carrier="g") -> GradedMap:
    """Matrix of x -> [a, x] from carrier degree k to degree k + 1."""
    carrier = get_carrier(carrier)
    value = _as_degree_one(a)
    source = carrier.basis(k)
    target = carrier.basis(k + 1)
    matrix = ExactMatrix.from_columns(_ad_columns(value, k, carrier), nrows=len(target))
    return GradedMap(tuple(source), tuple(target), matrix)


@dataclass
class CohomologyData:
    """Everything about H^k(carrier, ad_a) needed to build induced maps.

    Vectors are rows of coordinates in ``carrier.basis(degree)``: the
    kernel's reduced-echelon basis as ``nullspace`` returns it, the image as
    the columns of the incoming ad map, and the representatives.
    ``image_span`` is the image's echelon form, the one span kept per
    degree, and ``residues`` are the representatives' residues modulo it.
    """

    degree: int
    dim: int
    representatives: tuple[AlgebraElement, ...]
    rep_coords: list[Row]
    kernel: list[Row]
    image: list[Row]
    image_span: SpanReducer
    residues: list[Row]
    carrier: Carrier

    def classes(self, vectors: Sequence[Row]) -> list[Row | None]:
        """Express kernel vectors as rep-combinations modulo the image, all
        in one solve against the residues; None for a vector outside the
        kernel.  Reduction modulo the image is linear with kernel the image,
        so a vector's residue is the same combination of the residues."""
        reduced = [self.image_span.reduce(vec) for vec in vectors]
        return solve_columns(self.residues, reduced)


def _check_differential(value: AlgebraElement) -> None:
    if not _squares_to_zero(value):
        raise NotADifferential(f"[a, a] != 0 for a = {value}")


# keyed by any degree-1 element, so bounded like `_cohomology_data_cached`: a
# `cohomology` request checks its differential once, not once per degree
@lru_cache(maxsize=1024)
def _squares_to_zero(value: AlgebraElement) -> bool:
    return graded_commutator(value, value).is_zero()


def cohomology_data(a, k: int, carrier="g") -> CohomologyData:
    carrier = get_carrier(carrier)
    value = _as_degree_one(a)
    _check_differential(value)
    return _cohomology_data_cached(value, k, carrier)


# keyed by any differential, so bounded: les_check(10) needs 11 entries and
# each `cohomology --diff ... --max k` request at most k + 1
@lru_cache(maxsize=1024)
def _cohomology_data_cached(value: AlgebraElement, k: int, carrier: Carrier) -> CohomologyData:
    kernel = ad_matrix(value, k, carrier).matrix.nullspace()
    image = _ad_columns(value, k - 1, carrier)
    image_span = SpanReducer(image)
    # a kernel vector is a representative when its residue modulo the image
    # is independent of the residues taken before it
    accepted = SpanReducer()
    rep_coords: list[Row] = []
    residues: list[Row] = []
    for vec in kernel:
        residue = image_span.reduce(vec)
        if accepted.add(residue):
            rep_coords.append(vec)
            residues.append(residue)
    return CohomologyData(
        degree=k,
        dim=len(rep_coords),
        representatives=tuple(carrier.element(vec, k) for vec in rep_coords),
        rep_coords=rep_coords,
        kernel=kernel,
        image=image,
        image_span=image_span,
        residues=residues,
        carrier=carrier,
    )


def cohomology(a, k: int, carrier="g") -> tuple[int, tuple[AlgebraElement, ...]]:
    """Dimension and representative basis of H^k(carrier, ad_a)."""
    data = cohomology_data(a, k, carrier)
    return data.dim, data.representatives


def cohomology_dims(a, k_max: int, carrier="g") -> dict[int, int]:
    carrier = get_carrier(carrier)
    return {k: cohomology_data(a, k, carrier).dim for k in range(carrier.first_degree, k_max + 1)}


def induced_map(
    source: CohomologyData,
    target: CohomologyData,
    raw_map: Callable[[AlgebraElement], AlgebraElement],
) -> ExactMatrix:
    """Matrix of the map induced on cohomology classes by ``raw_map``.

    ``raw_map`` must be linear.  It must send kernel into kernel and image
    into image (exactly, at the span level), or NotWellDefined is raised,
    for kernels before images.  The representatives and the image span the
    source kernel, so it is enough that every representative's image has a
    class and that the image lands in the target image.
    """

    def mapped(vectors: list[Row]) -> list[Row]:
        elements = [raw_map(source.carrier.element(vec, source.degree)) for vec in vectors]
        return target.carrier.coordinates(elements, target.degree)

    columns = target.classes(mapped(source.rep_coords))
    if None in columns:
        raise NotWellDefined(f"induced map does not preserve kernels at degree {source.degree}")
    if not all(target.image_span.contains(vec) for vec in mapped(source.image)):
        raise NotWellDefined(f"induced map does not preserve images at degree {source.degree}")
    return ExactMatrix.from_columns(columns, nrows=target.dim)


def frolicher_E1(carrier, k_max: int) -> dict[int, int]:
    """Dimensions of H(H(carrier, ad_mubar), ad_delbar) for degrees <= k_max.

    The induced ad_delbar is checked to be well defined on the ad_mubar
    cohomology before the second cohomology is taken.
    """
    carrier = get_carrier(carrier)
    mubar = generator_element(MUBAR)
    delbar = generator_element(DELBAR)
    k_min = carrier.first_degree

    data: dict[int, CohomologyData] = {}
    for k in range(k_min - 1, k_max + 2):
        data[k] = cohomology_data(mubar, k, carrier)

    raw = lambda x: graded_commutator(delbar, x)
    maps: dict[int, ExactMatrix] = {}
    for k in range(k_min - 1, k_max + 1):
        maps[k] = induced_map(data[k], data[k + 1], raw)

    return {
        k: maps[k].ncols - maps[k].rank() - maps[k - 1].rank() for k in range(k_min, k_max + 1)
    }


# -- the mapping-cone decomposition of B --------------------------------------


def split_B(k: int, b: AlgebraElement) -> tuple[AlgebraElement, AlgebraElement]:
    """The inverse of (x, y) -> del*x + delbar*y on B_k, k >= 1.

    Strips the leading letter of each monomial and groups by it.
    """
    if k < 1:
        raise InvalidDegree("split_B needs degree >= 1")
    restrict_to_B(b)
    x_terms: list[tuple[NormalMonomial, Scalar]] = []
    y_terms: list[tuple[NormalMonomial, Scalar]] = []
    for mono, coeff in b._terms.items():
        if mono.degree != k:
            raise InvalidDegree(f"degree {mono.degree} term in split_B({k}): {mono}")
        rest = NormalMonomial(mono.head[1:])
        if mono.head[0] == DELBAR:
            y_terms.append((rest, coeff))
        else:
            x_terms.append((rest, coeff))
    return (
        AlgebraElement.from_terms(x_terms),
        AlgebraElement.from_terms(y_terms),
    )


def delta_map(k: int, b: AlgebraElement) -> AlgebraElement:
    """The connecting map B_k -> B_{k-1}: del*x + delbar*y -> x."""
    return split_B(k, b)[0]


@dataclass
class CheckRecord:
    name: str
    degree: int
    passed: bool
    witness: str | None = None


@dataclass
class LesReport:
    max_degree: int
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def first_failure(self) -> CheckRecord | None:
        return next((r for r in self.records if not r.passed), None)

    def add(self, name: str, degree: int, passed: bool, witness: str | None = None):
        self.records.append(CheckRecord(name, degree, passed, witness))

    def summary(self) -> str:
        bad = self.first_failure()
        if bad is None:
            return f"all {len(self.records)} checks pass up to degree {self.max_degree}"
        return f"FAIL {bad.name} at degree {bad.degree}: {bad.witness}"


def _combine(rows: Sequence[Row], coeffs: Row) -> Row:
    """sum_i coeffs[i] * rows[i], holding nonzero entries only."""
    out: Row = {}
    for i, c in coeffs.items():
        for j, x in rows[i].items():
            y = c * x
            out[j] = out[j] + y if j in out else y
    return {j: x for j, x in out.items() if x}


def _cone_failures(
    k_max: int, ad_columns: Callable[[int], Sequence[Row]]
) -> tuple[list[str | None], list[str | None]]:
    """The witnesses of les_check's parts (a) and (b) for B_0 .. B_{k_max - 1},
    None where a degree passes: the first failing word of each degree.

    Everything is a word row: ``ad_columns(k)`` are the rows of ad_mubar out
    of B_k, left multiplication by delbar and del is read off ``product``
    word by word, and a row of B_{k+2} splits by the first letter of each
    word, the rest looked up through the word index of B_{k+1}.
    """
    carrier = CARRIERS["B"]

    def left(g: str, k: int) -> list[Row]:
        """The rows of b -> g b on B_k, in B_{k+1}."""
        g_elt = generator_element(g)
        return carrier.coordinates([product(g_elt, b) for b in carrier.basis(k)], k + 1)

    delbar_rows = [left(DELBAR, k) for k in range(k_max + 1)]
    del_rows = [left(DEL, k) for k in range(k_max)]
    block_fails: list[str | None] = []
    skew_fails: list[str | None] = []
    for k in range(0, k_max):
        # each word of B_{k+2} as its first letter and the rest's index in B_{k+1}
        rest = _words(k + 1).index
        split_at = [
            (mono.head[0], rest[NormalMonomial(mono.head[1:])]) for mono in _words(k + 2).monomials
        ]

        def split(row: Row) -> tuple[Row, Row]:
            """The rows of (x, y) with row = del x + delbar y."""
            parts: dict[str, Row] = {DEL: {}, DELBAR: {}}
            for j, c in row.items():
                letter, i = split_at[j]
                parts[letter][i] = c
            return parts[DEL], parts[DELBAR]

        block_fail = skew_fail = None
        ad, ad_up = ad_columns(k), ad_columns(k + 1)
        for n, (ad_base, delbar_base, del_base) in enumerate(zip(ad, delbar_rows[k], del_rows[k])):
            minus_ad_base = {j: -c for j, c in ad_base.items()}
            ad_delbar_base = _combine(ad_up, delbar_base)
            if block_fail is None and (
                split(_combine(ad_up, del_base))
                != (minus_ad_base, {j: -c for j, c in delbar_base.items()})
                or split(ad_delbar_base) != ({}, minus_ad_base)
            ):
                block_fail = f"block identity fails on {carrier.basis(k)[n]}"
            if skew_fail is None and ad_delbar_base != _combine(delbar_rows[k + 1], minus_ad_base):
                skew_fail = f"skew-commutation fails on {carrier.basis(k)[n]}"
            if block_fail and skew_fail:
                break
        block_fails.append(block_fail)
        skew_fails.append(skew_fail)
    return block_fails, skew_fails


def les_check(k_max: int) -> LesReport:
    """Verify the cone decomposition of ad_mubar on B and the induced
    long exact sequence, through degree ``k_max``."""
    if k_max < 2:
        raise InvalidDegree("les_check needs k_max >= 2")
    report = LesReport(k_max)
    carrier = get_carrier("B")
    mubar = generator_element(MUBAR)
    delbar = generator_element(DELBAR)

    # (a) the 2x2 block identity through the splitting (x, y) -> del x + delbar y
    # (b) ad_mubar skew commutes with left multiplication by delbar
    # both read ad_mubar off its cached word rows, which (c) builds anyway
    block_fails, skew_fails = _cone_failures(
        k_max, lambda k: _generator_columns(MUBAR, k, carrier)
    )
    for k, witness in enumerate(block_fails, start=1):
        report.add("cone-block-identity", k, witness is None, witness)
    for k, witness in enumerate(skew_fails):
        report.add("skew-commutation", k, witness is None, witness)

    # (c) exactness of the induced long sequence on cohomology
    data = {k: cohomology_data(mubar, k, carrier) for k in range(0, k_max + 1)}

    def left_delbar(x: AlgebraElement) -> AlgebraElement:
        return product(delbar, x)

    up: dict[int, ExactMatrix] = {-1: ExactMatrix.zeros(data[0].dim, 0)}
    down: dict[int, ExactMatrix] = {}
    for j in range(0, k_max):
        up[j] = induced_map(data[j], data[j + 1], left_delbar)
    for j in range(1, k_max + 1):
        down[j] = induced_map(data[j], data[j - 1], lambda x, j=j: delta_map(j, x))

    def exact(incoming: ExactMatrix, outgoing: ExactMatrix, middle_dim: int) -> bool:
        return (outgoing @ incoming).is_zero() and incoming.rank() + outgoing.rank() == middle_dim

    for j in range(0, k_max):
        # node H^j between delbar from below and delbar into degree j+1
        report.add(
            "exactness-at-delbar-node",
            j,
            exact(up[j - 1], up[j], data[j].dim),
        )
    for j in range(1, k_max + 1):
        # node H^j arrived by delbar, leaving by the connecting map
        report.add(
            "exactness-at-connecting-node",
            j,
            exact(up[j - 1], down[j], data[j].dim),
        )
    for j in range(0, k_max):
        # node H^j arrived by the connecting map from degree j+1, leaving by delbar
        report.add(
            "exactness-at-cone-node",
            j,
            exact(down[j + 1], up[j], data[j].dim),
        )
    return report
