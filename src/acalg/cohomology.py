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

Each degree keeps one record of coordinates and one span, the echelon form
of its image; the kernel is not kept, and no element is formed until
``cohomology`` returns its representatives.  A kernel vector is a
representative when its residue modulo that span is independent of the
earlier representatives' residues; a vector's class is its residue
solved against the representatives' residues; and an induced map checks
that the image lands in the target's image span.  An induced map takes the
map it is induced from as columns: the image of each source basis vector,
in the target basis.  Every sum here goes through ``linalg.combine``:
applying columns, assembling ad_a from the generator maps below, and
forming an element from its coordinates.

A degree-1 element is a = x mubar + y delbar + z del + w mu, and [a, -] is
linear in a, so ad_a = x ad_mubar + y ad_delbar + z ad_del + w ad_mu.  Each
generator's map is built once per (generator, degree, carrier) and kept in
a bounded cache; every differential's map is assembled from them, so the
map out of degree k also serves as the map into degree k + 1.  Each
generator must map the carrier into itself, as all four do on g, h and B.
B's maps are ``algebra.word_columns``, integer arithmetic on B's words.
Any other carrier reads [g, b] off them wherever b lies in B, as all of h
and of g above degree 1 does; only for b outside B, such as mubar and mu
in g_1, is the commutator formed.

A carrier is a name, a first degree and a record per degree: the basis, its
dimension and the coordinates of a row of A_k.  g's and h's records are
``lie``'s one tower (g's read off h's as h rescaled), and B's are its words.
The generator maps and the cohomology data are cached by the carrier object
itself, so the built-in carriers and any other ``Carrier`` take one path.

``cohomology``, ``cohomology_dims`` and ``cohomology_data`` resolve a
request through one helper, ``_request``: the carrier is looked up, then a
is checked to have degree 1, then [a, a] = 0.  ``cohomology`` and
``cohomology_dims`` read each degree through ``_rep_coords``, the one
reader of the weight bound: on g, h and B a degree the bound certifies as
zero is answered with no representatives, without building ad_a, its
kernel or its image for that degree; any other carrier, and every degree
the bound leaves open, takes the direct path.  ``cohomology_dims`` forms
no element.  ``cohomology_data`` is always the direct path: induced maps
and the cone checks read its rows.

``les_check`` verifies the mapping-cone identity for ad_mubar on B, the skew
commutation of ad_mubar with left multiplication by delbar, and the
node-by-node exactness of the induced long sequence on cohomology.
``frolicher_E1`` computes the two-step page H(H(-, ad_mubar), ad_delbar),
the E_2 page of the weight spectral sequence, after checking that the
induced ad_delbar squares to zero.  Both take homology at each node of
their sequences through ``_homology`` and read the cached generator maps;
left multiplication by delbar and del on B, the splitting and the
connecting map are read off B's word index, where word n of B_k is n in
binary (see ``algebra.words``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Sequence

from .algebra import (
    DELBAR,
    GENERATORS,
    MU,
    MUBAR,
    AlgebraElement,
    NormalMonomial,
    basis_A,
    generator_coefficients,
    generator_element,
    graded_commutator,
    restrict_to_B,
    row_in_A,
    word_columns,
    words,
)
from .errors import InvalidDegree, NotADifferential, NotInSubalgebra, NotWellDefined
from .lie import LieElement, _g_basis, _graded_basis
from .linalg import ExactMatrix, Row, SpanReducer, combine, solve_columns
from .scalars import ONE


class Carrier:
    """A graded coefficient space with a deterministic basis per degree:
    zero below ``first_degree``, and ``record(k)`` above it.

    A record holds degree k's basis ``values``, their number ``dim``, and
    ``coordinates(row)``: a row of A_k's coordinates in the values, or None
    outside their span.  Coordinates are rows: dicts from a basis index to a
    nonzero coefficient.  Carriers compare and hash by identity, so each
    caches its maps apart.
    """

    def __init__(self, name: str, first_degree: int, record: Callable[[int], Any]):
        self.name, self.first_degree, self.record = name, first_degree, record

    def basis(self, k: int) -> tuple[AlgebraElement, ...]:
        return self.record(k).values if k >= self.first_degree else ()

    def dim(self, k: int) -> int:
        return self.record(k).dim if k >= self.first_degree else 0

    def coordinates(self, elements: Sequence[AlgebraElement | Row], k: int) -> list[Row]:
        """Coordinates of degree-k elements, or of rows of A_k, in basis(k);
        raises if outside."""
        out: list[Row] = []
        for e in elements:
            try:
                row = row_in_A(e, k) if isinstance(e, AlgebraElement) else e
            except KeyError:
                mono = min((m for m in e._terms if m.degree != k), key=NormalMonomial.sort_key)
                raise NotWellDefined(
                    f"degree {mono.degree} term in {self.name}_{k}: {mono}") from None
            if k >= self.first_degree:
                coords = self.record(k).coordinates(row)
            else:
                coords = None if row else {}
            if coords is None:
                raise NotWellDefined(f"element is outside carrier {self.name} at degree {k}: {e}")
            out.append(coords)
        return out

    def element(self, coords: Row, k: int) -> AlgebraElement:
        basis = self.basis(k)
        return AlgebraElement._of_nonzero(combine((c, basis[j]._terms) for j, c in coords.items()))


class _WordRecord:
    """Degree k of B: all 2^k words in delbar, del (``algebra.words``)."""

    def __init__(self, k: int):
        self.k = k

    @property
    def values(self) -> tuple[AlgebraElement, ...]:
        return words(self.k)

    @property
    def dim(self) -> int:
        return 1 << self.k

    def coordinates(self, row: Row) -> Row:
        # word n of B_k is element n of A_k, so a row inside B_k is its own row here
        if any(j >> self.k for j in row):
            raise NotInSubalgebra(basis_A(self.k)[j] for j in sorted(row) if j >> self.k)
        return row


# the records themselves, not lie_basis or h_basis, which are what the bench
# tracer's lie.basis span wraps: a carrier's reads are not counted
CARRIERS = {
    "g": Carrier("g", 1, _g_basis),
    "h": Carrier("h", 1, _graded_basis),
    "B": Carrier("B", 0, _WordRecord),
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
    """A linear map from a carrier's degree ``degree`` to the next, in their
    deterministic bases, which are read off the carrier when asked for."""

    carrier: Carrier
    degree: int
    matrix: ExactMatrix

    @property
    def source_basis(self) -> tuple[AlgebraElement, ...]:
        return self.carrier.basis(self.degree)

    @property
    def target_basis(self) -> tuple[AlgebraElement, ...]:
        return self.carrier.basis(self.degree + 1)


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
    coeffs = generator_coefficients(value)
    maps = [(c, _generator_columns(sym, k, carrier)) for sym, c in zip(GENERATORS, coeffs) if c]
    return [combine((c, m[n]) for c, m in maps) for n in range(carrier.dim(k))]


# 3 built-in carriers x 4 generators x 32 degrees: B's map out of B_k has
# 2^k columns, and g's and h's bases grow geometrically too, so far fewer
# than 32 degrees can ever be built; the rows are shared, so `_ad_columns`
# only reads them
@lru_cache(maxsize=384)
def _generator_columns(sym: str, k: int, carrier: Carrier) -> list[Row]:
    """Coordinates of [g, b] in degree k + 1, for each b in basis(k), for the
    generator g named ``sym``.

    On B they are B's word columns.  On any other carrier each is the row
    of [g, b] in A_{k+1}, read through ``coordinates``: the word columns
    applied to b's row where that lies in B_k (every index below 2^k), with
    no product formed, and the commutator's row elsewhere.
    """
    columns = word_columns(sym, k) if k >= 0 else []
    if carrier.record is _WordRecord:
        return columns
    g, images = generator_element(sym), []
    for b in carrier.basis(k):
        row = row_in_A(b, k)
        in_B = all(j < len(columns) for j in row)
        images.append(_image(columns, row) if in_B else graded_commutator(g, b))
    return carrier.coordinates(images, k + 1)


def ad_matrix(a, k: int, carrier="g") -> GradedMap:
    """Matrix of x -> [a, x] from carrier degree k to degree k + 1."""
    carrier = get_carrier(carrier)
    value = _as_degree_one(a)
    matrix = ExactMatrix.from_columns(_ad_columns(value, k, carrier), nrows=carrier.dim(k + 1))
    return GradedMap(carrier, k, matrix)


@dataclass
class CohomologyData:
    """Everything about H^k(carrier, ad_a) needed to build induced maps.

    Vectors are rows of coordinates in ``carrier.basis(degree)``: the
    representatives, as the earliest vectors of the kernel's reduced-echelon
    basis that complete the image, and the image as the columns of the
    incoming ad map.  ``image_span`` is the image's echelon form, the one
    span kept per degree, and ``residues`` are the representatives'
    residues modulo it.  The record holds no element: ``cohomology`` forms
    the representatives from ``rep_coords`` when it returns them.
    """

    degree: int
    carrier: Carrier
    rep_coords: list[Row]
    image: list[Row]
    image_span: SpanReducer
    residues: list[Row]

    @property
    def dim(self) -> int:
        return len(self.rep_coords)

    def classes(self, vectors: Sequence[Row]) -> list[Row | None]:
        """Express kernel vectors as rep-combinations modulo the image, all
        in one solve against the residues; None for a vector outside the
        kernel.  Reduction modulo the image is linear with kernel the image,
        so a vector's residue is the same combination of the residues."""
        reduced = [self.image_span.reduce(vec) for vec in vectors]
        return solve_columns(self.residues, reduced)


def _request(a, carrier) -> tuple[AlgebraElement, Carrier]:
    """The value of a and the carrier of a cohomology request, checked in
    order: the carrier is known, a has degree 1, and [a, a] = 0."""
    carrier = get_carrier(carrier)
    value = _as_degree_one(a)
    if not _squares_to_zero(value):
        raise NotADifferential(f"[a, a] != 0 for a = {value}")
    return value, carrier


# keyed by any degree-1 element, so bounded like `_cohomology_data_cached`.
# Every request checks [a, a] = 0, and les_check and a `--reps` table make
# one request per degree: the cache forms [a, a] once for them, so a warm
# les_check calls no product
@lru_cache(maxsize=1024)
def _squares_to_zero(value: AlgebraElement) -> bool:
    return graded_commutator(value, value).is_zero()


def cohomology_data(a, k: int, carrier="g") -> CohomologyData:
    value, carrier = _request(a, carrier)
    return _cohomology_data_cached(value, k, carrier)


# keyed by any differential, so bounded: les_check(10) needs 11 entries and
# each `cohomology --diff ... --max k` request at most k + 1
@lru_cache(maxsize=1024)
def _cohomology_data_cached(value: AlgebraElement, k: int, carrier: Carrier) -> CohomologyData:
    image = _ad_columns(value, k - 1, carrier)
    image_span = SpanReducer(image)
    # a kernel vector is a representative when its residue modulo the image
    # is independent of the residues taken before it.  The image lies in the
    # kernel ([a, a] = 0), so the residues span dim ker - rank im dimensions,
    # and no vector after the one that fills them is taken
    accepted = SpanReducer()
    rep_coords: list[Row] = []
    residues: list[Row] = []
    kernel = ad_matrix(value, k, carrier).matrix.nullspace()
    dim = len(kernel) - image_span.rank
    for vec in kernel:
        if len(rep_coords) == dim:
            break
        residue = image_span.reduce(vec)
        if accepted.add(residue):
            rep_coords.append(vec)
            residues.append(residue)
    return CohomologyData(k, carrier, rep_coords, image, image_span, residues)


def _rep_coords(value: AlgebraElement, k: int, carrier: Carrier) -> list[Row]:
    """The rows of H^k(carrier, ad_value)'s representatives: none where the
    weight bound certifies H^k = 0, and the direct path's elsewhere.

    The weight 2p + q of bidegree (p, q) filters g, h and B; ad_mubar keeps
    it and ad_delbar, ad_del, ad_mu raise it by 1, 2, 3.  So for value =
    x mubar + y delbar + z del + w mu with x != 0 the associated graded
    differential is x ad_mubar, and since the filtration is finite in each
    degree, dim H^k(ad_value) <= dim H^k(ad_mubar) (McCleary, *A User's
    Guide to Spectral Sequences*, 2001, ch. 2).  The mirror weight p + 2q
    gives dim H^k(ad_value) <= dim H^k(ad_mu) when w != 0.  The bound needs
    a basis of bihomogeneous elements that all four generators preserve, so
    it is read only on the built-in carriers g, h and B.  Its data is the
    direct path's, cached and shared by every differential.
    """
    if any(carrier is builtin for builtin in CARRIERS.values()):
        x, _, _, w = generator_coefficients(value)
        for sym, c in ((MUBAR, x), (MU, w)):
            if c and _cohomology_data_cached(generator_element(sym), k, carrier).dim == 0:
                return []
    return _cohomology_data_cached(value, k, carrier).rep_coords


def cohomology(a, k: int, carrier="g") -> tuple[int, tuple[AlgebraElement, ...]]:
    """Dimension and representative basis of H^k(carrier, ad_a), read
    through ``_rep_coords``, so a degree the weight bound certifies is
    answered (0, ()) without eliminating ad_a."""
    value, carrier = _request(a, carrier)
    rep_coords = _rep_coords(value, k, carrier)
    return len(rep_coords), tuple(carrier.element(vec, k) for vec in rep_coords)


def cohomology_dims(a, k_max: int, carrier="g") -> dict[int, int]:
    """dim H^k(carrier, ad_a) for each degree up to ``k_max``, read as
    ``cohomology`` reads them, with no representative formed."""
    value, carrier = _request(a, carrier)
    return {k: len(_rep_coords(value, k, carrier)) for k in range(carrier.first_degree, k_max + 1)}


def _image(columns: Sequence[Row], vec: Row) -> Row:
    """The image of ``vec`` under the map whose column n is ``columns[n]``."""
    return combine((c, columns[n]) for n, c in vec.items())


def induced_map(
    source: CohomologyData, target: CohomologyData, columns: Sequence[Row]
) -> ExactMatrix:
    """Matrix of the map induced on cohomology classes by a linear map given
    as its columns: column n is the image of source basis vector n, in the
    target basis.

    The map must send kernel into kernel and image into image (exactly, at
    the span level), or NotWellDefined is raised, for kernels before images.
    The representatives and the image span the source kernel, so it is
    enough that every representative's image has a class and that the image
    lands in the target image.
    """
    classes = target.classes([_image(columns, vec) for vec in source.rep_coords])
    if None in classes:
        raise NotWellDefined(f"induced map does not preserve kernels at degree {source.degree}")
    if not all(target.image_span.contains(_image(columns, vec)) for vec in source.image):
        raise NotWellDefined(f"induced map does not preserve images at degree {source.degree}")
    return ExactMatrix.from_columns(classes, nrows=target.dim)


def _homology(incoming: ExactMatrix, outgoing: ExactMatrix) -> int | None:
    """dim ker(outgoing) / im(incoming) at the node between the two maps, or
    None when they do not compose to zero."""
    if not (outgoing @ incoming).is_zero():
        return None
    return outgoing.ncols - outgoing.rank() - incoming.rank()


def frolicher_E1(carrier, k_max: int) -> dict[int, int]:
    """Dimensions of H(H(carrier, ad_mubar), ad_delbar) for degrees <= k_max.

    The induced ad_delbar is checked to be well defined on the ad_mubar
    cohomology, and to square to zero there, before the second cohomology
    is taken.
    """
    carrier = get_carrier(carrier)
    mubar = generator_element(MUBAR)
    k_min = carrier.first_degree
    data = {k: cohomology_data(mubar, k, carrier) for k in range(k_min - 1, k_max + 2)}
    maps = {
        k: induced_map(data[k], data[k + 1], _generator_columns(DELBAR, k, carrier))
        for k in range(k_min - 1, k_max + 1)
    }
    page: dict[int, int] = {}
    for k in range(k_min, k_max + 1):
        dim = _homology(maps[k - 1], maps[k])
        if dim is None:
            raise NotWellDefined(f"induced delbar does not square to zero at degree {k}")
        page[k] = dim
    return page


# -- the mapping-cone decomposition of B --------------------------------------


def split_B(k: int, b: AlgebraElement) -> tuple[AlgebraElement, AlgebraElement]:
    """The inverse of (x, y) -> del*x + delbar*y on B_k, k >= 1.

    Read off the word index (see ``algebra.words``): del*x + delbar*y has
    row y + 2^(k-1) x in B_k, so the row is cut at 2^(k-1).
    """
    if k < 1:
        raise InvalidDegree("split_B needs degree >= 1")
    try:
        row = row_in_A(restrict_to_B(b), k)
    except KeyError as exc:
        mono = exc.args[0]
        raise InvalidDegree(f"degree {mono.degree} term in split_B({k}): {mono}") from None
    half, carrier = 1 << k - 1, CARRIERS["B"]
    return (
        carrier.element({n - half: c for n, c in row.items() if n >= half}, k - 1),
        carrier.element({n: c for n, c in row.items() if n < half}, k - 1),
    )


def _delta_columns(k: int) -> list[Row]:
    """The columns of the connecting map B_k -> B_{k-1}, k >= 1:
    del*x + delbar*y -> x, read off the word index."""
    half = 1 << k - 1
    return [{n - half: ONE} if n >= half else {} for n in range(2 * half)]


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


def _cone_failures(
    k_max: int, ad_columns: Callable[[int], Sequence[Row]]
) -> tuple[list[str | None], list[str | None]]:
    """The witnesses of les_check's parts (a) and (b) for B_0 .. B_{k_max - 1},
    None where a degree passes: the first failing word of each degree.

    ``ad_columns(k)`` are the word rows of ad_mubar out of B_k, and the word
    maps come from the word index (see ``algebra.words``): delbar*b_n and del*b_n
    are words n and 2^k + n of B_{k+1}, so ad_mubar sends them to its
    columns n and 2^k + n; delbar*r and del*r are a row r of B_{k+1} itself
    and r shifted by 2^(k+1), so B_{k+2} splits at 2^(k+1).
    """
    carrier = CARRIERS["B"]
    block_fails: list[str | None] = []
    skew_fails: list[str | None] = []
    for k in range(0, k_max):
        size = 1 << k  # dim B_k
        block_fail = skew_fail = None
        ad_up = ad_columns(k + 1)
        for n, ad_base in enumerate(ad_columns(k)):
            # (b) is ad_mubar(delbar*b) = -delbar*ad_mubar(b); (a) asks that
            # and ad_mubar(del*b) = -del*ad_mubar(b) - delbar*b
            minus_delbar_ad = {j: -c for j, c in ad_base.items()}
            minus_del_ad = {2 * size + j: c for j, c in minus_delbar_ad.items()}
            skew_bad = ad_up[n] != minus_delbar_ad
            if block_fail is None and (skew_bad or ad_up[size + n] != {n: -ONE} | minus_del_ad):
                block_fail = f"block identity fails on {carrier.basis(k)[n]}"
            if skew_fail is None and skew_bad:
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
    # delbar*b_n is word n of B_{j+1}, so delbar's columns are units
    up = {-1: ExactMatrix.zeros(data[0].dim, 0)} | {
        j: induced_map(data[j], data[j + 1], [{n: ONE} for n in range(1 << j)])
        for j in range(k_max)
    }
    down = {j: induced_map(data[j], data[j - 1], _delta_columns(j)) for j in range(1, k_max + 1)}

    # each node H^j, between the map arriving at it and the map leaving it
    nodes = (
        ("exactness-at-delbar-node", range(0, k_max), lambda j: (up[j - 1], up[j])),
        ("exactness-at-connecting-node", range(1, k_max + 1), lambda j: (up[j - 1], down[j])),
        ("exactness-at-cone-node", range(0, k_max), lambda j: (down[j + 1], up[j])),
    )
    for name, degrees, maps in nodes:
        for j in degrees:
            report.add(name, j, _homology(*maps(j)) == 0)
    return report
