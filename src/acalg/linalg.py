"""Exact linear algebra over Q(i) with one sparse elimination engine.

Vectors are rows: a dict that maps an index to a nonzero entry and holds
nothing else.  Every function here takes and returns rows.  Dense data
crosses in two places only: ``ExactMatrix(rows)`` reads lists of scalars,
and ``ExactMatrix.rows`` writes a dense copy for callers that print or count
entries.  ``combine`` forms a linear combination of rows, and it is the
one sparse sum of the package: matrix products and sums, the column maps of
the cohomology layer, and the sums and products of algebra elements (rows
keyed by monomial) all go through it.

``ExactMatrix`` stores its entries once, as rows.  Every elimination goes
through ``SpanReducer``, an incremental reduced row-echelon form over rows.
Each row has a leading 1 at its pivot (its first nonzero column) and a zero
in every other row's pivot column.

A row space has exactly one reduced echelon form, so ``rank``, ``nullspace``
and ``SpanReducer.reduce``, thin readers of the engine, and the greedy
selections made with ``SpanReducer.add`` do not depend on the order rows
arrive in.  The order decides the work, though: a new pivot must be cleared
from every older row that holds it, and that fill is most of the cost on B.
So the batch entry point ``SpanReducer(vectors)``, and ``ExactMatrix``'s
eliminations through it, insert rows by descending leading column: each
new pivot then mostly lies left of every pivot placed, where no row can
hold it.  ``add`` and ``Chart`` keep the caller's order, which is part of
their answer (a greedy choice, a row's tag).

``reduce`` gives a vector's residue modulo the span: it is linear in the
vector and zero exactly on the span.  ``Chart(rows)`` is the one
coordinate reader: an echelon form of the rows, each tagged by its index
in columns past all others, whose residues carry a vector's coordinates
in the rows.  ``solve_columns`` reads one chart.

The engine computes on Python's own numbers.  Nearly every entry it meets
is real, and most are small integers, so a real entry is kept as its part,
an ``int`` or a ``Fraction``, and only an entry with a nonzero imaginary part
stays a ``GaussianRational``, which takes int and Fraction operands on both
sides; one code path serves real and mixed rows.  Rows are lowered to that
form where they enter the engine (``SpanReducer.add``, ``reduce`` and
``contains``, ``ExactMatrix``'s eliminations and ``Chart``) and raised back
to canonical scalars where they leave it (``reduce``, ``nullspace`` and
``Chart.coordinates``).  ``ExactMatrix`` stores scalars.
Dividing by a pivot stays exact: -1 negates the row, an int pivot divides
int entries by ``divmod`` (an int, or a Fraction when inexact), and every
other case divides through ``Fraction`` or ``GaussianRational``, so no ``/``
has two ints as operands.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .scalars import ONE, ZERO, GaussianRational, Scalar, as_scalar

Row = dict[int, Scalar]  # index -> nonzero entry


def _lower(x):
    """An entry as the engine keeps it: an int when integral, a Fraction when
    real and not integral, and a GaussianRational only when not real."""
    if type(x) is GaussianRational:
        return x.re if not x.im else x
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def _lowered(row: Row) -> dict:
    """A lowered copy of a row of scalars."""
    return {j: x.re if not x.im else x for j, x in row.items()}


class ExactMatrix:
    """An immutable-by-convention matrix of scalars, stored as rows."""

    __slots__ = ("_rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[Scalar]], ncols: int | None = None):
        data = [[as_scalar(x) for x in row] for row in rows]
        if ncols is None:
            ncols = len(data[0]) if data else 0
        if any(len(row) != ncols for row in data):
            raise ValueError(f"ragged rows: every row must hold {ncols} entries")
        self._rows = [{j: x for j, x in enumerate(row) if x} for row in data]
        self.nrows = len(data)
        self.ncols = ncols

    @classmethod
    def _of(cls, rows: list[Row], ncols: int) -> "ExactMatrix":
        """A matrix owning ``rows``, which hold nonzero entries only."""
        matrix = cls.__new__(cls)
        matrix._rows = rows
        matrix.nrows = len(rows)
        matrix.ncols = ncols
        return matrix

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "ExactMatrix":
        return cls._of([{} for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls._of([{i: ONE} for i in range(n)], n)

    @classmethod
    def from_columns(cls, columns: Sequence[Row], nrows: int) -> "ExactMatrix":
        """The ``nrows``-row matrix with these columns."""
        rows: list[Row] = [{} for _ in range(nrows)]
        for j, col in enumerate(columns):
            for i, x in col.items():
                rows[i][j] = x
        return cls._of(rows, len(columns))

    @property
    def rows(self) -> list[list[Scalar]]:
        """A dense copy of the entries, row by row."""
        return [[row.get(j, ZERO) for j in range(self.ncols)] for row in self._rows]

    def entry(self, i: int, j: int) -> Scalar:
        return self._rows[i].get(j, ZERO)

    def nonzero(self) -> Iterator[tuple[int, int, Scalar]]:
        """The nonzero entries as (row, column, entry), row by row."""
        for i, row in enumerate(self._rows):
            for j, x in row.items():
                yield i, j, x

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        rows = other._rows
        return ExactMatrix._of(
            [combine((c, rows[i]) for i, c in row.items()) for row in self._rows], other.ncols
        )

    @classmethod
    def combination(
        cls, terms: Sequence[tuple[Scalar, "ExactMatrix"]], nrows: int, ncols: int
    ) -> "ExactMatrix":
        """sum_t c_t * M_t over the pairs (c_t, M_t) of nrows x ncols
        matrices, formed row by row with ``combine``."""
        if any(m.shape != (nrows, ncols) for _, m in terms):
            raise ValueError("shape mismatch")
        return cls._of(
            [combine((c, m._rows[i]) for c, m in terms) for i in range(nrows)], ncols
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def is_zero(self) -> bool:
        return not any(self._rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.shape == other.shape
            and self._rows == other._rows
        )

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"ExactMatrix[{self.nrows}x{self.ncols}]({body})"

    def _echelon(self) -> "SpanReducer":
        return SpanReducer(self._rows)

    def rank(self) -> int:
        return self._echelon().rank

    def nullspace(self) -> list[Row]:
        """Deterministic kernel basis: one row per free column, ascending.

        Free column f gives 1 at f and -row[f] at each pivot row's pivot,
        keyed f first and then the pivots in ascending order, so that the
        key order, like the values, is read off the reduced echelon form.
        """
        pivot_rows = self._echelon()._rows
        kernel = {f: {f: ONE} for f in range(self.ncols) if f not in pivot_rows}
        for pivot in sorted(pivot_rows):
            for j, x in pivot_rows[pivot].items():
                if j != pivot:
                    kernel[j][pivot] = as_scalar(-x)
        return list(kernel.values())


def combine(terms: Iterable[tuple[Scalar, Mapping]]) -> dict:
    """sum_t c_t * row_t over the pairs (c_t, row_t), a new row holding
    nonzero entries only.  A row may be keyed by anything hashable: matrix
    rows by column, algebra elements by monomial.

    A row whose coefficient is the shared ``ONE`` is added as it is, and an
    entry that is ``ONE`` contributes a scalar coefficient itself (an int or
    ``Fraction`` one still becomes a scalar), so a plain sum multiplies
    nothing.  Zero entries are dropped once, at the end.
    """
    out = {}
    for c, row in terms:
        if c is ONE:
            for j, x in row.items():
                out[j] = out[j] + x if j in out else x
        else:
            for j, x in row.items():
                y = c if x is ONE and type(c) is GaussianRational else c * x
                out[j] = out[j] + y if j in out else y
    return {j: x for j, x in out.items() if x}


def solve_columns(
    basis_columns: Sequence[Row], rhs_columns: Sequence[Row]
) -> list[Row | None]:
    """Solve basis * x = rhs for every rhs column, reading one ``Chart`` of
    the basis: per right-hand side, its coordinates as a row, or None outside
    the span.  A basis column that depends on earlier ones gets coordinate 0."""
    chart = Chart(basis_columns)
    return [chart.coordinates(col) for col in rhs_columns]


class SpanReducer:
    """Incremental reduced row-echelon form of the vectors added so far.

    Rows are dicts of nonzero entries keyed by column, kept lowered.  A
    vector is reduced by subtracting its entry at each pivot column times that
    pivot row; a nonzero residue is independent and (on ``add``) becomes a new
    row with a leading 1, whose pivot column is then cleared from every older
    row.  ``add`` takes vectors in the caller's order; the constructor takes
    its batch by descending leading column, which leaves the same rows.
    """

    def __init__(self, vectors: Iterable[Row] = ()):
        self._rows: dict[int, dict] = {}  # pivot column -> reduced row
        self._least = 0  # the least pivot column, once a row is placed
        for vec in sorted(filter(None, vectors), key=min, reverse=True):
            self.add(vec)

    @property
    def rank(self) -> int:
        return len(self._rows)

    @staticmethod
    def _clear(target: dict, source: dict, pivot: int) -> None:
        """target -= target[pivot] * source, where source[pivot] == 1."""
        factor = target.pop(pivot)
        for j, x in source.items():
            if j == pivot:
                continue
            y = target.get(j)
            y = -(factor * x) if y is None else y - factor * x
            if type(y) is not int:
                y = _lower(y)
            if y:
                target[j] = y
            else:
                del target[j]

    def _reduce(self, row: dict) -> dict:
        # pivot rows are zero at other pivots: clearing one keeps the rest
        rows = self._rows
        for pivot in [p for p in row if p in rows]:
            self._clear(row, rows[pivot], pivot)
        return row

    def _place(self, residue: dict) -> None:
        """Make a nonzero residue a row with a leading 1; clear its pivot elsewhere.

        A row holds no entry left of its own pivot, so a pivot left of every
        pivot placed is in no row, and the clearing scan is skipped.
        """
        pivot = min(residue)
        lead = residue[pivot]
        if lead != 1:
            del residue[pivot]
            if lead == -1:
                residue = {j: -x for j, x in residue.items()}
            elif type(lead) is int:
                residue = {j: _divided(x, lead) for j, x in residue.items()}
            else:
                inv = 1 / lead
                residue = {j: _lower(x * inv) for j, x in residue.items()}
            residue[pivot] = 1
        if not self._rows or pivot < self._least:
            self._least = pivot
        else:
            for other in self._rows.values():
                if pivot in other:
                    self._clear(other, residue, pivot)
        self._rows[pivot] = residue

    def _insert(self, row: dict) -> bool:
        residue = self._reduce(row)
        if not residue:
            return False
        self._place(residue)
        return True

    def reduce(self, vec: Row) -> Row:
        """The residue of ``vec`` modulo the span, a new row: zero exactly on
        the span, and linear in ``vec``.  The caller's row is left as it was."""
        return {j: as_scalar(x) for j, x in self._reduce(_lowered(vec)).items()}

    def contains(self, vec: Row) -> bool:
        return not self._reduce(_lowered(vec))

    def add(self, vec: Row) -> bool:
        """Insert ``vec`` if independent; returns True when it was added.
        The caller's row is left as it was."""
        return self._insert(_lowered(vec))


_TAG = 1 << 64  # past every column charted: A_k's are below 2^(k+2), k < 62 in reach


class Chart:
    """Coordinates in the span of ``rows``: their echelon form, row n tagged
    by 1 at column _TAG + n, without the rows that depend on earlier ones,
    whose coordinates are then 0.  Reducing a vector subtracts some x of the
    tagged rows, leaving the vector minus x's combination, zero exactly on
    the span, and -x_n at _TAG + n."""

    def __init__(self, rows: Iterable[Row]):
        span = self._span = SpanReducer()
        for n, row in enumerate(rows):
            # a dependent row reduces to tags alone and is left out
            residue = span._reduce({**_lowered(row), _TAG + n: 1})
            if min(residue) < _TAG:
                span._place(residue)

    def coordinates(self, vec: Row) -> Row | None:
        """The row of ``vec``'s coordinates in the rows, or None outside
        their span."""
        residue = self._span._reduce(_lowered(vec))
        if any(j < _TAG for j in residue):
            return None
        return {j - _TAG: as_scalar(-x) for j, x in residue.items()}


def _divided(x, lead: int):
    """x / lead for an int pivot other than 1 and -1, exactly and lowered."""
    if type(x) is int:
        q, r = divmod(x, lead)
        return Fraction(x, lead) if r else q
    return _lower(x / lead)
