"""Exact linear algebra over Q(i) with one sparse elimination engine.

Vectors are rows: a dict that maps an index to a nonzero entry and holds
nothing else.  Every function here takes and returns rows.  Dense data
crosses in two places only: ``ExactMatrix(rows)`` reads lists of scalars,
and ``ExactMatrix.rows`` writes a dense copy for callers that print or count
entries.

``ExactMatrix`` stores its entries once, as rows.  Every elimination goes
through ``SpanReducer``, an incremental reduced row-echelon form over rows.
Each row has a leading 1 at its pivot (its first nonzero column) and a zero
in every other row's pivot column.

A row space has exactly one reduced echelon form, so ``rank``, ``nullspace``,
``solve_columns`` and ``SpanReducer.reduce``, thin readers of the engine, and
the greedy selections made with ``SpanReducer.add`` do not depend on the
order rows arrive in.  ``reduce`` gives a vector's residue modulo the span:
it is linear in the vector and zero exactly on the span.

The engine computes on Python's own numbers.  Nearly every entry it meets
is real, and most are small integers, so a real entry is kept as its part,
an ``int`` or a ``Fraction``, and only an entry with a nonzero imaginary part
stays a ``GaussianRational``, which takes int and Fraction operands on both
sides; one code path serves real and mixed rows.  Rows are lowered to that
form where they enter the engine (``SpanReducer.add``, ``reduce`` and
``contains``, ``ExactMatrix``'s eliminations and ``solve_columns``) and
raised back to canonical scalars where they leave it (``reduce``,
``nullspace`` and ``solve_columns``).  ``ExactMatrix`` stores scalars.
Dividing by a pivot stays exact: -1 negates the row, an int pivot divides
int entries by ``divmod`` (an int, or a Fraction when inexact), and every
other case divides through ``Fraction`` or ``GaussianRational``, so no ``/``
has two ints as operands.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

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
        if data:
            ncols = len(data[0])
            if any(len(row) != ncols for row in data):
                raise ValueError("ragged rows")
        elif ncols is None:
            ncols = 0
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
        out: list[Row] = []
        for row in self._rows:
            acc: Row = {}
            for k, a in row.items():
                for j, b in other._rows[k].items():
                    acc[j] = acc[j] + a * b if j in acc else a * b
            out.append({j: x for j, x in acc.items() if x})
        return ExactMatrix._of(out, other.ncols)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        out: list[Row] = []
        for r1, r2 in zip(self._rows, other._rows):
            acc = dict(r1)
            for j, x in r2.items():
                acc[j] = acc[j] + x if j in acc else x
            out.append({j: x for j, x in acc.items() if x})
        return ExactMatrix._of(out, self.ncols)

    def scale(self, coeff) -> "ExactMatrix":
        coeff = as_scalar(coeff)
        if not coeff:
            return ExactMatrix.zeros(self.nrows, self.ncols)
        return ExactMatrix._of(
            [{j: x * coeff for j, x in row.items()} for row in self._rows], self.ncols
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
        reducer = SpanReducer()
        for row in self._rows:
            reducer._insert(_lowered(row))
        return reducer

    def rank(self) -> int:
        return self._echelon().rank

    def nullspace(self) -> list[Row]:
        """Deterministic kernel basis: one row per free column, ascending.

        Free column f gives 1 at f and -row[f] at each pivot row's pivot.
        """
        pivot_rows = self._echelon()._rows
        kernel = {f: {f: ONE} for f in range(self.ncols) if f not in pivot_rows}
        for pivot, row in pivot_rows.items():
            for j, x in row.items():
                if j != pivot:
                    kernel[j][pivot] = as_scalar(-x)
        return list(kernel.values())


def solve_columns(
    basis_columns: Sequence[Row], rhs_columns: Sequence[Row]
) -> list[Row | None]:
    """Solve basis * x = rhs for every rhs column in one elimination pass.

    Returns, per right-hand side, its coordinates in terms of
    ``basis_columns`` as a row, or None when the column is outside their
    span.  Free basis columns (if the basis is dependent) get coordinate
    zero.

    The rows of [basis | rhs] are reduced together.  Row operations keep the
    relations between columns, so a right-hand side is in the basis span
    exactly when no row pivoting outside the basis touches it, and then its
    coordinates are its entries in the basis pivot rows.
    """
    if not rhs_columns:
        return []
    ncols = len(basis_columns)
    columns = list(basis_columns) + list(rhs_columns)
    by_row: dict[int, dict] = {}
    for j, col in enumerate(columns):
        for i, x in _lowered(col).items():
            by_row.setdefault(i, {})[j] = x
    reducer = SpanReducer()
    for row in by_row.values():
        reducer._insert(row)
    rows = reducer._rows
    outside = [row for pivot, row in rows.items() if pivot >= ncols]
    inside = [(pivot, row) for pivot, row in rows.items() if pivot < ncols]
    out: list[Row | None] = []
    for col in range(ncols, len(columns)):
        if any(col in row for row in outside):
            out.append(None)
        else:
            out.append({pivot: as_scalar(row[col]) for pivot, row in inside if col in row})
    return out


class SpanReducer:
    """Incremental reduced row-echelon form of the vectors added so far.

    Rows are dicts of nonzero entries keyed by column, kept lowered.  A
    vector is reduced by subtracting its entry at each pivot column times that
    pivot row; a nonzero residue is independent and (on ``add``) becomes a new
    row with a leading 1, whose pivot column is then cleared from every older
    row.
    """

    def __init__(self, vectors: Iterable[Row] = ()):
        self._rows: dict[int, dict] = {}  # pivot column -> reduced row
        for vec in vectors:
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

    def _insert(self, row: dict) -> bool:
        residue = self._reduce(row)
        if not residue:
            return False
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
        for other in self._rows.values():
            if pivot in other:
                self._clear(other, residue, pivot)
        self._rows[pivot] = residue
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


def _divided(x, lead: int):
    """x / lead for an int pivot other than 1 and -1, exactly and lowered."""
    if type(x) is int:
        q, r = divmod(x, lead)
        return Fraction(x, lead) if r else q
    return _lower(x / lead)
