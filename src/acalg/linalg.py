"""Exact linear algebra over Q(i) with one sparse elimination engine.

``ExactMatrix`` is a dense row-major container of scalars: it is what the
callers build, multiply and inspect.  Every elimination goes through
``SpanReducer``, an incremental reduced row-echelon form whose rows are dicts
holding only their nonzero entries.  Each row has a leading 1 at its pivot
(its first nonzero column) and a zero in every other row's pivot column.

A row space has exactly one reduced echelon form, so ``rank``, ``nullspace``
and ``solve_columns``, thin readers of the engine, and the greedy selections
made with ``SpanReducer.add`` do not depend on the order rows arrive in.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .scalars import ONE, ZERO, Scalar, as_scalar

Vector = list[Scalar]
Row = dict[int, Scalar]  # column -> nonzero entry


class ExactMatrix:
    """An immutable-by-convention dense matrix of scalars."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[Scalar]], ncols: int | None = None):
        data = [[as_scalar(x) for x in row] for row in rows]
        if data:
            ncols = len(data[0])
            if any(len(row) != ncols for row in data):
                raise ValueError("ragged rows")
        elif ncols is None:
            ncols = 0
        self.rows = data
        self.nrows = len(data)
        self.ncols = ncols

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "ExactMatrix":
        return cls([[ZERO] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        rows = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = ONE
        return cls(rows, ncols=n)

    @classmethod
    def from_columns(cls, columns: Sequence[Vector], nrows: int | None = None) -> "ExactMatrix":
        if not columns:
            return cls.zeros(nrows or 0, 0)
        nrows = len(columns[0])
        rows = [[col[i] for col in columns] for i in range(nrows)]
        return cls(rows, ncols=len(columns))

    def entry(self, i: int, j: int) -> Scalar:
        return self.rows[i][j]

    def column(self, j: int) -> Vector:
        return [row[j] for row in self.rows]

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix.from_columns(self.rows if self.nrows else [], nrows=self.ncols)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        out = [[ZERO] * other.ncols for _ in range(self.nrows)]
        for i, row in enumerate(self.rows):
            acc = out[i]
            for k, a in enumerate(row):
                if not a:
                    continue
                other_row = other.rows[k]
                for j, b in enumerate(other_row):
                    if b:
                        acc[j] = acc[j] + a * b
        return ExactMatrix(out, ncols=other.ncols)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return ExactMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            ncols=self.ncols,
        )

    def scale(self, coeff) -> "ExactMatrix":
        coeff = as_scalar(coeff)
        return ExactMatrix([[x * coeff for x in row] for row in self.rows], ncols=self.ncols)

    def apply(self, vec: Sequence[Scalar]) -> Vector:
        out = [ZERO] * self.nrows
        for i, row in enumerate(self.rows):
            acc = ZERO
            for a, x in zip(row, vec):
                if a and x:
                    acc = acc + a * x
            out[i] = acc
        return out

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def is_zero(self) -> bool:
        return all(not x for row in self.rows for x in row)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.shape == other.shape
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"ExactMatrix[{self.nrows}x{self.ncols}]({body})"

    def _echelon(self) -> "SpanReducer":
        reducer = SpanReducer()
        for row in self.rows:
            reducer._insert(_sparse(row))
        return reducer

    def rank(self) -> int:
        return self._echelon().rank

    def nullspace(self) -> list[Vector]:
        """Deterministic kernel basis: one vector per free column, ascending.

        Free column f gives 1 at f and -row[f] at each pivot row's pivot.
        """
        pivot_rows = self._echelon()._rows
        kernel: dict[int, Vector] = {}
        for free in range(self.ncols):
            if free not in pivot_rows:
                kernel[free] = [ZERO] * self.ncols
                kernel[free][free] = ONE
        for pivot, row in pivot_rows.items():
            for j, x in row.items():
                if j != pivot:
                    kernel[j][pivot] = -x
        return list(kernel.values())


def _sparse(vec: Sequence[Scalar]) -> Row:
    return {j: x for j, x in enumerate(vec) if x}


def solve_columns(
    basis_columns: Sequence[Vector], rhs_columns: Sequence[Vector]
) -> list[Vector | None]:
    """Solve basis * x = rhs for every rhs column in one elimination pass.

    Returns, per right-hand side, the coordinate vector in terms of
    ``basis_columns`` or None when the column is outside their span.  Free
    basis columns (if the basis is dependent) get coordinate zero.

    The rows of [basis | rhs] are reduced together.  Row operations keep the
    relations between columns, so a right-hand side is in the basis span
    exactly when no row pivoting outside the basis touches it, and then its
    coordinates are its entries in the basis pivot rows.
    """
    if not rhs_columns:
        return []
    ncols = len(basis_columns)
    columns = list(basis_columns) + list(rhs_columns)
    reducer = SpanReducer()
    for i in range(len(rhs_columns[0])):
        reducer._insert({j: col[i] for j, col in enumerate(columns) if col[i]})
    rows = reducer._rows
    outside = [row for pivot, row in rows.items() if pivot >= ncols]
    out: list[Vector | None] = []
    for col in range(ncols, len(columns)):
        if any(col in row for row in outside):
            out.append(None)
        else:
            out.append([rows[p].get(col, ZERO) if p in rows else ZERO for p in range(ncols)])
    return out


class SpanReducer:
    """Incremental reduced row-echelon form of the vectors added so far.

    Rows are dicts of nonzero entries keyed by column.  A vector is reduced
    by subtracting its entry at each pivot column times that pivot row; a
    nonzero residue is independent and (on ``add``) becomes a new row with a
    leading 1, whose pivot column is then cleared from every older row.
    """

    def __init__(self, vectors: Iterable[Vector] = ()):
        self._rows: dict[int, Row] = {}  # pivot column -> reduced row
        for vec in vectors:
            self.add(vec)

    @property
    def rank(self) -> int:
        return len(self._rows)

    @staticmethod
    def _clear(target: Row, source: Row, pivot: int) -> None:
        """target -= target[pivot] * source, where source[pivot] == 1."""
        factor = target.pop(pivot)
        for j, x in source.items():
            if j == pivot:
                continue
            y = target.get(j)
            if y is None:
                target[j] = -(factor * x)
            else:
                y = y - factor * x
                if y:
                    target[j] = y
                else:
                    del target[j]

    def _reduce(self, row: Row) -> Row:
        # pivot rows are zero at other pivots: clearing one keeps the rest
        rows = self._rows
        for pivot in [p for p in row if p in rows]:
            self._clear(row, rows[pivot], pivot)
        return row

    def _insert(self, row: Row) -> bool:
        residue = self._reduce(row)
        if not residue:
            return False
        pivot = min(residue)
        if residue[pivot] != ONE:
            inv = ONE / residue[pivot]
            residue = {j: x * inv for j, x in residue.items() if j != pivot}
            residue[pivot] = ONE
        for other in self._rows.values():
            if pivot in other:
                self._clear(other, residue, pivot)
        self._rows[pivot] = residue
        return True

    def contains(self, vec: Sequence[Scalar]) -> bool:
        return not self._reduce(_sparse(vec))

    def add(self, vec: Sequence[Scalar]) -> bool:
        """Insert ``vec`` if independent; returns True when it was added."""
        return self._insert(_sparse(vec))


def same_span(first: Sequence[Vector], second: Sequence[Vector]) -> bool:
    a = SpanReducer(first)
    b = SpanReducer(second)
    if a.rank != b.rank:
        return False
    return all(a.contains(v) for v in second) and all(b.contains(v) for v in first)
