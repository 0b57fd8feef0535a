"""Vector helpers shared by the tests.

``acalg.linalg`` takes and returns rows only (dicts of nonzero entries).
Tests often state expected vectors densely, so these helpers convert on the
test side and compare spans.  ``transposed_solve`` is the reference that
coordinates read off ``linalg.Chart`` are compared with.
"""

from acalg.linalg import ExactMatrix, SpanReducer
from acalg.scalars import ZERO, as_scalar


def as_row(vec):
    """A dense vector as a row; a row is returned as it is."""
    if isinstance(vec, dict):
        return vec
    return {j: x for j, x in enumerate(vec) if x}


def as_dense(row, n):
    return [row.get(j, ZERO) for j in range(n)]


def columns(matrix: ExactMatrix):
    """The columns of ``matrix`` as rows."""
    out = [{} for _ in range(matrix.ncols)]
    for i, j, x in matrix.nonzero():
        out[j][i] = x
    return out


def transpose(matrix: ExactMatrix) -> ExactMatrix:
    """The transpose: its columns are the rows of ``matrix``."""
    return ExactMatrix.from_columns([as_row(row) for row in matrix.rows], nrows=matrix.ncols)


def apply(matrix: ExactMatrix, vec):
    """matrix * vec, for a row or a dense vector, as a row."""
    product = matrix @ ExactMatrix.from_columns([as_row(vec)], nrows=matrix.ncols)
    return {i: x for i, _, x in product.nonzero()}


def same_span(first, second) -> bool:
    """Do two families of vectors, dense or rows, span the same space?"""
    first = [as_row(v) for v in first]
    second = [as_row(v) for v in second]
    a = SpanReducer(first)
    b = SpanReducer(second)
    if a.rank != b.rank:
        return False
    return all(a.contains(v) for v in second) and all(b.contains(v) for v in first)


def transposed_solve(basis_columns, rhs_columns, reducer=SpanReducer):
    """Solve basis * x = rhs for every rhs column in one elimination of the
    rows of [basis | rhs] by ``reducer``, the engine's or a reference's.

    Row operations keep the relations between columns, so a right-hand side
    is in the basis span exactly when no row pivoting outside the basis
    touches it, and then its coordinates are its entries in the basis pivot
    rows.  Basis columns that depend on earlier ones get coordinate zero.
    """
    ncols = len(basis_columns)
    by_row = {}
    for j, col in enumerate(list(basis_columns) + list(rhs_columns)):
        for i, x in col.items():
            by_row.setdefault(i, {})[j] = x
    rows = reducer(by_row.values())._rows
    outside = [row for pivot, row in rows.items() if pivot >= ncols]
    inside = [(pivot, row) for pivot, row in rows.items() if pivot < ncols]
    return [
        None if any(col in row for row in outside)
        else {pivot: as_scalar(row[col]) for pivot, row in inside if col in row}
        for col in range(ncols, ncols + len(rhs_columns))
    ]
