"""Vector helpers shared by the tests.

``acalg.linalg`` takes and returns rows only (dicts of nonzero entries).
Tests often state expected vectors densely, so these helpers convert on the
test side and compare spans.
"""

from acalg.linalg import ExactMatrix, SpanReducer
from acalg.scalars import ZERO


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
    return ExactMatrix([list(col) for col in zip(*matrix.rows)], ncols=matrix.nrows)


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
