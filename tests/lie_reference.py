"""References for ``acalg.lie`` and the carriers read from it.

The two-seed builder is the greedy builder run from a given tuple of
degree-1 generators: from the four generators it grows g, from (delbar,
del) it grows h.  The package builds h only and reads g above degree 1 off
it as h rescaled; tests compare both records with what this builder
selects on its own.

``reference_coordinates`` is the generic carrier's coordinate solve: one
transposed solve of the elements' rows in A against the basis rows.  The
package reads g's and h's coordinates off each record's ``linalg.Chart``;
tests compare them, and the certification verdicts, with this solve.

``pbw_series`` is the Poincare series of a free graded-commutative
algebra, the PBW oracle for B = U(h).

``dynkin`` is the right-normed Dynkin map on B's word index.  B is free on
the odd letters delbar, del, so h is the free Lie superalgebra on them and
theta(y) = k*y exactly for y in h_k (Dynkin-Specht-Wever; Reutenauer, *Free
Lie Algebras*, 1993, Thm 1.4): a certificate of h's tower that shares no
code with the records' spans.
"""

from functools import lru_cache

from acalg.algebra import (
    DEL,
    DELBAR,
    generator_element,
    graded_commutator,
    row_in_A,
    word_columns,
)
from acalg.lie import LieElement, _GradedBasis, lie_generator
from acalg.linalg import SpanReducer, combine
from vectors import transposed_solve


# 2 seeds x 32 degrees
@lru_cache(maxsize=64)
def reference_graded_basis(seed: tuple[str, ...], k: int) -> _GradedBasis:
    """Degree-k basis grown from the degree-1 generators ``seed``: the
    commutators [delbar, b] then [del, b] over the degree k-1 basis, a
    maximal independent subset selected greedily in that order."""
    if k == 1:
        return _GradedBasis(1, tuple((sym, lie_generator(sym)) for sym in seed))
    reducer = SpanReducer()
    selected = []
    for g in (DELBAR, DEL):
        g_elt = generator_element(g)
        for expr, h in reference_graded_basis(seed, k - 1).pairs:
            candidate = graded_commutator(g_elt, h.value)
            if not candidate.is_zero() and reducer.add(row_in_A(candidate, k)):
                selected.append(((g, expr), LieElement(candidate, k, _trusted=True)))
    return _GradedBasis(k, tuple(selected))


def reference_coordinates(basis, elements, k):
    """The coordinates of degree-k ``elements`` in ``basis``, each a row, or
    None for an element outside its span: one solve of their rows in A."""
    return transposed_solve(
        [row_in_A(b, k) for b in basis], [row_in_A(e, k) for e in elements]
    )


def pbw_series(dims, k_max):
    """The coefficients of t^0 .. t^k_max in the Poincare series of the free
    graded-commutative algebra on dims[j] generators of degree j:
    prod_{j odd} (1 + t^j)^dims[j] * prod_{j even} (1 - t^j)^-dims[j]."""
    series = [1] + [0] * k_max
    for j, count in dims.items():
        for _ in range(count):
            if j % 2:
                for m in range(k_max, j - 1, -1):
                    series[m] += series[m - j]
            else:
                for m in range(j, k_max + 1):
                    series[m] += series[m - j]
    return series


# 4 generators x 32 degrees; dynkin reads delbar's and del's
_word_columns = lru_cache(maxsize=128)(word_columns)


def dynkin(row, k):
    """The right-normed Dynkin map theta(x_1 ... x_k) = [x_1, theta(x_2 ... x_k)]
    on a row of B_k: split at 2^(k-1) into delbar*y_0 + del*y_1 and bracket
    with B's word columns, so no product is formed."""
    if k == 1:
        return row
    half = 1 << k - 1
    parts = (
        (DELBAR, {n: c for n, c in row.items() if n < half}),
        (DEL, {n - half: c for n, c in row.items() if n >= half}),
    )
    return combine(
        (c, _word_columns(sym, k - 1)[n])
        for sym, part in parts
        for n, c in dynkin(part, k - 1).items()
    )

