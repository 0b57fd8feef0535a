"""References for ``acalg.lie`` and the carriers read from it.

The two-seed builder is the greedy builder run from a given tuple of
degree-1 generators: from the four generators it grows g, from (delbar,
del) it grows h.  The package builds h only and reads g above degree 1 off
it as h rescaled; tests compare both records with what this builder
selects on its own.

``reference_coordinates`` is the generic carrier's coordinate solve: one
``solve_columns`` of the elements' rows in A against the basis rows.  The
package reads g's and h's coordinates off each record's one echelon form;
tests compare them, and the certification verdicts, with this solve.

``pbw_series`` is the Poincare series of a free graded-commutative
algebra, the PBW oracle for B = U(h).
"""

from functools import lru_cache

from acalg.algebra import DEL, DELBAR, generator_element, graded_commutator, row_in_A
from acalg.lie import LieElement, _GradedBasis, lie_generator
from acalg.linalg import SpanReducer, solve_columns


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
    return solve_columns([row_in_A(b, k) for b in basis], [row_in_A(e, k) for e in elements])


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
