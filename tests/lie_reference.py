"""The two-seed graded-basis builder, kept as a reference for ``acalg.lie``.

This is the greedy builder run from a given tuple of degree-1 generators:
from the four generators it grows g, from (delbar, del) it grows h.  The
package builds h only and reads g above degree 1 off it as h rescaled;
tests compare both records with what this builder selects on its own.
"""

from functools import lru_cache

from acalg.algebra import DEL, DELBAR, generator_element, graded_commutator, row_in_A
from acalg.lie import LieElement, _GradedBasis, lie_generator
from acalg.linalg import SpanReducer


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
