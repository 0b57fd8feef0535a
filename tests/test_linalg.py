import random
from fractions import Fraction
from functools import lru_cache

import pytest

from acalg.cohomology import ad_matrix
from acalg.lie import d_lie, lie_generator
from acalg.linalg import ExactMatrix, SpanReducer, solve_columns
from acalg.scalars import GaussianRational, ONE, ZERO
from vectors import apply, as_dense, as_row, columns, same_span, transpose

try:  # sympy is a test-only dependency (the ``test`` extra)
    from sympy import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix
except ImportError:
    DomainMatrix = None

needs_sympy = pytest.mark.skipif(DomainMatrix is None, reason="sympy is not installed")


def rand_matrix(rng, nrows, ncols, density=0.6):
    rows = []
    for _ in range(nrows):
        rows.append(
            [
                GaussianRational(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                    Fraction(rng.randint(-2, 2)),
                )
                if rng.random() < density
                else ZERO
                for _ in range(ncols)
            ]
        )
    return ExactMatrix(rows, ncols=ncols)


def test_rank_simple():
    m = ExactMatrix([[ONE, ONE], [ONE, ONE]])
    assert m.rank() == 1
    assert ExactMatrix.identity(4).rank() == 4
    assert ExactMatrix.zeros(3, 5).rank() == 0


def test_rank_row_vs_column_echelon():
    rng = random.Random(3)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        assert m.rank() == transpose(m).rank()


def test_rank_plus_nullity():
    rng = random.Random(4)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        assert m.rank() + len(m.nullspace()) == m.ncols


def test_nullspace_vectors_are_in_kernel():
    rng = random.Random(5)
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        for vec in m.nullspace():
            assert not apply(m, vec)


def test_solve_columns():
    two = ONE + ONE
    cols = [{0: ONE, 2: ONE}, {1: ONE, 2: ONE}]
    inside = {0: two, 1: ONE, 2: two + ONE}  # 2*c0 + 1*c1
    outside = {0: ONE}
    got = solve_columns(cols, [inside, outside])
    assert got[0] == {0: two, 1: ONE}
    assert got[1] is None
    # e1 + e2 is no pivot column of [e1 | e2, e1 + e2], yet outside span(e1)
    e1, e2 = {0: ONE}, {1: ONE}
    assert solve_columns([e1], [e2, {0: ONE, 1: ONE}, {0: two}]) == [None, None, {0: two}]


def test_solve_columns_reproduces_combination():
    rng = random.Random(7)
    for _ in range(25):
        m = rand_matrix(rng, 6, 4)
        coeffs = [GaussianRational(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(4)]
        rhs = apply(m, coeffs)
        sol = solve_columns(columns(m), [rhs])[0]
        assert sol is not None
        rebuilt = apply(m, sol)
        assert rebuilt == rhs


def test_matmul_and_apply():
    a = ExactMatrix([[ONE, ONE], [ZERO, ONE]])
    b = ExactMatrix([[ONE, ZERO], [ONE, ONE]])
    assert (a @ b).rows == ExactMatrix([[ONE + ONE, ONE], [ONE, ONE]]).rows
    assert (a @ ExactMatrix([[ONE], [ONE]])).rows == [[ONE + ONE], [ONE]]


def test_span_reducer_greedy():
    v1 = {0: ONE}
    v2 = {1: ONE}
    v12 = {0: ONE, 1: ONE}
    reducer = SpanReducer()
    assert [reducer.add(v) for v in (v1, v2, v12)] == [True, True, False]
    reducer = SpanReducer()
    assert [reducer.add(v) for v in (v12, v12, v1)] == [True, False, True]
    reducer = SpanReducer([v1, v12])
    assert reducer.contains(v2)
    assert not reducer.contains({2: ONE})
    assert SpanReducer([v1, v2, v12]).rank == 2


def test_same_span():
    v1 = {0: ONE}
    v2 = {1: ONE}
    assert same_span([v1, v2], [{0: ONE, 1: ONE}, {0: ONE, 1: -ONE}])
    assert not same_span([v1], [v2])
    assert not same_span([v1], [v1, v2])


# -- differential test against sympy -----------------------------------------
#
# sympy's DomainMatrix over QQ_I is an independent exact implementation whose
# kernel basis has one vector per free column, ascending.  A kernel vector's
# last nonzero entry sits at its free column (pivot rows only reach columns
# right of their pivot), so divide_last=True scales it to the convention of
# ExactMatrix.nullspace: a 1 at the free column.  Rank, the exact kernel
# vectors and solve_columns (free variables 0, None when inconsistent) must
# agree on every ad matrix of the three carriers and on random Q(i) matrices;
# sympy's dense answers are compared as rows.


@lru_cache(maxsize=None)
def to_sympy(x: GaussianRational):
    return QQ_I(QQ(x.re.numerator, x.re.denominator), QQ(x.im.numerator, x.im.denominator))


def from_sympy(z) -> GaussianRational:
    return GaussianRational(
        Fraction(int(z.x.numerator), int(z.x.denominator)),
        Fraction(int(z.y.numerator), int(z.y.denominator)),
    )


def domain_matrix(rows, ncols):
    return DomainMatrix([[to_sympy(x) for x in row] for row in rows], (len(rows), ncols), QQ_I)


def sympy_solve(dm, rhs):
    """Solution of dm * x = rhs (a row) with free variables 0, as a row, or None."""
    nrows, ncols = dm.shape
    reduced, pivots = dm.hstack(domain_matrix([[b] for b in as_dense(rhs, nrows)], 1)).rref()
    if ncols in pivots:
        return None
    entries = reduced.to_list()
    out = [ZERO] * ncols
    for r, pivot in enumerate(pivots):
        out[pivot] = from_sympy(entries[r][ncols])
    return as_row(out)


def right_hand_sides(matrix: ExactMatrix, rng):
    """Columns in the span, vectors that are likely outside it, and one that
    is a column plus an outside vector (outside, but dependent on the others)."""
    def coeff():
        return GaussianRational(rng.randint(-3, 3), rng.randint(-2, 2))

    inside = [apply(matrix, [coeff() for _ in range(matrix.ncols)]) for _ in range(2)]
    stray = [GaussianRational(rng.randint(-2, 2)) for _ in range(matrix.nrows)]
    mixed = [a + row[0] for a, row in zip(stray, matrix.rows)] if matrix.ncols else stray
    return inside + [as_row(stray), as_row(mixed)]


def check_against_sympy(matrix: ExactMatrix, rng):
    dm = domain_matrix(matrix.rows, matrix.ncols)
    assert matrix.rank() == dm.rank()
    expected = [[from_sympy(z) for z in row] for row in dm.nullspace(divide_last=True).to_list()]
    assert matrix.nullspace() == [as_row(vec) for vec in expected]
    if matrix.nrows:
        rhs = right_hand_sides(matrix, rng)
        assert solve_columns(columns(matrix), rhs) == [sympy_solve(dm, b) for b in rhs]


DIFFERENTIALS = {"mubar": lambda: lie_generator("mubar"), "mu": lambda: lie_generator("mu"), "d": d_lie}
AD_CASES = [
    (carrier, name, k)
    for carrier, k_min in (("g", 1), ("h", 1), ("B", 0))
    for name in DIFFERENTIALS
    for k in range(k_min, 8)
]


@needs_sympy
@pytest.mark.parametrize("carrier, name, k", AD_CASES)
def test_ad_matrices_agree_with_sympy(carrier, name, k):
    matrix = ad_matrix(DIFFERENTIALS[name](), k, carrier).matrix
    check_against_sympy(matrix, random.Random(f"{carrier}{name}{k}"))


def random_gaussian_matrix(rng):
    """A product of an m x r and an r x n matrix with non-real entries, so
    that the columns are dependent whenever r < n."""
    m, n = rng.randint(1, 7), rng.randint(1, 7)
    r = rng.randint(0, min(m, n))

    def entry():
        if rng.random() < 0.3:
            return ZERO
        return GaussianRational(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        )

    left = ExactMatrix([[entry() for _ in range(r)] for _ in range(m)], ncols=r)
    right = ExactMatrix([[entry() for _ in range(n)] for _ in range(r)], ncols=n)
    return left @ right if r else ExactMatrix.zeros(m, n)


@needs_sympy
def test_random_gaussian_matrices_agree_with_sympy():
    rng = random.Random(2208)
    matrices = [random_gaussian_matrix(rng) for _ in range(40)]
    assert sum(m.rank() < m.ncols for m in matrices) >= 20
    assert any(x.im for m in matrices for row in m.rows for x in row)
    for matrix in matrices:
        check_against_sympy(matrix, rng)


# -- dict rows and dense vectors ------------------------------------------------
#
# Dense data enters linalg only through the ExactMatrix constructor; every
# other entry point takes rows.  Both ways in must give the same matrix, and
# the row readers must agree with ranks of matrices read through it.


def assert_dict_columns_agree(matrix: ExactMatrix):
    dense = ExactMatrix(matrix.rows, ncols=matrix.ncols)
    sparse = ExactMatrix.from_columns(columns(matrix), nrows=matrix.nrows)
    assert sparse == dense
    assert sparse.rows == dense.rows == matrix.rows
    assert sparse.rank() == dense.rank()
    assert sparse.nullspace() == dense.nullspace()


# ad d on B_7 alone takes about 7 s; the sympy test above covers d
@pytest.mark.parametrize("name, k", [(name, k) for name in ("mubar", "mu") for k in range(0, 8)])
def test_dict_columns_build_the_same_B_ad_matrix(name, k):
    assert_dict_columns_agree(ad_matrix(DIFFERENTIALS[name](), k, "B").matrix)


def test_dict_columns_build_the_same_random_matrix():
    rng = random.Random(2208)
    for _ in range(40):
        assert_dict_columns_agree(random_gaussian_matrix(rng))
    rng = random.Random(3)
    for _ in range(40):
        assert_dict_columns_agree(rand_matrix(rng, rng.randint(1, 7), rng.randint(1, 7)))


def rank_of_columns(cols, nrows):
    """Rank of the dense matrix with these columns, read through the
    constructor."""
    return ExactMatrix([as_dense(col, nrows) for col in cols], ncols=nrows).rank()


def test_dict_rows_and_dense_vectors_give_the_same_answers():
    rng = random.Random(11)
    for _ in range(30):
        matrix = random_gaussian_matrix(rng)
        n = matrix.nrows
        sparse = columns(matrix)
        copies = [dict(row) for row in sparse]
        probes = right_hand_sides(matrix, rng)
        probe_copies = [dict(row) for row in probes]
        reducer = SpanReducer()
        added = [reducer.add(v) for v in sparse]
        assert added == [
            rank_of_columns(sparse[: j + 1], n) > rank_of_columns(sparse[:j], n)
            for j in range(len(sparse))
        ]
        rank = rank_of_columns(sparse, n)
        inside = [rank_of_columns(sparse + [v], n) == rank for v in probes]
        assert [reducer.contains(v) for v in probes] == inside
        # a residue is zero exactly on the span, differs from its vector by
        # an element of the span, and is linear in the vector
        residues = [reducer.reduce(v) for v in probes]
        assert [not r for r in residues] == inside
        for probe, residue in zip(probes, residues):
            moved = [x - y for x, y in zip(as_dense(probe, n), as_dense(residue, n))]
            assert rank_of_columns(sparse + [as_row(moved)], n) == rank
        for a, b, ra, rb in zip(probes, probes[1:], residues, residues[1:]):
            added_up = [x + y for x, y in zip(as_dense(a, n), as_dense(b, n))]
            reduced_sum = [x + y for x, y in zip(as_dense(ra, n), as_dense(rb, n))]
            assert reducer.reduce(as_row(added_up)) == as_row(reduced_sum)
        solved = solve_columns(sparse, probes)
        assert [s is not None for s in solved] == inside
        for probe, s in zip(probes, solved):
            if s is not None:
                assert apply(matrix, s) == probe
        # the callers' dicts are left as they were
        assert sparse == copies and probes == probe_copies


# -- every returned row is sparse -----------------------------------------------


def test_returned_rows_hold_nonzero_entries_only():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    entries = st.sampled_from(
        [ZERO, ZERO, ZERO, ONE, -ONE, GaussianRational(2), GaussianRational(Fraction(1, 2), 1),
         GaussianRational(0, -1)]
    )

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @hypothesis.given(st.data(), st.integers(0, 6), st.integers(0, 6))
    def check(data, nrows, ncols):
        matrix = ExactMatrix(
            [data.draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)],
            ncols=ncols,
        )
        for row in matrix.nullspace():
            assert all(x and 0 <= j < ncols for j, x in row.items())
        rhs = [
            as_row(data.draw(st.lists(entries, min_size=nrows, max_size=nrows)))
            for _ in range(data.draw(st.integers(0, 3)))
        ]
        for solved in solve_columns(columns(matrix), rhs):
            if solved is not None:
                assert all(x and 0 <= j < ncols for j, x in solved.items())

    check()
