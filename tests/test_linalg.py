import random
from fractions import Fraction
from functools import lru_cache

import pytest

from acalg.cohomology import ad_matrix
from acalg.lie import d_lie, lie_generator
from acalg.linalg import ExactMatrix, SpanReducer, same_span, solve_columns
from acalg.scalars import GaussianRational, ONE, ZERO

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
        assert m.rank() == m.transpose().rank()


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
            assert all(not x for x in m.apply(vec))


def test_solve_columns():
    cols = [[ONE, ZERO, ONE], [ZERO, ONE, ONE]]
    inside = [ONE + ONE, ONE, ONE + ONE + ONE]  # 2*c0 + 1*c1
    outside = [ONE, ZERO, ZERO]
    got = solve_columns(cols, [inside, outside])
    assert got[0] == [ONE + ONE, ONE]
    assert got[1] is None
    # e1 + e2 is no pivot column of [e1 | e2, e1 + e2], yet outside span(e1)
    e1, e2 = [ONE, ZERO], [ZERO, ONE]
    assert solve_columns([e1], [e2, [ONE, ONE], [ONE + ONE, ZERO]]) == [None, None, [ONE + ONE]]


def test_solve_columns_reproduces_combination():
    rng = random.Random(7)
    for _ in range(25):
        m = rand_matrix(rng, 6, 4)
        cols = m.columns()
        coeffs = [GaussianRational(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in cols]
        rhs = [
            sum((cols[j][i] * coeffs[j] for j in range(4)), ZERO) for i in range(6)
        ]
        sol = solve_columns(cols, [rhs])[0]
        assert sol is not None
        rebuilt = [
            sum((cols[j][i] * sol[j] for j in range(4)), ZERO) for i in range(6)
        ]
        assert rebuilt == rhs


def test_matmul_and_apply():
    a = ExactMatrix([[ONE, ONE], [ZERO, ONE]])
    b = ExactMatrix([[ONE, ZERO], [ONE, ONE]])
    assert (a @ b).rows == ExactMatrix([[ONE + ONE, ONE], [ONE, ONE]]).rows
    assert a.apply([ONE, ONE]) == [ONE + ONE, ONE]


def test_span_reducer_greedy():
    v1 = [ONE, ZERO, ZERO]
    v2 = [ZERO, ONE, ZERO]
    v12 = [ONE, ONE, ZERO]
    reducer = SpanReducer()
    assert [reducer.add(v) for v in (v1, v2, v12)] == [True, True, False]
    reducer = SpanReducer()
    assert [reducer.add(v) for v in (v12, v12, v1)] == [True, False, True]
    reducer = SpanReducer([v1, v12])
    assert reducer.contains(v2)
    assert not reducer.contains([ZERO, ZERO, ONE])
    assert SpanReducer([v1, v2, v12]).rank == 2


def test_same_span():
    v1 = [ONE, ZERO]
    v2 = [ZERO, ONE]
    assert same_span([v1, v2], [[ONE, ONE], [ONE, -ONE]])
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
# agree on every ad matrix of the three carriers and on random Q(i) matrices.


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
    """Solution of dm * x = rhs with free variables 0, or None."""
    ncols = dm.shape[1]
    reduced, pivots = dm.hstack(domain_matrix([[b] for b in rhs], 1)).rref()
    if ncols in pivots:
        return None
    entries = reduced.to_list()
    out = [ZERO] * ncols
    for r, pivot in enumerate(pivots):
        out[pivot] = from_sympy(entries[r][ncols])
    return out


def right_hand_sides(matrix: ExactMatrix, rng):
    """Columns in the span, vectors that are likely outside it, and one that
    is a column plus an outside vector (outside, but dependent on the others)."""
    def coeff():
        return GaussianRational(rng.randint(-3, 3), rng.randint(-2, 2))

    inside = [matrix.apply([coeff() for _ in range(matrix.ncols)]) for _ in range(2)]
    stray = [GaussianRational(rng.randint(-2, 2)) for _ in range(matrix.nrows)]
    mixed = [a + b for a, b in zip(stray, matrix.column(0))] if matrix.ncols else stray
    return inside + [stray, mixed]


def check_against_sympy(matrix: ExactMatrix, rng):
    dm = domain_matrix(matrix.rows, matrix.ncols)
    assert matrix.rank() == dm.rank()
    expected = [[from_sympy(z) for z in row] for row in dm.nullspace(divide_last=True).to_list()]
    assert matrix.nullspace() == expected
    if matrix.nrows:
        rhs = right_hand_sides(matrix, rng)
        assert solve_columns(matrix.columns(), rhs) == [sympy_solve(dm, b) for b in rhs]


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


def as_dicts(columns):
    return [{i: x for i, x in enumerate(col) if x} for col in columns]


def assert_dict_columns_agree(matrix: ExactMatrix):
    dense = ExactMatrix.from_columns(matrix.columns(), nrows=matrix.nrows)
    sparse = ExactMatrix.from_columns(as_dicts(matrix.columns()), nrows=matrix.nrows)
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


def test_dict_rows_and_dense_vectors_give_the_same_answers():
    rng = random.Random(11)
    for _ in range(30):
        matrix = random_gaussian_matrix(rng)
        dense = matrix.columns()
        sparse = as_dicts(dense)
        copies = [dict(row) for row in sparse]
        probes = right_hand_sides(matrix, rng)
        sparse_probes = as_dicts(probes)
        probe_copies = [dict(row) for row in sparse_probes]
        from_dense, from_sparse = SpanReducer(), SpanReducer()
        assert [from_dense.add(v) for v in dense] == [from_sparse.add(v) for v in sparse]
        assert from_dense._rows == from_sparse._rows
        assert [from_dense.contains(v) for v in probes] == [
            from_sparse.contains(v) for v in sparse_probes
        ]
        assert solve_columns(dense, probes) == solve_columns(sparse, sparse_probes)
        assert solve_columns(sparse, probes) == solve_columns(dense, sparse_probes)
        # the callers' dicts are left as they were
        assert sparse == copies and sparse_probes == probe_copies
