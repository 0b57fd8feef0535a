import random
from fractions import Fraction
from functools import lru_cache

import pytest

from acalg.algebra import (
    DEL,
    DELBAR,
    GENERATORS,
    basis_A,
    generator_element,
    graded_commutator,
    row_in_A,
)
from acalg.cohomology import ad_matrix
from acalg.lie import _graded_basis, d_lie, lie_generator
from acalg.linalg import ExactMatrix, SpanReducer, solve_columns
from acalg.scalars import HALF as H, I, GaussianRational, ONE, ZERO, as_scalar
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


# -- differential test against the Gaussian-rational engine -----------------------
#
# The engine keeps real entries as ints and Fractions.  ReferenceSpanReducer
# is the engine as it was when every entry was a GaussianRational, and the
# reference readers below read it as ExactMatrix.rank, ExactMatrix.nullspace
# and solve_columns did.  Both must give the same ranks, kernel rows,
# coordinates, residues and add verdicts, key order included, on random
# sparse matrices of four entry kinds and on the matrices acalg eliminates.


class ReferenceSpanReducer:
    """Incremental reduced row-echelon form over GaussianRational entries."""

    def __init__(self, vectors=()):
        self._rows = {}
        for vec in vectors:
            self.add(vec)

    @property
    def rank(self):
        return len(self._rows)

    @staticmethod
    def _clear(target, source, pivot):
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

    def _reduce(self, row):
        rows = self._rows
        for pivot in [p for p in row if p in rows]:
            self._clear(row, rows[pivot], pivot)
        return row

    def _insert(self, row):
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

    def reduce(self, vec):
        return self._reduce(dict(vec))

    def contains(self, vec):
        return not self.reduce(vec)

    def add(self, vec):
        return self._insert(dict(vec))


def reference_rows(matrix: ExactMatrix):
    return [{j: x for j, x in enumerate(row) if x} for row in matrix.rows]


def reference_nullspace(matrix: ExactMatrix):
    pivot_rows = ReferenceSpanReducer(reference_rows(matrix))._rows
    kernel = {f: {f: ONE} for f in range(matrix.ncols) if f not in pivot_rows}
    for pivot, row in pivot_rows.items():
        for j, x in row.items():
            if j != pivot:
                kernel[j][pivot] = -x
    return list(kernel.values())


def reference_solve_columns(basis_columns, rhs_columns):
    if not rhs_columns:
        return []
    ncols = len(basis_columns)
    by_row = {}
    for j, col in enumerate(list(basis_columns) + list(rhs_columns)):
        for i, x in col.items():
            by_row.setdefault(i, {})[j] = x
    rows = ReferenceSpanReducer(by_row.values())._rows
    outside = [row for pivot, row in rows.items() if pivot >= ncols]
    inside = [(pivot, row) for pivot, row in rows.items() if pivot < ncols]
    out = []
    for col in range(ncols, ncols + len(rhs_columns)):
        if any(col in row for row in outside):
            out.append(None)
        else:
            out.append({pivot: row[col] for pivot, row in inside if col in row})
    return out


def ordered(rows):
    """Rows as lists of items, so that equal means equal key order too."""
    return [None if row is None else list(row.items()) for row in rows]


def assert_canonical(row):
    """Every entry handed out is a scalar with canonical parts."""
    for x in row.values():
        assert type(x) is GaussianRational and x
        for part in (x.re, x.im):
            assert type(part) is int or (type(part) is Fraction and part.denominator != 1)


def assert_lowered(reducer: SpanReducer):
    """Every entry kept inside is an int, a non-integral Fraction, or a
    non-real scalar: never a float, a bool or a real scalar."""
    for row in reducer._rows.values():
        for x in row.values():
            assert type(x) in (int, Fraction, GaussianRational) and x
            if type(x) is Fraction:
                assert x.denominator != 1
            if type(x) is GaussianRational:
                assert x.im


def compare_engines(matrix: ExactMatrix, rng, extra_rows=()):
    """Both engines on the rows of ``matrix`` (then ``extra_rows``), on its
    nullspace and on solving its columns, with probes in and off both spans."""

    def coeff():
        return GaussianRational(rng.choice([-2, -1, 1, 3]), rng.choice([0, 0, 1, -1]))

    rows = reference_rows(matrix) + list(extra_rows)
    ncols = matrix.ncols
    reducer, reference = SpanReducer(), ReferenceSpanReducer()
    assert [reducer.add(r) for r in rows] == [reference.add(r) for r in rows]
    assert reducer.rank == reference.rank
    assert_lowered(reducer)
    row_probes = [
        as_row([sum((coeff() * r.get(j, ZERO) for r in rows[:3]), ZERO) for j in range(ncols)]),
        {j: coeff() for j in rng.sample(range(ncols), min(ncols, 3))} if ncols else {},
    ]
    for probe in row_probes:
        residue = reducer.reduce(probe)
        assert list(residue.items()) == list(reference.reduce(probe).items())
        assert_canonical(residue)
        assert reducer.contains(probe) == reference.contains(probe)

    assert matrix.rank() == ReferenceSpanReducer(reference_rows(matrix)).rank
    assert_lowered(matrix._echelon())
    kernel = matrix.nullspace()
    assert ordered(kernel) == ordered(reference_nullspace(matrix))
    for row in kernel:
        assert_canonical(row)

    cols = columns(matrix)
    rhs = [{}] if not matrix.nrows else [
        as_row([sum((coeff() * c.get(i, ZERO) for c in cols[:4]), ZERO) for i in range(matrix.nrows)]),
        {i: coeff() for i in rng.sample(range(matrix.nrows), min(matrix.nrows, 2))},
    ]
    solved = solve_columns(cols, rhs)
    assert ordered(solved) == ordered(reference_solve_columns(cols, rhs))
    for row in solved:
        if row is not None:
            assert_canonical(row)


ENTRY_KINDS = {
    "int": lambda rng: GaussianRational(rng.choice([-3, -2, -1, 1, 2, 3])),
    "half": lambda rng: GaussianRational(Fraction(rng.choice([-3, -1, 1, 3]), 2)),
    "gaussian": lambda rng: GaussianRational(rng.randint(-2, 2), rng.choice([-2, -1, 1, 2])),
}
ENTRY_KINDS["mixed"] = lambda rng: ENTRY_KINDS[rng.choice(["int", "half", "gaussian"])](rng)


def random_sparse_matrix(rng, kind):
    """A sparse matrix up to 12 x 12 of one entry kind; every other one is a
    product through a narrow middle, so that its rows are dependent."""
    entry = ENTRY_KINDS[kind]

    def sparse(m, n, density):
        return ExactMatrix(
            [[entry(rng) if rng.random() < density else ZERO for _ in range(n)] for _ in range(m)],
            ncols=n,
        )

    m, n = rng.randint(1, 12), rng.randint(1, 12)
    if rng.random() < 0.5:
        return sparse(m, n, rng.choice([0.15, 0.3, 0.6]))
    r = rng.randint(1, min(m, n))
    return sparse(m, r, 0.5) @ sparse(r, n, 0.5)


@pytest.mark.parametrize("kind", sorted(ENTRY_KINDS))
def test_engine_matches_reference_on_random_sparse_matrices(kind):
    rng = random.Random(f"engine-{kind}")
    matrices = [random_sparse_matrix(rng, kind) for _ in range(60)]
    assert sum(m.rank() < min(m.shape) for m in matrices) >= 10
    for matrix in matrices:
        compare_engines(matrix, rng)


def builder_candidate_rows(seed, k):
    """The rows the degree-k basis builder offers its reducer, in order."""
    rows = []
    for g in (DELBAR, DEL):
        for value in _graded_basis(seed, k - 1).values:
            candidate = graded_commutator(generator_element(g), value)
            if not candidate.is_zero():
                rows.append(row_in_A(candidate, k))
    return rows


@pytest.mark.parametrize("carrier, k", [(c, k) for c in ("g", "h") for k in range(2, 9)])
def test_engine_matches_reference_on_builder_rows(carrier, k):
    seed = GENERATORS if carrier == "g" else (DELBAR, DEL)
    rows = builder_candidate_rows(seed, k)
    matrix = ExactMatrix.from_columns(
        [{i: row[j] for i, row in enumerate(rows) if j in row} for j in range(len(basis_A(k)))],
        nrows=len(rows),
    )
    compare_engines(matrix, random.Random(f"builder-{carrier}{k}"))


@pytest.mark.parametrize("name, k", [(name, k) for name in ("mubar", "d") for k in range(0, 7)])
def test_engine_matches_reference_on_B_ad_matrices(name, k):
    matrix = ad_matrix(DIFFERENTIALS[name](), k, "B").matrix
    compare_engines(matrix, random.Random(f"B-{name}{k}"))
    compare_engines(transpose(matrix), random.Random(f"B-{name}{k}-t"))


TWO = GaussianRational(2)
PIVOT_CASES = {
    # lead: (the row added, the row kept: lowered, with a leading int 1)
    "-1": ({0: -ONE, 1: GaussianRational(3), 2: H, 3: I}, {1: -3, 2: Fraction(-1, 2), 3: -I}),
    "2": (
        {0: TWO, 1: GaussianRational(4), 2: GaussianRational(3), 3: H, 4: TWO * I},
        {1: 2, 2: Fraction(3, 2), 3: Fraction(1, 4), 4: I},
    ),
    "1/2": (
        {0: H, 1: GaussianRational(3), 2: H, 3: GaussianRational(Fraction(1, 4))},
        {1: 6, 2: 1, 3: Fraction(1, 2)},
    ),
    "i": (
        {0: I, 1: GaussianRational(3), 2: TWO * I, 3: ONE + I},
        {1: GaussianRational(0, -3), 2: 2, 3: ONE - I},
    ),
    "1+i": (
        {0: ONE + I, 1: TWO, 2: ONE + I, 3: ONE},
        {1: ONE - I, 2: 1, 3: GaussianRational(H.re, -H.re)},
    ),
}


@pytest.mark.parametrize("lead", sorted(PIVOT_CASES))
def test_pivot_division_is_exact(lead):
    added, kept = PIVOT_CASES[lead]
    reducer = SpanReducer()
    assert reducer.add(added)
    row = reducer._rows[0]
    assert row == {**kept, 0: 1}
    assert all(type(row[j]) is type(x) for j, x in kept.items()) and type(row[0]) is int
    assert_lowered(reducer)
    # the residue of the added row is zero, and of the unit vector at the
    # pivot it is minus the rest of the row divided by the pivot
    assert reducer.reduce(added) == {}
    residue = reducer.reduce({0: ONE})
    assert residue == {j: -as_scalar(x) for j, x in kept.items()}
    assert_canonical(residue)
    reference = ReferenceSpanReducer([added])
    assert list(reference._rows[0].items()) == [(j, as_scalar(x)) for j, x in row.items()]
