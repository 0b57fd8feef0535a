"""Acceptance suite: the headline exact computations, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s`` or
on failure); expected values are either fixed small integers checked by hand
or recomputed here by an independent counting oracle before being compared
against the engine.
"""

import itertools
import random
import time
from fractions import Fraction

from acalg.algebra import (
    DEL,
    DELBAR,
    GENERATORS,
    MU,
    MUBAR,
    AlgebraElement,
    basis_A,
    d_element,
    dim_A,
    generator_element,
    graded_commutator,
    product,
    rewrite_word,
    row_in_A,
)
from acalg.cohomology import (
    ad_matrix,
    cohomology,
    cohomology_data,
    cohomology_dims,
    les_check,
)
from acalg.lie import LieElement, d_lie, dim_g, lie_basis, lie_generator
from acalg.linalg import SpanReducer
from acalg.mc import (
    dJ_st,
    d_st,
    g1_coordinates,
    is_mc,
    kernel_g1,
    phi_conjugation_check,
    quadric_values,
    square_coefficients,
    strata_nullity,
)
from acalg.reps import act, build_example_rep, quotient_faithfulness, verify_relations
from acalg.scalars import GaussianRational, HALF, ONE, ZERO
from vectors import as_row, same_span


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def rand_scalar(rng, allow_zero=True):
    while True:
        value = GaussianRational(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        )
        if allow_zero or value:
            return value


def series_coefficients(max_k):
    """(1+q)^2/(1-2q) expanded with integer arithmetic only."""
    geometric = [2**k for k in range(max_k + 1)]
    out = []
    for k in range(max_k + 1):
        out.append(sum([1, 2, 1][j] * geometric[k - j] for j in range(3) if k - j >= 0))
    return out


def super_pbw_dims(max_k):
    """Degree dimensions of the free odd/even graded Lie algebra whose
    enveloping algebra has dimension series 1/(1-2q): peel one factor
    (1+q^k)^{d_k} (k odd) or (1-q^k)^{-d_k} (k even) at a time."""
    target = [Fraction(2) ** k for k in range(max_k + 1)]

    def mul(series, other):
        out = [Fraction(0)] * (max_k + 1)
        for i, a in enumerate(series):
            if not a:
                continue
            for j, b in enumerate(other):
                if i + j > max_k:
                    break
                out[i + j] += a * b
        return out

    def factor_series(k, exponent, odd):
        out = [Fraction(0)] * (max_k + 1)
        out[0] = Fraction(1)
        coeff = Fraction(1)
        n = 1
        while n * k <= max_k:
            if odd:
                coeff = coeff * (exponent - n + 1) / n
            else:
                coeff = coeff * (exponent + n - 1) / n
            out[n * k] = coeff
            n += 1
        return out

    dims = {}
    running = [Fraction(0)] * (max_k + 1)
    running[0] = Fraction(1)
    for k in range(1, max_k + 1):
        d_k = int(target[k] - running[k])
        dims[k] = d_k
        if d_k:
            running = mul(running, factor_series(k, d_k, odd=bool(k % 2)))
    return dims


def test_criterion_1_poincare_series():
    start = time.time()
    frozen = [1, 4, 9, 18, 36, 72, 144, 288, 576, 1152, 2304, 4608, 9216]
    oracle = series_coefficients(12)
    engine = [dim_A(k) for k in range(13)]
    elapsed = time.time() - start
    ok = engine == oracle == frozen and elapsed < 5.0
    report(1, ok, f"dim A_k for k<=12 = {engine} ({elapsed:.2f}s)")


def test_criterion_2_lie_dimensions():
    start = time.time()
    oracle = super_pbw_dims(8)
    ok = dim_g(1) == 4
    delbar, del_ = generator_element(DELBAR), generator_element(DEL)
    named_degree2 = [
        graded_commutator(del_, del_),
        graded_commutator(delbar, delbar),
        graded_commutator(del_, delbar),
    ]
    ok = ok and dim_g(2) == 3
    ok = ok and same_span(
        [row_in_A(b.value, 2) for b in lie_basis(2)],
        [row_in_A(v, 2) for v in named_degree2],
    )
    engine = {k: dim_g(k) for k in range(3, 9)}
    expected = {k: oracle[k] for k in range(3, 9)}
    ok = ok and engine == expected
    elapsed = time.time() - start
    ok = ok and elapsed < 30.0
    report(2, ok, f"dim g_k for k=3..8 = {engine}, series oracle {expected} ({elapsed:.2f}s)")


def test_criterion_3_subalgebra_cohomology():
    start = time.time()
    mubar = lie_generator(MUBAR)
    h_dims = {k: cohomology(mubar, k, "h")[0] for k in range(1, 7)}
    ok = h_dims == {1: 1, 2: 1, 3: 0, 4: 0, 5: 0, 6: 0}

    # the named representatives generate the two surviving classes
    data1 = cohomology_data(mubar, 1, "h")
    delbar_vec = data1.carrier.coordinates([generator_element(DELBAR)], 1)[0]
    ok = ok and SpanReducer(data1.kernel).contains(delbar_vec)
    ok = ok and not SpanReducer(data1.image).contains(delbar_vec)
    data2 = cohomology_data(mubar, 2, "h")
    named = graded_commutator(generator_element(DEL), generator_element(DELBAR))
    named_vec = data2.carrier.coordinates([named], 2)[0]
    ok = ok and SpanReducer(data2.kernel).contains(named_vec)
    ok = ok and not SpanReducer(data2.image).contains(named_vec)
    filled = SpanReducer(data2.image + [named_vec])
    ok = ok and all(filled.contains(v) for v in data2.kernel)

    b_dims = {k: cohomology(mubar, k, "B")[0] for k in range(0, 9)}
    ok = ok and b_dims == {k: 1 for k in range(9)}
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    report(3, ok, f"H(h) k=1..6 dims {list(h_dims.values())}, H(B) k=0..8 dims {list(b_dims.values())} ({elapsed:.2f}s)")


def test_criterion_4_quasi_isomorphism():
    d = d_lie()
    data = cohomology_data(d, 1, "g")
    named = [
        g1_coordinates(d),
        [GaussianRational(3), ONE, -ONE, GaussianRational(-3)],
    ]
    ok = data.dim == 2
    ok = ok and same_span(data.kernel, named)
    higher = {k: cohomology(d, k, "g")[0] for k in range(2, 7)}
    ok = ok and higher == {k: 0 for k in range(2, 7)}

    from acalg.lie import project_hol

    projections = [
        project_hol(LieElement(rep, 1)).coords() for rep in data.representatives
    ]
    ok = ok and SpanReducer(as_row(v) for v in projections).rank == 2
    report(4, ok, f"H^1 dim {data.dim} with the stated kernel, H^2..H^6 = {list(higher.values())}, quotient projections independent")


def test_criterion_5_long_exact_sequence():
    result = les_check(8)
    report(5, result.passed, result.summary())


def test_criterion_6_mc_locus():
    rng = random.Random(20240806)
    agree = 0
    for n in range(200):
        if n % 5 == 0:
            s, t = rand_scalar(rng), rand_scalar(rng)
            lam = rand_scalar(rng)
            coords = [lam * c for c in g1_coordinates(d_st(s, t))]
        else:
            coords = [rand_scalar(rng) for _ in range(4)]
        verdict = is_mc(*coords)  # raises InternalInconsistency on disagreement
        quadr = not any(quadric_values(*coords))
        brack = not any(square_coefficients(*coords))
        if verdict.is_mc == quadr == brack:
            agree += 1
    ok = agree == 200

    in_curve = 0
    samples = [(ZERO, ZERO), (ONE, ZERO), (ZERO, ONE)]
    samples += [(rand_scalar(rng), rand_scalar(rng)) for _ in range(22)]
    for s, t in samples:
        if is_mc(*g1_coordinates(d_st(s, t))).is_mc:
            in_curve += 1
    ok = ok and in_curve == 25

    scale_ok = 0
    for _ in range(20):
        s, t = rand_scalar(rng), rand_scalar(rng)
        lam = rand_scalar(rng)
        scaled = [lam * c for c in g1_coordinates(d_st(s, t))]
        if is_mc(*scaled).is_mc:
            scale_ok += 1
    ok = ok and scale_ok == 20
    report(6, ok, f"verdict agreement 200/200, curve membership {in_curve}/25, scale invariance {scale_ok}/20")


def test_criterion_7_curve_cohomology():
    rng = random.Random(20240807)
    pairs = []
    while len(pairs) < 10:
        s = rand_scalar(rng, allow_zero=False)
        t = rand_scalar(rng, allow_zero=False)
        pairs.append((s, t))

    span_ok = 0
    for s, t in pairs:
        kernel = [g1_coordinates(v) for v in kernel_g1(d_st(s, t))]
        named = [g1_coordinates(d_st(s, t)), g1_coordinates(dJ_st(s, t))]
        if SpanReducer(as_row(v) for v in named).rank == 2 and same_span(kernel, named):
            span_ok += 1
    ok = span_ok == 10

    phi_ok = 0
    for s, t in pairs[:5]:
        if phi_conjugation_check(s, t, 6).passed:
            phi_ok += 1
    ok = ok and phi_ok == 5

    base = cohomology_dims(d_lie(), 5, "g")
    dims_ok = 0
    for s, t in pairs:
        if cohomology_dims(d_st(s, t), 5, "g") == base:
            dims_ok += 1
    ok = ok and dims_ok == 10
    report(7, ok, f"kernel spans {span_ok}/10, conjugation identity {phi_ok}/5 up to degree 6, dim tables {dims_ok}/10 match {list(base.values())}")


def test_criterion_8_strata():
    rng = random.Random(20240808)
    generic = 0
    for _ in range(10):
        s = rand_scalar(rng, allow_zero=False)
        t = rand_scalar(rng, allow_zero=False)
        if strata_nullity(s, t) == 0:
            generic += 1
    axis = (strata_nullity(1, 0), strata_nullity(0, 1))
    origin = strata_nullity(0, 0)
    ok = generic == 10 and axis == (1, 1) and origin == 2
    report(8, ok, f"nullity generic 0 ({generic}/10), axes {axis}, origin {origin}")


def test_criterion_9_representation_family():
    start = time.time()
    rng = random.Random(20240809)
    corners = [
        (ZERO, ZERO, ZERO),
        (HALF, ZERO, ZERO),
        (-HALF, ZERO, ZERO),
        (ZERO, ONE, ZERO),
        (ZERO, ZERO, HALF),
        (ZERO, ZERO, -HALF),
    ]
    triples = corners + [
        (rand_scalar(rng), rand_scalar(rng), rand_scalar(rng)) for _ in range(20)
    ]
    comm = graded_commutator(generator_element(DEL), generator_element(DELBAR))
    verified = killed = faithful = 0
    for alpha, beta, gamma in triples:
        rep = build_example_rep(alpha, beta, gamma)
        if verify_relations(rep) == []:
            verified += 1
        if act(rep, comm).is_zero():
            killed += 1
        if quotient_faithfulness(rep):
            faithful += 1
    total = len(triples)
    elapsed = time.time() - start
    ok = verified == killed == faithful == total and elapsed < 5.0
    report(9, ok, f"relations {verified}/{total}, ideal killed {killed}/{total}, faithful {faithful}/{total} ({elapsed:.2f}s)")


def test_criterion_10_property_suites():
    start = time.time()
    rng = random.Random(20240810)

    confluent = True
    for length in range(0, 9):
        for word in itertools.product(GENERATORS, repeat=length):
            if rewrite_word(word, "leftmost") != rewrite_word(word, "rightmost"):
                confluent = False
                break
        if not confluent:
            break

    monos = [m for k in range(0, 4) for m in basis_A(k)]
    associative = all(
        product(product(a, b), c) == product(a, product(b, c))
        for a, b, c in (
            tuple(AlgebraElement({rng.choice(monos): ONE}) for _ in range(3))
            for _ in range(40)
        )
    )

    def random_homogeneous(degree):
        out = AlgebraElement.zero()
        for mono in basis_A(degree):
            if rng.random() < 0.4:
                out = out + AlgebraElement({mono: rand_scalar(rng)})
        return out

    jacobi = True
    for _ in range(15):
        da, db, dc = (rng.randint(1, 2) for _ in range(3))
        a, b, c = random_homogeneous(da), random_homogeneous(db), random_homogeneous(dc)
        total = (
            graded_commutator(a, graded_commutator(b, c)).scale((-1) ** (da * dc))
            + graded_commutator(b, graded_commutator(c, a)).scale((-1) ** (db * da))
            + graded_commutator(c, graded_commutator(a, b)).scale((-1) ** (dc * db))
        )
        if not total.is_zero():
            jacobi = False
            break

    d = d_element()
    d_squared = product(d, d).is_zero()

    squares = True
    curve_samples = [
        d_lie(),
        lie_generator(MUBAR),
        lie_generator(MU),
        d_st(2, 1),
        d_st(rand_scalar(rng, allow_zero=False), rand_scalar(rng, allow_zero=False)),
    ]
    for a in curve_samples:
        for k in range(1, 6):
            low = ad_matrix(a, k, "g").matrix
            high = ad_matrix(a, k + 1, "g").matrix
            if not (high @ low).is_zero():
                squares = False
    for k in range(0, 7):
        low = ad_matrix(lie_generator(MUBAR), k, "B").matrix
        high = ad_matrix(lie_generator(MUBAR), k + 1, "B").matrix
        if not (high @ low).is_zero():
            squares = False

    elapsed = time.time() - start
    ok = confluent and associative and jacobi and d_squared and squares
    report(
        10,
        ok,
        f"confluence(words<=8)={confluent}, associativity={associative}, "
        f"jacobi={jacobi}, d^2=0={d_squared}, ad^2=0={squares} ({elapsed:.2f}s)",
    )
