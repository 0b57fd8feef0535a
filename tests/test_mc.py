import random
from fractions import Fraction

import pytest

from acalg.algebra import (
    DELBAR,
    MU,
    MUBAR,
    AlgebraElement,
    basis_A,
    generator_element,
    graded_commutator,
    product,
)
from acalg.errors import DegeneratePoint
from acalg.lie import d_lie, lie_generator, project_hol
from acalg.linalg import SpanReducer
from acalg.mc import (
    MCPoint,
    cohomology_dims_match,
    dJ_st,
    d_st,
    g1_coordinates,
    g1_element,
    is_mc,
    kernel_g1,
    phi_conjugation_check,
    phi_scale,
    quadric_values,
    quotient_nullity,
    square_coefficients,
    strata_nullity,
    tangent_basis,
)
from acalg.scalars import GaussianRational, I, ONE, ZERO
from vectors import as_row, same_span


def rand_scalar(rng, allow_zero=True):
    while True:
        value = GaussianRational(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        )
        if allow_zero or value:
            return value


# -- membership -----------------------------------------------------------------


def test_is_mc_examples():
    assert is_mc(1, 1, 1, 1).is_mc  # this is d
    assert is_mc(0, 0, 0, 0).is_mc
    verdict = is_mc(1, 0, 0, 1)
    assert not verdict.is_mc
    assert [str(q) for q in verdict.quadrics] == ["0", "0", "1"]


def test_quadric_vs_bracket_agreement():
    rng = random.Random(301)
    for _ in range(50):
        coords = [rand_scalar(rng) for _ in range(4)]
        verdict = is_mc(*coords)  # raises InternalInconsistency on mismatch
        quadrics = quadric_values(*coords)
        square = square_coefficients(*coords)
        assert verdict.is_mc == (not any(quadrics)) == (not any(square))


def test_square_expansion_formula():
    rng = random.Random(302)
    for _ in range(30):
        x, y, z, w = (rand_scalar(rng) for _ in range(4))
        c1, c2, c3 = square_coefficients(x, y, z, w)
        assert c1 == y * y - x * z
        assert c2 == (y * z - x * w) * 2
        assert c3 == z * z - y * w


def test_mc_point_construction():
    point = MCPoint(ONE, ONE, ONE, ONE)
    assert point.element().value == d_lie().value
    with pytest.raises(DegeneratePoint):
        MCPoint(ONE, ZERO, ZERO, ONE)


# -- the cubic chart ---------------------------------------------------------------


def test_d_st_examples():
    assert d_st(1, 0).value == generator_element(MUBAR)
    assert d_st(0, 1).value == generator_element(MU)
    assert d_st(1, 1).value == d_lie().value
    assert g1_coordinates(d_st(2, 1)) == [
        GaussianRational(8),
        GaussianRational(4),
        GaussianRational(2),
        GaussianRational(1),
    ]


def test_parametrization_lands_in_mc():
    rng = random.Random(303)
    samples = [(ZERO, ZERO), (ONE, ZERO), (ZERO, ONE)]
    samples += [(rand_scalar(rng), rand_scalar(rng)) for _ in range(25)]
    for s, t in samples:
        assert is_mc(*g1_coordinates(d_st(s, t))).is_mc, (str(s), str(t))


def test_scale_invariance():
    rng = random.Random(304)
    for _ in range(20):
        s, t = rand_scalar(rng), rand_scalar(rng)
        lam = rand_scalar(rng)
        coords = g1_coordinates(d_st(s, t))
        scaled = [lam * c for c in coords]
        assert is_mc(*scaled).is_mc


def test_cubic_chart_covers_unit_slices():
    rng = random.Random(305)
    for _ in range(20):
        y = rand_scalar(rng)
        # x = 1 forces the remaining coordinates to be the moment curve in y
        assert is_mc(ONE, y, y * y, y * y * y).is_mc
        point = MCPoint(ONE, y, y * y, y * y * y)
        assert point.coords() == tuple(g1_coordinates(d_st(ONE, y)))
    for _ in range(10):
        w = rand_scalar(rng)
        # x = 0 forces y = z = 0, a multiple of the mu-axis point
        assert is_mc(ZERO, ZERO, ZERO, w).is_mc
        axis = g1_coordinates(d_st(ZERO, ONE))
        assert [w * c for c in axis] == [ZERO, ZERO, ZERO, w]


def test_mc_points_with_x_zero_force_y_z_zero():
    rng = random.Random(306)
    for _ in range(20):
        y, z, w = (rand_scalar(rng) for _ in range(3))
        if is_mc(ZERO, y, z, w).is_mc:
            assert not y and not z


# -- the companion differential -----------------------------------------------------


def test_dJ_at_unit_point():
    dj = dJ_st(1, 1)
    assert g1_coordinates(dj) == [I * 3, I, -I, -(I * 3)]


def test_dJ_spans_kernel_with_d_st():
    rng = random.Random(307)
    pairs = [(ONE, ONE), (GaussianRational(2), ONE)]
    while len(pairs) < 12:
        s, t = rand_scalar(rng, allow_zero=False), rand_scalar(rng, allow_zero=False)
        pairs.append((s, t))
    for s, t in pairs:
        kernel = [g1_coordinates(v) for v in kernel_g1(d_st(s, t))]
        named = [g1_coordinates(d_st(s, t)), g1_coordinates(dJ_st(s, t))]
        assert SpanReducer(as_row(v) for v in named).rank == 2, (str(s), str(t))
        assert same_span(kernel, named), (str(s), str(t))


def test_dJ_square_never_vanishes_off_axes():
    coords = g1_coordinates(dJ_st(1, 1))
    square = square_coefficients(*coords)
    assert all(square)


def test_dJ_and_d_basis_change():
    # Euler relations against the parameter derivatives:
    #   3 * d_{s,t} = s * ds + t * dt        i * dJ_{s,t} = -s * ds + t * dt
    # (expanding the cubic coordinates by hand confirms the constants).
    rng = random.Random(308)
    for _ in range(10):
        s, t = rand_scalar(rng, allow_zero=False), rand_scalar(rng, allow_zero=False)
        ds, dt = tangent_basis(s, t)
        lhs = d_st(s, t).scale(3)
        assert lhs.value == (ds.scale(s) + dt.scale(t)).value
        lhs_j = dJ_st(s, t).scale(I)
        assert lhs_j.value == (ds.scale(-s) + dt.scale(t)).value


# -- tangent spaces ------------------------------------------------------------------


def test_tangent_examples():
    first, second = tangent_basis(1, 1)
    assert g1_coordinates(first) == [
        GaussianRational(3),
        GaussianRational(2),
        GaussianRational(1),
        ZERO,
    ]
    assert g1_coordinates(second) == [
        ZERO,
        GaussianRational(1),
        GaussianRational(2),
        GaussianRational(3),
    ]
    first, second = tangent_basis(1, 0)
    assert same_span(
        [g1_coordinates(first), g1_coordinates(second)],
        [
            g1_coordinates(lie_generator(MUBAR)),
            g1_coordinates(lie_generator(DELBAR)),
        ],
    )


def test_tangent_vectors_are_closed():
    rng = random.Random(309)
    samples = [(ONE, ZERO), (ZERO, ONE)]
    samples += [(rand_scalar(rng), rand_scalar(rng)) for _ in range(10)]
    for s, t in samples:
        if not (s or t):
            continue
        curve = d_st(s, t)
        for vec in tangent_basis(s, t):
            assert graded_commutator(curve.value, vec.value).is_zero()


def test_tangent_spans_kernel():
    rng = random.Random(310)
    for _ in range(10):
        s, t = rand_scalar(rng), rand_scalar(rng)
        if not (s or t):
            continue
        kernel = [g1_coordinates(v) for v in kernel_g1(d_st(s, t))]
        tangent = [g1_coordinates(v) for v in tangent_basis(s, t)]
        assert same_span(kernel, tangent), (str(s), str(t))


def test_tangent_degenerate_point():
    with pytest.raises(DegeneratePoint):
        tangent_basis(0, 0)


# -- conjugation-fixedness pairing ----------------------------------------------------


def test_reality_pairing():
    rng = random.Random(311)
    samples = []
    for _ in range(10):  # real parameters
        samples.append(
            (
                GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3))),
                GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3))),
            )
        )
    for _ in range(10):  # generic complex parameters
        samples.append((rand_scalar(rng), rand_scalar(rng)))
    r = GaussianRational(Fraction(2, 3))
    samples.append((r, r))  # fixed: equal real parameters
    s = GaussianRational(1, Fraction(1, 2))
    samples.append((s, s.conjugate()))  # fixed: conjugate pair
    for s, t in samples:
        d_fixed = d_st(s, t).value.conjugate() == d_st(s, t).value
        j_fixed = dJ_st(s, t).value.conjugate() == dJ_st(s, t).value
        assert d_fixed == j_fixed, (str(s), str(t))
    assert d_st(r, r).value.conjugate() == d_st(r, r).value
    assert d_st(ONE, ZERO).value.conjugate() != d_st(ONE, ZERO).value


# -- the rescaling conjugation ---------------------------------------------------------


def test_phi_identity_at_unit():
    report = phi_conjugation_check(1, 1, 3)
    assert report.passed
    for k in range(0, 4):
        for mono in basis_A(k):
            elt = AlgebraElement({mono: ONE})
            assert phi_scale(elt, 1, 1) == elt


def test_phi_conjugation_at_2_1():
    report = phi_conjugation_check(2, 1, 4)
    assert report.passed
    assert report.checked == sum(len(basis_A(k)) for k in range(5))


def test_phi_degenerate():
    with pytest.raises(DegeneratePoint):
        phi_conjugation_check(0, 1, 3)


def test_phi_is_multiplicative_on_products():
    rng = random.Random(312)
    s, t = GaussianRational(2), GaussianRational(Fraction(1, 3))
    monos = [m for k in range(0, 4) for m in basis_A(k)]
    for _ in range(25):
        a = AlgebraElement({rng.choice(monos): ONE})
        b = AlgebraElement({rng.choice(monos): ONE})
        assert phi_scale(product(a, b), s, t) == product(
            phi_scale(a, s, t), phi_scale(b, s, t)
        )


def test_cohomology_dims_invariant_along_curve():
    assert cohomology_dims_match(2, 1, 4)
    assert cohomology_dims_match(GaussianRational(1, 1), GaussianRational(3), 3)


# -- strata ------------------------------------------------------------------------


def test_strata_nullity_values():
    assert strata_nullity(1, 1) == 0
    assert strata_nullity(1, 0) == 1
    assert strata_nullity(0, 1) == 1
    assert strata_nullity(0, 0) == 2


def test_strata_nullity_generic():
    rng = random.Random(313)
    for _ in range(6):
        s = rand_scalar(rng, allow_zero=False)
        t = rand_scalar(rng, allow_zero=False)
        assert strata_nullity(s, t) == 0


def test_quotient_nullity_matches_the_projected_kernel():
    # the quotient map through project_hol on each kernel element, against
    # quotient_nullity's direct read of the delbar and del coordinates
    rng = random.Random(314)
    points = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 1)]
    points += [tuple(rand_scalar(rng) for _ in range(4)) for _ in range(6)]
    points += [g1_coordinates(d_st(s, t)) for s, t in ((1, 0), (0, 1), (2, 1), (I, 1))]
    for point in points:
        a = g1_element(*point)
        kernel = kernel_g1(a)
        reducer = SpanReducer()
        rank = sum(reducer.add(as_row(project_hol(v).coords())) for v in kernel)
        assert quotient_nullity(a) == (len(kernel), len(kernel) - rank)


def test_kernel_at_origin_is_everything():
    kernel = kernel_g1(d_st(0, 0))
    assert len(kernel) == 4
