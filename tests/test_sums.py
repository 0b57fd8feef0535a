"""Differential tests of the one sparse sum, ``linalg.combine``.

Products, sums of elements and sums of matrices all go through ``combine``,
and the results go to ``AlgebraElement._of_nonzero`` unchecked.  The
references below are the loops they replaced: accumulate-and-pop sums
whose results went through the validating ``AlgebraElement`` constructor,
and matrix sums formed one scaled matrix at a time.  On seeded random data
with int, Fraction and non-real coefficients and with forced cancellations,
the two must agree, and every coefficient the trusted paths keep must be a
nonzero GaussianRational.
"""

import random
from fractions import Fraction

from acalg.algebra import (
    DEL,
    DELBAR,
    GENERATORS,
    MU,
    MUBAR,
    RELATIONS,
    AlgebraElement,
    basis_A,
    d_element,
    generator_element,
    graded_commutator,
    product,
    rewrite_word,
)
from acalg.cohomology import get_carrier
from acalg.errors import IdealNotKilled, UnverifiedRep
from acalg.linalg import ExactMatrix
from acalg.mc import g1_element
from acalg.reps import (
    RelationViolation,
    _record,
    act,
    action_matrix,
    build_example_rep,
    direct_sum,
    make_rep,
    quotient_faithfulness,
    rep_from_dict,
    rep_to_dict,
    verify_relations,
)
from acalg.scalars import ZERO, GaussianRational, as_scalar
from test_reps import truncated_regular_rep

# -- the references ---------------------------------------------------------------


def reference_add(a, b):
    acc = dict(a._terms)
    for mono, coeff in b._terms.items():
        value = acc.get(mono, ZERO) + coeff
        if value:
            acc[mono] = value
        else:
            acc.pop(mono, None)
    return AlgebraElement(acc)


def reference_sum(elements):
    out = AlgebraElement.zero()
    for elt in elements:
        out = reference_add(out, elt)
    return out


def reference_negative(a):
    return AlgebraElement({mono: -coeff for mono, coeff in a._terms.items()})


def reference_from_terms(pairs):
    acc = {}
    for mono, coeff in pairs:
        value = acc.get(mono, ZERO) + as_scalar(coeff)
        if value:
            acc[mono] = value
        else:
            acc.pop(mono, None)
    return AlgebraElement(acc)


def reference_product(a, b):
    acc = {}
    for m1, c1 in a._terms.items():
        for m2, c2 in b._terms.items():
            coeff = c1 * c2
            for mono, c in rewrite_word(m1.letters + m2.letters)._terms.items():
                value = acc.get(mono, ZERO) + coeff * c
                if value:
                    acc[mono] = value
                else:
                    acc.pop(mono, None)
    return AlgebraElement(acc)


def reference_matrix_add(m1, m2):
    assert m1.shape == m2.shape
    out = []
    for r1, r2 in zip(m1._rows, m2._rows):
        acc = dict(r1)
        for j, x in r2.items():
            acc[j] = acc[j] + x if j in acc else x
        out.append({j: x for j, x in acc.items() if x})
    return ExactMatrix._of(out, m1.ncols)


def reference_matrix_scale(m, coeff):
    coeff = as_scalar(coeff)
    if not coeff:
        return ExactMatrix.zeros(m.nrows, m.ncols)
    return ExactMatrix._of([{j: x * coeff for j, x in row.items()} for row in m._rows], m.ncols)


def reference_act(rep, a):
    matrices = {sym: action_matrix(rep, sym) for sym in GENERATORS}
    total = None
    for mono, coeff in a._terms.items():
        letters = mono.letters
        if letters:
            partial = matrices[letters[-1]]
            for sym in letters[-2::-1]:
                partial = matrices[sym] @ partial
        else:
            partial = ExactMatrix.identity(rep.dim)
        term = reference_matrix_scale(partial, coeff)
        total = term if total is None else reference_matrix_add(total, term)
    return ExactMatrix.zeros(rep.dim, rep.dim) if total is None else total


def reference_verify_relations(rep):
    matrices = {sym: action_matrix(rep, sym) for sym in GENERATORS}
    violations = []
    for name, words in RELATIONS:
        total = ExactMatrix.zeros(rep.dim, rep.dim)
        for coeff, (first, second) in words:
            term = reference_matrix_scale(matrices[first] @ matrices[second], coeff)
            total = reference_matrix_add(total, term)
        columns = {}
        for i, j, c in total.nonzero():
            columns.setdefault(j, []).append((rep.labels[i], c))
        for j in sorted(columns):
            violations.append(RelationViolation(name, rep.labels[j], tuple(columns[j])))
    return violations


def reference_quotient_faithfulness(rep):
    """Independence of the six quotient basis elements' matrices, by the
    rank of their flattened rows, with the record's two preconditions."""
    if reference_verify_relations(rep):
        raise UnverifiedRep("relations fail")
    delbar, del_ = generator_element(DELBAR), generator_element(DEL)
    if not reference_act(rep, graded_commutator(del_, delbar)).is_zero():
        raise IdealNotKilled("[del, delbar] does not act by zero")
    basis = [generator_element(sym) for sym in GENERATORS]
    basis += [graded_commutator(del_, del_), graded_commutator(delbar, delbar)]
    flat = [[x for row in reference_act(rep, elt).rows for x in row] for elt in basis]
    return ExactMatrix(flat).rank() == len(basis)


# -- random data --------------------------------------------------------------------

MONOMIALS = [mono for k in range(5) for mono in basis_A(k)]


def random_coeff(rng):
    """An int, a Fraction or a non-real scalar, never zero."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice((-3, -2, -1, 1, 2, 3))
    if kind == 1:
        return Fraction(rng.choice((-3, -1, 1, 5)), rng.choice((2, 3, 7)))
    return GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.choice((-1, 1, 2)))


def random_element(rng, size):
    return AlgebraElement(
        {mono: random_coeff(rng) for mono in rng.sample(MONOMIALS, size)}
    )


def cancelling_partner(rng, a):
    """An element that cancels some of the terms of ``a`` and adds others."""
    cancelled = rng.sample(list(a._terms), len(a) // 2)
    partner = {mono: -a._terms[mono] for mono in cancelled}
    others = [mono for mono in MONOMIALS if mono not in partner]
    partner.update({mono: random_coeff(rng) for mono in rng.sample(others, 3)})
    return AlgebraElement(partner), cancelled


def assert_trusted(elt):
    """The ``_of_nonzero`` contract: every kept coefficient is a nonzero
    GaussianRational."""
    assert all(type(c) is GaussianRational and c for c in elt._terms.values()), elt._terms


# -- elements ---------------------------------------------------------------------


def test_element_sums_match_the_accumulate_and_pop_reference():
    rng = random.Random(1501)
    for _ in range(200):
        a = random_element(rng, rng.randint(0, 12))
        b, cancelled = cancelling_partner(rng, a)
        for new, old in (
            (a + b, reference_add(a, b)),
            (a - b, reference_add(a, reference_negative(b))),
            (-a, reference_negative(a)),
            (a + (-a), AlgebraElement.zero()),
        ):
            assert new == old
            assert_trusted(new)
        assert not any(mono in (a + b)._terms for mono in cancelled)
        coeff = random_coeff(rng)
        scaled = a.scale(coeff)
        assert scaled == AlgebraElement({m: c * as_scalar(coeff) for m, c in a._terms.items()})
        assert_trusted(scaled)
        assert a.scale(0).is_zero()


def test_from_terms_matches_the_reference_on_repeated_and_cancelling_terms():
    rng = random.Random(1502)
    for _ in range(200):
        pairs = [(rng.choice(MONOMIALS[:30]), random_coeff(rng)) for _ in range(rng.randint(0, 20))]
        # each drawn pair is cancelled once in a while, and zeros are dropped
        pairs += [(mono, -as_scalar(c)) for mono, c in pairs if rng.random() < 0.3]
        pairs += [(rng.choice(MONOMIALS), 0), (rng.choice(MONOMIALS), ZERO)]
        rng.shuffle(pairs)
        new = AlgebraElement.from_terms(pairs)
        assert new == reference_from_terms(pairs)
        assert_trusted(new)


def test_products_match_the_accumulate_and_pop_reference():
    rng = random.Random(1503)
    for _ in range(150):
        a = random_element(rng, rng.randint(0, 6))
        b = random_element(rng, rng.randint(0, 6))
        new = product(a, b)
        assert new == reference_product(a, b)
        assert_trusted(new)
    # the two words of [mubar, delbar], and of [mu, del], cancel in the sum,
    # and every word of d^2 does
    x = generator_element(MUBAR) + generator_element(DELBAR)
    y = generator_element(MU) + generator_element(DEL)
    for a, b in ((x, x), (y, y), (x, y), (d_element(), d_element())):
        new = product(a, b)
        assert new == reference_product(a, b)
        assert_trusted(new)
    assert product(d_element(), d_element()).is_zero()


def test_conjugates_and_carrier_elements_match_repeated_addition():
    rng = random.Random(1504)
    swap = {MUBAR: MU, MU: MUBAR, DELBAR: DEL, DEL: DELBAR}
    for _ in range(100):
        a = random_element(rng, rng.randint(0, 8))
        old = reference_sum(
            rewrite_word(tuple(swap[s] for s in mono.letters)).scale(coeff.conjugate())
            for mono, coeff in a._terms.items()
        )
        assert a.conjugate() == old
        assert_trusted(a.conjugate())
    assert d_element() == reference_sum(generator_element(sym) for sym in GENERATORS)
    assert_trusted(d_element())
    for which, k in (("g", 3), ("h", 4), ("B", 3)):
        carrier = get_carrier(which)
        basis = carrier.basis(k)
        for _ in range(20):
            coords = {
                j: random_coeff(rng) for j in rng.sample(range(len(basis)), min(3, len(basis)))
            }
            new = carrier.element(coords, k)
            assert new == reference_sum(basis[j].scale(c) for j, c in coords.items())
            assert_trusted(new)
    for _ in range(50):
        coords = [random_coeff(rng) if rng.random() < 0.7 else 0 for _ in GENERATORS]
        new = g1_element(*coords).value
        assert new == reference_sum(
            generator_element(sym).scale(c) for sym, c in zip(GENERATORS, coords) if c
        )
        assert_trusted(new)


def test_a_unit_entry_hands_out_its_scalar_coefficient():
    # B's words hold the shared ONE, so an element made from coordinates
    # keeps each coordinate's scalar instead of a fresh copy of it; an int
    # coordinate still becomes a scalar
    carrier = get_carrier("B")
    c = GaussianRational(Fraction(2, 3), 1)
    (kept,) = carrier.element({5: c}, 3)._terms.values()
    assert kept is c
    (made,) = carrier.element({5: 2}, 3)._terms.values()
    assert type(made) is GaussianRational and made == GaussianRational(2)


def test_trusted_constructions_hold_nonzero_scalars_only():
    for elt in [AlgebraElement.one(), d_element(), *map(generator_element, GENERATORS)]:
        assert_trusted(elt)
    for k in range(4):
        for elt in get_carrier("B").basis(k):
            assert_trusted(elt)


# -- matrices -----------------------------------------------------------------------


def random_parameters(rng):
    """(alpha, beta, gamma), non-real and each drawn from a small pool."""
    return [
        GaussianRational(Fraction(rng.randint(-2, 2), 2), rng.choice((-1, 1, Fraction(1, 3))))
        for _ in range(3)
    ]


def broken(rep, rng):
    """``rep`` with one action coefficient moved, so relations fail."""
    data = rep_to_dict(rep)
    entries = [e for entries in data["actions"].values() for e in entries]
    entry = rng.choice(entries)
    entry["coeff"] = str(rng.choice((GaussianRational(3), GaussianRational(1, -2))))
    return rep_from_dict(data)


def assert_sparse_scalars(matrix):
    assert all(type(x) is GaussianRational and x for _, _, x in matrix.nonzero())


def test_act_and_verify_relations_match_the_matrix_sum_reference():
    rng = random.Random(1505)
    for _ in range(12):
        rep = build_example_rep(*random_parameters(rng))
        assert verify_relations(rep) == reference_verify_relations(rep) == []
        bad = broken(rep, rng)
        violations = verify_relations(bad)
        assert violations and violations == reference_verify_relations(bad)
        for _ in range(10):
            a = random_element(rng, rng.randint(0, 6))
            new = act(rep, a)
            assert new == reference_act(rep, a)
            assert_sparse_scalars(new)
        # the family kills [del, delbar]: the matrices of its two words cancel
        ideal = graded_commutator(generator_element(DEL), generator_element(DELBAR))
        ideal = ideal.scale(random_coeff(rng))
        assert len(ideal) == 2 and act(rep, ideal) == reference_act(rep, ideal)
        assert act(rep, ideal).is_zero()
        assert act(rep, AlgebraElement.zero()) == ExactMatrix.zeros(rep.dim, rep.dim)


def outcome(verdict, rep):
    """The verdict, or the type of the error it raises."""
    try:
        return verdict(rep)
    except (UnverifiedRep, IdealNotKilled) as exc:
        return type(exc)


def test_the_rep_record_matches_the_uncached_reference():
    rng = random.Random(1506)
    family = [build_example_rep(*random_parameters(rng)) for _ in range(4)]
    regular = truncated_regular_rep()
    bad = [broken(rep, rng) for rep in family[:2]]
    reps = family + bad + [regular, make_rep([("a", 0, 0), ("b", 1, 0)], {})]
    reps += [
        direct_sum(family[0], family[1], rename=True),
        direct_sum(family[2], regular, rename=True),
        direct_sum(bad[0], family[3], rename=True),
    ]
    outcomes = set()
    for rep in reps:
        violations = reference_verify_relations(rep)
        expected = outcome(reference_quotient_faithfulness, rep)
        outcomes.add(expected)
        for _ in range(2):  # built, then read from the record
            assert verify_relations(rep) == violations
            assert _record(rep).violations() == tuple(violations)
            assert outcome(quotient_faithfulness, rep) == expected
    assert outcomes == {True, False, UnverifiedRep, IdealNotKilled}
