import json
import random
from fractions import Fraction

import pytest

from acalg.algebra import (
    DEL,
    DELBAR,
    GENERATORS,
    MU,
    MUBAR,
    AlgebraElement,
    basis_A,
    generator_element,
    graded_commutator,
    product,
    row_in_A,
)
from acalg.cli import main
from acalg.errors import (
    IdealNotKilled,
    LabelClash,
    RepFormatError,
    UnverifiedRep,
)
from acalg.lie import lie_basis
from acalg.linalg import ExactMatrix, same_span
from acalg.mc import phi_conjugation_check
from acalg.reps import (
    _action_matrices,
    act,
    action_matrix,
    build_example_rep,
    direct_sum,
    load_rep,
    make_rep,
    quotient_faithfulness,
    rep_from_dict,
    rep_to_dict,
    save_rep,
    verify_relations,
)
from acalg.scalars import GaussianRational, HALF, ONE, ZERO


def rand_scalar(rng):
    return GaussianRational(
        Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
    )


def zero_rep():
    return make_rep([("a", 0, 0), ("b", 1, 1)], {})


def truncated_regular_rep(max_degree=2):
    """A acting on its own low-degree part by left multiplication, truncated.

    Every relation is a degree-2 operator that vanishes identically in A, so
    the truncation is a genuine representation; unlike the parameter family
    it does not kill [del, delbar].
    """
    vectors = []
    labels = {}
    for k in range(max_degree + 1):
        for mono in basis_A(k):
            label = str(mono).replace(".", "_")
            labels[mono] = label
            p, q = mono.bidegree
            vectors.append((label, p, q))
    actions = {sym: [] for sym in GENERATORS}
    for k in range(max_degree + 1):
        for mono in basis_A(k):
            src = labels[mono]
            for sym in GENERATORS:
                image = product(generator_element(sym), AlgebraElement({mono: ONE}))
                for target, coeff in image.terms():
                    if target.degree <= max_degree:
                        actions[sym].append((src, labels[target], coeff))
    return make_rep(vectors, actions)


def broken_example_rep():
    """The (0,0,0) family member with the mubar(del_x) coefficient flipped."""
    good = build_example_rep(0, 0, 0)
    data = rep_to_dict(good)
    for entry in data["actions"]["mubar"]:
        if entry["from"] == "del_x":
            entry["coeff"] = str(HALF)
    return rep_from_dict(data)


# -- verification ------------------------------------------------------------------


def test_zero_rep_verifies():
    assert verify_relations(zero_rep()) == []


def test_example_rep_verifies():
    assert verify_relations(build_example_rep(0, 0, 0)) == []


def test_example_rep_verifies_on_random_parameters():
    rng = random.Random(401)
    for _ in range(20):
        rep = build_example_rep(rand_scalar(rng), rand_scalar(rng), rand_scalar(rng))
        assert verify_relations(rep) == []


def test_corner_parameters():
    corners = [
        (ZERO, ZERO, ZERO),
        (HALF, ZERO, ZERO),
        (-HALF, ZERO, ZERO),
        (ZERO, ONE, ZERO),
        (ZERO, ZERO, HALF),
        (ZERO, ZERO, -HALF),
    ]
    for alpha, beta, gamma in corners:
        assert verify_relations(build_example_rep(alpha, beta, gamma)) == []


def test_altered_coefficient_is_flagged():
    violations = verify_relations(broken_example_rep())
    assert violations
    v = violations[0]
    assert v.relation == "[mubar,del]+1/2*[delbar,delbar]"
    assert v.vector == "x"
    assert [label for label, _ in v.image] == ["delbar2_x"]


def test_truncated_regular_rep_verifies():
    assert verify_relations(truncated_regular_rep()) == []


# -- the action --------------------------------------------------------------------


def test_act_identity():
    rep = build_example_rep(0, 0, 0)
    identity = act(rep, AlgebraElement.one())
    for i in range(rep.dim):
        for j in range(rep.dim):
            assert identity.entry(i, j) == (ONE if i == j else ZERO)


def test_act_respects_normal_form():
    rep = build_example_rep(0, 0, 0)
    word = AlgebraElement.from_word((MU, MUBAR))
    rewritten = (
        -AlgebraElement.from_word((MUBAR, MU))
        - AlgebraElement.from_word((DELBAR, DEL))
        - AlgebraElement.from_word((DEL, DELBAR))
    )
    assert act(rep, word) == act(rep, rewritten)


def test_act_is_multiplicative():
    rng = random.Random(402)
    rep = build_example_rep(1, 0, 0)
    monos = [m for k in range(0, 4) for m in basis_A(k)]
    for _ in range(25):
        a = AlgebraElement({rng.choice(monos): ONE})
        b = AlgebraElement({rng.choice(monos): ONE})
        assert act(rep, product(a, b)) == act(rep, a) @ act(rep, b)


def test_act_kills_bracket_del_delbar():
    rng = random.Random(403)
    comm = graded_commutator(generator_element(DEL), generator_element(DELBAR))
    for _ in range(5):
        rep = build_example_rep(rand_scalar(rng), rand_scalar(rng), rand_scalar(rng))
        assert act(rep, comm).is_zero()


def test_unverified_rep_rejects_combinations():
    bad = broken_example_rep()
    multi = generator_element(DELBAR) + generator_element(DEL)
    with pytest.raises(UnverifiedRep):
        act(bad, multi)
    # single words stay legal
    single = AlgebraElement.from_word((DELBAR, DEL)).scale(GaussianRational(2))
    assert act(bad, single).shape == (8, 8)


def test_descent_ideal_acts_by_zero():
    rep = build_example_rep(0, 0, 0)
    delbar, del_ = generator_element(DELBAR), generator_element(DEL)
    comm = graded_commutator(del_, delbar)
    ideal = [
        comm,
        graded_commutator(delbar, comm),
        graded_commutator(del_, comm),
    ]
    for elt in ideal:
        assert act(rep, elt).is_zero()
    # the two degree-3 ideal elements span the whole degree-3 Lie piece
    degree3 = [row_in_A(b.value, 3) for b in lie_basis(3)]
    named = [row_in_A(ideal[1], 3), row_in_A(ideal[2], 3)]
    assert same_span(degree3, named)


# -- faithfulness on the quotient ----------------------------------------------------


def test_example_rep_is_quotient_faithful():
    rng = random.Random(404)
    assert quotient_faithfulness(build_example_rep(0, 0, 0))
    for _ in range(10):
        rep = build_example_rep(rand_scalar(rng), rand_scalar(rng), rand_scalar(rng))
        assert quotient_faithfulness(rep)


def test_zero_rep_is_not_faithful():
    assert not quotient_faithfulness(zero_rep())


def test_ideal_not_killed():
    with pytest.raises(IdealNotKilled):
        quotient_faithfulness(truncated_regular_rep())


# -- direct sums --------------------------------------------------------------------


def test_direct_sum_dims_and_relations():
    left = build_example_rep(0, 0, 0)
    right = build_example_rep(1, 0, 0)
    total = direct_sum(left, right, rename=True)
    assert total.dim == 16
    assert verify_relations(total) == []


def test_direct_sum_with_zero_keeps_violations():
    bad = broken_example_rep()
    combined = direct_sum(bad, make_rep([("pad", 5, 5)], {}))
    before = {(v.relation, v.vector) for v in verify_relations(bad)}
    after = {(v.relation, v.vector) for v in verify_relations(combined)}
    assert before == after


def test_direct_sum_label_clash():
    rep = build_example_rep(0, 0, 0)
    with pytest.raises(LabelClash):
        direct_sum(rep, rep)
    renamed = direct_sum(rep, rep, rename=True)
    assert len(set(renamed.labels)) == 16
    assert "x_2" in renamed.labels


# -- schema and files -----------------------------------------------------------------


def test_json_round_trip(tmp_path):
    rep = build_example_rep(HALF, ONE, -HALF)
    path = tmp_path / "rep.json"
    save_rep(rep, path)
    assert load_rep(path) == rep
    raw = json.loads(path.read_text())
    assert set(raw) == {"vectors", "actions"}
    assert set(raw["actions"]) == set(GENERATORS)


def test_schema_rejects_bad_bidegree_shift():
    with pytest.raises(RepFormatError):
        make_rep(
            [("a", 0, 0), ("b", 1, 1)],
            {MUBAR: [("a", "b", ONE)]},  # mubar shifts by (-1, 2), not (1, 1)
        )


def test_schema_rejects_unknown_labels_and_symbols():
    with pytest.raises(RepFormatError):
        make_rep([("a", 0, 0)], {DELBAR: [("a", "ghost", ONE)]})
    with pytest.raises(RepFormatError):
        make_rep([("a", 0, 0)], {"dbar": []})
    with pytest.raises(RepFormatError):
        make_rep([("a", 0, 0), ("a", 1, 1)], {})


def test_schema_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(RepFormatError):
        load_rep(path)
    path.write_text(json.dumps({"vectors": [{"label": "x", "p": 0, "q": "no"}]}))
    with pytest.raises(RepFormatError):
        load_rep(path)
    path.write_text(json.dumps({"vectors": [], "actions": {"mubar": [{"from": "x"}]}}))
    with pytest.raises(RepFormatError):
        load_rep(path)
    path.write_text(
        json.dumps(
            {
                "vectors": [{"label": "x", "p": 0, "q": 0}],
                "actions": {"mubar": [{"from": "x", "to": "x", "coeff": "oops"}]},
            }
        )
    )
    with pytest.raises(RepFormatError):
        load_rep(path)



@pytest.mark.parametrize(
    "data",
    [
        # a label that is a list, not a string, used to leak a TypeError
        {
            "vectors": [{"label": "x", "p": 0, "q": 0}],
            "actions": {"delbar": [{"from": ["x"], "to": "x", "coeff": "1"}]},
        },
        {
            "vectors": [{"label": "x", "p": 0, "q": 0}],
            "actions": {"delbar": [{"from": "x", "to": 7, "coeff": "1"}]},
        },
        # JSON booleans are not bidegrees
        {"vectors": [{"label": "x", "p": True, "q": 0}]},
        {"vectors": [{"label": "x", "p": 0, "q": False}]},
        {
            "vectors": [{"label": "x", "p": 0, "q": 0}],
            "actions": {"delbar": [{"from": "x", "to": "x", "coeff": "1/0"}]},
        },
    ],
)
def test_schema_rejects_wrong_field_types(data, tmp_path, capsys):
    with pytest.raises(RepFormatError):
        rep_from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["rep", "verify", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "RepFormatError"


def test_unreadable_files_are_format_errors(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(bytes(range(256)))  # not UTF-8
    with pytest.raises(RepFormatError):
        load_rep(path)
    path.write_text("[" * 100_000 + "]" * 100_000)  # nested past the recursion limit
    with pytest.raises(RepFormatError):
        load_rep(path)
    with pytest.raises(RepFormatError):
        load_rep(tmp_path)
    with pytest.raises(RepFormatError):
        save_rep(build_example_rep(0, 0, 0), tmp_path)
    assert main(["rep", "example", "--emit", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "RepFormatError"


# -- interplay with the rescaling conjugation ------------------------------------------


def test_phi_conjugation_on_rep():
    rep = build_example_rep(0, 0, 0)
    report = phi_conjugation_check(2, 1, 2, rep=rep)
    assert report.passed


def test_phi_conjugation_on_truncated_regular_rep():
    report = phi_conjugation_check(3, 2, 2, rep=truncated_regular_rep())
    assert report.passed


def reference_action_matrix(rep, sym):
    """action_matrix as it was before it built dict rows directly: a dense
    n x n list of scalars, zero-tested by ExactMatrix.  Kept as the
    reference the direct build must reproduce."""
    n = rep.dim
    rows = [[ZERO] * n for _ in range(n)]
    for i, j, coeff in rep.action_entries(sym):
        rows[i][j] = rows[i][j] + coeff
    return ExactMatrix(rows, ncols=n)


def test_action_matrix_matches_the_reference():
    rng = random.Random(7)
    example = build_example_rep(rand_scalar(rng), rand_scalar(rng), rand_scalar(rng))
    # two arrows on one entry, cancelling, and two adding up
    doubled = make_rep(
        [("a", 0, 0), ("b", 0, 1), ("c", 1, 0)],
        {DELBAR: [("a", "b", ONE), ("a", "b", -ONE)], DEL: [("a", "c", HALF), ("a", "c", HALF)]},
    )
    for rep in (example, direct_sum(example, truncated_regular_rep(), rename=True), doubled, zero_rep()):
        for sym in GENERATORS:
            assert action_matrix(rep, sym) == reference_action_matrix(rep, sym), sym
    assert action_matrix(doubled, DELBAR).is_zero()
    assert action_matrix(doubled, DEL).entry(2, 0) == ONE


def test_action_matrices_are_shared_and_bounded():
    rep = build_example_rep(1, 2, 3)
    assert _action_matrices.cache_info().maxsize is not None
    assert _action_matrices(rep) is _action_matrices(build_example_rep(1, 2, 3))
    assert dict(_action_matrices(rep)) == {sym: action_matrix(rep, sym) for sym in GENERATORS}
