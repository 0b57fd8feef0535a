import ast
import inspect
import itertools
import random
from fractions import Fraction
from heapq import heappop, heappush

import pytest

import acalg.algebra as algebra
from acalg.algebra import (
    APPEND,
    DEL,
    DELBAR,
    GENERATORS,
    HEAD_LETTERS,
    LEFTMOST_STEPS,
    MU,
    MUBAR,
    PASS,
    RELATIONS,
    REWRITE_RULES,
    RIGHTMOST_STEPS,
    TAILPRE,
    TAILS,
    AlgebraElement,
    NormalMonomial,
    basis_A,
    d_element,
    dim_A,
    generator_coefficients,
    generator_element,
    graded_commutator,
    product,
    restrict_to_B,
    rewrite_word,
    row_in_A,
    word_bidegree,
    _MONO_CACHE,
    _head_run,
    _monomial,
)
from acalg.errors import InvalidDegree, NonHomogeneousOperand, NotInSubalgebra
from acalg.scalars import GaussianRational, ONE, Scalar


def gen(sym):
    return generator_element(sym)


def from_word(*letters):
    return AlgebraElement.from_word(letters)


def poincare_series_coefficients(max_k):
    """Expand (1+q)^2 / (1-2q) the pedestrian way: (1+2q+q^2) * sum 2^k q^k."""
    geometric = [2**k for k in range(max_k + 1)]
    numerator = [1, 2, 1]
    out = []
    for k in range(max_k + 1):
        out.append(sum(numerator[j] * geometric[k - j] for j in range(3) if k - j >= 0))
    return out


# -- bidegrees ----------------------------------------------------------------


def test_generator_bidegrees():
    assert word_bidegree((MUBAR,)) == (-1, 2)
    assert word_bidegree((DELBAR,)) == (0, 1)
    assert word_bidegree((DEL,)) == (1, 0)
    assert word_bidegree((MU,)) == (2, -1)


def test_bidegree_of_empty_word():
    assert word_bidegree(()) == (0, 0)


def test_bidegree_sums_letters():
    assert word_bidegree((MUBAR, DEL, MU)) == (2, 1)
    for letters in itertools.product(GENERATORS, repeat=3):
        p, q = word_bidegree(letters)
        assert p + q == 3


# -- rewriting ----------------------------------------------------------------


def test_rewrite_examples():
    assert rewrite_word((MUBAR, DELBAR)) == -from_word(DELBAR, MUBAR)
    assert rewrite_word((MUBAR, MUBAR)).is_zero()
    assert rewrite_word((MU, MUBAR)) == (
        -from_word(MUBAR, MU) - from_word(DELBAR, DEL) - from_word(DEL, DELBAR)
    )
    already_normal = rewrite_word((DELBAR, DEL, MUBAR))
    assert already_normal == from_word(DELBAR, DEL, MUBAR)
    assert len(already_normal) == 1


def test_all_seven_relations_rewrite_to_zero():
    for name, words in RELATIONS:
        total = AlgebraElement.zero()
        for coeff, pair in words:
            total = total + rewrite_word(pair).scale(coeff)
        assert total.is_zero(), name


def test_d_squared_is_zero():
    d = d_element()
    assert product(d, d).is_zero()


def test_confluence_short_words():
    for length in range(0, 7):
        for word in itertools.product(GENERATORS, repeat=length):
            assert rewrite_word(word, "leftmost") == rewrite_word(word, "rightmost")


# The per-branch worklist that rewrite_word replaced, kept verbatim as the
# reference: it follows every rewrite branch on its own and never merges
# equal intermediate words.
Word = tuple[str, ...]
_cached_monomial = NormalMonomial.from_letters


def _is_redex(first: str, second: str) -> bool:
    # reducible pairs are exactly: mu followed by anything, or mubar followed
    # by anything except mu (mubar.mu is the normal two-letter tail)
    if first == MU:
        return True
    return first == MUBAR and second != MU


def reference_rewrite_word(letters, strategy: str = "leftmost") -> "AlgebraElement":
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy: {strategy!r}")
    leftmost = strategy == "leftmost"
    acc: dict[NormalMonomial, int] = {}
    word = tuple(letters)
    # worklist entries carry an integer coefficient and the position from
    # which the redex scan may safely resume (a rewrite at p only creates new
    # redexes within one letter of the replacement)
    start = 0 if leftmost else len(word) - 2
    work: list[tuple[int, Word, int]] = [(1, word, start)]
    while work:
        coeff, word, scan = work.pop()
        pos = -1
        if leftmost:
            last = len(word) - 1
            n = scan
            while n < last:
                if _is_redex(word[n], word[n + 1]):
                    pos = n
                    break
                n += 1
        else:
            n = min(scan, len(word) - 2)
            while n >= 0:
                if _is_redex(word[n], word[n + 1]):
                    pos = n
                    break
                n -= 1
        if pos < 0:
            mono = _cached_monomial(word)
            value = acc.get(mono, 0) + coeff
            if value:
                acc[mono] = value
            else:
                acc.pop(mono, None)
            continue
        prefix, suffix = word[:pos], word[pos + 2 :]
        for c, replacement in REWRITE_RULES[word[pos], word[pos + 1]]:
            branch = prefix + replacement + suffix
            resume = max(pos - 1, 0) if leftmost else pos + len(replacement) - 1
            work.append((coeff * c, branch, resume))
    return AlgebraElement({m: Scalar(c) for m, c in acc.items()})


def test_merged_worklist_matches_per_branch_reference():
    rng = random.Random(4242)
    words = [w for n in range(0, 8) for w in itertools.product(GENERATORS, repeat=n)]
    words += [
        tuple(rng.choice(GENERATORS) for _ in range(rng.randint(9, 10)))
        for _ in range(200)
    ]
    for word in words:
        for strategy in ("leftmost", "rightmost"):
            assert rewrite_word(word, strategy) == reference_rewrite_word(word, strategy), (
                word,
                strategy,
            )


# The merged worklist that the letter fold replaced, kept verbatim as a second
# reference, with the encoding it works on.
_LETTERS = (MU, MUBAR, DELBAR, DEL)
_CODE = {sym: n for n, sym in enumerate(_LETTERS)}
_RULE_TABLE = tuple(
    tuple(
        None
        if (first, second) not in REWRITE_RULES
        else tuple(
            (c, tuple(_CODE[s] for s in replacement))
            for c, replacement in REWRITE_RULES[first, second]
        )
        for second in _LETTERS
    )
    for first in _LETTERS
)


def _encode(letters):
    try:
        return tuple([_CODE[sym] for sym in letters])
    except KeyError as exc:
        raise ValueError(f"unknown letter: {exc.args[0]!r}") from None


def _merged_monomial(word):
    return NormalMonomial.from_letters(_LETTERS[c] for c in word)


def merged_reference_rewrite_word(letters, strategy: str = "leftmost") -> "AlgebraElement":
    """Normal form of a single word, as an element of A.

    The result is independent of ``strategy``; both orders are exposed so the
    confluence of the rule system can be tested rather than assumed.  Each
    step rewrites the leftmost (or rightmost) redex of a word.

    The worklist maps each intermediate word to its integer coefficient, so
    branches that reach the same word add up or cancel and the word is
    expanded once.  That merge is complete because of the order invariant:
    with the letters ordered mu < mubar < delbar < del, every rule replaces
    its redex by strictly larger pairs, so a rewrite step yields a strictly
    larger word of the same length.  Taking the smallest pending word first
    therefore reaches a word only after every word that rewrites to it has
    been expanded.

    Raises ValueError for an unknown strategy or letter.
    """
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy: {strategy!r}")
    word = _encode(letters)
    last = len(word) - 1
    positions = range(last) if strategy == "leftmost" else range(last - 1, -1, -1)
    pending = {word: 1}
    heap = [word]
    acc: dict[NormalMonomial, Scalar] = {}
    while heap:
        word = heappop(heap)
        coeff = pending.pop(word)
        if not coeff:
            continue
        for pos in positions:
            rules = _RULE_TABLE[word[pos]][word[pos + 1]]
            if rules is not None:
                break
        else:
            acc[_merged_monomial(word)] = Scalar(coeff)
            continue
        prefix, suffix = word[:pos], word[pos + 2 :]
        for c, replacement in rules:
            branch = prefix + replacement + suffix
            old = pending.get(branch)
            if old is None:
                pending[branch] = c * coeff
                heappush(heap, branch)
            else:
                pending[branch] = old + c * coeff
    return AlgebraElement(acc)


def test_letter_fold_matches_merged_worklist_reference():
    rng = random.Random(9127)
    words = [w for n in range(0, 8) for w in itertools.product(GENERATORS, repeat=n)]
    assert len(words) == 21845
    words += [
        tuple(rng.choice(GENERATORS) for _ in range(rng.randint(9, 12)))
        for _ in range(300)
    ]
    for word in words:
        for strategy in ("leftmost", "rightmost"):
            assert rewrite_word(word, strategy) == merged_reference_rewrite_word(
                word, strategy
            ), (word, strategy)


def test_rules_replace_each_redex_by_later_words():
    # the invariant the merged worklist reference relies on: in its encoded
    # letter order every replacement is strictly later than its redex
    for redex, replacements in REWRITE_RULES.items():
        for _, replacement in replacements:
            assert _encode(replacement) > _encode(redex), (redex, replacement)


def _one_step(word, pos):
    """The combination one rule step at ``pos`` turns ``word`` into, reduced."""
    out = AlgebraElement.zero()
    for coeff, replacement in REWRITE_RULES[word[pos], word[pos + 1]]:
        out = out + rewrite_word(word[:pos] + replacement + word[pos + 2 :]).scale(coeff)
    return out


def test_critical_pairs_resolve():
    """Bergman's diamond lemma certificate for the rule system.

    Every left side has length 2, so the only ambiguities are the overlaps
    xyz with xy and yz both redexes; rewriting either one and reducing must
    give the same normal form.  Together with termination (the decreasing
    measure tested below) this proves confluence for words of any length.
    """
    overlaps = [
        word
        for word in itertools.product(GENERATORS, repeat=3)
        if word[:2] in REWRITE_RULES and word[1:] in REWRITE_RULES
    ]
    assert len(overlaps) == 10
    for word in overlaps:
        assert _one_step(word, 0) == _one_step(word, 1), word


# -- the premises of the letter fold ---------------------------------------------


def _from_packed(pairs):
    """An element from (coeff, packed monomial) pairs."""
    return AlgebraElement.from_terms((_monomial(packed), c) for c, packed in pairs)


def test_rewrite_rules_are_the_relations_solved():
    # each relation solved by hand for its redex, in the relations' order
    assert list(REWRITE_RULES.items()) == [
        ((MUBAR, MUBAR), ()),
        ((MU, MU), ()),
        ((MUBAR, DELBAR), ((-1, (DELBAR, MUBAR)),)),
        ((MU, DEL), ((-1, (DEL, MU)),)),
        ((MUBAR, DEL), ((-1, (DEL, MUBAR)), (-1, (DELBAR, DELBAR)))),
        ((MU, DELBAR), ((-1, (DELBAR, MU)), (-1, (DEL, DEL)))),
        ((MU, MUBAR), ((-1, (MUBAR, MU)), (-1, (DELBAR, DEL)), (-1, (DEL, DELBAR)))),
    ]


def test_no_rule_starts_with_a_head_letter():
    # so a head never takes part in a rewrite
    assert not [redex for redex in REWRITE_RULES if redex[0] in HEAD_LETTERS]


def test_mubar_and_mu_pass_a_head_letter_with_head_word_endings():
    for y in (MUBAR, MU):
        for h in HEAD_LETTERS:
            terms = REWRITE_RULES[y, h]
            assert (-1, (h, y)) in terms, (y, h)
            for term in terms:
                is_pass = term == (-1, (h, y))
                is_ending = len(term[1]) == 2 and all(s in HEAD_LETTERS for s in term[1])
                assert is_pass or is_ending, (y, h, term)


def test_fold_tables_equal_reference_rewrites():
    # an entry (c, shift, add) maps the monomial 1.tail to (1 << shift) | add
    for x in GENERATORS:
        for n, tail in enumerate(TAILS):
            entries = APPEND[algebra._CODE[x]][n]
            got = _from_packed((c, 1 << shift | add) for c, shift, add in entries)
            assert got == reference_rewrite_word(tail + (x,)), (tail, x)
    for y in (MUBAR, MU):
        for n, tail in enumerate(TAILS):
            entries = TAILPRE[algebra._CODE[y]][n]
            got = _from_packed((c, 1 << shift | add) for c, shift, add in entries)
            assert got == reference_rewrite_word((y,) + tail), (y, tail)
        for b, h in enumerate(HEAD_LETTERS):
            endings = PASS[algebra._CODE[y]][b]
            got = _from_packed(
                (c, (1 << length | pair) << 2) for c, length, pair in endings
            ) - from_word(h, y)
            assert got == reference_rewrite_word((y, h)), (y, h)


def test_leftmost_starts_after_the_leading_head_run():
    # the run has no redex, and the normal form of run.rest is run times
    # the normal form of rest, so leftmost's fold starts after the run
    for length in range(0, 6):
        for word in itertools.product(GENERATORS, repeat=length):
            head = _head_run([algebra._CODE[s] for s in word])
            run = head.bit_length() - 1
            assert all(s in HEAD_LETTERS for s in word[:run]), word
            assert run == length or word[run] not in HEAD_LETTERS, word
            assert _monomial(head << 2) == NormalMonomial(word[:run]), word
            rest = reference_rewrite_word(word[run:])
            assert reference_rewrite_word(word) == from_word(*word[:run]) * rest, word


def test_step_tables_equal_reference_rewrites():
    # every monomial of degree <= 6 times every letter, on either side
    for x in GENERATORS:
        left, right = LEFTMOST_STEPS[algebra._CODE[x]], RIGHTMOST_STEPS[algebra._CODE[x]]
        for mono in (mono for k in range(7) for mono in basis_A(k)):
            got = _from_packed(left[mono.packed])
            assert got == reference_rewrite_word(mono.letters + (x,)), (mono, x)
            got = _from_packed(right[mono.packed])
            assert got == reference_rewrite_word((x,) + mono.letters), (x, mono)


def _reads(function, seen=None):
    """The module-level names ``function`` reads, with those of the algebra
    functions it calls, transitively."""
    seen = set() if seen is None else seen
    for node in ast.walk(ast.parse(inspect.getsource(function))):
        if isinstance(node, ast.Name) and node.id not in seen:
            seen.add(node.id)
            called = getattr(algebra, node.id, None)
            if inspect.isfunction(called) and called.__module__ == algebra.__name__:
                _reads(called, seen)
    return seen


def test_the_two_strategies_read_disjoint_tables():
    # else the confluence check would compare one computation with itself;
    # rightmost reads PASS only through _passes, so the reads follow calls
    left = {table.build for table in LEFTMOST_STEPS}
    right = {table.build for table in RIGHTMOST_STEPS}
    assert len(left) == len(right) == 1 and left != right
    left_reads, right_reads = _reads(left.pop()), _reads(right.pop())
    assert "APPEND" in left_reads and not {"PASS", "TAILPRE"} & left_reads
    assert {"PASS", "TAILPRE"} <= right_reads and "APPEND" not in right_reads


@pytest.mark.parametrize(
    "word",
    [
        ("foo",),
        ("foo", MU, DEL),
        (MU, "foo", DEL),
        (MU, DEL, "foo"),
        (MU, "foo"),
        # the fold's state is 0 before (leftmost) or after (rightmost) "foo"
        (MUBAR, MUBAR, "foo"),
        ("foo", MU, MU),
    ],
)
def test_rewrite_rejects_unknown_letters(word):
    for strategy in ("leftmost", "rightmost"):
        with pytest.raises(ValueError, match="unknown letter"):
            rewrite_word(word, strategy)


def test_rewrite_reads_any_iterable_of_letters():
    word = (MU, DEL, MUBAR, DELBAR, MU)
    for strategy in ("leftmost", "rightmost"):
        assert rewrite_word(iter(word), strategy) == rewrite_word(word, strategy)
        assert rewrite_word((s for s in word), strategy) == rewrite_word(word, strategy)


def test_rewrite_rejects_unknown_strategy():
    with pytest.raises(ValueError, match="unknown strategy"):
        rewrite_word((MU, MUBAR), "outermost")


def test_rewrite_result_is_normal():
    rng = random.Random(31)
    for _ in range(300):
        word = tuple(rng.choice(GENERATORS) for _ in range(rng.randint(0, 7)))
        for mono in rewrite_word(word).monomials():
            assert all(s in (DELBAR, DEL) for s in mono.head)
            assert mono.tail in ((), (MUBAR,), (MU,), (MUBAR, MU))


def _measure(word):
    mu_type = [n for n, s in enumerate(word) if s in (MUBAR, MU)]
    right_del = sum(
        sum(1 for s in word[n + 1 :] if s in (DELBAR, DEL)) for n in mu_type
    )
    inversions = sum(
        1
        for a, b in itertools.combinations(range(len(word)), 2)
        if word[a] == MU and word[b] == MUBAR
    )
    return (len(mu_type), right_del, inversions)


def test_each_rule_application_decreases_measure():
    rng = random.Random(97)
    for _ in range(500):
        word = tuple(rng.choice(GENERATORS) for _ in range(rng.randint(2, 8)))
        redexes = [
            n for n in range(len(word) - 1) if (word[n], word[n + 1]) in REWRITE_RULES
        ]
        for n in redexes:
            before = _measure(word)
            for _, replacement in REWRITE_RULES[word[n], word[n + 1]]:
                after = _measure(word[:n] + replacement + word[n + 2 :])
                assert after < before, (word, n, replacement)


# -- product ------------------------------------------------------------------


def test_unit_and_simple_products():
    one = AlgebraElement.one()
    x = from_word(DEL, MUBAR)
    assert product(one, x) == x
    assert product(x, one) == x
    assert product(gen(DELBAR), gen(DELBAR)) == from_word(DELBAR, DELBAR)
    assert product(gen(MU), gen(MUBAR)) == rewrite_word((MU, MUBAR))


def test_associativity_on_monomials():
    rng = random.Random(13)
    monos = [m for k in range(0, 4) for m in basis_A(k)]
    for _ in range(60):
        a, b, c = (AlgebraElement({rng.choice(monos): ONE}) for _ in range(3))
        assert product(product(a, b), c) == product(a, product(b, c))


def test_bilinearity():
    rng = random.Random(14)
    monos = [m for k in range(0, 3) for m in basis_A(k)]
    for _ in range(40):
        a, b, c = (AlgebraElement({rng.choice(monos): ONE}) for _ in range(3))
        assert product(a + b, c) == product(a, c) + product(b, c)
        assert product(c, a + b) == product(c, a) + product(c, b)


# -- graded commutator ----------------------------------------------------------


def test_commutator_examples():
    assert graded_commutator(gen(MUBAR), gen(MUBAR)).is_zero()
    assert graded_commutator(gen(DELBAR), gen(DEL)) == (
        from_word(DELBAR, DEL) + from_word(DEL, DELBAR)
    )
    assert graded_commutator(gen(MUBAR), gen(MU)) == (
        -from_word(DELBAR, DEL) - from_word(DEL, DELBAR)
    )


def test_commutator_requires_homogeneous():
    mixed = gen(MUBAR) + from_word(DEL, DEL)
    with pytest.raises(NonHomogeneousOperand):
        graded_commutator(mixed, gen(DEL))
    with pytest.raises(NonHomogeneousOperand):
        graded_commutator(gen(DEL), mixed)


def test_a_commutator_of_an_element_with_itself_takes_one_product(monkeypatch):
    rng = random.Random(4242)
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return product(a, b)

    monkeypatch.setattr(algebra, "product", counted)
    for degree in (1, 2, 3):
        for _ in range(6):
            a = _random_homogeneous(rng, degree)
            sign = (-1) ** (degree * degree)
            want = product(a, a) - product(a, a).scale(sign)
            calls.clear()
            assert graded_commutator(a, a) == want, (degree, a)
            assert calls == ([(a, a)] if degree % 2 and not a.is_zero() else [])
    mixed = gen(MUBAR) + from_word(DEL, DEL)
    with pytest.raises(NonHomogeneousOperand):
        graded_commutator(mixed, mixed)


def _random_homogeneous(rng, degree):
    out = AlgebraElement.zero()
    for mono in basis_A(degree):
        if rng.random() < 0.4:
            out = out + AlgebraElement(
                {mono: GaussianRational(rng.randint(-3, 3), rng.randint(-2, 2))}
            )
    return out


def test_graded_antisymmetry_and_jacobi():
    rng = random.Random(2024)
    for _ in range(25):
        da, db, dc = (rng.randint(1, 2) for _ in range(3))
        a = _random_homogeneous(rng, da)
        b = _random_homogeneous(rng, db)
        c = _random_homogeneous(rng, dc)
        sign = (-1) ** (da * db)
        assert (graded_commutator(a, b) + graded_commutator(b, a).scale(sign)).is_zero()
        jacobi = (
            graded_commutator(a, graded_commutator(b, c)).scale((-1) ** (da * dc))
            + graded_commutator(b, graded_commutator(c, a)).scale((-1) ** (db * da))
            + graded_commutator(c, graded_commutator(a, b)).scale((-1) ** (dc * db))
        )
        assert jacobi.is_zero()


# -- basis enumeration -----------------------------------------------------------


def test_basis_A_k0_and_k2():
    assert [str(m) for m in basis_A(0)] == ["1"]
    assert [str(m) for m in basis_A(2)] == [
        "delbar.delbar",
        "delbar.del",
        "del.delbar",
        "del.del",
        "delbar.mubar",
        "del.mubar",
        "delbar.mu",
        "del.mu",
        "mubar.mu",
    ]


def test_basis_A_counts():
    assert dim_A(1) == 4
    assert dim_A(5) == 72
    for k in range(2, 13):
        assert dim_A(k) == 9 * 2 ** (k - 2)


def test_dims_match_series_through_12():
    series = poincare_series_coefficients(12)
    assert [dim_A(k) for k in range(13)] == series
    assert series == [1, 4, 9, 18, 36, 72, 144, 288, 576, 1152, 2304, 4608, 9216]


def test_dim_A_closed_form_counts_the_basis():
    assert [dim_A(k) for k in range(13)] == [len(basis_A(k)) for k in range(13)]


def test_basis_caches_are_bounded():
    assert basis_A.cache_info().maxsize is not None


def test_generator_coefficients_read_a_degree_one_element():
    value = gen(MUBAR).scale(2) + gen(DEL).scale(Fraction(-1, 3))
    G = GaussianRational
    assert generator_coefficients(value) == [G(2), G(0), G(Fraction(-1, 3)), G(0)]
    assert generator_coefficients(AlgebraElement.zero()) == [G(0)] * 4
    # the four generator monomials are all of degree 1
    assert sorted(map(str, basis_A(1))) == sorted(GENERATORS)


def test_basis_A_rejects_negative_degree():
    with pytest.raises(InvalidDegree):
        basis_A(-1)
    with pytest.raises(InvalidDegree):
        dim_A(-1)


def test_normal_monomial_validation():
    with pytest.raises(ValueError):
        NormalMonomial((MUBAR,), ())
    with pytest.raises(ValueError):
        NormalMonomial((), (MU, MUBAR))
    mono = NormalMonomial.from_letters((DELBAR, DEL, MUBAR, MU))
    assert mono.head == (DELBAR, DEL)
    assert mono.tail == (MUBAR, MU)


# -- positions read off the code ----------------------------------------------------


def _code(head, tail):
    """The code of head.tail as NormalMonomial defines it, spelled out."""
    digits = "".join("0" if sym == DELBAR else "1" for sym in head)
    return int("1" + digits, 2) << 2 | TAILS.index(tail)


def test_codes_from_letters_and_from_the_code_agree():
    _MONO_CACHE.clear()
    for k in range(9):
        for mono in basis_A(k):
            decoded = _monomial(mono.packed)
            assert decoded is not mono
            assert mono.packed == decoded.packed == _code(mono.head, mono.tail)
            assert (decoded.head, decoded.tail) == (mono.head, mono.tail)
            assert decoded == mono and hash(decoded) == hash(mono)


@pytest.mark.parametrize("k", range(11))
def test_row_in_A_of_a_basis_monomial_is_its_position(k):
    for n, mono in enumerate(basis_A(k)):
        assert row_in_A(AlgebraElement({mono: ONE}), k) == {n: ONE}


@pytest.mark.parametrize("k", range(11))
def test_the_codes_order_basis_A(k):
    basis = basis_A(k)
    shuffled = list(basis)
    random.Random(k).shuffle(shuffled)
    assert tuple(sorted(shuffled, key=NormalMonomial.sort_key)) == basis
    assert tuple(sorted(shuffled)) == basis


def test_row_in_A_rejects_the_first_term_of_another_degree():
    for k in range(6):
        for j in range(6):
            if j == k:
                continue
            for mono in basis_A(j):
                with pytest.raises(KeyError) as info:
                    row_in_A(AlgebraElement({mono: ONE}), k)
                assert info.value.args[0] is mono
    good, first, second = basis_A(3)[5], basis_A(2)[7], basis_A(4)[0]
    with pytest.raises(KeyError) as info:
        row_in_A(AlgebraElement({good: ONE, first: ONE, second: ONE}), 3)
    assert info.value.args[0] is first
    with pytest.raises(InvalidDegree):
        row_in_A(AlgebraElement.one(), -1)


# -- the word subalgebra ---------------------------------------------------------


def test_restrict_to_B():
    good = graded_commutator(gen(DELBAR), gen(DEL))
    assert restrict_to_B(good) == good
    with pytest.raises(NotInSubalgebra) as info:
        restrict_to_B(gen(MUBAR))
    assert [str(m) for m in info.value.offending] == ["mubar"]


def test_adjoint_action_preserves_B():
    for length in range(0, 7):
        for word in itertools.product((DELBAR, DEL), repeat=length):
            b = from_word(*word)
            for sym in (MUBAR, MU):
                restrict_to_B(graded_commutator(gen(sym), b))


# -- element text -----------------------------------------------------------------


def test_element_rendering():
    assert str(AlgebraElement.zero()) == "0"
    assert str(AlgebraElement.one()) == "1"
    assert str(rewrite_word((MUBAR, DEL))) == "-1*delbar.delbar - 1*del.mubar"
    half = AlgebraElement.one().scale(GaussianRational(Fraction(1, 2)))
    assert str(half) == "1/2"
    mixed = gen(DEL).scale(GaussianRational(3, Fraction(1, 2)))
    assert str(mixed) == "(3+1/2*i)*del"


def test_conjugation_is_involutive_automorphism():
    rng = random.Random(77)
    for _ in range(30):
        a = _random_homogeneous(rng, rng.randint(1, 3))
        b = _random_homogeneous(rng, rng.randint(1, 3))
        assert a.conjugate().conjugate() == a
        assert product(a, b).conjugate() == product(a.conjugate(), b.conjugate())
    assert d_element().conjugate() == d_element()
