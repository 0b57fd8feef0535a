"""The bigraded operator algebra A and its canonical normal form.

A is generated by the four odd operators

    mubar  (-1, 2)      delbar  (0, 1)      del  (1, 0)      mu  (2, -1)

subject to the seven quadratic relations obtained by expanding the graded
commutators

    [mubar,mubar] = 0                [mu,mu] = 0
    [mubar,delbar] = 0               [mu,del] = 0
    [mubar,del] + 1/2*[delbar,delbar] = 0
    [mu,delbar] + 1/2*[del,del] = 0
    [mubar,mu] + [delbar,del] = 0

with [x,y] = xy + yx for odd x, y.  Solving each relation for its
left-to-right latest word yields a terminating, confluent rewriting system
that pushes mubar/mu to the right of delbar/del.  The resulting normal
monomials have the shape

    (word in delbar, del) . tail          tail in {1, mubar, mu, mubar.mu}

and every element of A is a unique Q(i)-combination of such monomials.

An element keeps its terms as a row keyed by monomial, so every sum of
elements, and the product, which sums the normal forms of the concatenated
words, goes through the one sparse sum ``linalg.combine``.  Only the
integer fold inside ``rewrite_word``, over per-letter step tables built on
first use, keeps its own loop.

The word subalgebra B is indexed here too, on the same codes: ``words``
and ``word_columns`` give B's basis and all four generators' ad maps on it,
which the carriers of ``cohomology`` read; no other module reads a code.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Mapping

from .errors import InvalidDegree, NonHomogeneousOperand, NotInSubalgebra
from .linalg import combine
from .scalars import ONE, ZERO, Scalar, as_scalar, _frac_text

MUBAR = "mubar"
DELBAR = "delbar"
DEL = "del"
MU = "mu"

#: generator order used for degree-1 coordinates (x, y, z, w)
GENERATORS = (MUBAR, DELBAR, DEL, MU)

#: letters allowed in the head of a normal monomial
HEAD_LETTERS = (DELBAR, DEL)

#: admissible tails of a normal monomial, in their canonical order
TAILS = ((), (MUBAR,), (MU,), (MUBAR, MU))

BIDEGREE = {MUBAR: (-1, 2), DELBAR: (0, 1), DEL: (1, 0), MU: (2, -1)}

# The seven defining relations, written out as word combinations that must
# vanish in A.  Kept as data so the representation verifier can evaluate the
# same relations as operators on a bigraded vector space.
RELATIONS: tuple[tuple[str, tuple[tuple[int, tuple[str, str]], ...]], ...] = (
    ("[mubar,mubar]", ((2, (MUBAR, MUBAR)),)),
    ("[mu,mu]", ((2, (MU, MU)),)),
    ("[mubar,delbar]", ((1, (MUBAR, DELBAR)), (1, (DELBAR, MUBAR)))),
    ("[mu,del]", ((1, (MU, DEL)), (1, (DEL, MU)))),
    (
        "[mubar,del]+1/2*[delbar,delbar]",
        ((1, (MUBAR, DEL)), (1, (DEL, MUBAR)), (1, (DELBAR, DELBAR))),
    ),
    (
        "[mu,delbar]+1/2*[del,del]",
        ((1, (MU, DELBAR)), (1, (DELBAR, MU)), (1, (DEL, DEL))),
    ),
    (
        "[mubar,mu]+[delbar,del]",
        (
            (1, (MUBAR, MU)),
            (1, (MU, MUBAR)),
            (1, (DELBAR, DEL)),
            (1, (DEL, DELBAR)),
        ),
    ),
)


def _solved(terms):
    """A relation solved for its redex, its one word that is not normal (a
    normal word starts with delbar or del, or is a tail): the other terms
    negated.  A redex has coefficient 1, or 2 and stands alone."""
    (redex,) = (w for _, w in terms if not (w[0] in HEAD_LETTERS or w in TAILS))
    return redex, tuple((-c, w) for c, w in terms if w != redex)


# A word is in normal form exactly when none of these patterns occurs.
REWRITE_RULES: dict[tuple[str, str], tuple[tuple[int, tuple[str, ...]], ...]] = dict(
    _solved(terms) for _, terms in RELATIONS
)

Word = tuple[str, ...]


def word_bidegree(letters: Iterable[str]) -> tuple[int, int]:
    """Componentwise sum of the letter bidegrees; () has bidegree (0, 0)."""
    p = q = 0
    for sym in letters:
        dp, dq = BIDEGREE[sym]
        p += dp
        q += dq
    return p, q


_TAIL_INDEX = {t: n for n, t in enumerate(TAILS)}
_HEAD_INDEX = {DELBAR: 0, DEL: 1}
_HEAD_LETTER = {"0": DELBAR, "1": DEL}


class NormalMonomial:
    """A normal-form monomial: head word over {delbar, del} times a tail.

    Its one code is ``packed``: the head read as a binary number n (delbar
    0, del 1) behind a leading 1 that marks its length, then the tail's
    index into TAILS in two bits, (1 << len(head) | n) << 2 | tail index.
    Equality, hashing and order read the code, and so do the positions: the
    monomial is element start + n of ``basis_A(k)``, with start 0, 2^k,
    2^k + 2^(k-1) or 2^(k+1) for the tails 1, mubar, mu, mubar.mu
    (``row_in_A``).
    """

    __slots__ = ("head", "tail", "packed")

    def __init__(self, head: Word = (), tail: Word = ()):
        head = tuple(head)
        tail = tuple(tail)
        code = 1
        try:
            for sym in head:
                code = code << 1 | _HEAD_INDEX[sym]
        except KeyError:
            raise ValueError(f"head letters must be delbar/del: {head}") from None
        if tail not in _TAIL_INDEX:
            raise ValueError(f"tail must be one of (), (mubar,), (mu,), (mubar, mu): {tail}")
        self.head = head
        self.tail = tail
        self.packed = code << 2 | _TAIL_INDEX[tail]

    @classmethod
    def from_letters(cls, letters: Iterable[str]) -> "NormalMonomial":
        letters = tuple(letters)
        cut = len(letters)
        for n, sym in enumerate(letters):
            if sym in (MUBAR, MU):
                cut = n
                break
        return cls(letters[:cut], letters[cut:])

    @property
    def letters(self) -> Word:
        return self.head + self.tail

    @property
    def degree(self) -> int:
        return len(self.head) + len(self.tail)

    @property
    def bidegree(self) -> tuple[int, int]:
        return word_bidegree(self.letters)

    def sort_key(self) -> tuple:
        """Tail-major order: degree, then tail, then head lex (delbar < del),
        which within one degree and tail is the order of the codes."""
        return (self.degree, self.packed & 3, self.packed)

    def __eq__(self, other) -> bool:
        return isinstance(other, NormalMonomial) and self.packed == other.packed

    def __hash__(self) -> int:
        return self.packed

    def __lt__(self, other: "NormalMonomial") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        return ".".join(self.letters) if self.letters else "1"

    def __repr__(self) -> str:
        return f"NormalMonomial({self})"


UNIT_MONOMIAL = NormalMonomial()

# -- the rewrite engine ---------------------------------------------------------
#
# rewrite_word works on packed data.  A letter is its code: delbar 0, del 1,
# mubar 2, mu 3, so the head letters are the codes below 2 and each is its
# bit in a packed head.  A normal monomial is its code (see NormalMonomial):
# the int head << 2 | tail index, where head reads the head word as a binary
# number behind a leading 1 that marks its length.

_CODE = {sym: n for n, sym in enumerate(HEAD_LETTERS + (MUBAR, MU))}


def _reduce(word: Word) -> dict[Word, int]:
    """Normal form of a short word, by rewriting its leftmost redex and
    recursing into every branch; only used to derive the tables below."""
    for pos in range(len(word) - 1):
        rules = REWRITE_RULES.get(word[pos : pos + 2])
        if rules is not None:
            return combine((c, _reduce(word[:pos] + w + word[pos + 2 :])) for c, w in rules)
    return {word: 1}


def _extensions(word: Word) -> tuple[tuple[int, int, int], ...]:
    """The normal form of ``word`` as (coeff, shift, add) triples: a monomial
    whose tail ``word`` starts with becomes  (mono >> 2 << shift) | add."""
    out = []
    for w, c in _reduce(word).items():
        packed = NormalMonomial.from_letters(w).packed
        shift = packed.bit_length() - 1  # the position of the leading 1
        out.append((c, shift, packed - (1 << shift)))
    return tuple(out)


def _endings(y: str, h: str) -> tuple[tuple[int, int, int], ...]:
    """The terms of the rule y.h -> -h.y + ... other than -h.y, which must
    all be head words, as (coeff, length, bits)."""
    terms = REWRITE_RULES[y, h]
    assert (-1, (h, y)) in terms, (y, h)
    out = []
    for c, w in terms:
        if w != (h, y):
            head = NormalMonomial(w).packed >> 2
            out.append((c, len(w), head - (1 << len(w))))
    return tuple(out)


# No left side of a rule starts with a head letter, so a head never takes
# part in a rewrite and the normal form of head.w is head.(normal form of w).
assert not any(first in HEAD_LETTERS for first, _ in REWRITE_RULES)

#: APPEND[x][tail index]: tail.x in normal form, as _extensions triples,
#: indexed by the code x of each letter
APPEND = tuple(tuple(_extensions(tail + (x,)) for tail in TAILS) for x in _CODE)
#: TAILPRE[y][tail index]: y.tail in normal form, for y = mubar, mu
TAILPRE = {_CODE[y]: tuple(_extensions((y,) + tail) for tail in TAILS) for y in (MUBAR, MU)}
#: PASS[y][h]: the ending branches y.h leaves when y passes the head letter
#: h (0 delbar, 1 del), as _endings triples
PASS = {_CODE[y]: tuple(_endings(y, h) for h in HEAD_LETTERS) for y in (MUBAR, MU)}

_MONO_CACHE_SIZE = 1 << 16
_MONO_CACHE: dict[int, NormalMonomial] = {}


def _monomial(packed: int) -> NormalMonomial:
    """The normal monomial with code ``packed``, which it keeps."""
    mono = _MONO_CACHE.get(packed)
    if mono is None:
        if len(_MONO_CACHE) >= _MONO_CACHE_SIZE:
            _MONO_CACHE.clear()
        mono = _MONO_CACHE[packed] = object.__new__(NormalMonomial)
        mono.head = tuple(map(_HEAD_LETTER.__getitem__, bin(packed >> 2)[3:]))
        mono.tail = TAILS[packed & 3]
        mono.packed = packed
    return mono


def _passes(y: int, head: int) -> tuple[tuple[int, int], ...]:
    """The ending branches y leaves as it passes the packed head ``head``,
    as (coeff, packed monomial with tail index 0): y.head is
    (-1)^len(head) head.y plus these."""
    out = []
    sign = 1
    # bit j of head is the head letter with j letters to its right
    for j in range(head.bit_length() - 2, -1, -1):
        for c, length, bits in PASS[y][head >> j & 1]:
            ended = (head >> j + 1 << length | bits) << j | head & (1 << j) - 1
            out.append((sign * c, ended << 2))
        sign = -sign
    return tuple(out)


def _appended(x: int, mono: int) -> tuple[tuple[int, int], ...]:
    """Leftmost's step, mono.x as (coeff, packed) pairs: head times the
    normal form of tail.x (APPEND)."""
    head = mono >> 2
    return tuple((c, head << shift | add) for c, shift, add in APPEND[x][mono & 3])


def _prepended(x: int, mono: int) -> tuple[tuple[int, int], ...]:
    """Rightmost's step, x.mono as (coeff, packed) pairs: a head letter is
    prepended; mubar or mu passes the head, flipping the sign at each letter
    and leaving the ending branches of ``_passes``, then meets the tail
    (TAILPRE)."""
    top = mono.bit_length() - 1  # the leading 1, len(head) + 2 bits up
    if x < 2:
        return ((1, mono + (1 + x << top)),)
    head, tail = mono >> 2, mono & 3
    sign = -1 if top % 2 else 1
    passed = tuple((c, ended | tail) for c, ended in _passes(x, head))
    return passed + tuple((sign * c, head << shift | add) for c, shift, add in TAILPRE[x][tail])


def _head_run(codes: list[int]) -> int:
    """The packed head of a word's leading run of delbar and del, which has
    head.bit_length() - 1 letters."""
    head = 1
    for x in codes:
        if x > 1:
            break
        head = head << 1 | x
    return head


_STEPS_SIZE = 1 << 12


class _Steps(dict):
    """One strategy's steps for one letter, keyed by monomial code: each is
    built by ``build(letter, mono)`` on first use, and all are cleared once
    ``_STEPS_SIZE`` are held."""

    __slots__ = ("build", "letter")

    def __init__(self, build, letter: int):
        self.build, self.letter = build, letter

    def __missing__(self, mono: int) -> tuple[tuple[int, int], ...]:
        if len(self) >= _STEPS_SIZE:
            self.clear()
        self[mono] = out = self.build(self.letter, mono)
        return out


#: each strategy's steps, indexed by letter code.  They read disjoint
#: tables, so the two strategies stay independent computations.
LEFTMOST_STEPS = tuple(_Steps(_appended, x) for x in range(4))
RIGHTMOST_STEPS = tuple(_Steps(_prepended, x) for x in range(4))


# B_k has 2^k words: far fewer than 32 degrees can ever be built
@lru_cache(maxsize=32)
def words(k: int) -> tuple[AlgebraElement, ...]:
    """The basis of B_k, listed as ``itertools.product((delbar, del), repeat=k)``.

    So word n is n in k binary digits, delbar 0 and del 1, first letter most
    significant; its code is the head 1 << k | n with tail index 0, and its
    position in B_k and in A_k is n.  This is the one statement of B's
    splitting: delbar*b_n is word n of B_{k+1} and del*b_n is word 2^k + n.
    """
    heads = range(1 << k, 2 << k)  # word n's head is 1 << k | n
    return tuple(AlgebraElement._of_nonzero({_monomial(head << 2): ONE}) for head in heads)


def word_columns(sym: str, k: int) -> list[dict[int, Scalar]]:
    """The rows of [g, b_n] in B_{k+1} for each word n of B_k, g the generator
    named ``sym``: integer arithmetic on the word index, with no product.

    delbar and del: [g, b_n] = g*b_n - (-1)^k b_n*g, where g*b_n is word n
    (delbar) or 2^k + n (del) of B_{k+1} and b_n*g is word 2n or 2n + 1;
    the two coincide once, at n = 0 (delbar) or n = 2^k - 1 (del).
    mubar and mu: g*b_n = (-1)^k b_n*g plus the ending branches g leaves as
    it passes b_n's letters, read off ``_passes`` directly, so B's 2^k
    heads never fill the rewrite steps.
    """
    size = 1 << k
    if sym in (MUBAR, MU):
        y, top = _CODE[sym], size << 1
        return [
            {(packed >> 2) - top: _INT_SCALARS[c] for c, packed in _passes(y, size | n)}
            for n in range(size)
        ]
    left, right = (0, 0) if sym == DELBAR else (size, 1)
    sign = ONE if k % 2 else -ONE  # -(-1)^k
    return [combine(((ONE, {left + n: ONE}), (ONE, {2 * n + right: sign}))) for n in range(size)]


#: shared scalars for the small integer coefficients of normal forms; 1 is
#: the shared ONE, which ``combine`` adds without multiplying
_INT_SCALARS = {n: ONE if n == 1 else Scalar(n) for n in range(-16, 17) if n}


def _element(state: dict[int, int]) -> "AlgebraElement":
    return AlgebraElement._of_nonzero({
        _MONO_CACHE.get(packed) or _monomial(packed):
            _INT_SCALARS[coeff] if coeff in _INT_SCALARS else Scalar(coeff)
        for packed, coeff in state.items()
        if coeff
    })


def rewrite_word(letters: Iterable[str], strategy: str = "leftmost") -> "AlgebraElement":
    """Normal form of a single word, as an element of A.

    The result is independent of ``strategy``; both orders are exposed so the
    confluence of the rule system can be tested rather than assumed.

    Each is one fold over the letters that keeps the normal form of what it
    has read, a dict from monomial code to integer coefficient, and for each
    letter x replaces each monomial m by its step, read from that strategy's
    table for x (``_Steps``):

    * leftmost appends, m.x.  No rule starts with delbar or del, so the
      word's leading run of them is normal and the fold starts after it.
    * rightmost prepends, x.m, reading the word backwards from 1.

    Raises ValueError for an unknown strategy or letter.
    """
    if strategy == "leftmost":
        tables = LEFTMOST_STEPS
    elif strategy == "rightmost":
        tables = RIGHTMOST_STEPS
    else:
        raise ValueError(f"unknown strategy: {strategy!r}")
    try:  # a list: freed tuples would pile up in CPython's per-length free lists
        codes = list(map(_CODE.__getitem__, letters))
    except KeyError as exc:
        raise ValueError(f"unknown letter: {exc.args[0]!r}") from None
    if tables is LEFTMOST_STEPS:
        head = _head_run(codes)
        state = {head << 2: 1}
        codes = codes[head.bit_length() - 1 :]
    else:
        state = {UNIT_MONOMIAL.packed: 1}
        codes = reversed(codes)
    for x in codes:
        steps = tables[x]
        folded: dict[int, int] = {}
        for mono, coeff in state.items():
            if not coeff:  # cancelled: its branches would all be 0
                continue
            for c, packed in steps[mono]:
                folded[packed] = folded.get(packed, 0) + c * coeff
        state = folded
    return _element(state)


@lru_cache(maxsize=1 << 17)
def _rewrite_cached(letters: Word) -> "AlgebraElement":
    return rewrite_word(letters)


class AlgebraElement:
    """A finite Q(i)-combination of normal monomials.

    Instances are immutable; all arithmetic returns fresh elements, so they
    are safe to share, hash and cache.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[NormalMonomial, Scalar] | None = None):
        data: dict[NormalMonomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = as_scalar(coeff)
                if coeff:
                    data[mono] = coeff
        self._terms = data
        self._hash = None

    @classmethod
    def _of_nonzero(cls, terms: dict[NormalMonomial, Scalar]) -> "AlgebraElement":
        """An element over ``terms`` as given: every coefficient must be a
        nonzero Scalar."""
        out = object.__new__(cls)
        out._terms = terms
        out._hash = None
        return out

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "AlgebraElement":
        return _ZERO_ELEMENT

    @classmethod
    def one(cls) -> "AlgebraElement":
        return _ONE_ELEMENT

    @classmethod
    def from_word(cls, letters: Iterable[str], coeff=ONE) -> "AlgebraElement":
        return _rewrite_cached(tuple(letters)) * as_scalar(coeff)

    @classmethod
    def from_terms(cls, pairs: Iterable[tuple[NormalMonomial, Scalar]]) -> "AlgebraElement":
        # each coefficient goes in as its row's, so combine skips a zero one
        return cls._of_nonzero(combine((as_scalar(c), {mono: ONE}) for mono, c in pairs))

    # -- inspection -----------------------------------------------------------

    def terms(self) -> tuple[tuple[NormalMonomial, Scalar], ...]:
        """The terms in the canonical monomial order."""
        return tuple(sorted(self._terms.items(), key=lambda kv: kv[0].sort_key()))

    def coefficient(self, mono: NormalMonomial) -> Scalar:
        return self._terms.get(mono, ZERO)

    def monomials(self) -> tuple[NormalMonomial, ...]:
        return tuple(m for m, _ in self.terms())

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def degrees(self) -> tuple[int, ...]:
        """Sorted distinct total degrees present in this element."""
        return tuple(sorted({m.degree for m in self._terms}))

    def degree(self) -> int | None:
        """Total degree of a homogeneous element; None for 0."""
        degs = self.degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise NonHomogeneousOperand(f"element mixes degrees {degs}")
        return degs[0]

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return AlgebraElement._of_nonzero(combine(((ONE, self._terms), (ONE, other._terms))))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return AlgebraElement._of_nonzero(combine(((ONE, self._terms), (-ONE, other._terms))))

    # Q(i) has no zero divisors: a nonzero multiple of a nonzero coefficient
    # is nonzero, so negating and scaling need no zero test
    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._of_nonzero({m: -c for m, c in self._terms.items()})

    def scale(self, coeff) -> "AlgebraElement":
        coeff = as_scalar(coeff)
        if not coeff:
            return _ZERO_ELEMENT
        return AlgebraElement._of_nonzero({m: c * coeff for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return product(self, other)
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    def __rmul__(self, other):
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraElement) and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def conjugate(self) -> "AlgebraElement":
        """Operator conjugation: mirror the bidegree.

        Conjugates every coefficient and swaps mubar <-> mu, delbar <-> del
        (the conjugate of an operator on complex-valued forms acts on the
        mirrored bidegree).  This is an algebra automorphism, so the result
        is renormalized through the rewriting system.
        """
        return AlgebraElement._of_nonzero(
            combine(
                (c.conjugate(), _rewrite_cached(tuple(_CONJ_SWAP[s] for s in m.letters))._terms)
                for m, c in self._terms.items()
            )
        )

    # -- display --------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in self.terms():
            body = str(mono)
            if coeff.im == 0:
                sign = "-" if coeff.re < 0 else "+"
                mag = _frac_text(abs(coeff.re))
                text = f"{mag}*{body}" if mono.letters else mag
                if not parts:
                    parts.append(text if sign == "+" else f"-{text}")
                else:
                    parts.append(f" {sign} {text}")
            else:
                text = f"({coeff})*{body}" if mono.letters else f"({coeff})"
                parts.append(text if not parts else f" + {text}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"AlgebraElement({self})"


_ZERO_ELEMENT = AlgebraElement()
_ONE_ELEMENT = AlgebraElement._of_nonzero({UNIT_MONOMIAL: ONE})

_CONJ_SWAP = {MUBAR: MU, MU: MUBAR, DELBAR: DEL, DEL: DELBAR}


@lru_cache(maxsize=None)
def generator_element(sym: str) -> AlgebraElement:
    if sym not in BIDEGREE:
        raise ValueError(f"unknown generator: {sym!r}")
    return AlgebraElement._of_nonzero({NormalMonomial.from_letters((sym,)): ONE})


def generator_coefficients(value: AlgebraElement) -> list[Scalar]:
    """The coefficients of mubar, delbar, del and mu in ``value``, in the
    order of GENERATORS; they determine a degree-1 element."""
    return [value.coefficient(NormalMonomial.from_letters((sym,))) for sym in GENERATORS]


def d_element() -> AlgebraElement:
    """The total operator d = mubar + delbar + del + mu."""
    return AlgebraElement._of_nonzero(
        combine((ONE, generator_element(sym)._terms) for sym in GENERATORS)
    )


def product(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Multiplication in A: concatenate words, then rewrite to normal form."""
    return AlgebraElement._of_nonzero(
        combine(
            # a shared ONE passed on lets combine add the rewrite as it is
            (c1 if c2 is ONE else c2 if c1 is ONE else c1 * c2,
             _rewrite_cached(m1.letters + m2.letters)._terms)
            for m1, c1 in a._terms.items()
            for m2, c2 in b._terms.items()
        )
    )


def graded_commutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """[a, b] = a*b - (-1)^(|a||b|) b*a for homogeneous a, b; [a, a], with
    the same object twice, takes one product: 2 a*a for odd a, 0 for even."""
    da = a.degree()
    db = b.degree()
    if da is None or db is None:
        return _ZERO_ELEMENT
    if a is b:
        return product(a, a).scale(2) if da % 2 else _ZERO_ELEMENT
    if (da * db) % 2 == 0:
        return product(a, b) - product(b, a)
    return product(a, b) + product(b, a)


# dim A_k = 9 * 2^(k-2): far fewer than 32 degrees can ever be built
@lru_cache(maxsize=32)
def basis_A(k: int) -> tuple[NormalMonomial, ...]:
    """All normal monomials of total degree k, in the canonical order.

    Tail-major: tails run through 1, mubar, mu, mubar.mu and for each tail the
    heads run lexicographically with delbar < del.
    """
    if k < 0:
        raise InvalidDegree(f"degree must be nonnegative, got {k}")
    out: list[NormalMonomial] = []
    for tail in TAILS:
        body = k - len(tail)
        if body < 0:
            continue
        for head in itertools.product(HEAD_LETTERS, repeat=body):
            out.append(NormalMonomial(head, tail))
    return tuple(out)


def dim_A(k: int) -> int:
    """len(basis_A(k)) without building it: the coefficient of q^k in
    (1+q)^2/(1-2q), i.e. 1, 4, then 9 * 2^(k-2)."""
    if k < 0:
        raise InvalidDegree(f"degree must be nonnegative, got {k}")
    return (1, 4)[k] if k < 2 else 9 * 2 ** (k - 2)


def row_in_A(elt: AlgebraElement, k: int) -> dict[int, Scalar]:
    """Coordinates of a degree-k homogeneous element in basis_A(k), as a
    row: the basis index of each monomial -> its (nonzero) coefficient.

    Read off each code (see NormalMonomial): the monomial with tail index t
    and packed head 1 << m | n, m = k - len(tail), sits at start[t] + n.
    Raises KeyError(monomial) for the first term of another degree.
    """
    if k < 0:
        raise InvalidDegree(f"degree must be nonnegative, got {k}")
    size = 1 << k
    starts = (0, size, size + (size >> 1), size << 1)
    row = {}
    for mono, coeff in elt._terms.items():
        head, tail = mono.packed >> 2, mono.packed & 3
        length = k - len(mono.tail)
        if head.bit_length() != length + 1:
            raise KeyError(mono)
        row[starts[tail] + head - (1 << length)] = coeff
    return row


def restrict_to_B(a: AlgebraElement) -> AlgebraElement:
    """Return ``a`` unchanged if all its monomials are tail-free (a in B).

    B is the subalgebra spanned by pure delbar/del words.  Raises
    :class:`NotInSubalgebra` carrying the offending monomials otherwise.
    """
    offending = sorted(
        (m for m in a._terms if m.tail), key=NormalMonomial.sort_key
    )
    if offending:
        raise NotInSubalgebra(offending)
    return a
