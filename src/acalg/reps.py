"""Finite-dimensional bigraded representations and their verifier.

A representation is a finite list of labelled bigraded vectors together with
one action matrix per generator, each shifting bidegree by the generator's
bidegree.  ``verify_relations`` evaluates the seven defining relations as
operators; a representation of the algebra is exactly one with no violations.

The three-parameter family ``build_example_rep(alpha, beta, gamma)`` is the
eight-dimensional representation on

    x(0,0); mubar_x(-1,2); delbar_x(0,1); del_x(1,0); mu_x(2,-1);
    delbar2_x(0,2); delbar_del_x(1,1); del2_x(2,0)

whose second-level structure constants are the six parameter equations (see
``_EXAMPLE_ARROWS``); every arrow not listed acts by zero.  The family kills
[del, delbar] and so descends to the six-dimensional quotient, on which its
matrices stay linearly independent (``quotient_faithfulness``).

``verify_relations``, ``act`` and ``quotient_faithfulness`` look the rep up
once per call in one bounded cache keyed by its value: a record of its four
action matrices, its violations and its faithfulness verdict, each part built
on first use.  A rep equal to one seen before, even loaded again from a file,
gets both verdicts without recomputing them; an ``UnverifiedRep`` or
``IdealNotKilled`` is raised anew on every call.

File format (JSON):

    {"vectors": [{"label": "x", "p": 0, "q": 0}, ...],
     "actions": {"mubar": [{"from": "x", "to": "mubar_x", "coeff": "1"}], ...}}

Coefficients use the scalar text format from :mod:`acalg.scalars`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping

from .algebra import (
    BIDEGREE,
    DEL,
    DELBAR,
    GENERATORS,
    MU,
    MUBAR,
    RELATIONS,
    AlgebraElement,
    generator_element,
    graded_commutator,
)
from .errors import IdealNotKilled, LabelClash, RepFormatError, UnverifiedRep
from .linalg import ExactMatrix, Row, SpanReducer
from .scalars import HALF, ONE, Scalar, as_scalar, scalar_from_text

#: action entry: (target index, source index, coefficient)
ActionEntry = tuple[int, int, Scalar]


@dataclass(frozen=True)
class BigradedRep:
    labels: tuple[str, ...]
    bidegrees: tuple[tuple[int, int], ...]
    actions: tuple[tuple[str, tuple[ActionEntry, ...]], ...]

    def action_entries(self, sym: str) -> tuple[ActionEntry, ...]:
        for name, entries in self.actions:
            if name == sym:
                return entries
        return ()

    @property
    def dim(self) -> int:
        return len(self.labels)


def make_rep(
    vectors: Iterable[tuple[str, int, int]],
    actions: Mapping[str, Iterable[tuple[str, str, Scalar]]],
) -> BigradedRep:
    """Build and validate a representation from labelled data.

    ``vectors`` lists (label, p, q); ``actions`` maps generator names to
    (from_label, to_label, coeff) triples.  Bidegree discipline is enforced
    here: a generator may only connect vectors differing by its bidegree.
    """
    vectors = list(vectors)
    labels = tuple(v[0] for v in vectors)
    if len(set(labels)) != len(labels):
        raise RepFormatError("duplicate vector labels")
    bidegrees = tuple((int(v[1]), int(v[2])) for v in vectors)
    index = {label: n for n, label in enumerate(labels)}
    packed: list[tuple[str, tuple[ActionEntry, ...]]] = []
    for sym in GENERATORS:
        entries: list[ActionEntry] = []
        for src, dst, coeff in actions.get(sym, ()):
            if src not in index:
                raise RepFormatError(f"unknown source vector {src!r}")
            if dst not in index:
                raise RepFormatError(f"unknown target vector {dst!r}")
            coeff = as_scalar(coeff)
            if not coeff:
                continue
            i, j = index[dst], index[src]
            dp, dq = BIDEGREE[sym]
            expected = (bidegrees[j][0] + dp, bidegrees[j][1] + dq)
            if bidegrees[i] != expected:
                raise RepFormatError(
                    f"{sym} cannot map {src} at {bidegrees[j]} to {dst} at "
                    f"{bidegrees[i]}; target must sit at {expected}"
                )
            entries.append((i, j, coeff))
        packed.append((sym, tuple(entries)))
    unknown = set(actions) - set(GENERATORS)
    if unknown:
        raise RepFormatError(f"unknown generator names: {sorted(unknown)}")
    return BigradedRep(labels, bidegrees, tuple(packed))


def action_matrix(rep: BigradedRep, sym: str) -> ExactMatrix:
    columns: list[Row] = [{} for _ in range(rep.dim)]
    for i, j, coeff in rep.action_entries(sym):
        column = columns[j]
        column[i] = column[i] + coeff if i in column else coeff
    return ExactMatrix.from_columns(
        [{i: x for i, x in column.items() if x} for column in columns], nrows=rep.dim
    )


@dataclass(frozen=True)
class RelationViolation:
    relation: str
    vector: str
    image: tuple[tuple[str, Scalar], ...]

    def __str__(self) -> str:
        img = " + ".join(f"{c}*{lbl}" for lbl, c in self.image)
        return f"{self.relation} fails on {self.vector}: maps to {img}"


class _RepRecord:
    """What the package knows of one rep value: its four action matrices,
    built with the record, and its violations and faithfulness verdict,
    each built on first use.  Every part is only read once built; threads
    that race to build one store equal values."""

    __slots__ = ("rep", "matrices", "_violations", "_faithful")

    def __init__(self, rep: BigradedRep):
        self.rep = rep
        self.matrices = MappingProxyType({sym: action_matrix(rep, sym) for sym in GENERATORS})
        self._violations: tuple[RelationViolation, ...] | None = None
        self._faithful: bool | None = None

    def violations(self) -> tuple[RelationViolation, ...]:
        if self._violations is None:
            rep, matrices = self.rep, self.matrices
            found = []
            for name, words in RELATIONS:
                terms = [(c, matrices[first] @ matrices[second]) for c, (first, second) in words]
                total = ExactMatrix.combination(terms, rep.dim, rep.dim)
                columns: dict[int, list[tuple[str, Scalar]]] = {}
                for i, j, c in total.nonzero():
                    columns.setdefault(j, []).append((rep.labels[i], c))
                for j in sorted(columns):
                    found.append(RelationViolation(name, rep.labels[j], tuple(columns[j])))
            self._violations = tuple(found)
        return self._violations

    def act(self, a: AlgebraElement) -> ExactMatrix:
        if len(a) > 1 and self.violations():
            raise UnverifiedRep(
                "representation fails the relations; only single-word actions are defined"
            )
        matrices, n = self.matrices, self.rep.dim
        terms = []
        # an exact sum does not depend on the order of the terms
        for mono, coeff in a._terms.items():
            letters = mono.letters
            if letters:
                partial = matrices[letters[-1]]
                for sym in letters[-2::-1]:
                    partial = matrices[sym] @ partial
            else:
                partial = ExactMatrix.identity(n)
            terms.append((coeff, partial))
        return ExactMatrix.combination(terms, n, n)

    def faithful(self) -> bool:
        # an IdealNotKilled or UnverifiedRep leaves the verdict unset, so
        # every call raises it again
        if self._faithful is None:
            delbar = generator_element(DELBAR)
            del_ = generator_element(DEL)
            if not self.act(graded_commutator(del_, delbar)).is_zero():
                raise IdealNotKilled("[del, delbar] does not act by zero")
            basis = [generator_element(sym) for sym in GENERATORS]
            basis.append(graded_commutator(del_, del_))
            basis.append(graded_commutator(delbar, delbar))
            n = self.rep.dim
            reducer = SpanReducer()
            self._faithful = all(
                reducer.add({i * n + j: x for i, j, x in self.act(elt).nonzero()})
                for elt in basis
            )
        return self._faithful


# one lookup, and one hash of the rep, per public call below
@lru_cache(maxsize=256)
def _record(rep: BigradedRep) -> _RepRecord:
    return _RepRecord(rep)


def verify_relations(rep: BigradedRep) -> list[RelationViolation]:
    """Evaluate the seven defining relations as operators on the rep.

    Returns the empty list exactly when the data is a representation of the
    algebra; violations are returned as data, never raised.
    """
    return list(_record(rep).violations())


def act(rep: BigradedRep, a: AlgebraElement) -> ExactMatrix:
    """Matrix of the element ``a`` acting on the representation.

    A representation that fails the relations only supports single-word
    evaluation (the value would otherwise depend on the representative);
    anything longer raises :class:`UnverifiedRep`.
    """
    return _record(rep).act(a)


def quotient_faithfulness(rep: BigradedRep) -> bool:
    """Do the six quotient basis elements act by independent matrices?

    The quotient kills [del, delbar]; its basis here is the four generators
    together with [del, del] and [delbar, delbar].  Precondition: the ideal
    generator [del, delbar] must act by zero (:class:`IdealNotKilled`).
    """
    return _record(rep).faithful()


def direct_sum(r1: BigradedRep, r2: BigradedRep, rename: bool = False) -> BigradedRep:
    """Block-diagonal sum.  Clashing labels raise unless ``rename`` is set,
    in which case right-hand labels get a numeric suffix."""
    taken = set(r1.labels)
    mapping: dict[str, str] = {}
    for label in r2.labels:
        new = label
        if new in taken:
            if not rename:
                raise LabelClash(f"duplicate vector label {label!r}")
            n = 2
            while f"{label}_{n}" in taken:
                n += 1
            new = f"{label}_{n}"
        taken.add(new)
        mapping[label] = new
    vectors = [
        (label, p, q) for label, (p, q) in zip(r1.labels, r1.bidegrees)
    ] + [
        (mapping[label], p, q) for label, (p, q) in zip(r2.labels, r2.bidegrees)
    ]
    actions: dict[str, list[tuple[str, str, Scalar]]] = {sym: [] for sym in GENERATORS}
    for sym in GENERATORS:
        for i, j, coeff in r1.action_entries(sym):
            actions[sym].append((r1.labels[j], r1.labels[i], coeff))
        for i, j, coeff in r2.action_entries(sym):
            actions[sym].append((mapping[r2.labels[j]], mapping[r2.labels[i]], coeff))
    return make_rep(vectors, actions)


# -- the three-parameter family ------------------------------------------------

_EXAMPLE_VECTORS = (
    ("x", 0, 0),
    ("mubar_x", -1, 2),
    ("delbar_x", 0, 1),
    ("del_x", 1, 0),
    ("mu_x", 2, -1),
    ("delbar2_x", 0, 2),
    ("delbar_del_x", 1, 1),
    ("del2_x", 2, 0),
)


def build_example_rep(alpha, beta, gamma) -> BigradedRep:
    """The eight-dimensional family with parameters (alpha, beta, gamma)."""
    alpha, beta, gamma = (as_scalar(v) for v in (alpha, beta, gamma))
    arrows = {
        MUBAR: [
            ("x", "mubar_x", ONE),
            ("del_x", "delbar2_x", -HALF - alpha),
            ("mu_x", "delbar_del_x", beta),
        ],
        DELBAR: [
            ("x", "delbar_x", ONE),
            ("delbar_x", "delbar2_x", ONE),
            ("del_x", "delbar_del_x", ONE),
            ("mu_x", "del2_x", -HALF + gamma),
        ],
        DEL: [
            ("x", "del_x", ONE),
            ("del_x", "del2_x", ONE),
            ("delbar_x", "delbar_del_x", -ONE),
            ("mubar_x", "delbar2_x", -HALF + alpha),
        ],
        MU: [
            ("x", "mu_x", ONE),
            ("delbar_x", "del2_x", -HALF - gamma),
            ("mubar_x", "delbar_del_x", -beta),
        ],
    }
    return make_rep(_EXAMPLE_VECTORS, arrows)


# -- JSON round-trip -----------------------------------------------------------


def rep_to_dict(rep: BigradedRep) -> dict:
    return {
        "vectors": [
            {"label": label, "p": p, "q": q}
            for label, (p, q) in zip(rep.labels, rep.bidegrees)
        ],
        "actions": {
            sym: [
                {"from": rep.labels[j], "to": rep.labels[i], "coeff": str(coeff)}
                for i, j, coeff in rep.action_entries(sym)
            ]
            for sym in GENERATORS
        },
    }


def _is_int(value) -> bool:
    # JSON true/false load as bool, which is a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def rep_from_dict(data) -> BigradedRep:
    if not isinstance(data, dict):
        raise RepFormatError("representation file must hold a JSON object")
    raw_vectors = data.get("vectors")
    if not isinstance(raw_vectors, list):
        raise RepFormatError("missing or malformed 'vectors' list")
    vectors: list[tuple[str, int, int]] = []
    for entry in raw_vectors:
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("label"), str)
            or not _is_int(entry.get("p"))
            or not _is_int(entry.get("q"))
        ):
            raise RepFormatError(f"malformed vector entry: {entry!r}")
        vectors.append((entry["label"], entry["p"], entry["q"]))
    raw_actions = data.get("actions", {})
    if not isinstance(raw_actions, dict):
        raise RepFormatError("'actions' must be an object")
    actions: dict[str, list[tuple[str, str, Scalar]]] = {}
    for sym, entries in raw_actions.items():
        if sym not in GENERATORS:
            raise RepFormatError(f"unknown generator {sym!r} in actions")
        if not isinstance(entries, list):
            raise RepFormatError(f"actions[{sym!r}] must be a list")
        triples = []
        for entry in entries:
            if (
                not isinstance(entry, dict)
                or not {"from", "to", "coeff"} <= set(entry)
                or not isinstance(entry["from"], str)
                or not isinstance(entry["to"], str)
            ):
                raise RepFormatError(f"malformed action entry: {entry!r}")
            try:
                coeff = scalar_from_text(str(entry["coeff"]))
            except ValueError as exc:
                raise RepFormatError(str(exc)) from None
            triples.append((entry["from"], entry["to"], coeff))
        actions[sym] = triples
    return make_rep(vectors, actions)


def load_rep(path) -> BigradedRep:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and bytes that are not UTF-8;
        # RecursionError, JSON nested too deeply to decode
        raise RepFormatError(f"cannot read representation file: {exc}") from None
    return rep_from_dict(data)


def save_rep(rep: BigradedRep, path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rep_to_dict(rep), handle, indent=2)
            handle.write("\n")
    except OSError as exc:
        raise RepFormatError(f"cannot write representation file: {exc}") from None
