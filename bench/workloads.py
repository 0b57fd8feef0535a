"""The four benchmark workloads: inputs from a seed, operations, and checks.

Each workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned.  A workload yields
``(kind, detail, op)`` triples; the worker times each ``op()`` alone and
then hands its result to ``check(kind, detail, result)``, which returns the
number of outputs checked and how many of them were wrong.  Input
generation and checking are never timed.

Workloads drive only acalg's public functions, and ``cli.main`` for the
query stream.  Modules are looked up at call time, so a traced run sees the
wrapped entry points.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import oracles

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GENERATORS = ("mubar", "delbar", "del", "mu")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# -- lie_tower -------------------------------------------------------------------


class LieTower:
    """dim g_k for k = 1..11 and dim h_k for k = 1..10 from cold caches."""

    name = "lie_tower"

    def __init__(self, seed: int, workdir: Path):
        # the inputs are fixed sizes; the seed has nothing to vary here
        self.lie = importlib.import_module("acalg.lie")

    def ops(self):
        for k in range(1, 12):
            yield "dim_g", k, lambda k=k: self.lie.dim_g(k)
        for k in range(1, 11):
            yield "dim_h", k, lambda k=k: self.lie.dim_h(k)

    def check(self, kind, k, result):
        expected = oracles.expected_dim_g(k) if kind == "dim_g" else oracles.expected_dim_h(k)
        return 1, int(result != expected)


# -- cone_B ------------------------------------------------------------------------


class ConeB:
    """The mapping-cone checks through degree 10, then H(B, ad mubar) <= 10."""

    name = "cone_B"
    MAX_DEGREE = 10

    def __init__(self, seed: int, workdir: Path):
        self.acalg = importlib.import_module("acalg")
        self.cohomology = importlib.import_module("acalg.cohomology")

    def ops(self):
        k = self.MAX_DEGREE
        yield "les_check", k, lambda: self.cohomology.les_check(k)
        mubar = self.acalg.generator_element("mubar")
        yield "cohomology_dims", k, lambda: self.cohomology.cohomology_dims(mubar, k, "B")

    def check(self, kind, k, result):
        if kind == "les_check":
            # five families of k records each
            records = result.records
            return 5 * k, 5 * k - sum(1 for r in records if r.passed)
        wanted = range(0, k + 1)
        return len(wanted), sum(1 for j in wanted if result.get(j) != 1)


# -- rewrite_sweep -------------------------------------------------------------------


class RewriteSweep:
    """Every word of length <= 8 over the four generators, both strategies.

    The seed fixes the visiting order.  Outputs are checked by the no-redex
    predicate, by agreement of the strategies, and against per-group digests
    recorded at the seed commit (a group is all words sharing their length
    and first two letters), so a changed normal form shows as failures in
    its group.
    """

    name = "rewrite_sweep"
    MAX_LENGTH = 8

    def __init__(self, seed: int, workdir: Path):
        self.algebra = importlib.import_module("acalg.algebra")
        # bound now, before a tracer wraps it: checking is not workload
        self.render = importlib.import_module("acalg.exprs").render
        self.words = all_words(self.MAX_LENGTH)
        random.Random(seed).shuffle(self.words)
        self.groups: dict[str, tuple[int, int]] = {}
        self.golden = load_golden()["rewrite_sweep"]

    def ops(self):
        rewrite = self.algebra.rewrite_word
        for word in self.words:
            def op(word=word):
                left = rewrite(word, "leftmost")
                right = rewrite(word, "rightmost")
                return left, left == right
            yield "word", word, op

    def check(self, kind, word, result):
        element, agree = result
        normal = all(oracles.is_normal_word(m.letters) for m, _ in element.terms())
        add_to_group_digest(self.groups, word, self.render(element))
        return 1, int(not (agree and normal))

    def finish(self):
        """Words whose group digest differs from the recorded one."""
        return sum(
            count for key, (count, value) in self.groups.items()
            if self.golden.get(key) != f"{value:016x}"
        )


def all_words(max_length: int) -> list[tuple[str, ...]]:
    return [
        word
        for length in range(max_length + 1)
        for word in itertools.product(GENERATORS, repeat=length)
    ]


def add_to_group_digest(groups: dict, word, text: str) -> None:
    """Fold "word=normal form" into its group's digest.

    A group is all words sharing their length and first two letters.  The
    digest is the sum of the line hashes mod 2^64, so it does not depend on
    the visiting order and needs no stored outputs.
    """
    key = f"{len(word)}:{'.'.join(word[:2])}"
    count, value = groups.get(key, (0, 0))
    line_hash = int(digest(f"{'.'.join(word)}={text}"), 16)
    groups[key] = (count + 1, (value + line_hash) % (1 << 64))


# -- queries -------------------------------------------------------------------------

#: the request types of the stream.  No record of real sessions exists, so
#: the mix is an assumption with a rule that can be checked: every type gets
#: the same count, and the seed varies only the inputs and the order.
QUERY_TYPES = (
    "normal-form", "bracket", "mc-check", "mc-nullity",
    "rep-verify", "rep-faithful", "cohomology",
)
#: per type: fresh requests, then exact repeats of an earlier request of the
#: same type.  One request in four repeats, so every type's memo caches get
#: 43 hits while three quarters of the stream still compute; the share is an
#: assumption too.  7 x 172 = 1204 requests, so 12 lie beyond p99.
FRESH_PER_TYPE = 129
REPEATS_PER_TYPE = 43
FAMILY_MEMBERS = 12

#: the seed of the fixed expression pool whose outputs golden.json records
POOL_SEED = 20221017
POOL_SIZE = 400

# The eight-dimensional representation family: per generator, arrows
# (source, target, (c0, c_alpha, c_beta, c_gamma)) with coefficient
# c0 + c_alpha*alpha + c_beta*beta + c_gamma*gamma.
_H = Fraction(1, 2)
FAMILY_VECTORS = (
    ("x", 0, 0), ("mubar_x", -1, 2), ("delbar_x", 0, 1), ("del_x", 1, 0),
    ("mu_x", 2, -1), ("delbar2_x", 0, 2), ("delbar_del_x", 1, 1), ("del2_x", 2, 0),
)
FAMILY_ARROWS = {
    "mubar": (
        ("x", "mubar_x", (1, 0, 0, 0)),
        ("del_x", "delbar2_x", (-_H, -1, 0, 0)),
        ("mu_x", "delbar_del_x", (0, 0, 1, 0)),
    ),
    "delbar": (
        ("x", "delbar_x", (1, 0, 0, 0)),
        ("delbar_x", "delbar2_x", (1, 0, 0, 0)),
        ("del_x", "delbar_del_x", (1, 0, 0, 0)),
        ("mu_x", "del2_x", (-_H, 0, 0, 1)),
    ),
    "del": (
        ("x", "del_x", (1, 0, 0, 0)),
        ("del_x", "del2_x", (1, 0, 0, 0)),
        ("delbar_x", "delbar_del_x", (-1, 0, 0, 0)),
        ("mubar_x", "delbar2_x", (-_H, 1, 0, 0)),
    ),
    "mu": (
        ("x", "mu_x", (1, 0, 0, 0)),
        ("delbar_x", "del2_x", (-_H, 0, 0, -1)),
        ("mubar_x", "delbar_del_x", (0, 0, -1, 0)),
    ),
}


def family_member(alpha, beta, gamma) -> dict:
    """The family member as the representation JSON format documents it."""
    params = ((Fraction(1), Fraction(0)), alpha, beta, gamma)
    actions = {}
    for sym, arrows in FAMILY_ARROWS.items():
        entries = []
        for src, dst, weights in arrows:
            coeff = oracles.ZERO
            for weight, param in zip(weights, params):
                coeff = oracles.g_add(coeff, oracles.g_mul((Fraction(weight), Fraction(0)), param))
            if coeff != oracles.ZERO:
                entries.append({"from": src, "to": dst, "coeff": scalar_arg(coeff)})
        actions[sym] = entries
    vectors = [{"label": label, "p": p, "q": q} for label, p, q in FAMILY_VECTORS]
    return {"vectors": vectors, "actions": actions}


def scalar_arg(value) -> str:
    """Scalar text for the CLI and rep files.  A pure imaginary value gets an
    explicit "0+" real part: the scalar parser rejects "12*i" (see README)."""
    text = oracles.format_gaussian(value)
    if value[0] == 0 and value[1] != 0:
        return ("0+" if value[1] > 0 else "0") + text
    return text


def random_scalar(rng: random.Random, zero_share=0.0, positive_real=False):
    """A small Gaussian rational; ``positive_real`` keeps the text free of a
    leading '-' and nonzero (see README: the CLI cannot take one there)."""
    if rng.random() < zero_share:
        return oracles.ZERO
    lo = 1 if positive_real else -5
    re_ = Fraction(rng.randint(lo, 5), rng.randint(1, 4))
    im = Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.5 else Fraction(0)
    return (re_, im)


def random_homogeneous(rng: random.Random, degree: int, depth: int = 0) -> str:
    """Expression text for a homogeneous element of the given degree.

    Bracket operands must be homogeneous, so every term of every
    subexpression has one total degree.  No text starts with '-'.
    """
    terms = []
    for _ in range(rng.choice((1, 1, 2, 3))):
        factors = []
        left = degree
        while left:
            part = rng.randint(1, left)
            if part == 1 or depth >= 2:
                factors.extend(rng.choice(GENERATORS) for _ in range(part))
            else:
                split = rng.randint(1, part - 1)
                factors.append(
                    f"[{random_homogeneous(rng, split, depth + 1)},"
                    f"{random_homogeneous(rng, part - split, depth + 1)}]"
                )
            left -= part
        body = rng.choice("*.").join(factors)
        if rng.random() < 0.5:
            coeff = random_scalar(rng, positive_real=True)
            text = oracles.format_gaussian(coeff)
            body = f"({text})*{body}" if coeff[1] else f"{text}*{body}"
        terms.append(body)
    return terms[0] + "".join(rng.choice((" + ", " - ")) + t for t in terms[1:])


def expression_pool() -> dict[str, list]:
    """The fixed pool of normal-form and bracket inputs that golden.json covers."""
    rng = random.Random(POOL_SEED)
    normal_forms = [random_homogeneous(rng, rng.randint(1, 5)) for _ in range(POOL_SIZE)]
    brackets = []
    for _ in range(POOL_SIZE):
        left = rng.randint(1, 3)
        right = rng.randint(1, 6 - left)
        brackets.append([random_homogeneous(rng, left), random_homogeneous(rng, right)])
    return {"normal-form": normal_forms, "bracket": brackets}


def pool_digest(pool) -> str:
    return digest(json.dumps(pool, sort_keys=True))


def run_cli(cli, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class Queries:
    """A seeded stream of small CLI requests in one warm process.

    Every request type comes equally often.  The seed picks the order, the
    pool entries, the Gaussian rational points and the family members; a
    quarter of each type's requests repeat an earlier one exactly, so the
    memo caches see hits.
    """

    name = "queries"

    def __init__(self, seed: int, workdir: Path):
        self.cli = importlib.import_module("acalg.cli")
        golden = load_golden()["queries"]
        pool = expression_pool()
        if pool_digest(pool) != golden["pool_digest"]:
            raise RuntimeError("expression pool differs from the one golden.json records")
        self.pool, self.golden = pool, golden
        rng = random.Random(seed)
        self.family_files = []
        for n in range(FAMILY_MEMBERS):
            path = workdir / f"family_{n}.json"
            params = [random_scalar(rng, zero_share=0.2) for _ in range(3)]
            path.write_text(json.dumps(family_member(*params), indent=2) + "\n", encoding="utf-8")
            self.family_files.append(str(path))
        kinds = [kind for kind in QUERY_TYPES for _ in range(FRESH_PER_TYPE)]
        rng.shuffle(kinds)
        self.requests = [self._fresh(rng, kind) for kind in kinds]
        for kind in QUERY_TYPES:
            for _ in range(REPEATS_PER_TYPE):
                n = rng.choice([n for n, request in enumerate(self.requests) if request[0] == kind])
                self.requests.insert(rng.randint(n + 1, len(self.requests)), self.requests[n])

    def _fresh(self, rng, kind):
        fmt = ["--format", "json"]
        if kind == "normal-form":
            n = rng.randrange(POOL_SIZE)
            return kind, n, ["normal-form", self.pool[kind][n]]
        if kind == "bracket":
            n = rng.randrange(POOL_SIZE)
            return kind, n, ["bracket", *self.pool[kind][n]]
        if kind == "mc-check":
            if rng.random() < 0.5:
                # a multiple of a point of the twisted cubic: on the locus
                s, t, lam = (random_scalar(rng, zero_share=0.15) for _ in range(3))
                point = [
                    oracles.g_mul(lam, oracles.g_mul(a, oracles.g_mul(b, c)))
                    for a, b, c in ((s, s, s), (s, s, t), (s, t, t), (t, t, t))
                ]
            else:
                point = [random_scalar(rng, zero_share=0.2) for _ in range(4)]
            texts = [scalar_arg(c) for c in point]
            return kind, tuple(point), fmt + ["mc", "check", "--", *texts]
        if kind == "mc-nullity":
            s, t = (random_scalar(rng, zero_share=0.25) for _ in range(2))
            texts = [scalar_arg(c) for c in (s, t)]
            return kind, (s, t), fmt + ["mc", "nullity", "--", *texts]
        if kind in ("rep-verify", "rep-faithful"):
            path = rng.choice(self.family_files)
            return kind, None, fmt + ["rep", kind[4:], path]
        # cohomology: '--diff st' cannot take a scalar text starting with '-'
        s, t = (random_scalar(rng, positive_real=True) for _ in range(2))
        texts = [scalar_arg(c) for c in (s, t)]
        return kind, None, fmt + ["cohomology", "--diff", "st", *texts, "--carrier", "g", "--max", "4"]

    def ops(self):
        for kind, detail, argv in self.requests:
            yield kind, detail, lambda argv=argv: run_cli(self.cli, argv)

    def check(self, kind, detail, result):
        code, out = result
        if code != 0:
            return 1, 1
        if kind in ("normal-form", "bracket"):
            return 1, int(digest(out) != self.golden[kind][detail])
        data = json.loads(out)
        if kind == "mc-check":
            quadrics = oracles.mc_quadrics(*detail)
            h1_dim, nullity = oracles.mc_cocycles(*detail)
            ok = (
                [oracles.parse_gaussian(q) for q in data["quadric_values"]] == list(quadrics)
                and data["is_mc"] == all(q == oracles.ZERO for q in quadrics)
                and (data["h1_dim"], data["nullity"]) == (h1_dim, nullity)
            )
        elif kind == "mc-nullity":
            ok = data["nullity"] == oracles.strata_nullity(*detail)
        elif kind == "rep-verify":
            ok = data["ok"] is True and data["violations"] == [] and data["dim"] == 8
        elif kind == "rep-faithful":
            ok = data["faithful"] is True
        else:
            # generic points of the cubic: H^1 = 2, nothing above (as for d)
            ok = [row["dim"] for row in data["table"]] == [2, 0, 0, 0]
        return 1, int(not ok)


WORKLOADS = {w.name: w for w in (LieTower, ConeB, RewriteSweep, Queries)}
