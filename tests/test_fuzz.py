"""Seeded fuzzing of the inputs: scalars, expressions, rep files and the CLI.

Whatever the input, the scalar reader returns a value or raises ValueError,
the expression parser returns an element or raises an EngineError,
``rep_from_dict`` returns a representation or raises RepFormatError, and
``cli.main`` returns 0, 1 or 2 with a JSON error object on stdout whenever it
fails.  The examples are derandomized, so every run tries the same inputs.
"""

import contextlib
import copy
import io
import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from acalg.algebra import GENERATORS, AlgebraElement
from acalg.cli import main
from acalg.errors import EngineError, RepFormatError
from acalg.exprs import parse_element, render
from acalg.reps import BigradedRep, build_example_rep, rep_from_dict, rep_to_dict
from acalg.scalars import GaussianRational, scalar_from_text

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def _pieces(tokens, max_size):
    return st.lists(st.sampled_from(tokens), max_size=max_size).map("".join)


SCALAR_PIECES = ["0", "1", "2", "12", "/", "+", "-", "*", "i", " ", ".", "e", "/0"]


@FUZZ
@given(st.one_of(_pieces(SCALAR_PIECES, 8), st.text(max_size=8)))
def test_scalar_text_parses_or_raises_value_error(text):
    try:
        value = scalar_from_text(text)
    except ValueError:
        return
    assert isinstance(value, GaussianRational)
    assert scalar_from_text(str(value)) == value


@FUZZ
@given(st.fractions(max_denominator=50), st.fractions(max_denominator=50))
def test_scalar_text_round_trips(re_part, im_part):
    value = GaussianRational(re_part, im_part)
    assert scalar_from_text(str(value)) == value


EXPR_PIECES = [
    "mu", "mubar", "del", "delbar", "μ̄", "∂̄", "∂", "μ", "i", "1/2", "3", "0",
    "1/0", "+", "-", "*", ".", "[", "]", "(", ")", ",", " ", "x", "\n",
]


@FUZZ
@given(st.one_of(_pieces(EXPR_PIECES, 10), st.text(max_size=10)))
def test_parse_element_returns_or_raises_engine_error(text):
    try:
        element = parse_element(text)
    except EngineError:
        return
    assert isinstance(element, AlgebraElement)
    assert parse_element(render(element)) == element


# -- rep files: any JSON value, and values in and around the schema --------------

JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(),  # json.load reads NaN and Infinity too
    st.text(max_size=4),
    st.sampled_from(["x", "y", "1", "-1/2", "i", "0", "1/0", "mubar", "del"]),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=5), inner, max_size=3)
    ),
    max_leaves=8,
)


def _or_any(strategy):
    """A value of the expected kind, or now and then any JSON value."""
    return st.integers(0, 15).flatmap(lambda n: strategy if n else JSON_VALUES)


REP_LABELS = st.sampled_from(["x", "y", "z"])
REP_DEGREES = st.integers(0, 2)  # small, so that some arrows respect bidegrees
REP_VECTORS = st.lists(REP_LABELS, max_size=3, unique=True).flatmap(
    lambda labels: st.tuples(
        *[
            _or_any(
                st.fixed_dictionaries(
                    {"label": _or_any(st.just(label)), "p": _or_any(REP_DEGREES), "q": _or_any(REP_DEGREES)}
                )
            )
            for label in labels
        ]
    ).map(list)
)
REP_ENTRIES = st.lists(
    _or_any(
        st.fixed_dictionaries(
            {
                "from": _or_any(REP_LABELS),
                "to": _or_any(REP_LABELS),
                "coeff": _or_any(st.sampled_from(["1", "-1/2", "i", "0", "2+i", "1/0", "x", 3])),
            }
        )
    ),
    max_size=3,
)
REP_ACTIONS = st.dictionaries(
    st.one_of(st.sampled_from(GENERATORS), st.text(max_size=3)), _or_any(REP_ENTRIES), max_size=4
)
EXAMPLE_DOCUMENT = rep_to_dict(build_example_rep(Fraction(1, 3), 0, 0))


@st.composite
def _edited_example(draw):
    """The example rep's document with up to three values replaced by any
    JSON value or deleted, each at a drawn depth."""
    doc = copy.deepcopy(EXAMPLE_DOCUMENT)
    for _ in range(draw(st.integers(0, 3))):
        node = doc
        while node:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
                node = node[key]
            elif draw(st.booleans()):
                node[key] = draw(JSON_VALUES)
                break
            else:
                del node[key]
                break
    return doc


REP_DOCUMENTS = st.one_of(
    _or_any(
        st.fixed_dictionaries(
            {"vectors": _or_any(REP_VECTORS)},
            optional={"actions": _or_any(REP_ACTIONS), "extra": JSON_VALUES},
        )
    ),
    _edited_example(),
)


@FUZZ
@given(REP_DOCUMENTS)
def test_rep_from_dict_returns_a_rep_or_raises_rep_format_error(data):
    try:
        rep = rep_from_dict(data)
    except RepFormatError:
        return
    assert isinstance(rep, BigradedRep)
    assert rep_from_dict(rep_to_dict(rep)) == rep


# -- the CLI ------------------------------------------------------------------------


def _one(strategy):
    return strategy.map(lambda token: [token])


DEGREES = st.sampled_from(["0", "1", "2", "3", "4", "-1", "x"])
SCALARS = st.sampled_from(["0", "1", "2", "-1", "-1/2", "1/2", "i", "-i", "0+12*i", "1/0", "x"])
EXPRS = st.sampled_from(["mu", "-mu", "mu*del", "[mu,del]", "[del", "delbar+del", "1/0", "i*del", ""])
# file arguments, replaced by paths in the fuzz directory when the test runs
FILES = st.sampled_from(["@rep", "@binary", "@dir", "@missing"])

# one command line per subcommand, each well formed but for the values drawn
COMMAND_LINES = st.one_of(
    st.tuples(
        st.just(["dims", "--max"]),
        _one(DEGREES),
        st.sampled_from([[], ["--carrier", "A"], ["--carrier", "g"], ["--carrier", "B"]]),
    ),
    st.tuples(st.just(["normal-form"]), _one(EXPRS)),
    st.tuples(st.just(["bracket"]), _one(EXPRS), _one(EXPRS)),
    st.tuples(
        st.just(["cohomology", "--diff"]),
        st.one_of(
            st.sampled_from([["d"], ["mubar"], ["mu"], ["st"]]),
            st.tuples(SCALARS, SCALARS).map(lambda st_: ["st", *st_]),
        ),
        st.just(["--carrier"]),
        _one(st.sampled_from(["g", "B", "h", "A"])),
        st.just(["--max"]),
        _one(DEGREES),
        st.sampled_from([[], ["--reps"]]),
    ),
    st.tuples(st.just(["mc", "check"]), *[_one(SCALARS)] * 4),
    st.tuples(
        st.sampled_from([["mc", "param"], ["mc", "tangent"], ["mc", "nullity"]]),
        _one(SCALARS),
        _one(SCALARS),
    ),
    st.tuples(
        st.just(["rep", "example", "--alpha"]),
        _one(SCALARS),
        st.just(["--beta"]),
        _one(SCALARS),
        st.just(["--gamma"]),
        _one(SCALARS),
        st.sampled_from([[], ["--emit", "@out"], ["--emit", "@dir"]]),
    ),
    st.tuples(st.sampled_from([["rep", "verify"], ["rep", "faithful"]]), _one(FILES)),
).map(lambda parts: [token for part in parts for token in part])

GLOBAL_FLAGS = st.lists(
    st.sampled_from([["--format", "json"], ["--format", "csv"], ["--max-degree", "3"], ["--seed", "7"]]),
    max_size=2,
).map(lambda parts: [token for part in parts for token in part])

# stray tokens inserted anywhere; every --max and --max-degree the fuzzer
# can form stays <= 4
NOISE = [
    "--max", "--max-degree", "--carrier", "--diff", "--reps", "--format",
    "--seed", "--alpha", "--", "-h", "dims", "mc", "rep", "st", "4", "-1",
    "-1/2", "i", "json", "xml", "mu", "(", "",
]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["rep", "example", "--emit", str(root / "rep.json")]) == 0
    (root / "binary.json").write_bytes(bytes(range(256)))
    return {
        "@rep": str(root / "rep.json"),
        "@binary": str(root / "binary.json"),
        "@dir": str(root),
        "@missing": str(root / "missing.json"),
        "@out": str(root / "out.json"),
    }


@FUZZ
@given(
    GLOBAL_FLAGS,
    COMMAND_LINES,
    st.lists(st.tuples(st.integers(0, 12), st.sampled_from(NOISE)), max_size=2),
)
def test_cli_exits_0_1_or_2_with_json_errors(fuzz_files, head, line, noise):
    argv = head + [fuzz_files.get(token, token) for token in line]
    for pos, token in noise:
        argv.insert(pos, token)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code:
        assert "error" in json.loads(out.getvalue())
