"""Command-line front end.

Subcommands wrap the engine:

    dims          dimension table for a carrier (A, g, h or B)
    normal-form   normal form of an expression
    bracket       graded commutator of two expressions
    cohomology    cohomology table for a differential on a carrier
    mc            Maurer-Cartan checks: check / param / tangent / nullity
    rep           representation tools: verify / example / faithful

Global flags: ``--format {text,json,csv}`` (CSV for the dims and cohomology
tables only) and ``--max-degree`` as the enumeration cap (default 12).  Exit
codes: 0 success, 1 domain error or a ``rep verify`` that finds a violated
relation, 2 usage or syntax error; every error prints a JSON error object on
stdout, and a failed ``rep verify`` prints its violations as a success does.
Positional scalars and expressions may start with ``-`` (``mc check -1/2 0 0
0``, ``normal-form -mu``).

Each subcommand's handler returns its result, and ``main`` renders every
result in one place: it refuses CSV for a command without a table before the
handler runs, then prints the result as JSON, a table or text.  ``main``
parses with one parser, built on its first call and reused for the life of
the process; ``build_parser`` returns a new one on every call.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import lru_cache

from .algebra import dim_A, graded_commutator
from .cohomology import cohomology, cohomology_dims, get_carrier
from .errors import EngineError, ExprSyntaxError
from .exprs import parse_element, render
from .lie import d_lie, dim_g, dim_h, lie_generator
from .mc import (
    d_st,
    g1_coordinates,
    g1_element,
    is_mc,
    quotient_nullity,
    strata_nullity,
    tangent_basis,
)
from .reps import (
    build_example_rep,
    load_rep,
    quotient_faithfulness,
    rep_to_dict,
    save_rep,
    verify_relations,
)
from .scalars import _frac_text, scalar_from_text

DEFAULT_CAP = 12

#: each dims carrier's dimension and first degree: A's and B's are closed
#: forms, and g's and h's the sizes of their Lie bases
_DIMS = {"A": (dim_A, 0), "g": (dim_g, 1), "h": (dim_h, 1), "B": (get_carrier("B").dim, 0)}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with a usage error raised as :class:`UsageError`, and with a
    positional value allowed to start with ``-`` (``-1/2``, ``-mu``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a token that matches this pattern and names no option
        # as a value; the default pattern accepts only plain negative numbers.
        # It stays in force while no option of the parser matches it, and the
        # only single-dash option is -h, registered before this line.
        self._negative_number_matcher = re.compile(r"-[^-]", re.DOTALL)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="acalg",
        description="Exact calculus for the almost-complex operator algebra.",
    )
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument(
        "--max-degree",
        type=int,
        default=DEFAULT_CAP,
        help=f"cap for degree-indexed tables (default {DEFAULT_CAP})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="dimension table of a carrier")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--carrier", choices=tuple(_DIMS), default="A")

    p = sub.add_parser("normal-form", help="normal form of an expression")
    p.add_argument("expr")

    p = sub.add_parser("bracket", help="graded commutator of two expressions")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("cohomology", help="cohomology table for an inner differential")
    p.add_argument(
        "--diff",
        nargs="+",
        required=True,
        metavar="DIFF",
        help="d | mubar | mu | st <s> <t>",
    )
    p.add_argument("--carrier", choices=("g", "B", "h"), default="g")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--reps", action="store_true", help="include representatives")

    p = sub.add_parser("mc", help="Maurer-Cartan locus tools")
    mc_sub = p.add_subparsers(dest="mc_command", required=True)
    q = mc_sub.add_parser("check", help="test a degree-1 point")
    for name in ("x", "y", "z", "w"):
        q.add_argument(name)
    q = mc_sub.add_parser("param", help="the curve point d_{s,t}")
    q.add_argument("s")
    q.add_argument("t")
    q = mc_sub.add_parser("tangent", help="tangent basis at (s, t)")
    q.add_argument("s")
    q.add_argument("t")
    q = mc_sub.add_parser("nullity", help="nullity of the quotient map on H^1")
    q.add_argument("s")
    q.add_argument("t")

    p = sub.add_parser("rep", help="bigraded representation tools")
    rep_sub = p.add_subparsers(dest="rep_command", required=True)
    q = rep_sub.add_parser("verify", help="check the seven relations on a file")
    q.add_argument("file")
    q = rep_sub.add_parser("example", help="the three-parameter family member")
    q.add_argument("--alpha", default="0")
    q.add_argument("--beta", default="0")
    q.add_argument("--gamma", default="0")
    q.add_argument("--emit", metavar="FILE")
    q = rep_sub.add_parser("faithful", help="quotient faithfulness of a file")
    q.add_argument("file")
    return parser


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, indent=2))


def _table(fmt: str, header: list[str], rows: list[list]) -> str:
    if fmt == "csv":
        return "\n".join(",".join(str(cell) for cell in row) for row in [header, *rows])
    widths = [
        max(len(str(h)), *(len(str(r[n])) for r in rows)) if rows else len(str(h))
        for n, h in enumerate(header)
    ]
    return "\n".join(
        "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)) for row in [header, *rows]
    )


def _check_cap(k: int, cap: int) -> None:
    if cap < 0:
        raise UsageError("--max-degree must be nonnegative")
    if k > cap:
        raise UsageError(
            f"--max {k} exceeds the degree cap {cap}; raise --max-degree to allow it"
        )
    if k < 0:
        raise UsageError("--max must be nonnegative")


def _scalar_arg(text: str):
    try:
        return scalar_from_text(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _differential(spec: list[str]):
    if spec == ["d"]:
        return d_lie(), "d"
    if spec == ["mubar"]:
        return lie_generator("mubar"), "mubar"
    if spec == ["mu"]:
        return lie_generator("mu"), "mu"
    if spec and spec[0] == "st":
        if len(spec) != 3:
            raise UsageError("--diff st needs two scalars: st <s> <t>")
        s, t = _scalar_arg(spec[1]), _scalar_arg(spec[2])
        return d_st(s, t), f"st({s},{t})"
    raise UsageError(f"unknown differential {' '.join(spec)!r}")


# Each handler returns (payload, text): ``main`` prints the payload as JSON
# under --format json and the text otherwise.  A table command returns
# (header, rows) as its text, and a text of None means JSON in every format.
# A payload whose "ok" is false (a failed check) exits 1.


def _cmd_dims(args):
    _check_cap(args.max, args.max_degree)
    dim, first_degree = _DIMS[args.carrier]
    dims = {k: dim(k) for k in range(first_degree, args.max + 1)}
    # the JSON and text writers cannot write a number that _frac_text refuses
    _frac_text(max(dims.values(), default=0))
    payload = {
        "carrier": args.carrier,
        "dims": [{"degree": k, "dim": n} for k, n in dims.items()],
    }
    return payload, (["degree", "dim"], [[k, n] for k, n in dims.items()])


def _cmd_normal_form(args):
    text = render(parse_element(args.expr))
    return {"input": args.expr, "normal_form": text}, text


def _cmd_bracket(args):
    text = render(graded_commutator(parse_element(args.left), parse_element(args.right)))
    return {"left": args.left, "right": args.right, "bracket": text}, text


def _cmd_cohomology(args):
    _check_cap(args.max, args.max_degree)
    diff, diff_name = _differential(args.diff)
    carrier = get_carrier(args.carrier)
    dims = cohomology_dims(diff, args.max, carrier)
    table = [{"degree": k, "dim": dim} for k, dim in dims.items()]
    rows = [[k, dim] for k, dim in dims.items()]
    if args.reps:
        # only the representatives need `cohomology`, which forms them
        for entry, row in zip(table, rows):
            reps = [render(r) for r in cohomology(diff, entry["degree"], carrier)[1]]
            entry["representatives"] = reps
            row.append("; ".join(reps))
    header = ["degree", "dim"] + (["representatives"] if args.reps else [])
    payload = {"differential": diff_name, "carrier": args.carrier, "table": table}
    return payload, (header, rows)


def _cmd_mc(args):
    if args.mc_command == "check":
        coords = [_scalar_arg(getattr(args, name)) for name in ("x", "y", "z", "w")]
        verdict = is_mc(*coords)
        h1_dim, nullity = quotient_nullity(g1_element(*coords))
        payload = {
            "point": [str(c) for c in coords],
            "is_mc": verdict.is_mc,
            "quadric_values": [str(q) for q in verdict.quadrics],
            "h1_dim": h1_dim,
            "nullity": nullity,
        }
        quadrics = ", ".join(payload["quadric_values"])
        return payload, (
            f"is_mc: {verdict.is_mc}\nquadrics: {quadrics}\nh1_dim: {h1_dim}\nnullity: {nullity}"
        )
    s = _scalar_arg(args.s)
    t = _scalar_arg(args.t)
    point = {"s": str(s), "t": str(t)}
    if args.mc_command == "param":
        element = d_st(s, t)
        text = render(element.value)
        coordinates = [str(c) for c in g1_coordinates(element)]
        return {**point, "element": text, "coordinates": coordinates}, text
    if args.mc_command == "tangent":
        tangent = [render(v.value) for v in tangent_basis(s, t)]
        return {**point, "tangent": tangent}, "\n".join(tangent)
    value = strata_nullity(s, t)
    return {**point, "nullity": value}, str(value)


def _cmd_rep(args):
    if args.rep_command == "verify":
        rep = load_rep(args.file)
        violations = verify_relations(rep)
        payload = {
            "file": args.file,
            "dim": rep.dim,
            "ok": not violations,
            "violations": [
                {
                    "relation": v.relation,
                    "vector": v.vector,
                    "image": [[label, str(c)] for label, c in v.image],
                }
                for v in violations
            ],
        }
        return payload, "\n".join(str(v) for v in violations) or "ok"
    if args.rep_command == "example":
        rep = build_example_rep(
            _scalar_arg(args.alpha), _scalar_arg(args.beta), _scalar_arg(args.gamma)
        )
        if not args.emit:
            return rep_to_dict(rep), None
        save_rep(rep, args.emit)
        return {"written": args.emit, "dim": rep.dim}, f"wrote {args.emit}"
    value = quotient_faithfulness(load_rep(args.file))
    return {"file": args.file, "faithful": value}, str(value)


_COMMANDS = {
    "dims": _cmd_dims,
    "normal-form": _cmd_normal_form,
    "bracket": _cmd_bracket,
    "cohomology": _cmd_cohomology,
    "mc": _cmd_mc,
    "rep": _cmd_rep,
}

#: the commands whose result is a table, the only results with a CSV form
_TABLES = ("dims", "cohomology")


# built on first use and kept: building takes longer than most requests, and
# parse_args leaves no state in the parser
@lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        if args.format == "csv" and args.command not in _TABLES:
            raise UsageError(f"{args.command} has no CSV form")
        payload, text = _COMMANDS[args.command](args)
        if args.format == "json" or text is None:
            _emit_json(payload)
        elif isinstance(text, tuple):
            _emit(_table(args.format, *text))
        else:
            _emit(text)
        return 0 if payload.get("ok", True) else 1
    except SystemExit as exc:
        # only --help exits; a usage error raises UsageError
        return 2 if exc.code else 0
    except ExprSyntaxError as exc:
        _emit_json(
            {
                "error": {
                    "type": "ExprSyntaxError",
                    "message": str(exc),
                    "line": exc.line,
                    "column": exc.column,
                }
            }
        )
        return 2
    except UsageError as exc:
        _emit_json({"error": {"type": "UsageError", "message": str(exc)}})
        return 2
    except EngineError as exc:
        _emit_json({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 1


if __name__ == "__main__":
    sys.exit(main())
