import json

import pytest

from acalg import cli
from acalg.cli import main
from acalg.exprs import parse_element
from acalg.mc import g1_coordinates, g1_element
from acalg.lie import d_lie
from vectors import same_span


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_dims_A(capsys):
    code, out = run(capsys, "--format", "csv", "dims", "--max", "5", "--carrier", "A")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "degree,dim"
    assert [r.split(",")[1] for r in rows[1:]] == ["1", "4", "9", "18", "36", "72"]


def test_dims_g_and_B(capsys):
    code, out = run(capsys, "--format", "json", "dims", "--max", "4", "--carrier", "g")
    assert code == 0
    table = json.loads(out)["dims"]
    assert [row["dim"] for row in table] == [4, 3, 2, 3]
    code, out = run(capsys, "--format", "json", "dims", "--max", "4", "--carrier", "B")
    assert [row["dim"] for row in json.loads(out)["dims"]] == [1, 2, 4, 8, 16]


def test_normal_form_command(capsys):
    code, out = run(capsys, "normal-form", "mu*mubar")
    assert code == 0
    assert out.strip() == "-1*delbar.del - 1*del.delbar - 1*mubar.mu"
    code, out = run(capsys, "--format", "json", "normal-form", "[mubar,del]+1/2*[delbar,delbar]")
    assert json.loads(out)["normal_form"] == "0"


def test_bracket_command(capsys):
    code, out = run(capsys, "bracket", "mubar", "del")
    assert code == 0
    assert out.strip() == "-1*delbar.delbar"


def test_cohomology_command(capsys):
    code, out = run(
        capsys,
        "--format", "json",
        "cohomology", "--diff", "d", "--carrier", "g", "--max", "4", "--reps",
    )
    assert code == 0
    table = json.loads(out)["table"]
    assert [row["dim"] for row in table] == [2, 0, 0, 0]
    # the emitted degree-1 representatives span {d, 3 mubar + delbar - del - 3 mu}
    from acalg.lie import LieElement

    reps = [parse_element(text) for text in table[0]["representatives"]]
    rep_coords = [g1_coordinates(LieElement(r, 1)) for r in reps]
    named = [g1_coordinates(d_lie()), g1_coordinates(g1_element(3, 1, -1, -3))]
    assert same_span(rep_coords, named)


def test_cohomology_st_differential(capsys):
    code, out = run(
        capsys,
        "--format", "json",
        "cohomology", "--diff", "st", "2", "1", "--carrier", "g", "--max", "3",
    )
    assert code == 0
    assert [row["dim"] for row in json.loads(out)["table"]] == [2, 0, 0]


def test_cohomology_subalgebra_carrier(capsys):
    code, out = run(
        capsys,
        "--format", "json",
        "cohomology", "--diff", "mubar", "--carrier", "h", "--max", "4",
    )
    assert code == 0
    assert [row["dim"] for row in json.loads(out)["table"]] == [1, 1, 0, 0]


def test_mc_check(capsys):
    code, out = run(capsys, "--format", "json", "mc", "check", "1", "0", "0", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_mc"] is False
    assert payload["quadric_values"] == ["0", "0", "1"]
    code, out = run(capsys, "--format", "json", "mc", "check", "1", "1", "1", "1")
    assert json.loads(out)["is_mc"] is True


def test_mc_param_and_nullity(capsys):
    code, out = run(capsys, "mc", "param", "2", "1")
    assert code == 0
    assert out.strip() == "4*delbar + 2*del + 8*mubar + 1*mu"
    code, out = run(capsys, "mc", "nullity", "1", "0")
    assert out.strip() == "1"
    code, out = run(capsys, "mc", "nullity", "0", "0")
    assert out.strip() == "2"


def test_mc_tangent_degenerate_exits_one(capsys):
    code, out = run(capsys, "mc", "tangent", "0", "0")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DegeneratePoint"


def test_rep_workflow(capsys, tmp_path):
    target = tmp_path / "family.json"
    code, out = run(
        capsys,
        "rep", "example", "--alpha", "1/2", "--beta", "0", "--gamma=-1/2",
        "--emit", str(target),
    )
    assert code == 0
    assert target.exists()
    code, out = run(capsys, "--format", "json", "rep", "verify", str(target))
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["violations"] == []
    code, out = run(capsys, "rep", "faithful", str(target))
    assert code == 0
    assert out.strip() == "True"


def test_rep_example_prints_json(capsys):
    code, out = run(capsys, "rep", "example", "--alpha", "0", "--beta", "0", "--gamma", "0")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vectors"]) == 8


def test_rep_missing_file_is_domain_error(capsys, tmp_path):
    code, out = run(capsys, "rep", "verify", str(tmp_path / "nope.json"))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "RepFormatError"


def test_syntax_error_exit_code(capsys):
    code, out = run(capsys, "normal-form", "[del")
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ExprSyntaxError"
    assert err["column"] == 5



@pytest.mark.parametrize(
    "argv, column",
    [
        (["normal-form", "mu*1/0"], 4),
        (["normal-form", "(1/0)*mu"], 2),
        (["mc", "check", "--", "1/0", "0", "0", "0"], None),
    ],
)
def test_zero_denominator_is_a_syntax_error(capsys, argv, column):
    code, out = run(capsys, *argv)
    assert code == 2
    err = json.loads(out)["error"]
    if column is None:
        assert err["type"] == "UsageError"
    else:
        assert err["type"] == "ExprSyntaxError"
        assert err["column"] == column


NINES_3000 = "9" * 3000


@pytest.mark.parametrize(
    "argv, code, error_type",
    [
        # Python reads and writes ints of at most 4300 digits as text
        (["normal-form", "9" * 5000 + "*mu"], 2, "ExprSyntaxError"),
        (["normal-form", f"{NINES_3000}*{NINES_3000}*mu"], 1, "NumberTooLong"),
        (["mc", "check", NINES_3000, NINES_3000, "0", "0"], 1, "NumberTooLong"),
        (["--format", "json", "mc", "param", NINES_3000, "1"], 1, "NumberTooLong"),
        (["mc", "check", "9" * 5000, "0", "0", "0"], 2, "UsageError"),
    ],
)
def test_numbers_too_long_for_text_are_json_errors(capsys, argv, code, error_type):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"]["type"] == error_type
    assert captured.err == ""


NINES_5000 = "9" * 5000


@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "check", NINES_5000, "0", "0", "0"],
        ["mc", "check", "0", f"1+{NINES_5000}*i", "0", "0"],
        ["mc", "nullity", NINES_5000, "1"],
        ["--format", "json", "cohomology", "--diff", "st", "1", f"1/{NINES_5000}", "--max", "2"],
    ],
)
def test_a_scalar_too_long_to_read_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert error["type"] == "UsageError"
    assert error["message"] == "number with more than 4300 digits in scalar literal"
    assert "set_int_max_str_digits" not in captured.out
    assert captured.err == ""


def test_a_rep_coefficient_too_long_to_read_is_a_format_error(capsys, tmp_path):
    target = tmp_path / "family.json"
    assert run(capsys, "rep", "example", "--emit", str(target))[0] == 0
    document = json.loads(target.read_text())
    next(iter(document["actions"].values()))[0]["coeff"] = NINES_5000
    target.write_text(json.dumps(document))
    assert main(["rep", "verify", str(target)]) == 1
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert error["type"] == "RepFormatError"
    assert error["message"] == "number with more than 4300 digits in scalar literal"
    assert "set_int_max_str_digits" not in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("text, column", [("²", 1), ("1/²", 2), ("①", 1)])
def test_superscript_and_circled_digits_are_syntax_errors(capsys, text, column):
    assert main(["normal-form", text]) == 2
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert (error["type"], error["line"], error["column"]) == ("ExprSyntaxError", 1, column)
    assert captured.err == ""


def test_rep_verify_exits_one_when_a_relation_fails(capsys, tmp_path):
    target = tmp_path / "family.json"
    assert run(capsys, "rep", "example", "--beta", "1", "--emit", str(target))[0] == 0
    document = json.loads(target.read_text())
    entry = next(iter(document["actions"].values()))[0]
    entry["coeff"] = "7"
    target.write_text(json.dumps(document))
    code, out = run(capsys, "--format", "json", "rep", "verify", str(target))
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False and payload["violations"]
    code, out = run(capsys, "rep", "verify", str(target))
    assert code == 1
    assert out.strip() != "ok"


def test_multi_digit_imaginary_point(capsys):
    code, out = run(capsys, "--format", "json", "mc", "check", "--", "0", "12*i", "0", "0")
    assert code == 0
    assert json.loads(out)["point"] == ["0", "12*i", "0", "0"]

@pytest.mark.parametrize("carrier, dim", [("A", 9 * 2**28), ("B", 2**30)])
def test_dims_at_degree_30_are_counted_not_enumerated(capsys, carrier, dim):
    code, out = run(capsys, "--max-degree", "30", "--format", "json", "dims", "--max", "30", "--carrier", carrier)
    assert code == 0
    assert json.loads(out)["dims"][-1] == {"degree": 30, "dim": dim}


def test_deep_nesting_is_a_syntax_error(capsys):
    code, out = run(capsys, "normal-form", "(" * 2000 + "mu" + ")" * 2000)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ExprSyntaxError"
    assert "nesting" in err["message"] and err["line"] == 1


def test_long_sum_is_folded_without_recursion(capsys):
    code, out = run(capsys, "normal-form", "+".join(["del"] * 3000))
    assert code == 0
    assert out.strip() == "3000*del"


def test_usage_errors(capsys):
    code, _ = run(capsys, "dims", "--max", "20", "--carrier", "A")
    assert code == 2  # beyond the default degree cap
    code, _ = run(capsys, "--max-degree", "20", "dims", "--max", "14", "--carrier", "A")
    assert code == 0
    code, _ = run(capsys, "--format", "csv", "normal-form", "del")
    assert code == 2
    code, _ = run(capsys, "cohomology", "--diff", "st", "1", "--carrier", "g", "--max", "2")
    assert code == 2


def test_argparse_usage_exit(capsys):
    assert main(["dims"]) == 2  # missing --max
    capsys.readouterr()
    assert main(["unknown-command"]) == 2
    capsys.readouterr()


def test_output_is_deterministic(capsys):
    first = run(capsys, "--format", "json", "cohomology", "--diff", "d", "--carrier", "g", "--max", "3", "--reps")
    second = run(capsys, "--format", "json", "cohomology", "--diff", "d", "--carrier", "g", "--max", "3", "--reps")
    assert first == second
    third = run(capsys, "dims", "--max", "6", "--carrier", "A")
    fourth = run(capsys, "dims", "--max", "6", "--carrier", "A")
    assert third == fourth


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["mc", "check", "-1/2", "0", "0", "0"], "point", ["-1/2", "0", "0", "0"]),
        (["mc", "nullity", "-1", "0"], "s", "-1"),
        (["normal-form", "-mu"], "normal_form", "-1*mu"),
        (
            ["cohomology", "--diff", "st", "-1/2", "1", "--carrier", "g", "--max", "3"],
            "differential",
            "st(-1/2,1)",
        ),
    ],
)
def test_positional_values_may_start_with_minus(capsys, argv, key, value):
    code, out = run(capsys, "--format", "json", *argv)
    assert code == 0
    assert json.loads(out)[key] == value


def test_minus_values_parse_as_before(capsys):
    assert run(capsys, "mc", "check", "-1/2", "0", "0", "0") == run(
        capsys, "mc", "check", "--", "-1/2", "0", "0", "0"
    )
    code, out = run(capsys, "rep", "example", "--alpha", "-1/2", "--beta", "0", "--gamma=-i")
    assert code == 0
    assert run(capsys, "rep", "example", "--alpha=-1/2", "--beta", "0", "--gamma", "-i") == (code, out)
    code, out = run(capsys, "--format", "json", "dims", "--max", "-1")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "UsageError"


@pytest.mark.parametrize(
    "argv",
    [
        ["dims"],
        ["unknown-command"],
        ["dims", "--max"],
        ["dims", "--max", "two"],
        ["--format", "xml", "dims", "--max", "2"],
        ["normal-form", "mu", "extra"],
        ["mc", "check", "1", "0"],
        ["--seed", "7", "dims", "--max", "2"],
    ],
)
def test_usage_errors_print_json(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "UsageError"


def test_help_exits_zero(capsys):
    code, out = run(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: acalg")
    code, _ = run(capsys, "mc", "check", "-h")
    assert code == 0


def test_reused_parser_leaks_no_state(capsys, monkeypatch):
    built = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real_build())
    cli._shared_parser.cache_clear()
    sequence = [
        ["cohomology", "--diff", "d", "--max", "two"],
        ["--help"],
        ["mc", "check", "1", "2", "3", "4"],
        ["normal-form", "-mu"],
        ["cohomology", "--diff", "st", "-1/2", "1", "--carrier", "g", "--max", "3"],
    ]
    passes = []
    for _ in range(2):
        results = []
        for argv in sequence:
            code = main(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        passes.append(results)
    assert passes[0] == passes[1]
    assert [code for code, _, _ in passes[0]] == [2, 0, 0, 0, 0]
    assert built == [1]  # one parser served all ten requests


def test_a_negative_degree_cap_is_a_usage_error(capsys):
    for argv in (["dims", "--max", "0"], ["cohomology", "--diff", "d", "--max", "0"]):
        code, out = run(capsys, "--format", "json", "--max-degree", "-1", *argv)
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "UsageError",
            "message": "--max-degree must be nonnegative",
        }


@pytest.mark.parametrize(
    "command",
    [
        ["normal-form", "(("],
        ["normal-form", "[mubar + delbar*del, mu]"],
        ["bracket", "((", "mu"],
        ["mc", "check", "1/0", "0", "0", "0"],
        ["mc", "tangent", "0", "0"],
        ["rep", "faithful", "nope.json"],
    ],
)
def test_csv_is_refused_before_the_request_runs(capsys, command):
    code, out = run(capsys, "--format", "csv", *command)
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "UsageError",
        "message": f"{command[0]} has no CSV form",
    }


def test_a_refused_csv_request_writes_no_file(capsys, tmp_path):
    target = tmp_path / "family.json"
    code, _ = run(capsys, "--format", "csv", "rep", "example", "--emit", str(target))
    assert code == 2
    assert not target.exists()
