"""Byte-for-byte pins of ``cli.main``: the sha256 of stdout and the exit code.

Each request covers one subcommand in one format, or one error path.  Requests
that read a representation file run in a fresh directory holding
``family.json`` (a verified family member) and ``broken.json`` (the same
member with one coefficient changed, so that a relation fails), so the file
names in the output do not depend on where the test runs.
"""

import hashlib
import json

import pytest

from acalg.cli import main
from acalg.reps import build_example_rep, rep_to_dict, save_rep
from acalg.scalars import scalar_from_text

REQUESTS = {
    "dims-A-text": (
        ["dims", "--max", "6", "--carrier", "A"],
        0,
        "7533bc6da196357da7e48ccea7b3bf0a4d6075957dc6c934c3f8ccb51eaea6cd",
    ),
    "dims-g-json": (
        ["--format", "json", "dims", "--max", "5", "--carrier", "g"],
        0,
        "7416393abd163ec25dd6b590ea42ffc90fd718a906dcc4a3cfbc9e92860f4308",
    ),
    "dims-B-csv": (
        ["--format", "csv", "dims", "--max", "6", "--carrier", "B"],
        0,
        "47d9c156b8b6a18708c0312ffceeb6a31d6b8aaf4288001547515026894ae62b",
    ),
    "normal-form-text": (
        ["normal-form", "mu*mubar"],
        0,
        "73afa5f95aa0066463313d86a1a8ad314be19b5e44ad6a5944ba8fe826813934",
    ),
    "normal-form-json": (
        ["--format", "json", "normal-form", "[mubar,del]+1/2*[delbar,delbar] - 2/3*i*del.mu"],
        0,
        "4ffbd9acc334a6ef7ef3ef49cbaa23574516d06947253264a48088416919d5de",
    ),
    "bracket-text": (
        ["bracket", "mubar", "del"],
        0,
        "3820e24c6e0f79346942d79d33776ea64c5c499d40f304b8679a21db573b6666",
    ),
    "bracket-json": (
        ["--format", "json", "bracket", "delbar*del", "3+i"],
        0,
        "8d67b3482fe4a807f34dd412f805f25f1591689d3a0c49a36789466f2ef391dd",
    ),
    "cohomology-d-g-text": (
        ["cohomology", "--diff", "d", "--carrier", "g", "--max", "4"],
        0,
        "cac5a236b118672464d19a3582147f59450c3692cfb04db086c28de9018dd02d",
    ),
    "cohomology-mu-g-csv": (
        ["--format", "csv", "cohomology", "--diff", "mu", "--carrier", "g", "--max", "4"],
        0,
        "51906d46fe5697fdf521108c0d6780a6a994af9084422f54337eda44be83b6de",
    ),
    "cohomology-B-json": (
        ["--format", "json", "cohomology", "--diff", "mubar", "--carrier", "B", "--max", "6"],
        0,
        "ae574afdd651ac78f3f9305b969b84f280d2448d80ae176e191453f391ad7616",
    ),
    "cohomology-st-h-json": (
        ["--format", "json", "cohomology", "--diff", "st", "1/2", "3+i", "--carrier", "h", "--max", "5"],
        0,
        "7db36a45133d7fbf94ee72a17d9591752a7ce3395fef441856cc0d4263498c2c",
    ),
    "cohomology-reps-g-json": (
        ["--format", "json", "cohomology", "--diff", "mubar", "--carrier", "g", "--max", "5", "--reps"],
        0,
        "3f7afb6fe55649b7193f5b33807c1a55c5bb5cf5c28d08fd257206c7cf8a2529",
    ),
    "cohomology-reps-h-csv": (
        ["--format", "csv", "cohomology", "--diff", "mubar", "--carrier", "h", "--max", "5", "--reps"],
        0,
        "4e8e38612a5dfc5b3629735df80923119c08ecec4d82534cf865454f12c9a759",
    ),
    "cohomology-reps-h-text": (
        ["cohomology", "--diff", "d", "--carrier", "h", "--max", "4", "--reps"],
        0,
        "33888947c621a81586b482feb675e2fe30c06557a624d66185c51220c8263f33",
    ),
    "cohomology-reps-B-text": (
        ["cohomology", "--diff", "mubar", "--carrier", "B", "--max", "5", "--reps"],
        0,
        "141f84e637ba812dbe11abe0cf7d4c8adbc59416d9655432d2fd101f18041ecf",
    ),
    "cohomology-reps-B-json": (
        ["--format", "json", "cohomology", "--diff", "st", "1/2", "3+i", "--carrier", "B", "--max", "4", "--reps"],
        0,
        "e331f5f1cc14ba5081cf1c15b47e8e9bfdb6f79d04ecb08bb1cfcb9ff5ab9074",
    ),
    "cohomology-reps-B-csv": (
        ["--format", "csv", "cohomology", "--diff", "mu", "--carrier", "B", "--max", "4", "--reps"],
        0,
        "aae4fdb0a24afb9ee35552779502a79028a268d886c492c5d81e6b74fcac56cd",
    ),
    # B in the degrees where the order rows enter the elimination decides its cost
    "cohomology-reps-mubar-B10-json": (
        ["--format", "json", "cohomology", "--diff", "mubar", "--carrier", "B", "--max", "10", "--reps"],
        0,
        "44c0c86b1bfe524bd2c71b3fb2f64da4846d2e4e33d43055293ad055ee9375da",
    ),
    "cohomology-reps-mu-B10-json": (
        ["--format", "json", "cohomology", "--diff", "mu", "--carrier", "B", "--max", "10", "--reps"],
        0,
        "1e104c0792ad56322cd9aab3419949b963f06ac72b6bb4ba36590bb2d405e3ca",
    ),
    "cohomology-reps-d-B9-json": (
        ["--format", "json", "cohomology", "--diff", "d", "--carrier", "B", "--max", "9", "--reps"],
        0,
        "f24f32f646f3ca72f7d94de424ad63a236e38719a85be7124360cf64c3a1eca7",
    ),
    "mc-check-text": (
        ["mc", "check", "1", "1", "1", "1"],
        0,
        "c9dfc9b431770fa55e2d5350b2d895ac13d3b16722257624a1c8cb8e0e4e7f42",
    ),
    "mc-check-json": (
        ["--format", "json", "mc", "check", "-1/2", "0", "i", "0"],
        0,
        "d67303a44369b8e56f5b8d4ab9f98c5ddf3553942cd31b9961b025c10643c547",
    ),
    "mc-param-text": (
        ["mc", "param", "2", "1"],
        0,
        "2342bb8db370e55e330061a2762e03edfcb23a1be7fa540bc23d72610f175ae5",
    ),
    "mc-param-json": (
        ["--format", "json", "mc", "param", "1/2", "3+i"],
        0,
        "42089bc32305adb6efcf721636989d86ebeffcc4f118985da1416754069f6130",
    ),
    "mc-tangent-text": (
        ["mc", "tangent", "1", "1"],
        0,
        "b203a808950a62102e981b6c8959a59af9b84efe8e494f3ee1c9aa9f06521c32",
    ),
    "mc-tangent-json": (
        ["--format", "json", "mc", "tangent", "2", "1"],
        0,
        "a9f60b5973dd522c5a3e32d0317a411f21bb23fd052e11e14f8f33c9fe92bced",
    ),
    "mc-nullity-text": (
        ["mc", "nullity", "1", "0"],
        0,
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    ),
    "mc-nullity-json": (
        ["--format", "json", "mc", "nullity", "0", "0"],
        0,
        "2bbbe3ea85972dde89afe6e7f2b72201ea0482f304156226df22661a210e33ab",
    ),
    "rep-example-text": (
        ["rep", "example", "--alpha", "1/2", "--beta", "0", "--gamma=-1/2"],
        0,
        "65a57dd2912a9ffcc861db334a4d90661c03365ed92722d694924c2797a7984f",
    ),
    "rep-example-json": (
        ["--format", "json", "rep", "example", "--alpha", "i"],
        0,
        "38b8d9de2cfd91c3ea7d150729c9e40fc1a6c0cd197c53c29bfa3638ede3acdb",
    ),
    "rep-emit-text": (
        ["rep", "example", "--alpha", "1/2", "--emit", "out.json"],
        0,
        "1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e",
    ),
    "rep-emit-json": (
        ["--format", "json", "rep", "example", "--beta", "1", "--emit", "out.json"],
        0,
        "3a32855f1ec810c13ca8b015db7b04cc44fb127711f409af90ef383f960e052c",
    ),
    "rep-verify-text": (
        ["rep", "verify", "family.json"],
        0,
        "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22",
    ),
    "rep-verify-json": (
        ["--format", "json", "rep", "verify", "family.json"],
        0,
        "4717472f6a89def3ecdc6261ea10ba9205ecc465c5d4d363e3fe118356564e0d",
    ),
    "rep-verify-broken-text": (
        ["rep", "verify", "broken.json"],
        1,
        "9ff47ddb8effedddb567f7cd6a123915874006319961281330db279d68b14a31",
    ),
    "rep-verify-broken-json": (
        ["--format", "json", "rep", "verify", "broken.json"],
        1,
        "f57936b5be0a0959e6a52feff7367f2e3a23a12adcd5e4c7c56e1a0d1f1c4853",
    ),
    "rep-faithful-text": (
        ["rep", "faithful", "family.json"],
        0,
        "a9ac0c3ac83c40e1b4c3416066d63d324ee9f8c144641dfeed72d140b6557245",
    ),
    "rep-faithful-json": (
        ["--format", "json", "rep", "faithful", "family.json"],
        0,
        "f68de86bf203bc3e184a15f8b641e4dc781385451395cc662bfdd5deb758b2ba",
    ),
    "error-syntax": (
        ["normal-form", "[del"],
        2,
        "5a60a049a0e29ba02bbd74ed74aa3b71195a378ebc67be164a124d195312e650",
    ),
    "error-syntax-before-domain": (
        ["--format", "json", "normal-form", "[mubar + delbar*del, mu] +"],
        2,
        "8020c84acedbd918da3a2be136826f03600d04c9d39307d774c98b1d489c78c6",
    ),
    "error-domain-bracket": (
        ["normal-form", "[mubar + delbar*del, mu]"],
        1,
        "430e093031fe31abef7ddf2a7eb03fe0dedd2d889955c57062fcca51ef15cf9f",
    ),
    "error-domain-mc": (
        ["mc", "tangent", "0", "0"],
        1,
        "fbfc6580154553b343eeff19721f09920e95cd8d1fb04ed204240bfe09f9efb2",
    ),
    "error-missing-file": (
        ["rep", "faithful", "nope.json"],
        1,
        "3029cc407989223d818a9f6cef2818b51a33b16d7733cf79e90234f858a84877",
    ),
    "error-cap": (
        ["dims", "--max", "20", "--carrier", "A"],
        2,
        "65ade1bda2b060de5a0f6a174d2b01f706810b479263e6e03b418c5a86962831",
    ),
    "error-negative-max": (
        ["--format", "json", "dims", "--max", "-1"],
        2,
        "96f255e831747ae231f3a4415ec786372781be85fd76733445edacd082427b33",
    ),
    "error-bad-diff": (
        ["cohomology", "--diff", "st", "1", "--max", "2"],
        2,
        "9492cbba4bb47f309d70be2453a8de4bd49f8b5a040148cac6e9d6aebac91608",
    ),
    "error-bad-scalar": (
        ["mc", "nullity", "1/0", "0"],
        2,
        "facefd7423defee7cf874cb68aa6bb9032f0c0fc2bb05385546386f4a9153749",
    ),
    "error-csv-normal-form": (
        ["--format", "csv", "normal-form", "del"],
        2,
        "435d038e870291d3b73d01b7dba4bb684772504ec6d8b40fb0168f7d3979ac2c",
    ),
    "error-csv-bracket": (
        ["--format", "csv", "bracket", "mubar", "del"],
        2,
        "7c66031d611f2a89b2c12b60dcff90dfc6f7758697cc8a69a448b681e2386941",
    ),
    "error-csv-mc": (
        ["--format", "csv", "mc", "check", "1", "1", "1", "1"],
        2,
        "aabf7834b7a8ee1998fececbb17dae2036f890bf76d1f804d2f821a564962778",
    ),
    "error-csv-rep": (
        ["--format", "csv", "rep", "faithful", "family.json"],
        2,
        "1f7935b5a9cfb7c27abf7a4e5225cd4b729fdc0124b1f7c81fe43ae44962eca1",
    ),
}


@pytest.fixture
def rep_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rep = build_example_rep(*(scalar_from_text(v) for v in ("1/2", "0", "-1/2")))
    save_rep(rep, "family.json")
    data = rep_to_dict(rep)
    data["actions"]["mubar"][1]["coeff"] = "1"
    (tmp_path / "broken.json").write_text(json.dumps(data), encoding="utf-8")
    return tmp_path


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_output_matches_the_recorded_digest(capsys, rep_dir, name):
    argv, code, digest = REQUESTS[name]
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
