"""Record the output digests that the benchmark checks against.

    PYTHONPATH=src python3 bench/record_golden.py

Writes ``bench/golden.json``: per-group digests of the rewrite sweep and
one digest per pool entry of the ``normal-form`` and ``bracket`` requests.
Output must stay byte-identical across refactors, so record only at a
commit whose output is the reference, and never to make a failing run
pass.
"""

from __future__ import annotations

import importlib
import json

import workloads


def main() -> None:
    algebra = importlib.import_module("acalg.algebra")
    exprs = importlib.import_module("acalg.exprs")
    cli = importlib.import_module("acalg.cli")

    groups: dict = {}
    for word in workloads.all_words(workloads.RewriteSweep.MAX_LENGTH):
        workloads.add_to_group_digest(groups, word, exprs.render(algebra.rewrite_word(word)))
    sweep = {key: f"{value:016x}" for key, (_, value) in sorted(groups.items())}

    pool = workloads.expression_pool()
    queries = {"pool_digest": workloads.pool_digest(pool)}
    for kind in ("normal-form", "bracket"):
        digests = []
        for entry in pool[kind]:
            args = [entry] if isinstance(entry, str) else entry
            code, out = workloads.run_cli(cli, [kind, *args])
            if code != 0:
                raise SystemExit(f"{kind} {args!r} exited {code}: {out}")
            digests.append(workloads.digest(out))
        queries[kind] = digests

    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump({"rewrite_sweep": sweep, "queries": queries}, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
