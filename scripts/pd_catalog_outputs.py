#!/usr/bin/env python3
"""Print the outputs of every `pd search` query in the benchmark catalog.

For each query of perfbench/pd_catalog.json, once as the benchmark runs
it and once more with `--max-steps 2`, one JSON line holds the argv, the
exit code, stdout and stderr of `conseq` run in-process.  Two checkouts
give the same outputs when their files compare equal:

    PYTHONPATH=src python3 scripts/pd_catalog_outputs.py > outputs.jsonl

The catalog is only read.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from conseq.cli import main as conseq_main

CATALOG = Path(__file__).resolve().parent.parent / "perfbench" / "pd_catalog.json"


def query_argv(query, pool_cap, size_cap):
    argv = ["pd", "search", "--variant", query["variant"]]
    if query["n"] is not None:
        argv += ["--n", str(query["n"])]
    return argv + [
        "--hyp", ", ".join(query["hyps"]),
        "--goal", query["goal"],
        "--pool-cap", str(pool_cap),
        "--size-cap", str(size_cap),
    ]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = conseq_main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def output_lines():
    """One JSON line per run, in the order printed."""
    catalog = json.loads(CATALOG.read_text(encoding="utf-8"))
    for extra in ([], ["--max-steps", "2"]):
        for query in catalog["queries"]:
            argv = query_argv(query, catalog["pool_cap"], catalog["size_cap"]) + extra
            yield json.dumps(run(argv), sort_keys=True)


def main() -> int:
    for line in output_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
