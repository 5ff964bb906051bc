#!/usr/bin/env python3
"""Record the golden CLI outputs and scenario reports the tests compare with.

Writes tests/data/golden/cli.json (argv, exit code and stdout of each
command below, run from the repository root),
tests/data/golden/help.json (argv, exit code, stdout and stderr of
each call in `help_argv()`, with COLUMNS set to 80),
tests/data/golden/scenarios/<id>.txt (the seed-0 report of every
scenario), tests/data/golden/pd_catalog_outputs.jsonl (what
scripts/pd_catalog_outputs.py prints) and
tests/data/golden/random_sweep.txt (what `scripts/random_sweep.py
--trials 60 --seed 3` prints, its time masked as X.XXs).  Run it only
when an output is meant to change:

    PYTHONPATH=src python3 scripts/record_golden.py
"""

import contextlib
import io
import json
import os
import re
from pathlib import Path

from conseq.cli import COMMANDS, main
from conseq.scenarios import run_scenario, scenario_ids
from pd_catalog_outputs import output_lines
from random_sweep import main as random_sweep

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"

# system file -> (hypotheses, derive goal)
SYSTEMS = {
    "branching": ("a,b", "d"),
    "pair-chain": ("a,c", "d"),
    "single-step": ("a", "c"),
    "step-limited": ("x1,x2", "b"),
    "with-axioms": ("d", "e"),
}

# (variant, extra argv): per variant one derived query with --max-steps,
# one Certified query and one BoundedEvidence query, in that order.
PD_QUERIES = (
    ("standard", ["--hyp", "(P1 -> P0), P1", "--goal", "P0", "--size-cap", "8", "--max-steps", "5"]),
    ("standard", ["--hyp", "(P2 -> P0)", "--goal", "(P1 -> P0)", "--size-cap", "10"]),
    ("standard", ["--hyp", "P3, ((P3 -> P3) -> (P1 -> P1)), ~P3", "--goal", "(P3 -> (P1 -> P1))"]),
    (
        "restricted-mp",
        ["--n", "1", "--hyp", "(P1 -> P2), (P2 -> P3), P1", "--goal", "P3", "--size-cap", "10", "--max-steps", "5"],
    ),
    (
        "restricted-mp",
        ["--n", "3", "--hyp", "((P2 -> P2) -> (P1 -> P1)), ((P2 -> P2) -> ~P2), ~P1", "--goal", "P2"],
    ),
    ("restricted-mp", ["--n", "1", "--hyp", "(P2 -> P0), P2", "--goal", "P0"]),
    ("missing-atom", ["--n", "1", "--hyp", "(~P0 -> ~P1), P1", "--goal", "P0", "--max-steps", "5"]),
    (
        "missing-atom",
        ["--n", "3", "--hyp", "(~P0 -> (P0 -> P0)), P0, (P0 -> (P0 -> P0))", "--goal", "(P0 -> (P0 -> P3))"],
    ),
    ("missing-atom", ["--n", "3", "--hyp", "P0, (~P0 -> (P0 -> P0)), P0", "--goal", "(~P3 -> (P3 -> P3))"]),
    ("positive", ["--n", "1", "--hyp", "(P1 -> P2), P1", "--goal", "P2", "--max-steps", "3"]),
    ("positive", ["--n", "2", "--hyp", "((P0 -> P0) -> (P0 -> P0))", "--goal", "P0"]),
    (
        "positive",
        [
            "--n",
            "3",
            "--hyp",
            "((P3 -> P0) -> (P3 -> P3)), ((P0 -> P0) -> (P3 -> P3)), ~~P3",
            "--goal",
            "((P0 -> P3) -> (P0 -> P0))",
        ],
    ),
)

# Queries on a system over `language: enumerated f`, whose hypotheses
# include elements no rule mentions (f7, f9).
ENUMERATED_QUERIES = (
    ["saturate", "--hyp", "f7,f1"],
    ["derive", "--hyp", "f7", "--goal", "f7", "--max-steps", "1"],
    ["derive", "--hyp", "f9", "--goal", "f2", "--max-steps", "4"],
    ["bounded", "--hyp", "f7,f9", "--steps", "2"],
    ["bounded", "--hyp", "f7", "--steps", "9"],
)

# `pd search` queries whose output does not depend on when the truth
# table runs: a certified query whose pool overflows, a certified query
# whose bridge axiom outgrows the size cap, a goal that is a hypothesis,
# and a derivable query over 21 atoms whose 2^21-row truth table is far
# larger than its 222-formula pool.
PD_EDGE_QUERIES = (
    ["--hyp", "(P2 -> P0)", "--goal", "(P1 -> P0)", "--pool-cap", "3"],
    ["--variant", "positive", "--n", "2", "--hyp", "((P0 -> P0) -> (P0 -> P0))", "--goal", "P0", "--size-cap", "18"],
    ["--hyp", "P1, (P1 -> P2)", "--goal", "P1"],
    [
        "--hyp",
        ", ".join([f"P{i}" for i in range(1, 21)] + ["(P20 -> P0)"]),
        "--goal",
        "P0",
        "--size-cap",
        "14",
        "--pool-cap",
        "1000000",
    ],
)


# A step-capped `derive` whose saturation witness of g (a, x1, x2, x3, g:
# five steps) is longer than its minimum, four (a, b, c, g): the derivation
# printed is a shortest one.
SHORTEST_NOT_SHALLOWEST = [
    "derive", "--system", "tests/data/shortest-not-shallowest.system",
    "--hyp", "a", "--goal", "g", "--max-steps", "4",
]

# Step-capped answers no other case pins: a `derive` refused by its cap;
# a `pd search` whose saturation witness (4 steps) is longer than its
# minimum (3), so the shortest derivation is printed; and the same search
# refused by a cap below that minimum.
CAPPED_SEARCH = [
    "pd", "search", "--hyp", "(P1 -> P2), P0, P1, (P0 -> (P0 -> P2))", "--goal", "P2", "--size-cap", "14",
]
STEP_CAPPED = (
    ["derive", "--system", "systems/step-limited.system", "--hyp", "x1,x2", "--goal", "b", "--max-steps", "3"],
    CAPPED_SEARCH + ["--max-steps", "4"],
    CAPPED_SEARCH + ["--max-steps", "2"],
)


def golden_argv():
    argvs = []
    for name, (hyp, goal) in SYSTEMS.items():
        path = f"systems/{name}.system"
        argvs += [
            ["saturate", "--system", path, "--hyp", hyp],
            ["derive", "--system", path, "--hyp", hyp, "--goal", goal, "--max-steps", "8"],
            ["bounded", "--system", path, "--hyp", hyp, "--steps", "3"],
            ["check-axioms", "--system", path],
            ["csystems", "--system", path],
        ]
    for pair, hyp in (("pair-chain,single-step", "a"), ("branching,single-step", "a,b")):
        systems = ",".join(f"systems/{name}.system" for name in pair.split(","))
        argvs.append(["meet", "--systems", systems, "--hyp", hyp])
        for via in ("union", "closed-systems"):
            argvs.append(["sup", "--systems", systems, "--hyp", hyp, "--via", via])
    for variant, extra in PD_QUERIES:
        argvs.append(["pd", "search", "--variant", variant] + extra)
    for extra in ENUMERATED_QUERIES:
        argvs.append([extra[0], "--system", "tests/data/enumerated.system"] + extra[1:])
    for extra in PD_EDGE_QUERIES:
        argvs.append(["pd", "search"] + extra)
    argvs.append(SHORTEST_NOT_SHALLOWEST)
    argvs += STEP_CAPPED
    return argvs


# the terminal width argparse wraps help and usage at in help.json
HELP_COLUMNS = "80"


def leaves(table=COMMANDS, path=()):
    """The command words of every leaf of COMMANDS, in table order."""
    for name, command in table.items():
        if command.commands is None:
            yield [*path, name]
        else:
            yield from leaves(command.commands, (*path, name))


def help_argv():
    """`conseq -h`, `-h` after every leaf, then `example` with no id and a
    `pd search --variant` that is not a choice."""
    return [
        ["-h"],
        *([*leaf, "-h"] for leaf in leaves()),
        ["example"],
        ["pd", "search", "--variant", "nope", "--goal", "P0"],
    ]


def run_cli(argv):
    """main(argv)'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def main_record():
    os.chdir(ROOT)
    cases = []
    for argv in golden_argv():
        code, stdout, _ = run_cli(argv)
        cases.append({"argv": argv, "exit": code, "stdout": stdout})
    GOLDEN.mkdir(parents=True, exist_ok=True)
    (GOLDEN / "cli.json").write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    os.environ["COLUMNS"] = HELP_COLUMNS
    helps = []
    for argv in help_argv():
        code, stdout, stderr = run_cli(argv)
        helps.append({"argv": argv, "exit": code, "stdout": stdout, "stderr": stderr})
    (GOLDEN / "help.json").write_text(json.dumps(helps, indent=1) + "\n", encoding="utf-8")
    scenarios = GOLDEN / "scenarios"
    scenarios.mkdir(exist_ok=True)
    for scenario_id in scenario_ids():
        report = run_scenario(scenario_id, seed=0).render()
        (scenarios / f"{scenario_id}.txt").write_text(report + "\n", encoding="utf-8")
    lines = "".join(line + "\n" for line in output_lines())
    (GOLDEN / "pd_catalog_outputs.jsonl").write_text(lines, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        random_sweep(["--trials", "60", "--seed", "3"])
    # the time masked as CI masks it
    summary = re.sub(r" in [0-9]*\.[0-9]*s:", " in X.XXs:", out.getvalue())
    (GOLDEN / "random_sweep.txt").write_text(summary, encoding="utf-8")


if __name__ == "__main__":
    main_record()
