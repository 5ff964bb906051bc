"""The command-line interface: outputs and exit codes.

Exit code contract: 0 success / all checks pass, 1 a check failed
(axiom broken, goal not derivable, non-tautology, scenario FAIL),
2 malformed usage or unparseable input.
"""

import argparse
import io
import json
import os
import resource
import string
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import conseq.cli
import conseq.engine
import conseq.propositional
from conseq import propositional as pd
from conseq.cli import main
from conseq.engine import (
    check_derivation,
    check_step_cap,
    min_derivation_size,
    saturate,
    shortest_derivation,
)
from conseq.errors import ConseqError
from conseq.fileformat import dumps_system, load_system
from conseq.language import Element, FiniteSubset
from conseq.rules import Apply, Derivation, Insert, step_element
from conseq.sampling import random_system, seeded, small_language

from reference import documented_order, random_subset, search_pool, words

ROOT = Path(__file__).parent.parent
SYSTEMS = ROOT / "systems"
STEPS = str(SYSTEMS / "step-limited.system")
PAIRS = str(SYSTEMS / "pair-chain.system")
SINGLE = str(SYSTEMS / "single-step.system")
BRANCHING = str(SYSTEMS / "branching.system")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_saturate(capsys):
    code, out, _ = run(capsys, "saturate", "--system", STEPS, "--hyp", "x1,x2")
    assert code == 0
    assert out.splitlines() == ["a", "b", "x1", "x2"]


def test_enumerated_language_with_huge_indices_stays_small(tmp_path):
    # Bits of a mask are never enumeration indices: 1 << 99999999999
    # would need 12.5 GB.  The address-space cap turns such a regression
    # into a quick MemoryError instead of a machine-wide memory grab.
    system = tmp_path / "huge.system"
    system.write_text(
        "language: enumerated f\n"
        "rule r: f99999999999 => f3\n"
        "rule s: f3 => f7\n"
        "rule t: f3 f5 => f123456789012345\n"
    )

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    def conseq(*argv):
        done = subprocess.run(
            [sys.executable, "-m", "conseq", *argv],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            preexec_fn=cap_memory,
            capture_output=True,
            text=True,
            timeout=30,
        )
        return done.returncode, done.stdout.splitlines()

    def run_on(command, *argv):
        return conseq(command, "--system", str(system), *argv)

    assert run_on("bounded", "--hyp", "f99999999999", "--steps", "1") == (0, ["f99999999999"])
    assert run_on("bounded", "--hyp", "f99999999999,f5", "--steps", "3") == (
        0,
        ["f3", "f5", "f7", "f99999999999"],
    )
    goal = ["--hyp", "f99999999999,f5", "--goal", "f123456789012345"]
    code, out = run_on("derive", *goal, "--max-steps", "5")
    assert (code, out[0]) == (0, "minimal steps: 4")
    assert run_on("derive", *goal, "--max-steps", "3") == (
        1,
        ["f123456789012345 is not derivable within 3 steps"],
    )
    # f42 is in no rule and passes through
    assert conseq(
        "meet", "--systems", f"{system},{system}", "--hyp", "f42,f99999999999"
    ) == (0, ["f3", "f42", "f7", "f99999999999"])


def test_bounded(capsys):
    code, out, _ = run(capsys, "bounded", "--system", STEPS, "--hyp", "x1,x2", "--steps", "3")
    assert code == 0
    assert out.splitlines() == ["a", "x1", "x2"]


def test_derive_prints_a_numbered_witness(capsys):
    code, out, _ = run(
        capsys,
        "derive",
        "--system",
        STEPS,
        "--hyp",
        "x1,x2",
        "--goal",
        "b",
        "--max-steps",
        "6",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "minimal steps: 4"
    assert lines[1].startswith("1. ")
    assert lines[-1].endswith("b  [to-b from 3]")


def test_derive_failure_modes(capsys):
    code, out, _ = run(capsys, "derive", "--system", STEPS, "--hyp", "x1", "--goal", "b")
    assert code == 1
    assert "not derivable" in out
    code, out, _ = run(
        capsys,
        "derive",
        "--system",
        STEPS,
        "--hyp",
        "x1,x2",
        "--goal",
        "b",
        "--max-steps",
        "3",
    )
    assert code == 1
    assert "not derivable within 3 steps" in out


def test_check_axioms_pass_and_fail(capsys):
    code, out, _ = run(capsys, "check-axioms", "--system", STEPS)
    assert code == 0
    assert "idempotent: ok" in out

    # a bound below the language size is a usage error
    code, _, err = run(capsys, "check-axioms", "--system", STEPS, "--bound", "2")
    assert code == 2
    assert "error:" in err


def test_check_axioms_past_the_table_ceiling_exits_2_at_once(tmp_path):
    # 2^30 images would take gigabytes; under a 1 GB address-space cap a
    # table built anyway ends in a MemoryError traceback, not a machine-wide grab
    names = [f"e{i:02d}" for i in range(30)]
    chain = tmp_path / "chain30.system"
    chain.write_text(
        "language: " + " ".join(names) + "\n"
        + "".join(f"rule step: {a} => {b}\n" for a, b in zip(names, names[1:]))
    )
    done = subprocess.run(
        [sys.executable, "-m", "conseq", "check-axioms", "--system", str(chain), "--bound", "30"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (
        "error: language has 30 elements; a table of all 2^30 subsets is refused above 22 elements\n"
    )


def test_meet_and_sup(capsys):
    both = f"{PAIRS},{SINGLE}"
    code, out, _ = run(capsys, "meet", "--systems", both, "--hyp", "a")
    assert code == 0
    assert out.splitlines() == ["a"]

    code, closed, _ = run(capsys, "sup", "--systems", both, "--hyp", "a")
    assert code == 0
    assert closed.splitlines() == ["a", "b", "c", "d"]

    code, union, _ = run(capsys, "sup", "--systems", both, "--hyp", "a", "--via", "union")
    assert code == 0
    assert union == closed


def test_csystems_lists_the_family(capsys):
    code, out, _ = run(capsys, "csystems", "--system", BRANCHING)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "{}"
    assert lines[-1] == "{a,b,c,d}"
    assert "{a,c}" in lines
    assert "{a}" not in lines


def test_pd_taut(capsys):
    code, out, _ = run(capsys, "pd", "taut", "(P0 -> (P1 -> P0))")
    assert code == 0
    assert out.strip() == "tautology"

    code, out, _ = run(capsys, "pd", "taut", "(P0 -> P1)")
    assert code == 1
    assert out.strip() == "falsified by {P0=true, P1=false}"


def test_pd_h(capsys):
    code, out, _ = run(capsys, "pd", "h", "((~P0 -> ~P1) -> (P1 -> P0))")
    assert code == 0
    assert out.strip() == "((P0 -> P1) -> (P1 -> P0))"


DEEP_NEG = "~" * 3000 + "P0"
DEEP_IMPL = "(" * 3000 + "P0" + " -> P1)" * 3000


@pytest.mark.parametrize(
    "argv",
    [
        ("pd", "taut", DEEP_NEG),
        ("pd", "taut", DEEP_IMPL),
        ("pd", "h", DEEP_NEG),
        ("pd", "search", "--goal", DEEP_NEG),
        ("pd", "search", "--hyp", f"P1,{DEEP_IMPL}", "--goal", "P0"),
    ],
    ids=["taut-neg", "taut-impl", "h", "search-goal", "search-hyp"],
)
def test_deeply_nested_formulas_exit_2_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: column {conseq.propositional.MAX_DEPTH + 1}: "
        f"formula nested deeper than {conseq.propositional.MAX_DEPTH} levels"
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ("pd", "taut", "P\u00b2"),
        ("pd", "taut", "P\u0661"),
        ("pd", "h", "P\u00b2"),
        ("pd", "search", "--hyp", "P\u00b2", "--goal", "P0"),
        ("pd", "search", "--goal", "P\u0661"),
    ],
    ids=["taut-superscript", "taut-arabic-indic", "h", "search-hyp", "search-goal"],
)
def test_non_ascii_atom_index_exits_2_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: column 2: atom needs a decimal index after 'P'"]


def test_certificate_hypothesis_count_is_capped(capsys):
    cap = conseq.propositional.MAX_DEPTH
    code, out, _ = run(capsys, "pd", "search", "--hyp", ",".join(["P1"] * cap), "--goal", "P2")
    assert code == 1
    assert out.startswith("not derivable: ")
    assert out.rstrip().endswith("is falsified by {P1=true, P2=false}")
    for count in (cap + 1, 1500):
        code, out, err = run(capsys, "pd", "search", "--hyp", ",".join(["P1"] * count), "--goal", "P2")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"error: a non-derivability certificate takes at most {cap} hypotheses, not {count}"
        ]


def test_pd_search_finds_a_derivation(capsys):
    code, out, _ = run(
        capsys,
        "pd",
        "search",
        "--hyp",
        "(P1 -> P0), P1",
        "--goal",
        "P0",
        "--size-cap",
        "8",
        "--max-steps",
        "5",
    )
    assert code == 0
    assert out.splitlines()[0] == "minimal steps: 3"


def test_pd_search_reports_a_semantic_certificate(capsys):
    code, out, _ = run(
        capsys,
        "pd",
        "search",
        "--hyp",
        "(P2 -> P0)",
        "--goal",
        "(P1 -> P0)",
        "--size-cap",
        "10",
    )
    assert code == 1
    assert "falsified by {P0=false, P1=true, P2=false}" in out


def test_pd_search_reports_bounded_evidence(capsys):
    code, out, _ = run(
        capsys,
        "pd",
        "search",
        "--variant",
        "restricted-mp",
        "--n",
        "1",
        "--hyp",
        "(P2 -> P0), P2",
        "--goal",
        "P0",
    )
    assert code == 1
    assert "evidence only, not a proof" in out


def test_pd_search_step_cap_that_binds(capsys):
    # P0 takes three steps: both hypotheses, then detachment
    argv = ["--hyp", "(P1 -> P0), P1", "--goal", "P0", "--size-cap", "8"]
    assert run(capsys, "pd", "search", *argv, "--max-steps", "2") == (
        1, "derivable, but not within 2 steps\n", ""
    )
    code, out, _ = run(capsys, "pd", "search", *argv, "--max-steps", "3")
    assert (code, out.splitlines()[0]) == (0, "minimal steps: 3")


SEARCHED = {"subformula_closure": 1, "saturate": 1, "mp": 1}


@pytest.mark.parametrize(
    "argv, expected, searched",
    [
        (["--hyp", "(P1 -> P0), P1", "--goal", "P0", "--size-cap", "8", "--max-steps", "5"], 0, SEARCHED),
        # 8 valuations, 21 pool formulas: the truth table certifies before anything is grounded
        (["--hyp", "(P2 -> P0)", "--goal", "(P1 -> P0)", "--size-cap", "14"], 1, {"subformula_closure": 1}),
        # 8 valuations, 5 pool formulas: the pool is searched before the truth table runs
        (["--hyp", "(P2 -> P0)", "--goal", "(P1 -> P0)", "--size-cap", "10"], 1, SEARCHED),
        (["--variant", "restricted-mp", "--n", "1", "--hyp", "(P2 -> P0), P2", "--goal", "P0"], 1, SEARCHED),
    ],
    ids=["derived", "certified", "certified-small-pool", "bounded"],
)
def test_pd_search_builds_and_saturates_its_pool_once(capsys, monkeypatch, argv, expected, searched):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, name in (
        (conseq.propositional, "subformula_closure"),
        (conseq.engine, "saturate"),
        (conseq.cli, "saturate"),
    ):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    instantiate = conseq.propositional.instantiate_schema

    def instantiate_counted(schema, pool):
        calls["mp" if schema.kind.startswith("mp") else "axioms"] += 1
        return instantiate(schema, pool)

    monkeypatch.setattr(conseq.propositional, "instantiate_schema", instantiate_counted)
    code, _, _ = run(capsys, "pd", "search", *argv)
    assert code == expected
    # detachment is instantiated once, by pd_system, however many searches follow
    assert calls == searched
    # the axioms are the closure's own fills, not recognized again
    assert calls["axioms"] == 0


def _search_first(variant, n, hypotheses, goal, size_cap, pool_cap, max_steps):
    """`pd search` searching its pool before it looks at the truth table:
    (exit code, stdout, stderr)."""
    try:
        if max_steps is not None:
            check_step_cap(max_steps)
        search = search_pool(variant, hypotheses, goal, n=n, size_cap=size_cap, max_pool=pool_cap)
        goal_element = pd.wff_element(goal)
        if goal_element in search.result.closure:
            out = ""
            derivation = search.result.witnesses[goal_element]
            if max_steps is not None:
                size = min_derivation_size(search.system, search.hypotheses, goal_element, cap=max_steps)
                if size is None:
                    return 1, f"derivable, but not within {max_steps} steps\n", ""
                out = f"minimal steps: {size}\n"
                if len(derivation) != size:
                    derivation = shortest_derivation(search.system, search.hypotheses, goal_element, max_steps)
            return 0, out + derivation.render() + "\n", ""
        certificate = pd.certificate_non_derivable(
            variant, hypotheses, goal, n=n, size_cap=size_cap, max_pool=pool_cap, search=search
        )
    except ConseqError as exc:
        return 2, "", f"error: {exc}\n"
    if isinstance(certificate, pd.Certified):
        text = pd.wff_to_text(certificate.transform)
        return 1, f"not derivable: {text} is falsified by {certificate.valuation}\n", ""
    return 1, (
        f"not derived: search exhausted a pool of {certificate.pool_size} formulas "
        f"(size cap {certificate.size_cap}); evidence only, not a proof\n"
    ), ""


# hypotheses and a goal whose saturation witness (4 steps at size cap 14)
# is longer than its minimum (3)
LONGER_WITNESS = ([pd.parse(t) for t in ("(P1 -> P2)", "P0", "P1", "(P0 -> (P0 -> P2))")], pd.Atom(2))


small_wffs = st.recursive(
    st.integers(min_value=0, max_value=3).map(pd.Atom),
    lambda inner: st.one_of(st.builds(pd.Neg, inner), st.builds(pd.Impl, inner, inner)),
    max_leaves=4,
)


@settings(deadline=None, max_examples=150)
@given(
    st.sampled_from([("standard", None)] + [(v, n) for v in pd.VARIANTS[1:] for n in (1, 2)]),
    st.lists(small_wffs, max_size=3),
    small_wffs,
    st.sampled_from([8, 14, 22]),
    st.sampled_from([3, 40, 150, 400]),
    st.one_of(st.none(), st.integers(min_value=1, max_value=2)),
)
@example(("standard", None), [pd.parse("(P2 -> P0)")], pd.parse("(P1 -> P0)"), 22, 3, None)
@example(("positive", 2), [pd.parse("((P0 -> P0) -> (P0 -> P0))")], pd.Atom(0), 18, 400, None)
@example(("positive", 0), [pd.Atom(1)], pd.Atom(0), 22, 400, None)
@example(("standard", None), [pd.Atom(1), pd.parse("(P1 -> P2)")], pd.Atom(1), 22, 150, 1)
@example(("standard", None), [pd.Atom(1)] * (pd.MAX_DEPTH + 1), pd.Atom(2), 4, 3, None)
@example(("standard", None), *LONGER_WITNESS, 14, 400, 4)
def test_pd_search_prints_what_searching_first_prints(
    variant_n, hypotheses, goal, size_cap, pool_cap, max_steps
):
    variant, n = variant_n
    argv = ["pd", "search", "--variant", variant, "--goal", pd.wff_to_text(goal)]
    argv += ["--hyp", ", ".join(pd.wff_to_text(h) for h in hypotheses)]
    argv += ["--size-cap", str(size_cap), "--pool-cap", str(pool_cap)]
    argv += ["--n", str(n)] if n is not None else []
    argv += ["--max-steps", str(max_steps)] if max_steps is not None else []
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert (code, out.getvalue(), err.getvalue()) == _search_first(
        variant, n, hypotheses, goal, size_cap, pool_cap, max_steps
    )


def test_example_runs_scenarios(capsys):
    code, out, _ = run(capsys, "example", "2.2")
    assert code == 0
    assert out.strip().endswith("SCENARIO 2.2: PASS")


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "example", "no-such-scenario")
    assert code == 2
    assert "unknown scenario" in err

    code, _, err = run(capsys, "saturate", "--system", STEPS, "--hyp", "zz")
    assert code == 2
    assert "error:" in err

    code, _, err = run(capsys, "pd", "taut", "(P0 ->")
    assert code == 2
    assert "column" in err

    # argparse-level problems also map to 2
    assert main(["saturate", "--system", STEPS]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command",
    [
        ["saturate", "--system", "{path}", "--hyp", "a"],
        ["csystems", "--system", "{path}"],
        ["meet", "--systems", "{path}," + PAIRS, "--hyp", "a"],
    ],
    ids=["saturate", "csystems", "meet"],
)
def test_missing_system_file_exits_2(capsys, tmp_path, command):
    path = str(tmp_path / "missing.system")
    code, out, err = run(capsys, *(arg.replace("{path}", path) for arg in command))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: cannot read system file {path!r}: No such file or directory"]


def test_system_file_that_is_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "latin1.system"
    path.write_bytes(b"language: a \xe9\n")
    code, out, err = run(capsys, "saturate", "--system", str(path), "--hyp", "a")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: system file {str(path)!r} is not UTF-8 text: invalid continuation byte"
    ]


@pytest.mark.parametrize("command", ["meet", "sup"])
@pytest.mark.parametrize("systems", ["", ",", " , "])
def test_empty_systems_list_exits_2(capsys, command, systems):
    code, out, err = run(capsys, command, f"--systems={systems}", "--hyp", "a")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: --systems names no system file"]


def test_bridge_axiom_longer_than_the_size_cap_is_named(capsys):
    # one flag of the variant table adds the bridge for both variants
    for variant in ("positive", "missing-atom"):
        argv = ["--variant", variant, "--n", "1", "--hyp", "(~P0 -> ~P1), P1", "--goal", "P0"]
        code, out, err = run(capsys, "pd", "search", *argv, "--size-cap", "18")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"error: the {variant} variant adds the bridge axiom ((~P0 -> ~P1) -> (P1 -> P0)) "
            "to the pool, which needs --size-cap 22 or more, not 18"
        ]


@pytest.mark.parametrize(
    "flag, value", [("--pool-cap", "-1"), ("--pool-cap", "0"), ("--size-cap", "0"), ("--size-cap", "-5")]
)
def test_pd_search_refuses_caps_below_one(capsys, flag, value):
    code, out, err = run(capsys, "pd", "search", "--goal", "P0", flag, value)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {flag} must be at least 1, not {value}"]


@pytest.mark.parametrize("cap", ["0", "-2"])
@pytest.mark.parametrize(
    "argv",
    [
        ["derive", "--system", PAIRS, "--hyp", "a", "--goal", "d"],
        ["derive", "--system", PAIRS, "--hyp", "a,c", "--goal", "d"],
        ["pd", "search", "--hyp", "P1", "--goal", "P0"],
        ["pd", "search", "--hyp", "(P1 -> P0), P1", "--goal", "P0", "--size-cap", "8"],
    ],
    ids=["derive-underivable", "derive-derivable", "pd-search-certified", "pd-search-derivable"],
)
def test_step_cap_below_one_is_refused_before_saturating(capsys, monkeypatch, argv, cap):
    def refuse(*args, **kwargs):
        raise AssertionError("saturated despite a step cap below 1")

    monkeypatch.setattr(conseq.cli, "saturate", refuse)
    monkeypatch.setattr(conseq.engine, "saturate", refuse)
    code, out, err = run(capsys, *argv, "--max-steps", cap)
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: the step cap must be at least 1"]


@pytest.mark.parametrize("n", [None, "0", "-1"])
@pytest.mark.parametrize("variant", ["restricted-mp", "missing-atom", "positive"])
def test_pd_search_refuses_a_missing_index_before_building_the_pool(capsys, monkeypatch, variant, n):
    def refuse(*args, **kwargs):
        raise AssertionError("built a pool without a valid index")

    monkeypatch.setattr(conseq.propositional, "subformula_closure", refuse)
    monkeypatch.setattr(conseq.propositional, "bridge_axiom", refuse)
    argv = ["pd", "search", "--variant", variant, "--hyp", "P1", "--goal", "P0"]
    code, out, err = run(capsys, *argv, *(["--n", n] if n is not None else []))
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: variant {variant} needs an index n >= 1"]


def test_entrypoint_raises_system_exit(capsys):
    from conseq.cli import entrypoint

    with pytest.raises(SystemExit) as info:
        import sys

        old = sys.argv
        sys.argv = ["conseq", "pd", "h", "P0"]
        try:
            entrypoint()
        finally:
            sys.argv = old
    assert info.value.code == 0
    capsys.readouterr()


GOLDEN_CASES = json.loads((ROOT / "tests" / "data" / "golden" / "cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "case", GOLDEN_CASES, ids=[f"{i:02d}-{c['argv'][0]}" for i, c in enumerate(GOLDEN_CASES)]
)
def test_golden_stdout_and_exit_code(capsys, monkeypatch, case):
    # recorded by scripts/record_golden.py; argv paths are relative to the root
    monkeypatch.chdir(ROOT)
    code, out, _ = run(capsys, *case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])


HELP_CASES = json.loads((ROOT / "tests" / "data" / "golden" / "help.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", HELP_CASES, ids=[" ".join(c["argv"]) for c in HELP_CASES])
def test_golden_help_and_usage_errors(capsys, monkeypatch, case):
    # recorded by scripts/record_golden.py at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *case["argv"]) == (case["exit"], case["stdout"], case["stderr"])


@pytest.mark.parametrize(
    "argv",
    [
        ["derive", "--system", "systems/step-limited.system", "--hyp", "x1,x2", "--goal", "b"],
        ["pd", "search", "--variant", "missing-atom", "--n", "1",
         "--hyp", "(~P0 -> ~P1), P1", "--goal", "P0"],
        ["example", "3.3.2"],
        ["example", "3.5", "--seed", "3"],
        ["example", "csystem-lattice", "--seed", "3"],
        ["example", "thm-2.2-random", "--seed", "3"],
        ["example", "2.1-axioms", "--seed", "3"],
        ["example", "3.3", "--seed", "3"],
        ["pd", "search", "--variant", "restricted-mp", "--n", "1",
         "--hyp", "(P1 -> P2), (P2 -> P3), P1", "--goal", "P3", "--size-cap", "10", "--max-steps", "5"],
        ["derive", "--system", "tests/data/enumerated.system", "--hyp", "f7,f1", "--goal", "f2",
         "--max-steps", "4"],
        ["bounded", "--system", "tests/data/enumerated.system", "--hyp", "f9,f5", "--steps", "2"],
    ],
    ids=[
        "derive", "pd-search", "example", "example-3.5", "example-csystem-lattice",
        "example-thm-2.2-random", "example-2.1-axioms", "example-3.3", "pd-search-minimal-steps",
        "derive-enumerated", "bounded-enumerated",
    ],
)
def test_reports_do_not_depend_on_the_hash_seed(argv):
    # element hashes are salted per process: no witness order may come
    # from iterating a set
    def stdout(hash_seed):
        done = subprocess.run(
            [sys.executable, "-m", "conseq", *argv],
            cwd=ROOT,
            env={
                **os.environ,
                "PYTHONPATH": os.pathsep.join(sys.path),
                "PYTHONHASHSEED": hash_seed,
            },
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    assert stdout("0") == stdout("1")


# ---------------------------------------------------------------------------
# printed witnesses: what derive and pd search print reads back as a
# derivation that check_derivation accepts


def parse_witness(lines):
    """The numbered steps `Derivation.render` prints, as a Derivation.
    Element names and rule ids hold no whitespace, so the words of each
    bracket tell the three step forms apart."""
    steps = []
    for number, line in enumerate(lines, start=1):
        head, _, origin = line.rpartition("  [")
        assert head.startswith(f"{number}. ") and origin.endswith("]"), line
        element = Element(head[len(f"{number}. "):])
        words = origin[:-1].split(" ")
        if words == ["hypothesis"]:
            steps.append(Insert(element))
        elif len(words) == 2 and words[0] == "axiom":
            steps.append(Insert(element, words[1]))
        else:
            rule_id, by, refs = words
            assert by == "from", line
            steps.append(Apply(rule_id, tuple(int(k) for k in refs.split(",")), element))
    return Derivation(tuple(steps))


def printed_witness(out, goal):
    lines = out.splitlines()
    if lines[0].startswith("minimal steps: "):
        size = int(lines[0].removeprefix("minimal steps: "))
        lines = lines[1:]
        assert size <= len(lines)
    derivation = parse_witness(lines)
    assert derivation.final_element() == goal
    return derivation


# rule ids that read like the bracket words too: hypothesis, axiom, from
witness_rule_ids = st.one_of(
    st.sampled_from(["hypothesis", "axiom", "from", "mp"]),
    words(string.ascii_letters, string.ascii_letters + string.digits + "_.~", 3),
)


@st.composite
def derive_queries(draw):
    """A system text, hypotheses, a goal and an optional step cap.

    The names are drawn in chain order: the first is a hypothesis, the
    last the goal, and each name in between gets a row (an axiom, or a
    rule row whose premises are earlier names) unless its link is
    dropped.  Noise rows connect any names."""
    name = words(string.ascii_lowercase + "é", string.ascii_lowercase + string.digits + "é", 2)
    names = draw(st.lists(name, min_size=3, max_size=7, unique=True))
    element = st.sampled_from(names)
    rule_ids = draw(st.lists(witness_rule_ids, unique=True, min_size=1, max_size=4))
    # arity 1 stands for an axiom set, whose rows are its members
    arity = {rule_id: draw(st.sampled_from([1, 2, 2, 3])) for rule_id in rule_ids}
    rows = {rule_id: [] for rule_id in rule_ids}
    for k in range(1, len(names)):
        if draw(st.integers(0, 4)):  # one link in five is dropped
            rule_id = draw(st.sampled_from(rule_ids))
            premises = [draw(st.sampled_from(names[:k])) for _ in range(arity[rule_id] - 1)]
            rows[rule_id].append(premises + [names[k]])
    lines = ["language: " + " ".join(names)]
    for rule_id in rule_ids:
        noise = st.lists(element, min_size=arity[rule_id], max_size=arity[rule_id])
        rows[rule_id] += draw(st.lists(noise, max_size=3))
        if arity[rule_id] == 1:
            lines.append(f"axioms {rule_id}: " + " ".join(row[0] for row in rows[rule_id]))
        else:
            lines += [f"rule {rule_id}: {' '.join(row[:-1])} => {row[-1]}" for row in rows[rule_id]]
    hypotheses = [names[0]] + draw(st.lists(element, max_size=1))
    max_steps = draw(st.one_of(st.none(), st.integers(1, 6)))
    return "\n".join(lines) + "\n", hypotheses, names[-1], max_steps


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(derive_queries())
def test_printed_derive_witnesses_replay(capsys, tmp_path, query):
    text, hypotheses, goal, max_steps = query
    path = tmp_path / "drawn.system"
    path.write_text(text, encoding="utf-8")
    argv = ["derive", "--system", str(path), "--hyp", ",".join(hypotheses), "--goal", goal]
    argv += ["--max-steps", str(max_steps)] if max_steps is not None else []
    code, out, _ = run(capsys, *argv)
    if code == 1:
        return  # not derivable, or not within the step cap
    assert code == 0, out
    system = load_system(path)
    derivation = printed_witness(out, Element(goal))
    result = check_derivation(system, FiniteSubset.of(system.language, hypotheses), derivation)
    assert result, (result.reason, out)


def capped_answer(out):
    """The printed minimum and derivation of a step-capped answer."""
    first, *rest = out.splitlines()
    assert first.startswith("minimal steps: "), out
    return int(first.removeprefix("minimal steps: ")), parse_witness(rest)


def assert_prints_a_shortest_derivation(out, system, hypotheses, goal, cap):
    """The step-capped answer in `out` is a derivation of `goal` that
    checks, as long as its printed minimum, the true minimum; it is the
    saturation witness when that one is as short."""
    size = min_derivation_size(system, hypotheses, goal, cap)
    printed, derivation = capped_answer(out)
    assert printed == len(derivation) == size, out
    assert derivation.final_element() == goal
    result = check_derivation(system, hypotheses, derivation)
    assert result, (result.reason, out)
    witness = saturate(system, hypotheses).witnesses[goal]
    if len(witness) == size:
        assert derivation == witness


@settings(deadline=None, max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(min_value=0, max_value=10_000), st.integers(1, 6), st.integers(1, 5))
# saturation witnesses one step longer than the minimum
@example(72, 5, 2)
@example(74, 6, 3)
def test_step_capped_derive_prints_a_shortest_derivation(capsys, tmp_path, seed, n, cap):
    rng = seeded(seed, "capped-derive")
    language = small_language(n)
    system = random_system(rng, language)
    hypotheses = random_subset(rng, language)
    path = tmp_path / "random.system"
    path.write_text(dumps_system(system), encoding="utf-8")
    hyp = ",".join(e.name for e in hypotheses.members)
    for goal in saturate(system, hypotheses).closure.members:
        code, out, _ = run(
            capsys, "derive", "--system", str(path), "--hyp", hyp, "--goal", goal.name, "--max-steps", str(cap)
        )
        if min_derivation_size(system, hypotheses, goal, cap) is None:
            assert (code, out) == (1, f"{goal.name} is not derivable within {cap} steps\n")
        else:
            assert code == 0
            assert_prints_a_shortest_derivation(out, system, hypotheses, goal, cap)


def test_step_capped_derive_fits_its_cap(capsys):
    """A witness built round by round can be longer than the minimum: here
    a, x1, x2, x3, g against a, b, c, g."""
    path = str(ROOT / "tests" / "data" / "shortest-not-shallowest.system")
    system = load_system(path)
    hypotheses, goal = FiniteSubset.of(system.language, ["a"]), Element("g")
    assert len(saturate(system, hypotheses).witnesses[goal]) == 5
    for cap in (4, 5, 9):
        code, out, _ = run(capsys, "derive", "--system", path, "--hyp", "a", "--goal", "g", "--max-steps", str(cap))
        assert code == 0
        assert_prints_a_shortest_derivation(out, system, hypotheses, goal, cap)
    assert run(capsys, "derive", "--system", path, "--hyp", "a", "--goal", "g", "--max-steps", "3") == (
        1, "g is not derivable within 3 steps\n", ""
    )


@st.composite
def detachment_chains(draw):
    """Hypotheses that hold a literal and an implication from each literal
    of a chain to the next, plus up to two drawn formulas; the goal is the
    chain's last literal."""
    literal = st.integers(0, 3).map(pd.Atom).flatmap(lambda a: st.sampled_from([a, pd.Neg(a)]))
    chain = draw(st.lists(literal, min_size=2, max_size=3))
    hypotheses = draw(st.lists(small_wffs, max_size=2)) + [chain[0]]
    return hypotheses + [pd.Impl(a, b) for a, b in zip(chain, chain[1:])], chain[-1]


# The variants without a bridge axiom, whose pools stay small under these
# size caps; a bridge axiom needs size cap 22, where a step-capped search
# can take seconds.
@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([("standard", None), ("restricted-mp", 1), ("restricted-mp", 2)]),
    detachment_chains(),
    st.sampled_from([10, 14]),
    st.integers(min_value=1, max_value=5),
)
@example(("restricted-mp", 1), ([pd.parse("(P1 -> P2)"), pd.parse("(P2 -> P3)"), pd.Atom(1)], pd.Atom(3)), 10, 5)
@example(("missing-atom", 1), ([pd.parse("(~P0 -> ~P1)"), pd.Atom(1)], pd.Atom(0)), 22, 5)
# saturation witnesses longer than the minimum: 4 steps against 3, and 5
# against 3 through an axiom
@example(("standard", None), LONGER_WITNESS, 14, 4)
@example(
    ("restricted-mp", 1),
    ([pd.parse(t) for t in ("(P0 -> P1)", "(~P2 -> P1)", "P2", "P0", "(P1 -> (P0 -> P2))")], pd.parse("(P0 -> P2)")),
    14,
    5,
)
def test_step_capped_pd_search_prints_a_shortest_derivation(variant_n, query, size_cap, cap):
    variant, n = variant_n
    hypotheses, goal = query
    argv = ["pd", "search", "--variant", variant, "--goal", pd.wff_to_text(goal)]
    argv += ["--hyp", ", ".join(pd.wff_to_text(h) for h in hypotheses)]
    argv += ["--size-cap", str(size_cap), "--max-steps", str(cap)]
    argv += ["--n", str(n)] if n is not None else []
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    if code != 0:
        return  # refused by a cap, or not within the step cap
    search = search_pool(variant, hypotheses, goal, n=n, size_cap=size_cap)
    assert_prints_a_shortest_derivation(out.getvalue(), search.system, search.hypotheses, pd.wff_element(goal), cap)


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([("standard", None), ("restricted-mp", 1), ("restricted-mp", 2)]),
    detachment_chains(),
    st.sampled_from([10, 14]),
    st.integers(min_value=1, max_value=5),
)
@example(("standard", None), LONGER_WITNESS, 14, 4)
# P1 and (P1 -> P2) are both ready after the insertions
@example(
    ("standard", None),
    ([pd.parse(t) for t in ("P0", "(P0 -> P1)", "(P0 -> (P1 -> P2))")], pd.Atom(2)),
    14,
    6,
)
def test_shortest_pd_derivations_keep_their_documented_order(variant_n, query, size_cap, cap):
    variant, n = variant_n
    hypotheses, goal = query
    try:
        search = search_pool(variant, hypotheses, goal, n=n, size_cap=size_cap)
    except ConseqError:
        return  # a seed longer than the size cap, or a pool past its cap
    goal_element = pd.wff_element(goal)
    derivation = shortest_derivation(search.system, search.hypotheses, goal_element, cap)
    size = min_derivation_size(search.system, search.hypotheses, goal_element, cap)
    if derivation is None:
        assert size is None
        return
    assert len(derivation) == size and derivation.final_element() == goal_element
    deduction = [step_element(s) for s in derivation.steps]
    expected = documented_order(search.system, search.hypotheses, deduction)
    assert derivation == expected, derivation.render()


@st.composite
def saturate_queries(draw):
    """A system text and hypotheses for `saturate`, over an explicit or
    the enumerated language `f`.  Rules and axioms mention only the
    first five names; the rest occur only as hypotheses, so over the
    enumerated language `encode` gives them bits the grounding never
    numbered.  f10 and f11 sort between f1 and f2 by name, not by index."""
    names = ["f0", "f1", "f2", "f3", "f10", "f11", "f12", "f20"]
    mentioned = st.sampled_from(names[:5])
    enumerated = draw(st.booleans())
    lines = ["language: enumerated f" if enumerated else "language: " + " ".join(names)]
    for i in range(draw(st.integers(0, 3))):
        arity = draw(st.integers(1, 3))  # arity 1 stands for an axiom set
        rows = draw(st.lists(st.lists(mentioned, min_size=arity, max_size=arity), min_size=1, max_size=4))
        if arity == 1:
            lines.append(f"axioms r{i}: " + " ".join(row[0] for row in rows))
        else:
            lines += [f"rule r{i}: {' '.join(row[:-1])} => {row[-1]}" for row in rows]
    return "\n".join(lines) + "\n", draw(st.lists(st.sampled_from(names), max_size=4))


@settings(deadline=None, max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(saturate_queries())
@example(("language: enumerated f\nrule r0: f0 => f1\n", ["f20", "f0", "f11"]))
def test_saturate_prints_the_closure_of_the_witness_path(capsys, tmp_path, query):
    text, hypotheses = query
    path = tmp_path / "drawn.system"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, "saturate", "--system", str(path), f"--hyp={','.join(hypotheses)}")
    assert code == 0
    system = load_system(path)
    closure = saturate(system, FiniteSubset.of(system.language, hypotheses)).closure
    assert out == "".join(f"{e.name}\n" for e in closure.members)


PD_CATALOG = json.loads((ROOT / "perfbench" / "pd_catalog.json").read_text(encoding="utf-8"))
DERIVED = [q for q in PD_CATALOG["queries"] if q["outcome"] == "derived"]


@pytest.mark.parametrize("query", DERIVED, ids=[f"derived-{i:02d}" for i in range(len(DERIVED))])
def test_printed_pd_search_witnesses_replay(capsys, query):
    hypotheses, goal = [pd.parse(h) for h in query["hyps"]], pd.parse(query["goal"])
    caps = {"size_cap": PD_CATALOG["size_cap"], "max_pool": PD_CATALOG["pool_cap"]}
    argv = ["pd", "search", "--variant", query["variant"], "--hyp", ", ".join(query["hyps"])]
    argv += ["--goal", query["goal"], "--size-cap", str(caps["size_cap"])]
    argv += ["--pool-cap", str(caps["max_pool"])]
    argv += ["--n", str(query["n"])] if query["n"] is not None else []
    code, out, _ = run(capsys, *argv)
    assert code == 0, out
    search = search_pool(query["variant"], hypotheses, goal, n=query["n"], **caps)
    derivation = printed_witness(out, pd.wff_element(goal))
    result = check_derivation(search.system, search.hypotheses, derivation)
    assert result, (result.reason, out)


def test_pd_query_answers_each_catalog_query_with_its_outcome():
    caps = {"size_cap": PD_CATALOG["size_cap"], "max_pool": PD_CATALOG["pool_cap"]}
    assert caps == {"size_cap": 22, "max_pool": 1200}
    answered = Counter()
    for query in PD_CATALOG["queries"]:
        hypotheses, goal = [pd.parse(h) for h in query["hyps"]], pd.parse(query["goal"])
        answer = pd.query(query["variant"], hypotheses, goal, n=query["n"], **caps)
        expected = {"derived": pd.PoolSearch, "certified": pd.Certified, "bounded": pd.BoundedEvidence}
        assert type(answer) is expected[query["outcome"]], query
        if query["outcome"] == "bounded":
            assert answer.pool_size == query["pool"], query
        answered[query["outcome"]] += 1
    assert sum(answered.values()) == len(PD_CATALOG["queries"]) == 480


# ---------------------------------------------------------------------------
# fuzzing: any input ends in exit code 0, 1 or 2, with no exception


def exit_code(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


formula_texts = st.one_of(
    st.recursive(
        st.sampled_from(["P0", "P1", "P2", "P12", "P", "P\u00b2", "Q", ""]),
        lambda inner: st.one_of(
            inner.map(lambda t: "~" + t),
            st.tuples(inner, inner).map(lambda p: f"({p[0]} -> {p[1]})"),
            st.tuples(inner, inner).map(lambda p: f"({p[0]} {p[1]}"),
        ),
        max_leaves=6,
    ),
    st.text(alphabet="P0123~()->, \t\u00b2\u0661", max_size=40),
)


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(["taut", "h"]), formula_texts)
@example("taut", "P\u00b2")
@example("h", "~" * 3000 + "P0")
def test_fuzz_pd_formula_commands(command, text):
    assert exit_code(["pd", command, text]) in (0, 1, 2)


@settings(deadline=None, max_examples=100)
@given(
    st.sampled_from(conseq.propositional.VARIANTS),
    st.sampled_from([None, "0", "1", "2"]),
    st.lists(formula_texts, max_size=4).map(",".join),
    formula_texts,
    st.integers(min_value=0, max_value=16),
    st.integers(min_value=0, max_value=60),
    # small step bounds: minimal-size search grows fast with the bound
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
)
@example("standard", None, "P\u00b2", "P0", 12, 60, None)
@example("standard", None, ",".join(["P1"] * 1500), "P2", 12, 60, None)
def test_fuzz_pd_search(variant, n, hyps, goal, size_cap, pool_cap, max_steps):
    argv = ["pd", "search", "--variant", variant, f"--hyp={hyps}", f"--goal={goal}"]
    argv += ["--size-cap", str(size_cap), "--pool-cap", str(pool_cap)]
    argv += ["--n", n] if n is not None else []
    argv += ["--max-steps", str(max_steps)] if max_steps is not None else []
    assert exit_code(argv) in (0, 1, 2)


element_names = st.sampled_from(["a", "b", "c", "x1", "f0", "f1", "enumerated", "=>", ":", "\u00e9"])
system_lines = st.one_of(
    st.lists(element_names, max_size=5).map(lambda t: "language: " + " ".join(t)),
    st.just("language: enumerated f"),
    st.tuples(st.sampled_from(["r", "s"]), st.lists(element_names, max_size=3)).map(
        lambda p: f"axioms {p[0]}: " + " ".join(p[1])
    ),
    st.tuples(
        st.sampled_from(["r", "s"]),
        st.lists(element_names, max_size=3),
        st.lists(element_names, max_size=2),
    ).map(lambda p: f"rule {p[0]}: {' '.join(p[1])} => {' '.join(p[2])}"),
    st.text(alphabet="abcx1f0 :=>#\t", max_size=30),
)


@settings(deadline=None, max_examples=150)
@given(
    st.sampled_from(["saturate", "csystems", "check-axioms", "bounded", "meet", "sup"]),
    st.lists(system_lines, max_size=6),
    st.lists(element_names, max_size=3).map(",".join),
    st.integers(min_value=-1, max_value=4),
    st.lists(st.sampled_from(["{path}", "", " ", STEPS]), max_size=3).map(",".join),
)
@example("csystems", ["language: enumerated f"], "", 0, "")
@example("check-axioms", ["language: enumerated f", "rule r: f0 => f1"], "", 0, "")
@example("meet", ["language: a"], "a", 0, ",")
def test_fuzz_system_commands(command, lines, hyp, steps, systems):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.system"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        if command in ("meet", "sup"):
            argv = [command, f"--systems={systems.replace('{path}', str(path))}"]
        else:
            argv = [command, "--system", str(path)]
        if command not in ("csystems", "check-axioms"):
            argv.append(f"--hyp={hyp}")
        if command == "bounded":
            argv += ["--steps", str(steps)]
        assert exit_code(argv) in (0, 1, 2)


# ---------------------------------------------------------------------------
# the narrow parser: main parses argv as the full parser would


def outputs(run_argv, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_argv(argv)
    return code, out.getvalue(), err.getvalue()


def full_parser_then_handler(argv):
    try:
        args = conseq.cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.handler(args)
    except ConseqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


COMMAND_PATHS = [
    [], ["check-axioms"], ["saturate"], ["derive"], ["bounded"], ["meet"], ["sup"], ["csystems"],
    ["pd"], ["pd", "taut"], ["pd", "h"], ["pd", "search"], ["example"],
    ["sat"], ["Saturate"], ["pd", "sea"], ["pd", "saturate"], ["search"], ["taut"], ["p"],
]
CALLS = [
    ["check-axioms", "--system", STEPS, "--bound", "3"],
    ["saturate", "--system", STEPS, "--hyp", "x1,x2"],
    ["derive", "--system", STEPS, "--hyp", "x1,x2", "--goal", "b"],
    ["bounded", "--system", STEPS, "--hyp", "x1,x2", "--steps", "1"],
    ["meet", "--systems", f"{STEPS},{PAIRS}", "--hyp", "a"],
    ["sup", "--systems", f"{STEPS},{PAIRS}", "--hyp", "a"],
    ["csystems", "--system", STEPS],
    ["pd", "taut", "(P0 -> P0)"],
    ["pd", "h", "~P0"],
    ["pd", "search", "--hyp", "P0, (P0 -> P1)", "--goal", "P1"],
    ["example", "2.2"],
]
FLAGS = [
    "--system", "--systems", "--hyp", "--goal", "--bound", "--steps", "--max-steps", "--via",
    "--variant", "--n", "--pool-cap", "--size-cap", "--seed", "--trials",
]
VALUES = [
    STEPS, "missing.system", "a", "x1,x2", "b", "P0", "(P0 -> P1)", "(P0 ->", "0", "1", "3", "-1",
    "x", "", "union", "standard", "positive", "2.2",
]
argv_words = st.one_of(
    st.sampled_from(FLAGS + VALUES + ["-h", "--help", "--", "--bogus", "-x", "--sys", "extra"]),
    st.sampled_from([p[-1] for p in COMMAND_PATHS if p]),
    st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)).map("=".join),
)


@settings(deadline=None, max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    # a command path or a whole call, then random fragments
    st.tuples(st.sampled_from(COMMAND_PATHS + CALLS), st.lists(argv_words, max_size=6)).map(
        lambda p: p[0] + p[1]
    ),
    st.sampled_from(["40", "60", "100"]),
)
@example([], "60")
@example(["-h"], "60")
@example(["pd"], "60")
@example(["pd", "-h"], "60")
@example(["-h", "saturate"], "60")
@example(["check-axioms", "-h"], "60")
@example(["saturate", "-h"], "60")
@example(["derive", "-h"], "60")
@example(["bounded", "-h"], "60")
@example(["meet", "-h"], "60")
@example(["sup", "-h"], "60")
@example(["csystems", "-h"], "60")
@example(["pd", "taut", "-h"], "60")
@example(["pd", "h", "-h"], "60")
@example(["pd", "search", "-h"], "60")
@example(["example", "-h"], "60")
@example(["saturate", "--system", STEPS, "--hyp", "a", "extra"], "40")
@example(["saturate", "--system", STEPS, "--hyp", "a", "extra"], "60")
@example(["saturate", "--system", STEPS, "--hyp", "a", "extra"], "100")
@example(["pd", "search", "--goal", "P0", "--bogus"], "40")
@example(["pd", "search", "--goal", "P0", "--bogus"], "60")
@example(["pd", "search", "--goal", "P0", "--bogus"], "100")
@example(["pd", "taut", "P0", "P1"], "60")
def test_main_prints_what_the_full_parser_prints(monkeypatch, argv, columns):
    monkeypatch.setenv("COLUMNS", columns)
    got = outputs(main, argv)
    assert got == outputs(full_parser_then_handler, argv)
    assert got[0] in (0, 1, 2)


def parsers_built(monkeypatch, argv):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        main(argv)
    monkeypatch.undo()
    return built


def table_size(table):
    return sum(1 + table_size(command.commands or {}) for command in table.values())


def test_main_builds_no_parser_for_a_well_formed_argv_and_the_full_parser_otherwise(monkeypatch):
    assert parsers_built(monkeypatch, ["saturate", "--system", STEPS, "--hyp", "a"]) == []
    assert parsers_built(monkeypatch, ["pd", "search", "--goal", "P0"]) == []
    every_parser = 1 + table_size(conseq.cli.COMMANDS)
    malformed = [["saturate", "-h"], ["saturate", "--hy", "a"], ["pd", "search", "--goal", "P0", "--bogus"]]
    for argv in [[], ["-h"], *malformed]:
        assert len(parsers_built(monkeypatch, argv)) == every_parser, argv


def leaves(table, path=()):
    for name, command in table.items():
        if command.commands is None:
            yield [*path, name], command
        else:
            yield from leaves(command.commands, [*path, name])


def hand_off_argvs():
    """For each leaf of COMMANDS: its call followed by help, `--` or an
    unknown option, the bare command, a required argument missing, values
    that fail `type=int` or `choices`, and a trailing word.  The leaf
    parser hands all but a few (`pd taut P0 --`) to the full parser."""
    for path, command in leaves(conseq.cli.COMMANDS):
        call = next(c for c in CALLS if c[: len(path)] == path)
        for words in (["-h"], ["--help"], ["--he"], ["--h"], ["--h", "x"], ["--"], ["--bogus", "1"]):
            yield call + words
        yield path  # every leaf has a required option or a positional
        yield call + ["extra"]
        for flags, options in command.arguments:
            flag = flags[0]
            if options.get("required"):
                at = call.index(flag)
                yield call[:at] + call[at + 2 :]
            if options.get("type") is int:
                yield call + [flag, "x"]
            if "choices" in options:
                yield call + [flag, "bogus"]


def test_main_hands_help_and_usage_errors_of_every_leaf_to_the_full_parser(monkeypatch):
    argvs = list(hand_off_argvs())
    assert any("--variant" in argv for argv in argvs) and any("--via" in argv for argv in argvs)
    for columns in ("40", "100"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in argvs:
            got = outputs(main, argv)
            assert got == outputs(full_parser_then_handler, argv), (argv, columns)


# ---------------------------------------------------------------------------
# the leaf reader: `_parse_leaf` reads argv as the full parser would, or declines


def full_namespace(argv):
    """argv as `build_parser()` reads it, less the dests that name the command."""
    args = vars(conseq.cli.build_parser().parse_args(argv))
    return argparse.Namespace(**{k: v for k, v in args.items() if not k.endswith("command")})


def perfbench_argvs():
    """The three argv shapes perfbench's workloads run, pd search once per catalog query."""
    yield ("saturate", "--system", STEPS, "--hyp", "x1, x2")
    yield ("derive", "--system", STEPS, "--hyp", "x1, x2", "--goal", "b")
    for query in PD_CATALOG["queries"]:
        argv = ["pd", "search", "--variant", query["variant"]]
        argv += ["--n", str(query["n"])] if query["n"] is not None else []
        yield argv + ["--hyp", ", ".join(query["hyps"]), "--goal", query["goal"], "--pool-cap", "1200"]


ODD_READS = [
    ["check-axioms", "--system", STEPS, "--bound", " 3"],
    ["check-axioms", "--system", STEPS, "--bound", "\u0663"],
    ["check-axioms", "--system", STEPS, "--bound", "1_0"],
    ["pd", "search", "--goal", "P0", "--n", "+4"],
    ["pd", "search", "--goal", "P0", "--hyp", ""],
    ["saturate", "--system", STEPS, "--hyp", "=x"],
    ["pd", "taut", "a b"],
    ["saturate", "--system", STEPS, "--hyp", "a", "--hyp", "b"],
    ["example", "--seed", "3", "2.2", "--trials", "4"],
]


def test_the_leaf_reader_reads_every_call_and_perfbench_shape():
    argvs = CALLS + ODD_READS + list(perfbench_argvs())
    assert len(argvs) == len(CALLS) + len(ODD_READS) + 2 + 480
    for argv in argvs:
        args = conseq.cli._parse_leaf(argv)
        assert args is not None, argv
        assert args == full_namespace(argv), argv


def test_commands_stay_inside_the_leaf_readers_model():
    """The reader reads a row as argparse does only when the row is plain:
    one long flag with `required`, an int `type`, `default`, `choices` and
    `help` at most, and no `type` over a str default (argparse converts
    that default, the reader does not); or one positional name with
    `help` at most.  Groups take no arguments of their own."""

    def walk(table):
        for command in table.values():
            yield command
            yield from walk(command.commands or {})

    for command in walk(conseq.cli.COMMANDS):
        assert (command.commands is None) == (command.handler is not None), command.help
        if command.commands is not None:
            assert command.arguments == (), command.help
        names = [flags[0] for flags, _ in command.arguments]
        assert len(set(names)) == len(names), names
        for flags, options in command.arguments:
            assert len(flags) == 1, flags
            name = flags[0]
            if name.startswith("-"):
                assert name.startswith("--") and name[2:].replace("-", "_").isidentifier(), name
                assert set(options) <= {"required", "type", "default", "choices", "help"}, (name, options)
                assert options.get("type", int) is int, name
                assert not ("type" in options and isinstance(options.get("default"), str)), name
            else:
                assert name.isidentifier() and set(options) <= {"help"}, (name, options)


READER_VALUES = VALUES + [
    " 3", "\u0663", "1_0", "+4", "=x", "a b", "-x", "--hyp", "closed-systems", *pd.VARIANTS,
]


@st.composite
def leaf_argvs(draw):
    """A leaf's command words, then its rows in any order -- each left out,
    given once or repeated, with values argparse may or may not take --
    and a few stray words."""
    path, command = draw(st.sampled_from(list(leaves(conseq.cli.COMMANDS))))
    value = st.sampled_from(READER_VALUES)
    units = []
    for flags, _ in command.arguments:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            units.append([flags[0], draw(value)] if flags[0].startswith("-") else [draw(value)])
    stray = st.one_of(argv_words.map(lambda w: [w]), st.tuples(st.sampled_from(FLAGS), value).map(list))
    units += draw(st.lists(stray, max_size=1))
    return path + [word for unit in draw(st.permutations(units)) for word in unit]


@settings(deadline=None, max_examples=400)
@given(leaf_argvs())
@example(["check-axioms", "--system", STEPS, "--bound", "x", "--bound", "3"])
@example(["check-axioms", "--system", STEPS, "--bound", ""])
@example(["sup", "--systems", STEPS, "--hyp", "a", "--via", "bogus", "--via", "union"])
@example(["example", "--seed", "--seed"])
@example(["pd", "taut", "P0", "--"])
@example(["pd", "search", "--goal", "P0", "--n", "-1"])
def test_the_leaf_reader_reads_what_the_full_parser_reads(argv):
    args = conseq.cli._parse_leaf(argv)
    if args is not None:
        assert args == full_namespace(argv)
