"""The scenario registry: every named demonstration passes, and the
reports are deterministic regression fixtures."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conseq.errors import UsageError
from conseq.scenarios import Assertion, ScenarioReport, run_scenario, scenario_ids

GOLDEN = Path(__file__).parent / "data" / "golden" / "scenarios"
ROOT = Path(__file__).parent.parent

EXPECTED_IDS = (
    "2.1-axioms",
    "2.2",
    "cup-not-join",
    "meet-rules-counterexample",
    "3.1",
    "3.2",
    "3.3",
    "3.3.1",
    "3.3.2",
    "3.3.3",
    "3.4-construction",
    "3.5",
    "thm-2.2-random",
    "csystem-lattice",
)


def test_registry_contents():
    assert scenario_ids() == EXPECTED_IDS


# Seeds 1-3 give the seed-0 reports too; the seed-0 cases keep their bare ids.
@pytest.mark.parametrize(
    "scenario_id, seed",
    [
        pytest.param(scenario_id, seed, id=scenario_id if seed == 0 else f"{scenario_id}-seed{seed}")
        for seed in range(4)
        for scenario_id in EXPECTED_IDS
    ],
)
def test_every_scenario_passes_at_defaults(scenario_id, seed):
    report = run_scenario(scenario_id, seed=seed)
    assert report.scenario_id == scenario_id
    assert report.assertions, "a scenario must assert something"
    assert report.passed, report.render()
    assert report.render().endswith(f"SCENARIO {scenario_id}: PASS")
    # recorded by scripts/record_golden.py
    assert report.render() + "\n" == (GOLDEN / f"{scenario_id}.txt").read_text(encoding="utf-8")


def test_the_random_sweep_prints_its_golden_summary():
    done = subprocess.run(
        [sys.executable, "scripts/random_sweep.py", "--trials", "60", "--seed", "3"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    # recorded by scripts/record_golden.py, the time masked as CI masks it
    summary = re.sub(r" in [0-9]*\.[0-9]*s:", " in X.XXs:", done.stdout)
    assert summary == (GOLDEN.parent / "random_sweep.txt").read_text(encoding="utf-8")


def test_reports_are_deterministic():
    first = run_scenario("thm-2.2-random", seed=7, trials=10).render()
    second = run_scenario("thm-2.2-random", seed=7, trials=10).render()
    assert first == second
    other_seed = run_scenario("thm-2.2-random", seed=8, trials=10).render()
    assert other_seed.endswith("PASS")


def test_trials_override_shows_in_the_report():
    report = run_scenario("2.1-axioms", seed=0, trials=5)
    assert report.passed
    assert any("5/5" in a.got or "5" in a.got for a in report.assertions)


def test_unknown_scenarios_list_the_registry():
    with pytest.raises(UsageError) as info:
        run_scenario("9.9")
    message = str(info.value)
    for scenario_id in EXPECTED_IDS:
        assert scenario_id in message
    with pytest.raises(UsageError):
        run_scenario("2.2", trials=0)


def test_report_rendering_marks_failures():
    report = ScenarioReport(
        "demo",
        (
            Assertion("good", "1", "1"),
            Assertion("bad", "1", "2"),
        ),
    )
    assert not report.passed
    lines = report.render().splitlines()
    assert lines[0] == "ASSERT good: PASS (expected=1, got=1)"
    assert lines[1] == "ASSERT bad: FAIL (expected=1, got=2)"
    assert lines[2] == "SCENARIO demo: FAIL"
