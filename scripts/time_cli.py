#!/usr/bin/env python3
"""Time whole `conseq` processes, per checkout, with and without bytecode.

For each checkout given (default: the one this script is in), copies
`src/conseq` into two temporary directories: one left as source and
one run through `compileall`.  Every command runs with
PYTHONDONTWRITEBYTECODE=1, so the source copy is compiled on each run
and nothing is written into a checkout.  The commands read this
checkout's `systems/` files.

Each command runs once to warm up, then `--repeat` rounds follow, the
checkout order reversed every other round.  Each row prints the median
and quartiles of its wall times in ms, and its median above a
`python -c pass` process.  Exits 1 when two runs of a command disagree
on exit code or stdout, 0 otherwise:

    python3 scripts/time_cli.py --repeat 15
    python3 scripts/time_cli.py --repeat 15 ../parent .
"""

import argparse
import compileall
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BRANCHING = str(ROOT / "systems" / "branching.system")

COMMANDS = {
    "saturate": ["saturate", "--system", BRANCHING, "--hyp", "a,b"],
    "check-axioms": ["check-axioms", "--system", BRANCHING],
    "pd taut": ["pd", "taut", "(P0 -> P0)"],
    "pd search": ["pd", "search", "--hyp", "P0, (P0 -> P1)", "--goal", "P1"],
    "example 3.1": ["example", "3.1"],
}
MODES = ("source", "bytecode")


def run(argv, pythonpath, cwd):
    """(wall seconds, exit code, stdout) of `python argv`."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": pythonpath}
    started = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True)
    return time.perf_counter() - started, done.returncode, done.stdout


def copies(checkouts, scratch):
    """(checkout, mode) -> a PYTHONPATH directory holding its conseq."""
    paths = {}
    for i, checkout in enumerate(checkouts):
        for mode in MODES:
            target = Path(scratch) / f"{i}-{mode}"
            source = Path(checkout) / "src" / "conseq"
            shutil.copytree(source, target / "conseq", ignore=shutil.ignore_patterns("__pycache__"))
            if mode == "bytecode" and not compileall.compile_dir(target / "conseq", quiet=1):
                raise SystemExit(f"compileall failed for {checkout}")
            paths[checkout, mode] = str(target)
    return paths


def spread(times):
    """(median, first quartile, third quartile) of times, in ms."""
    ms = [t * 1000 for t in times]
    if len(ms) == 1:
        return ms[0], ms[0], ms[0]
    q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    return median, q1, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", default=[str(ROOT)], help="checkout roots (default: this one)")
    parser.add_argument("--repeat", type=int, default=15, help="timed rounds after the warm-up")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    with tempfile.TemporaryDirectory() as scratch:
        paths = copies(args.checkouts, scratch)
        base = [(checkout, mode) for checkout in args.checkouts for mode in MODES]
        outputs = {}  # command -> {(exit code, stdout): the (checkout, mode) that gave it}
        times = {}  # (command, checkout, mode) -> wall seconds per round
        passes = []

        def timed(command, checkout, mode):
            seconds, code, stdout = run(["-m", "conseq", *COMMANDS[command]], paths[checkout, mode], scratch)
            outputs.setdefault(command, {}).setdefault((code, stdout), (checkout, mode))
            return seconds

        for command in COMMANDS:
            for checkout, mode in base:
                timed(command, checkout, mode)
        run(["-c", "pass"], scratch, scratch)
        for round_ in range(args.repeat):
            order = base if round_ % 2 == 0 else base[::-1]
            passes.append(run(["-c", "pass"], scratch, scratch)[0])
            for command in COMMANDS:
                for checkout, mode in order:
                    times.setdefault((command, checkout, mode), []).append(timed(command, checkout, mode))

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"# Python {sys.version.split()[0]}, nproc {nproc}, {args.repeat} rounds; times in ms")
    width = max(len(c) for c in args.checkouts)

    def row(command, checkout, mode, *numbers):
        print(f"{command:<14} {checkout:<{width}} {mode:<8}" + "".join(f" {n:>10}" for n in numbers))

    row("command", "checkout", "mode", "median", "q1", "q3", "above pass")
    floor = spread(passes)
    row("python -c pass", "", "", *(f"{n:.1f}" for n in (*floor, 0)))
    for (command, checkout, mode), samples in times.items():
        median, q1, q3 = spread(samples)
        row(command, checkout, mode, *(f"{n:.1f}" for n in (median, q1, q3, median - floor[0])))

    disagree = {command: seen for command, seen in outputs.items() if len(seen) > 1}
    for command, seen in disagree.items():
        for (code, stdout), (checkout, mode) in seen.items():
            print(f"disagree: {command}: {checkout} ({mode}) exit {code}, stdout {stdout!r:.60}", file=sys.stderr)
    return 1 if disagree else 0


if __name__ == "__main__":
    raise SystemExit(main())
