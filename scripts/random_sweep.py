#!/usr/bin/env python3
"""Randomized sweep over generated rule systems.

For each trial: draw a random system, check the four closure axioms of
its operator exhaustively, compare the union-saturation of a random
pair against their weak join, and verify the closed-set family is an
intersection-closed lattice that recovers the operator.

    python3 scripts/random_sweep.py --trials 200 --lang-size 5 --seed 1
"""

import argparse
import sys
import time

from conseq.engine import union_systems
from conseq.operators import (
    RuleOperator,
    check_axioms,
    closed_systems,
    equal_ops,
    from_closure_family,
    join_uplus,
    sup_w,
)
from conseq.sampling import random_system, seeded, small_language


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument(
        "--lang-size",
        type=int,
        default=5,
        help="language size (exhaustive checks need <= 6)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    language = small_language(args.lang_size)
    rng = seeded(args.seed, "sweep")
    axiom_failures = 0
    join_mismatches = 0
    lattice_failures = 0

    started = time.perf_counter()
    for trial in range(args.trials):
        system = random_system(rng, language)
        op = RuleOperator(system)

        report = check_axioms(op, language)
        if not report.ok:
            axiom_failures += 1
            print(f"trial {trial}: axiom failure {report.counterexample}", file=sys.stderr)

        other = random_system(rng, language)
        union_op = RuleOperator(union_systems([system, other]))
        weak_join = sup_w([op, RuleOperator(other)], language)
        if not equal_ops(union_op, weak_join, language):
            join_mismatches += 1
            print(f"trial {trial}: union-saturation != weak join", file=sys.stderr)

        family = closed_systems(op, language)
        members = set(family)
        closed_ok = all(
            x.intersect(y) in members and join_uplus(op, x, y) in members
            for x in family
            for y in family
        )
        if not closed_ok or not equal_ops(
            from_closure_family(family, language), op, language
        ):
            lattice_failures += 1
            print(f"trial {trial}: closed-set family broken", file=sys.stderr)

    elapsed = time.perf_counter() - started
    print(
        f"{args.trials} trials over |L|={args.lang_size} in {elapsed:.2f}s: "
        f"{axiom_failures} axiom failures, {join_mismatches} join mismatches, "
        f"{lattice_failures} lattice failures"
    )
    return 0 if axiom_failures == join_mismatches == lattice_failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
