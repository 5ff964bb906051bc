"""Command-line surface.

Exit codes: 0 success / all assertions pass, 1 a check or assertion
failed (axioms broken, goal not derivable, scenario FAIL), 2 malformed
usage or unparseable input.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import propositional as pd
from .csystems import closed_systems
from .engine import (
    bounded_consequences,
    check_step_cap,
    min_derivation_size,
    saturate,
    union_systems,
)
from .errors import ConseqError, UsageError
from .fileformat import load_system
from .language import Element, FiniteSubset, Subset
from .operators import RuleOperator, check_axioms, meet, sup_w
from .rules import RuleSystem
from .scenarios import run_scenario, scenario_ids


def _parse_hypotheses(system: RuleSystem, text: str) -> FiniteSubset:
    tokens = [t for t in (piece.strip() for piece in text.split(",")) if t]
    return FiniteSubset.of(system.language, tokens)


def _print_subset(subset: Subset) -> None:
    if isinstance(subset, FiniteSubset):
        for e in subset.members:
            print(e.name)
    else:
        print(str(subset))


def _load_many(paths: str) -> list[RuleSystem]:
    systems = [load_system(p.strip()) for p in paths.split(",") if p.strip()]
    if not systems:
        raise UsageError("--systems names no system file")
    return systems


def _parse_formulas(text: str) -> list[pd.Wff]:
    return [pd.parse(piece) for piece in text.split(",") if piece.strip()]


# ---------------------------------------------------------------------------
# handlers


def _cmd_check_axioms(args: argparse.Namespace) -> int:
    system = load_system(args.system)
    report = check_axioms(RuleOperator(system), system.language, bound=args.bound)
    for axiom in ("extensive", "monotone", "idempotent", "finite_character"):
        print(f"{axiom}: {'ok' if getattr(report, axiom) else 'FAILED'}")
    if report.counterexample is not None:
        cex = report.counterexample
        at = ", ".join(str(s) for s in cex.subsets)
        print(f"counterexample: {cex.axiom} at {at}")
    return 0 if report.ok else 1


def _cmd_saturate(args: argparse.Namespace) -> int:
    system = load_system(args.system)
    hypotheses = _parse_hypotheses(system, args.hyp)
    _print_subset(saturate(system, hypotheses).closure)
    return 0


def _cmd_derive(args: argparse.Namespace) -> int:
    if args.max_steps is not None:
        check_step_cap(args.max_steps)
    system = load_system(args.system)
    hypotheses = _parse_hypotheses(system, args.hyp)
    goal = Element(args.goal)
    result = saturate(system, hypotheses)
    if goal not in result.closure:
        print(f"{goal.name} is not derivable from {hypotheses}")
        return 1
    if args.max_steps is not None:
        size = min_derivation_size(system, hypotheses, goal, cap=args.max_steps)
        if size is None:
            print(f"{goal.name} is not derivable within {args.max_steps} steps")
            return 1
        print(f"minimal steps: {size}")
    print(result.witnesses[goal].render())
    return 0


def _cmd_bounded(args: argparse.Namespace) -> int:
    system = load_system(args.system)
    hypotheses = _parse_hypotheses(system, args.hyp)
    _print_subset(bounded_consequences(system, hypotheses, args.steps))
    return 0


def _cmd_meet(args: argparse.Namespace) -> int:
    systems = _load_many(args.systems)
    hypotheses = _parse_hypotheses(systems[0], args.hyp)
    _print_subset(meet([RuleOperator(s) for s in systems]).apply(hypotheses))
    return 0


def _cmd_sup(args: argparse.Namespace) -> int:
    systems = _load_many(args.systems)
    hypotheses = _parse_hypotheses(systems[0], args.hyp)
    if args.via == "union":
        op = RuleOperator(union_systems(systems))
    else:
        op = sup_w([RuleOperator(s) for s in systems], systems[0].language)
    _print_subset(op.apply(hypotheses))
    return 0


def _cmd_csystems(args: argparse.Namespace) -> int:
    system = load_system(args.system)
    family = closed_systems(RuleOperator(system), system.language)
    for member in family:
        print(str(member))
    return 0


def _cmd_pd_taut(args: argparse.Namespace) -> int:
    w = pd.parse(args.formula)
    valuation = pd.falsifying_valuation(w)
    if valuation is None:
        print("tautology")
        return 0
    print(f"falsified by {valuation}")
    return 1


def _cmd_pd_h(args: argparse.Namespace) -> int:
    print(pd.wff_to_text(pd.h_transform(pd.parse(args.formula))))
    return 0


def _cmd_pd_search(args: argparse.Namespace) -> int:
    """Print a derivation of the goal over the query's pool, or evidence
    that it is not derivable.

    The pool is built first, so every cap, bridge and pool-overflow
    error comes out as the search would give it.  Then the
    hypotheses-to-goal chain's truth table runs if it has at most
    MAX_DEPTH hypotheses and its 2^k valuations (k distinct atoms) are
    no more than the pool's formulas: every variant is sound, so a
    falsifier certifies the goal as not derivable, and nothing is
    grounded or saturated.  Otherwise the pool is saturated, and a goal
    outside the closure gets `certificate_non_derivable`'s evidence.
    """
    if args.max_steps is not None:
        check_step_cap(args.max_steps)
    hypotheses = _parse_formulas(args.hyp) if args.hyp else []
    goal = pd.parse(args.goal)
    pool = pd.query_pool(
        args.variant, hypotheses, goal, n=args.n, size_cap=args.size_cap, max_pool=args.pool_cap
    )
    certificate = pd.certificate_first(hypotheses, goal, pool)
    if certificate is None:
        search = pd.saturate_pool(args.variant, pool, hypotheses, n=args.n)
        goal_element = pd.wff_element(goal)
        if goal_element in search.result.closure:
            if args.max_steps is not None:
                size = min_derivation_size(
                    search.system, search.hypotheses, goal_element, cap=args.max_steps
                )
                if size is None:
                    print(f"derivable, but not within {args.max_steps} steps")
                    return 1
                print(f"minimal steps: {size}")
            print(search.result.witnesses[goal_element].render())
            return 0
        certificate = pd.certificate_non_derivable(
            args.variant,
            hypotheses,
            goal,
            n=args.n,
            size_cap=args.size_cap,
            max_pool=args.pool_cap,
            search=search,
        )
    if isinstance(certificate, pd.Certified):
        print(f"not derivable: {pd.wff_to_text(certificate.transform)} is falsified by {certificate.valuation}")
    else:
        print(
            "not derived: search exhausted a pool of "
            f"{certificate.pool_size} formulas (size cap {certificate.size_cap}); "
            "evidence only, not a proof"
        )
    return 1


def _cmd_example(args: argparse.Namespace) -> int:
    report = run_scenario(args.id, seed=args.seed, trials=args.trials)
    print(report.render())
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conseq",
        description="Workbench for rule systems and the operators they generate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-axioms", help="test the four closure axioms exhaustively")
    p.add_argument("--system", required=True, help="system file")
    p.add_argument("--bound", type=int, default=6, help="max language size for exhaustive checks")
    p.set_defaults(handler=_cmd_check_axioms)

    p = sub.add_parser("saturate", help="everything derivable from the hypotheses")
    p.add_argument("--system", required=True)
    p.add_argument("--hyp", required=True, help="comma-separated hypothesis elements")
    p.set_defaults(handler=_cmd_saturate)

    p = sub.add_parser("derive", help="exhibit a numbered derivation of a goal")
    p.add_argument("--system", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--max-steps", type=int, default=None)
    p.set_defaults(handler=_cmd_derive)

    p = sub.add_parser("bounded", help="consequences derivable within a step budget")
    p.add_argument("--system", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(handler=_cmd_bounded)

    p = sub.add_parser("meet", help="pointwise intersection of the systems' operators")
    p.add_argument("--systems", required=True, help="comma-separated system files")
    p.add_argument("--hyp", required=True)
    p.set_defaults(handler=_cmd_meet)

    p = sub.add_parser("sup", help="least upper bound of the systems' operators")
    p.add_argument("--systems", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument(
        "--via",
        choices=("union", "closed-systems"),
        default="closed-systems",
        help="compute by saturating the union or from shared closed sets",
    )
    p.set_defaults(handler=_cmd_sup)

    p = sub.add_parser("csystems", help="list the operator's closed sets")
    p.add_argument("--system", required=True)
    p.set_defaults(handler=_cmd_csystems)

    pd_parser = sub.add_parser("pd", help="propositional deduction tools")
    pd_sub = pd_parser.add_subparsers(dest="pd_command", required=True)

    p = pd_sub.add_parser("taut", help="decide whether a formula is a tautology")
    p.add_argument("formula")
    p.set_defaults(handler=_cmd_pd_taut)

    p = pd_sub.add_parser("h", help="erase negations from a formula")
    p.add_argument("formula")
    p.set_defaults(handler=_cmd_pd_h)

    p = pd_sub.add_parser("search", help="search for a derivation over a capped pool")
    p.add_argument("--variant", choices=pd.VARIANTS, default="standard")
    p.add_argument("--n", type=int, default=None, help="index for parametrized variants")
    p.add_argument("--hyp", default="", help="comma-separated hypothesis formulas")
    p.add_argument("--goal", required=True)
    p.add_argument("--pool-cap", type=int, default=pd.DEFAULT_MAX_POOL, help="max pool size")
    p.add_argument("--size-cap", type=int, default=pd.DEFAULT_SIZE_CAP, help="max formula length")
    p.add_argument("--max-steps", type=int, default=None)
    p.set_defaults(handler=_cmd_pd_search)

    p = sub.add_parser("example", help="run a named scenario")
    p.add_argument("id", help="scenario id; one of: " + ", ".join(scenario_ids()))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(handler=_cmd_example)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except ConseqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())
