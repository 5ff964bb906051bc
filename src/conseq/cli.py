"""Command-line surface.

Exit codes: 0 success / all assertions pass, 1 a check or assertion
failed (axioms broken, goal not derivable, scenario FAIL), 2 malformed
usage or unparseable input.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, NamedTuple, Sequence

from . import propositional as pd
from .engine import (
    bounded_consequences,
    check_step_cap,
    min_derivation_size,
    saturate,
    union_systems,
)
from .errors import ConseqError, UsageError
from .fileformat import load_system
from .language import DEFAULT_BOUND, Element, FiniteSubset
from .rules import RuleSystem


def _parse_hypotheses(system: RuleSystem, text: str) -> FiniteSubset:
    tokens = [t for t in (piece.strip() for piece in text.split(",")) if t]
    return FiniteSubset.of(system.language, tokens)


def _print_subset(subset: FiniteSubset) -> None:
    for e in subset.members:
        print(e.name)


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
    from .operators import RuleOperator, check_axioms

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
    _print_subset(system.grounded.image(hypotheses))
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
    from .operators import RuleOperator, meet

    systems = _load_many(args.systems)
    hypotheses = _parse_hypotheses(systems[0], args.hyp)
    _print_subset(meet([RuleOperator(s) for s in systems]).apply(hypotheses))
    return 0


def _cmd_sup(args: argparse.Namespace) -> int:
    from .operators import RuleOperator, sup_w

    systems = _load_many(args.systems)
    hypotheses = _parse_hypotheses(systems[0], args.hyp)
    if args.via == "union":
        op = RuleOperator(union_systems(systems))
    else:
        op = sup_w([RuleOperator(s) for s in systems], systems[0].language)
    _print_subset(op.apply(hypotheses))
    return 0


def _cmd_csystems(args: argparse.Namespace) -> int:
    from .operators import RuleOperator, closed_systems

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
    """Print `pd.query`'s answer: the goal's derivation, or the evidence
    that it is not derivable."""
    if args.max_steps is not None:
        check_step_cap(args.max_steps)
    hypotheses = _parse_formulas(args.hyp) if args.hyp else []
    goal = pd.parse(args.goal)
    answer = pd.query(
        args.variant, hypotheses, goal, n=args.n, size_cap=args.size_cap, max_pool=args.pool_cap
    )
    if isinstance(answer, pd.PoolSearch):
        goal_element = pd.wff_element(goal)
        if args.max_steps is not None:
            size = min_derivation_size(answer.system, answer.hypotheses, goal_element, cap=args.max_steps)
            if size is None:
                print(f"derivable, but not within {args.max_steps} steps")
                return 1
            print(f"minimal steps: {size}")
        print(answer.result.witnesses[goal_element].render())
        return 0
    if isinstance(answer, pd.Certified):
        print(f"not derivable: {pd.wff_to_text(answer.transform)} is falsified by {answer.valuation}")
    else:
        print(
            "not derived: search exhausted a pool of "
            f"{answer.pool_size} formulas (size cap {answer.size_cap}); "
            "evidence only, not a proof"
        )
    return 1


def _cmd_example(args: argparse.Namespace) -> int:
    from .scenarios import run_scenario

    report = run_scenario(args.id, seed=args.seed, trials=args.trials)
    print(report.render())
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser


Argument = tuple[tuple[str, ...], dict[str, Any]]  # add_argument's flags and keywords
Handler = Callable[[argparse.Namespace], int]


class Command(NamedTuple):
    """One entry of the command table: a leaf runs `handler` on the
    parsed arguments; a group holds a nested table under `commands`."""

    help: str
    arguments: tuple[Argument, ...] = ()
    handler: Handler | None = None
    commands: dict[str, Command] | None = None


def _arg(*flags: str, **options: Any) -> Argument:
    return flags, options


def _command(text: str, handler: Handler, *arguments: Argument) -> Command:
    return Command(text, arguments, handler)


COMMANDS: dict[str, Command] = {
    "check-axioms": _command(
        "test the four closure axioms exhaustively",
        _cmd_check_axioms,
        _arg("--system", required=True, help="system file"),
        _arg("--bound", type=int, default=DEFAULT_BOUND, help="max language size for exhaustive checks"),
    ),
    "saturate": _command(
        "everything derivable from the hypotheses",
        _cmd_saturate,
        _arg("--system", required=True),
        _arg("--hyp", required=True, help="comma-separated hypothesis elements"),
    ),
    "derive": _command(
        "exhibit a numbered derivation of a goal",
        _cmd_derive,
        _arg("--system", required=True),
        _arg("--hyp", required=True),
        _arg("--goal", required=True),
        _arg("--max-steps", type=int, default=None),
    ),
    "bounded": _command(
        "consequences derivable within a step budget",
        _cmd_bounded,
        _arg("--system", required=True),
        _arg("--hyp", required=True),
        _arg("--steps", type=int, required=True),
    ),
    "meet": _command(
        "pointwise intersection of the systems' operators",
        _cmd_meet,
        _arg("--systems", required=True, help="comma-separated system files"),
        _arg("--hyp", required=True),
    ),
    "sup": _command(
        "least upper bound of the systems' operators",
        _cmd_sup,
        _arg("--systems", required=True),
        _arg("--hyp", required=True),
        _arg(
            "--via",
            choices=("union", "closed-systems"),
            default="closed-systems",
            help="compute by saturating the union or from shared closed sets",
        ),
    ),
    "csystems": _command(
        "list the operator's closed sets",
        _cmd_csystems,
        _arg("--system", required=True),
    ),
    "pd": Command(
        "propositional deduction tools",
        commands={
            "taut": _command(
                "decide whether a formula is a tautology", _cmd_pd_taut, _arg("formula")
            ),
            "h": _command("erase negations from a formula", _cmd_pd_h, _arg("formula")),
            "search": _command(
                "search for a derivation over a capped pool",
                _cmd_pd_search,
                _arg("--variant", choices=pd.VARIANTS, default="standard"),
                _arg("--n", type=int, default=None, help="index for parametrized variants"),
                _arg("--hyp", default="", help="comma-separated hypothesis formulas"),
                _arg("--goal", required=True),
                _arg("--pool-cap", type=int, default=pd.DEFAULT_MAX_POOL, help="max pool size"),
                _arg("--size-cap", type=int, default=pd.DEFAULT_SIZE_CAP, help="max formula length"),
                _arg("--max-steps", type=int, default=None),
            ),
        },
    ),
    "example": _command(
        "run a named scenario",
        _cmd_example,
        _arg("id", help="scenario id; one of: {scenario_ids}"),
        _arg("--seed", type=int, default=0),
        _arg("--trials", type=int, default=None),
    ),
}


def _branch(argv: Sequence[str]) -> tuple[list[str], Command] | None:
    """The command words that lead argv, down to a leaf of COMMANDS, and
    that leaf; None when argv does not start by naming one exactly."""
    table, path = COMMANDS, []
    for word in argv:
        command = table.get(word)
        if command is None:
            return None
        path.append(word)
        if command.commands is None:
            return path, command
        table = command.commands
    return None


def _value(options: dict[str, Any], word: str) -> Any:
    """word as argparse converts it for a row with these options; raises
    ValueError or TypeError where argparse reports a usage error."""
    value = options.get("type", str)(word)
    if value not in options.get("choices", (value,)):
        raise ValueError(word)
    return value


def _parse_leaf(argv: Sequence[str]) -> argparse.Namespace | None:
    """argv read straight off the `arguments` row of the leaf it names,
    as the full parser would read it; None when argv is not plainly
    well-formed.

    After the command words, each word is either an exact long flag of
    the row followed by a value that does not start with `-`, or a
    positional word that does not start with `-`, one per positional
    row.  Values go through `type` and `choices`, a repeated flag keeps
    its last value, and a missing optional takes its `default`.  Help,
    abbreviations, `--x=v`, `--`, values that start with `-`, and
    unknown, missing, extra or invalid words all give None.
    """
    branch = _branch(argv)
    if branch is None:
        return None
    path, command = branch
    rows = {flags[0]: options for flags, options in command.arguments}
    positionals = iter([name for name in rows if not name.startswith("-")])
    given: dict[str, Any] = {}
    rest = iter(argv[len(path):])
    for word in rest:
        if not word.startswith("-"):
            name = next(positionals, None)
        elif word in rows:
            name, word = word, next(rest, "-")
        else:
            return None
        if name is None or word.startswith("-"):
            return None
        try:
            given[name] = _value(rows[name], word)
        except (TypeError, ValueError):
            return None
    if next(positionals, None) is not None:
        return None
    args = argparse.Namespace(handler=command.handler)
    for name, options in rows.items():
        if name not in given and options.get("required"):
            return None
        setattr(args, name.lstrip("-").replace("-", "_"), given.get(name, options.get("default")))
    return args


def _add_commands(parser: argparse.ArgumentParser, dest: str, table: dict[str, Command]) -> None:
    """Give `parser` a sub-parser for each command of `table`, nested as
    the table nests them.  A help text's `{scenario_ids}` field gets the
    scenario ids here, so only the full parser loads `scenarios`."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, command in table.items():
        p = sub.add_parser(name, help=command.help)
        for flags, options in command.arguments:
            if "{scenario_ids}" in options.get("help", ""):
                from .scenarios import scenario_ids

                options = {**options, "help": options["help"].format(scenario_ids=", ".join(scenario_ids()))}
            p.add_argument(*flags, **options)
        if command.commands is None:
            p.set_defaults(handler=command.handler)
        else:
            _add_commands(p, f"{name}_command", command.commands)


def build_parser() -> argparse.ArgumentParser:
    """The full parser for `conseq`: the root and a sub-parser for every
    command of COMMANDS, 13 in all, built on each call.

    `main` builds it only for argv that `_parse_leaf` does not read, such
    as help and malformed argv, so every help text, usage line, error
    and exit code comes from it.
    """
    parser = argparse.ArgumentParser(
        prog="conseq",
        description="Workbench for rule systems and the operators they generate.",
    )
    _add_commands(parser, "command", COMMANDS)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run `conseq <argv>` (sys.argv[1:] when argv is None); return the
    exit code.

    A well-formed argv is read by `_parse_leaf` off the row of the leaf
    command it names, and no parser is built.  Any other argv -- no leaf
    named, help asked for, a usage error, a form the reader does not
    take -- is parsed by `build_parser()`, which prints what argparse
    prints and gives the exit code.  No parser is kept between calls.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_leaf(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
