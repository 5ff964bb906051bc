"""The deduction engine.

Saturation computes everything derivable from a hypothesis set: start
from the hypotheses and all axioms, then keep applying rule tuples
whose premises are already present.  Evaluation runs in rounds.  The
grounded tuples are numbered in rule order, then tuple order, and an
index maps each premise to the numbers of the tuples that use it; a
round's candidates are the tuples that use an element derived in the
previous round, visited in number order.  A candidate fires when its
conclusion is new and all its premises are present, counting those
derived earlier in the same round.  Each element is derived exactly
once, and every derived element has a replayable derivation witness,
rebuilt from the recorded justifications when it is looked up.

The bounded variants count steps the way numbered deductions do:
inserting a hypothesis or axiom costs a step, and a rule application
costs a step and may reference any earlier step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DomainError, UsageError
from .language import (
    Element,
    ExplicitLanguage,
    FiniteSubset,
    all_subsets,
    require_same_language,
)
from .rules import (
    Apply,
    CheckResult,
    Derivation,
    Insert,
    Rule,
    RuleSystem,
    SchemaRule,
    TupleRule,
    UnaryRule,
    rules_extensionally_equal,
    step_element,
)

# ---------------------------------------------------------------------------
# grounding: reduce a system to insertable elements plus extensional tuples


def _instantiate_schema_rule(rule: SchemaRule, pool: FiniteSubset) -> tuple[tuple[Element, ...], ...]:
    pool_set = pool.member_set
    instances = rule.instantiate(pool_set)
    width = rule.premise_count + 1
    for t in instances:
        if len(t) != width:
            raise UsageError(
                f"schema {rule.rule_id} produced a tuple of width {len(t)}, expected {width}"
            )
        for e in t:
            if e not in pool_set:
                raise UsageError(
                    f"schema {rule.rule_id} produced {e}, which is outside the pool"
                )
    return tuple(sorted(instances, key=lambda t: tuple(e.name for e in t)))


def _ground(
    system: RuleSystem, hypotheses: FiniteSubset, pool: FiniteSubset | None
) -> tuple[dict[Element, tuple], list[tuple[str, tuple[tuple[Element, ...], ...]]]]:
    """Initial insertable elements (with their justification) and the
    extensional tuples of every rule, in system order."""
    require_same_language(system.language, hypotheses.language, "saturate")
    if pool is not None:
        require_same_language(system.language, pool.language, "saturate pool")
        if not hypotheses.is_subset_of(pool):
            raise UsageError("the pool must contain every hypothesis")
    if system.has_schema_rules() and pool is None:
        raise UsageError(
            f"system {system.name} has schema rules; saturation needs an explicit pool"
        )

    insertable: dict[Element, tuple] = {}
    for e in hypotheses:
        insertable[e] = ("hyp",)
    grounded: list[tuple[str, tuple[tuple[Element, ...], ...]]] = []
    for rule in system.rules:
        if isinstance(rule, UnaryRule):
            axioms = rule.axioms if pool is None else rule.axioms.intersect(pool)
            for e in axioms:
                insertable.setdefault(e, ("axiom", rule.rule_id))
        elif isinstance(rule, TupleRule):
            grounded.append((rule.rule_id, rule.tuples))
        else:
            grounded.append((rule.rule_id, _instantiate_schema_rule(rule, pool)))
    return insertable, grounded


# ---------------------------------------------------------------------------
# saturation


@dataclass(frozen=True)
class SaturationResult:
    """Closure plus one replayable derivation per derived element.

    `witnesses` iterates in derivation order and replays an element's
    derivation each time it is looked up.
    """

    closure: FiniteSubset
    witnesses: Mapping[Element, Derivation]


class Witnesses(Mapping[Element, Derivation]):
    """The derivations of one saturation, replayed on lookup from its
    justification map, whose insertion order is the derivation order."""

    def __init__(self, justification: dict[Element, tuple]):
        self._justification = justification

    def __getitem__(self, element: Element) -> Derivation:
        if element not in self._justification:
            raise KeyError(element)
        return _replay(element, self._justification)

    def __contains__(self, element: object) -> bool:
        return element in self._justification

    def __iter__(self) -> Iterator[Element]:
        return iter(self._justification)

    def __len__(self) -> int:
        return len(self._justification)


def saturate(
    system: RuleSystem, hypotheses: FiniteSubset, pool: FiniteSubset | None = None
) -> SaturationResult:
    insertable, grounded = _ground(system, hypotheses, pool)

    flat = [(rule_id, t) for rule_id, tuples in grounded for t in tuples]
    users: dict[Element, list[int]] = {}
    for position, (_, t) in enumerate(flat):
        for p in t[:-1]:
            users.setdefault(p, []).append(position)

    justification: dict[Element, tuple] = dict(insertable)
    frontier: list[Element] = list(insertable)
    while frontier:
        candidates = sorted({i for e in frontier for i in users.get(e, ())})
        frontier = []
        for i in candidates:
            rule_id, t = flat[i]
            conclusion = t[-1]
            if conclusion in justification:
                continue
            premises = t[:-1]
            if all(p in justification for p in premises):
                justification[conclusion] = ("apply", rule_id, premises)
                frontier.append(conclusion)

    closure = FiniteSubset(system.language, tuple(justification))
    return SaturationResult(closure=closure, witnesses=Witnesses(justification))


def _replay(goal: Element, justification: dict[Element, tuple]) -> Derivation:
    """Rebuild a numbered derivation of `goal` from the justification
    map; its steps follow the map's insertion order."""
    support: set[Element] = set()
    stack = [goal]
    while stack:
        e = stack.pop()
        if e in support:
            continue
        support.add(e)
        j = justification[e]
        if j[0] == "apply":
            stack.extend(j[2])
    ordered = [e for e in justification if e in support]
    step_no = {e: i for i, e in enumerate(ordered, start=1)}
    steps = []
    for e in ordered:
        j = justification[e]
        if j[0] == "hyp":
            steps.append(Insert(e))
        elif j[0] == "axiom":
            steps.append(Insert(e, j[1]))
        else:
            steps.append(Apply(j[1], tuple(step_no[p] for p in j[2]), e))
    return Derivation(tuple(steps))


# ---------------------------------------------------------------------------
# derivation checking


def check_derivation(
    system: RuleSystem,
    hypotheses: FiniteSubset,
    derivation: Derivation,
    pool: FiniteSubset | None = None,
) -> CheckResult:
    """Replay a derivation step by step against a system.

    Malformed references and unknown rules yield a failing result with
    a diagnostic rather than an exception; only a schema rule used
    without a pool is treated as a caller error.
    """
    require_same_language(system.language, hypotheses.language, "check_derivation")
    instantiated: dict[str, frozenset[tuple[Element, ...]]] = {}

    for i, step in enumerate(derivation.steps, start=1):
        if isinstance(step, Insert):
            if step.source is None:
                if step.element not in hypotheses.member_set:
                    return CheckResult(False, f"step {i}: {step.element} is not a hypothesis")
            else:
                if not system.has_rule(step.source):
                    return CheckResult(False, f"step {i}: unknown rule {step.source}")
                rule = system.rule(step.source)
                if not isinstance(rule, UnaryRule):
                    return CheckResult(
                        False, f"step {i}: rule {step.source} is not an axiom set"
                    )
                allowed = rule.axioms if pool is None else rule.axioms.intersect(pool)
                if step.element not in allowed.member_set:
                    return CheckResult(
                        False, f"step {i}: {step.element} is not an axiom of {step.source}"
                    )
            continue

        if not system.has_rule(step.rule_id):
            return CheckResult(False, f"step {i}: unknown rule {step.rule_id}")
        rule = system.rule(step.rule_id)
        if isinstance(rule, UnaryRule):
            return CheckResult(False, f"step {i}: {step.rule_id} takes no premises")
        if any(k < 1 or k >= i for k in step.premise_steps):
            return CheckResult(
                False, f"step {i}: premise references must point at earlier steps"
            )
        referenced = tuple(step_element(derivation.steps[k - 1]) for k in step.premise_steps)

        if isinstance(rule, TupleRule):
            candidates = rule.tuples
            width = rule.arity
        else:
            if pool is None:
                raise UsageError(
                    f"rule {rule.rule_id} is a schema; checking needs an explicit pool"
                )
            if rule.rule_id not in instantiated:
                instantiated[rule.rule_id] = frozenset(_instantiate_schema_rule(rule, pool))
            candidates = instantiated[rule.rule_id]
            width = rule.premise_count + 1

        if len(referenced) != width - 1:
            return CheckResult(
                False, f"step {i}: {step.rule_id} takes {width - 1} premises"
            )
        wanted = set(referenced)
        if not any(t[-1] == step.conclusion and set(t[:-1]) == wanted for t in candidates):
            return CheckResult(
                False,
                f"step {i}: {step.rule_id} has no tuple concluding {step.conclusion} "
                f"from {{{','.join(e.name for e in sorted(wanted))}}}",
            )
    return CheckResult(True)


# ---------------------------------------------------------------------------
# step-bounded deduction


def _step_grounding(
    system: RuleSystem, hypotheses: FiniteSubset, pool: FiniteSubset | None
) -> tuple[set[Element], list[tuple[frozenset[Element], Element]], set[Element]]:
    insertable, grounded = _ground(system, hypotheses, pool)
    arcs = [
        (frozenset(t[:-1]), t[-1]) for _, tuples in grounded for t in tuples
    ]
    universe = set(insertable) | {c for _, c in arcs}
    return set(insertable), arcs, universe


def _min_size(
    insertable: set[Element],
    arcs: list[tuple[frozenset[Element], Element]],
    goal: Element,
    cap: int,
) -> int | None:
    """Length of the shortest numbered deduction of `goal`, up to `cap`.

    A shortest deduction never repeats an element and never takes a
    step that does not feed the goal, so its steps are a set of
    goal-relevant elements built one derivable element at a time;
    breadth-first search over those sets is exact.
    """
    relevant = {goal}
    grew = True
    while grew:
        grew = False
        for premises, conclusion in arcs:
            if conclusion in relevant and not premises <= relevant:
                relevant |= premises
                grew = True
    insertable = {e for e in insertable if e in relevant}
    arcs = [(p, c) for p, c in arcs if c in relevant]

    def successors(have: frozenset[Element]) -> set[Element]:
        out = {e for e in insertable if e not in have}
        for premises, conclusion in arcs:
            if conclusion not in have and premises <= have:
                out.add(conclusion)
        return out

    frontier: set[frozenset[Element]] = {frozenset()}
    visited: set[frozenset[Element]] = set(frontier)
    for size in range(cap):
        next_frontier: set[frozenset[Element]] = set()
        for have in frontier:
            grown = successors(have)
            if goal in grown:
                return size + 1
            if size + 1 < cap:
                for e in grown:
                    if e == goal:
                        continue
                    bigger = have | {e}
                    if bigger not in visited:
                        visited.add(bigger)
                        next_frontier.add(bigger)
        frontier = next_frontier
        if not frontier:
            break
    return None


def min_derivation_size(
    system: RuleSystem,
    hypotheses: FiniteSubset,
    goal: Element,
    cap: int,
    pool: FiniteSubset | None = None,
) -> int | None:
    """Exact minimal derivation length for `goal`, or None beyond `cap`."""
    if cap < 1:
        raise UsageError("the step cap must be at least 1")
    if goal not in system.language:
        raise DomainError(f"goal {goal} is not in the language")
    insertable, arcs, _ = _step_grounding(system, hypotheses, pool)
    return _min_size(insertable, arcs, goal, cap)


def bounded_consequences(
    system: RuleSystem,
    hypotheses: FiniteSubset,
    steps: int,
    pool: FiniteSubset | None = None,
) -> FiniteSubset:
    """Everything derivable by some deduction of at most `steps` steps."""
    if steps < 1:
        raise UsageError("the step bound must be at least 1")
    insertable, arcs, universe = _step_grounding(system, hypotheses, pool)
    if steps >= len(universe):
        # a shortest deduction never repeats an element, so the bound
        # is no longer binding and plain saturation gives the same set
        return saturate(system, hypotheses, pool).closure
    reachable = [
        e for e in sorted(universe) if _min_size(insertable, arcs, e, steps) is not None
    ]
    return FiniteSubset(system.language, tuple(reachable))


# ---------------------------------------------------------------------------
# canonical systems


def canonical_system(op, language: ExplicitLanguage, name: str = "canonical") -> RuleSystem:
    """The rule system whose saturation replays `op` exactly.

    One axiom set holds op(empty), and for every non-empty subset F of
    the language (premises in sorted order) the k-premise relation
    holds a tuple per element of op(F).  Construction is refused unless
    `op` passes `check_axioms` over the whole language, because
    saturation of the result always satisfies the closure axioms.
    """
    from .operators import check_axioms, tabulate  # operators imports this module

    if not isinstance(language, ExplicitLanguage):
        raise UsageError("canonical systems need an explicit finite language")
    table = tabulate(op, language)
    cex = check_axioms(table, language, bound=len(language.elements)).counterexample
    if cex is not None:
        at = ", ".join(str(s) for s in cex.subsets)
        raise UsageError(f"operator is not {cex.axiom} at {at}; refusing")

    subsets = list(all_subsets(language))
    rules: list[Rule] = [UnaryRule("axioms", table.apply(FiniteSubset.empty(language)))]
    n = len(language.elements)
    for k in range(1, n + 1):
        tuples: list[tuple[Element, ...]] = []
        for x in subsets:
            if len(x.members) != k:
                continue
            for e in table.apply(x):
                tuples.append(x.members + (e,))
        rules.append(TupleRule(f"from{k}", k + 1, tuple(tuples)))
    return RuleSystem(name, language, tuple(rules))


# ---------------------------------------------------------------------------
# structural surgery and combination


def permute_premises(
    system: RuleSystem, rule_id: str, tuple_index: int, permutation: Sequence[int]
) -> RuleSystem:
    """Reorder the premises of one stored tuple.

    Saturation results never change (premise order does not affect
    applicability) but the system is structurally different whenever
    the permutation moves distinct premises around.
    """
    rule = system.rule(rule_id)
    if not isinstance(rule, TupleRule):
        raise UsageError(f"rule {rule_id} has no premise order to permute")
    if not 0 <= tuple_index < len(rule.tuples):
        raise UsageError(
            f"rule {rule_id} has {len(rule.tuples)} tuples; index {tuple_index} is out of range"
        )
    width = rule.arity - 1
    if width < 2:
        raise UsageError("premise permutation needs at least two premises")
    if sorted(permutation) != list(range(width)):
        raise UsageError(
            f"permutation {tuple(permutation)} is not a permutation of 0..{width - 1}"
        )
    target = rule.tuples[tuple_index]
    shuffled = tuple(target[p] for p in permutation) + (target[-1],)
    tuples = list(rule.tuples)
    tuples[tuple_index] = shuffled
    replaced = TupleRule(rule.rule_id, rule.arity, tuple(tuples))
    return RuleSystem(
        system.name,
        system.language,
        tuple(replaced if r.rule_id == rule_id else r for r in system.rules),
    )


def _renamed(rule: Rule, rule_id: str) -> Rule:
    if isinstance(rule, UnaryRule):
        return UnaryRule(rule_id, rule.axioms)
    if isinstance(rule, TupleRule):
        return TupleRule(rule_id, rule.arity, rule.tuples)
    return SchemaRule(rule_id, rule.premise_count, rule.instantiate)


def union_systems(systems: Sequence[RuleSystem]) -> RuleSystem:
    """Concatenate the rule lists, namespacing ids by system name."""
    if not systems:
        raise UsageError("union needs at least one system")
    first = systems[0]
    for s in systems[1:]:
        require_same_language(first.language, s.language, "union_systems")
    rules: list[Rule] = []
    taken: set[str] = set()
    for s in systems:
        for rule in s.rules:
            rule_id = f"{s.name}.{rule.rule_id}"
            bump = 2
            while rule_id in taken:
                rule_id = f"{s.name}.{rule.rule_id}~{bump}"
                bump += 1
            taken.add(rule_id)
            rules.append(_renamed(rule, rule_id))
    return RuleSystem("+".join(s.name for s in systems), first.language, tuple(rules))


def intersect_systems(systems: Sequence[RuleSystem]) -> RuleSystem:
    """Keep the relations (compared extensionally) present in every system."""
    if not systems:
        raise UsageError("intersection needs at least one system")
    first = systems[0]
    for s in systems[1:]:
        require_same_language(first.language, s.language, "intersect_systems")
    kept = tuple(
        rule
        for rule in first.rules
        if all(
            any(rules_extensionally_equal(rule, other) for other in s.rules)
            for s in systems[1:]
        )
    )
    return RuleSystem("&".join(s.name for s in systems), first.language, kept)


def intersect_rulewise(a: RuleSystem, b: RuleSystem) -> RuleSystem:
    """Intersect the tuple sets of positionally paired relations.

    Relations are paired by their position in each system's rule list;
    unpaired trailing relations are dropped.  Pairs of different kinds
    or arities share no tuples, so they intersect to an empty relation.
    """
    require_same_language(a.language, b.language, "intersect_rulewise")
    rules: list[Rule] = []
    for left, right in zip(a.rules, b.rules):
        rule_id = f"{left.rule_id}&{right.rule_id}"
        if isinstance(left, UnaryRule) and isinstance(right, UnaryRule):
            rules.append(UnaryRule(rule_id, left.axioms.intersect(right.axioms)))
        elif (
            isinstance(left, TupleRule)
            and isinstance(right, TupleRule)
            and left.arity == right.arity
        ):
            right_tuples = set(right.tuples)
            shared = tuple(t for t in left.tuples if t in right_tuples)
            rules.append(TupleRule(rule_id, left.arity, shared))
        elif isinstance(left, TupleRule):
            rules.append(TupleRule(rule_id, left.arity, ()))
        else:
            rules.append(UnaryRule(rule_id, FiniteSubset.empty(a.language)))
    return RuleSystem(f"{a.name}&{b.name}", a.language, tuple(rules))
