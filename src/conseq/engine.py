"""The deduction engine.

Saturation computes everything derivable from a hypothesis set: start
from the hypotheses and all axioms, then keep applying rule tuples
whose premises are already present.  It runs in rounds over the
system's one grounding (`RuleSystem.grounded`, a `MaskSystem` built
with the system and shared by every call), whose arcs (one per
grounded tuple) are numbered in rule order, then tuple order; the
hypotheses enter as one more mask.  A round's
candidates are the arcs that use an element derived in the previous
round, visited in number order.  A candidate fires when its conclusion
is new and all its premises are present, counting those derived
earlier in the same round.  Each element is derived exactly once, and
every derived element has a replayable derivation witness, rebuilt
from the recorded justifications when it is looked up.

The bounded variants count steps the way numbered deductions do:
inserting a hypothesis or axiom costs a step, and a rule application
costs a step and may reference any earlier step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .errors import DomainError, UsageError
from .language import Element, FiniteSubset, bit_indices, require_same_language
from .rules import (
    Apply,
    CheckResult,
    Derivation,
    Insert,
    Rule,
    RuleSystem,
    TupleRule,
    UnaryRule,
    rules_extensionally_equal,
    step_element,
)

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


def saturate(system: RuleSystem, hypotheses: FiniteSubset) -> SaturationResult:
    """Everything derivable from `hypotheses`, and a witness for each
    element of it, by the rounds the module docstring describes."""
    grounded = system.grounded
    have = grounded.encode(hypotheses) | grounded.insertable
    arcs, sources, users = grounded.arcs, grounded.sources, grounded.users
    # the hypotheses in sorted order, then the other axioms in rule order:
    # merging keeps a key's first position and its last value
    hyps = dict.fromkeys(hypotheses.members, ("hyp",))
    justification = hyps | grounded.inserted | hyps
    fresh = list(bit_indices(have))
    while fresh:
        candidates = sorted({a for i in fresh for a in users.get(i, ())})
        fresh = []
        for a in candidates:
            premises, conclusion = arcs[a]
            if not have & conclusion and have & premises == premises:
                have |= conclusion
                fresh.append(conclusion.bit_length() - 1)
                rule_id, t = sources[a]
                justification[t[-1]] = ("apply", rule_id, t[:-1])
    return SaturationResult(closure=grounded.decode(have), witnesses=Witnesses(justification))


def _replay(goal: Element, justification: dict[Element, tuple]) -> Derivation:
    """Rebuild a numbered derivation of `goal` from the justification
    map: collect the elements it rests on, then number them in one pass
    over the map, whose order puts each premise before its conclusion.
    Steps skip their dataclass constructors, which check nothing."""
    support = {goal}
    stack = [goal]
    while stack:
        j = justification[stack.pop()]
        if j[0] == "apply":
            for p in j[2]:
                if p not in support:
                    support.add(p)
                    stack.append(p)
    step_no: dict[Element, int] = {}
    steps = []
    new = object.__new__
    for e, j in justification.items():
        if e in support:
            kind = j[0]
            if kind == "apply":
                step = new(Apply)
                step.__dict__.update(
                    rule_id=j[1], premise_steps=tuple(map(step_no.__getitem__, j[2])), conclusion=e
                )
            else:
                step = new(Insert)
                step.__dict__.update(element=e, source=None if kind == "hyp" else j[1])
            steps.append(step)
            step_no[e] = len(steps)
    return Derivation(tuple(steps))


# ---------------------------------------------------------------------------
# derivation checking


def check_derivation(
    system: RuleSystem, hypotheses: FiniteSubset, derivation: Derivation
) -> CheckResult:
    """Replay a derivation step by step against a system.

    Each step is checked against the hypotheses and the rules' own
    members and tuples.  Malformed references, unknown rules and steps
    no rule allows yield a failing result with a diagnostic rather than
    an exception; only hypotheses over another language raise.
    """
    require_same_language(system.language, hypotheses.language, "check_derivation")
    relations: dict[str, set[tuple[Element, frozenset[Element]]]] = {}

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
                if step.element not in rule.axioms.member_set:
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

        if rule.rule_id not in relations:
            relations[rule.rule_id] = {(t[-1], frozenset(t[:-1])) for t in rule.tuples}

        if len(referenced) != rule.arity - 1:
            return CheckResult(
                False, f"step {i}: {step.rule_id} takes {rule.arity - 1} premises"
            )
        wanted = frozenset(referenced)
        if (step.conclusion, wanted) not in relations[rule.rule_id]:
            return CheckResult(
                False,
                f"step {i}: {step.rule_id} has no tuple concluding {step.conclusion} "
                f"from {{{','.join(e.name for e in sorted(wanted))}}}",
            )
    return CheckResult(True)


# ---------------------------------------------------------------------------
# step-bounded deduction


def _min_steps(
    insertable: int, producers: dict[int, list[int]], goal: int, cap: int
) -> int | None:
    """The mask of the elements of a shortest numbered deduction of the
    `goal` bit, up to `cap` steps, or None: from the `insertable` mask
    (hypotheses and axioms), with `producers` mapping each conclusion bit
    to the premise masks of the arcs that conclude it
    (`MaskSystem.producers`).  Its popcount is the deduction's length.

    A shortest deduction never repeats an element and never takes a
    step that does not feed the goal, so its steps are a set of
    goal-relevant elements built one derivable element at a time;
    breadth-first search over those sets, held as masks, is exact.  A
    state at level k holds exactly k elements, so no state repeats.
    The relevant elements are found backward from the goal, one level
    of premises at a time, for at most `cap` - 1 levels.  Every arc has
    a premise, so a derived element of a deduction of at most `cap`
    steps lies at most `cap` - 2 premise links from the goal, and an
    element `cap` - 1 links away can only be inserted: the arcs that
    conclude it are never read.
    """
    relevant = level = goal
    arcs = []
    for _ in range(cap - 1):
        todo, level = level, 0
        while todo:
            conclusion = todo & -todo
            todo ^= conclusion
            for premises in producers.get(conclusion, ()):
                arcs.append((premises, conclusion))
                level |= premises
        level &= ~relevant
        if not level:
            break
        relevant |= level
    insertable &= relevant

    frontier = {0}
    for size in range(cap):
        next_frontier: set[int] = set()
        for have in frontier:
            grown = insertable
            for premises, conclusion in arcs:
                if have & premises == premises:
                    grown |= conclusion
            grown &= ~have
            if grown & goal:
                return have | goal
            if size + 1 < cap:
                for i in bit_indices(grown):
                    next_frontier.add(have | 1 << i)
        frontier = next_frontier
        if not frontier:
            break
    return None


def check_step_cap(cap: int) -> None:
    """Refuse a derivation step cap below 1."""
    if cap < 1:
        raise UsageError("the step cap must be at least 1")


def _shortest_mask(
    system: RuleSystem, hypotheses: FiniteSubset, goal: Element, cap: int
) -> tuple[int, int | None]:
    """The mask of the hypotheses and axioms, and `_min_steps`' mask of
    a shortest deduction of `goal` within `cap` steps, or None."""
    check_step_cap(cap)
    if goal not in system.language:
        raise DomainError(f"goal {goal} is not in the language")
    require_same_language(system.language, hypotheses.language, "min_derivation_size")
    grounded = system.grounded
    start = grounded.encode(hypotheses) | grounded.insertable
    goal_bit = grounded.bits.get(goal)
    if goal_bit is None:  # neither a hypothesis nor in any rule
        return start, None
    return start, _min_steps(start, grounded.producers, 1 << goal_bit, cap)


def min_derivation_size(
    system: RuleSystem, hypotheses: FiniteSubset, goal: Element, cap: int
) -> int | None:
    """Exact minimal derivation length for `goal`, or None beyond `cap`."""
    deduction = _shortest_mask(system, hypotheses, goal, cap)[1]
    return None if deduction is None else deduction.bit_count()


def shortest_derivation(
    system: RuleSystem, hypotheses: FiniteSubset, goal: Element, cap: int
) -> Derivation | None:
    """A derivation of `goal` of minimal length, or None beyond `cap`.

    `_replay` numbers the elements of the shortest deduction `_min_steps`
    finds, justified in a fixed order: first the hypotheses and axioms
    among them, in bit order, each inserted as a hypothesis when it is
    one, as `saturate` does, and otherwise as an axiom of the first rule
    that has it; then, repeatedly, the lowest bit that some arc concludes
    from elements already present, justified by the first such arc in
    system order.  Each element was added to the deduction from elements
    before it, so such a bit exists until the goal is in; each supports
    the goal, or the replay would be shorter, so the replay keeps all.
    """
    start, deduction = _shortest_mask(system, hypotheses, goal, cap)
    if deduction is None:
        return None
    grounded = system.grounded
    elements, hyps = grounded.elements, hypotheses.member_set
    have = deduction & start
    justification: dict[Element, tuple] = {}
    for i in bit_indices(have):
        e = elements[i]
        justification[e] = ("hyp",) if e in hyps else grounded.inserted[e]
    todo = deduction & ~have
    # the arcs into the derived elements, lowest conclusion first, then in system order
    candidates = sorted(
        (conclusion, a, premises)
        for a, (premises, conclusion) in enumerate(grounded.arcs)
        if conclusion & todo
    )
    while todo:
        conclusion, a = next(
            (conclusion, a)
            for conclusion, a, premises in candidates
            if conclusion & todo and have & premises == premises
        )
        rule_id, t = grounded.sources[a]
        justification[t[-1]] = ("apply", rule_id, t[:-1])
        have |= conclusion
        todo ^= conclusion
    return _replay(goal, justification)


def bounded_consequences(
    system: RuleSystem, hypotheses: FiniteSubset, steps: int
) -> FiniteSubset:
    """Everything derivable by some deduction of at most `steps` steps,
    by `bounded_mask` on the system's shared grounding
    (`RuleSystem.grounded`) with the hypotheses as one more mask."""
    if steps < 1:
        raise UsageError("the step bound must be at least 1")
    require_same_language(system.language, hypotheses.language, "bounded_consequences")
    grounded = system.grounded
    return grounded.decode(bounded_mask(system, grounded.encode(hypotheses), steps))


def bounded_mask(
    system: RuleSystem, hypotheses: int, steps: int, closure: int | None = None, known: int = 0
) -> int:
    """The mask of everything derivable from the `hypotheses` mask by
    some deduction of at most `steps` steps.

    An insertable element (hypothesis or axiom) takes one step and is
    accepted outright; an element outside the closure has no deduction
    and is rejected outright.  Each other element of the closure gets
    its own exact search (`_min_steps`), confined to the elements
    relevant to it within the bound: the grounding's one conclusion
    index (`MaskSystem.producers`) is read backward from the element for
    at most `steps` - 1 levels of premises.  One search over all sets of
    derivable elements would grow with every hypothesis.  A caller that
    already has the closure of the hypotheses passes it as `closure`,
    and bits it already knows to fit the bound as `known`; those are
    not searched again.  Once `steps` reaches the size of the universe
    (insertable elements and tuple conclusions) the bound no longer
    binds, since a shortest deduction never repeats an element, and the
    result is the saturation closure.
    """
    grounded = system.grounded
    start = hypotheses | grounded.insertable
    if steps >= (start | grounded.conclusions).bit_count():
        return grounded.encode(saturate(system, grounded.decode(hypotheses)).closure)
    if closure is None:
        closure = grounded.close(start)
    reachable = start | known
    for i in bit_indices(closure & ~reachable):
        if _min_steps(start, grounded.producers, 1 << i, steps) is not None:
            reachable |= 1 << i
    return reachable


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
    return TupleRule(rule_id, rule.arity, rule.tuples)


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
