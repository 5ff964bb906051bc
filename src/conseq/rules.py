"""Rule systems: finite sets of named inference relations.

A system holds unary relations (axiom sets, whose members may be
inserted into a deduction at any point) and (k+1)-ary relations whose
tuples read "from these k premises conclude the last coordinate".
Both are given extensionally, as a finite subset or a finite tuple
list, so grounding a system for the engine only reads them.

Derivations are numbered step sequences.  Step n is either the
insertion of an element (a hypothesis or an axiom) or the application
of a rule to strictly earlier steps.  They are plain data; validity is
decided by `engine.check_derivation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Union

from .errors import DomainError, UsageError
from .language import Element, FiniteSubset, Language

if TYPE_CHECKING:
    from .engine import MaskSystem

# ---------------------------------------------------------------------------
# rules


@dataclass(frozen=True)
class UnaryRule:
    """An axiom set: every member may be inserted as a deduction step."""

    rule_id: str
    axioms: FiniteSubset


@dataclass(frozen=True)
class TupleRule:
    """An extensional (arity)-ary relation.

    Each tuple lists arity-1 premises followed by the conclusion.
    Tuples keep their given order (minus duplicates) so a tuple index
    is stable; the order never affects saturation results.
    """

    rule_id: str
    arity: int
    tuples: tuple[tuple[Element, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.arity < 2:
            raise UsageError(f"rule {self.rule_id}: arity must be at least 2")
        tuples = tuple(dict.fromkeys(tuple(t) for t in self.tuples))
        for t in tuples:
            if len(t) != self.arity:
                raise UsageError(
                    f"rule {self.rule_id}: tuple {tuple(str(e) for e in t)} "
                    f"does not have arity {self.arity}"
                )
        object.__setattr__(self, "tuples", tuples)


Rule = Union[UnaryRule, TupleRule]


def rules_extensionally_equal(a: Rule, b: Rule) -> bool:
    """Same relation as a set of tuples, ignoring ids and tuple order."""
    if isinstance(a, UnaryRule) and isinstance(b, UnaryRule):
        return set(a.axioms) == set(b.axioms)
    if isinstance(a, TupleRule) and isinstance(b, TupleRule):
        return a.arity == b.arity and set(a.tuples) == set(b.tuples)
    return False


# ---------------------------------------------------------------------------
# systems


@dataclass(frozen=True)
class RuleSystem:
    """A named finite set of inference relations over one language.

    The empty system is legal (it generates the identity operator), as
    are empty relations.

    `by_id` maps each rule id to its rule, built once, so `rule` and
    `has_rule` are hash lookups.  `grounded` is the system's one
    grounding (`engine.MaskSystem`), built on first use.  Neither is a
    dataclass field, so equality, hashing and repr see only `name`,
    `language` and `rules`.
    """

    name: str
    language: Language
    rules: tuple[Rule, ...] = ()

    def __post_init__(self) -> None:
        by_id = {r.rule_id: r for r in self.rules}
        if len(by_id) != len(self.rules):
            ids = [r.rule_id for r in self.rules]
            raise UsageError(f"system {self.name}: rule ids must be unique: {ids}")
        object.__setattr__(self, "by_id", by_id)
        for rule in self.rules:
            if isinstance(rule, UnaryRule):
                if rule.axioms.language != self.language:
                    raise DomainError(
                        f"system {self.name}: axioms of {rule.rule_id} use another language"
                    )
            elif isinstance(rule, TupleRule):
                for e in dict.fromkeys(chain.from_iterable(rule.tuples)):
                    if e not in self.language:
                        raise DomainError(
                            f"system {self.name}: rule {rule.rule_id} mentions "
                            f"{e} outside the language"
                        )

    @cached_property
    def grounded(self) -> "MaskSystem":
        """The system grounded onto bit masks, built on first use and
        shared by every later saturation, search and operator image."""
        from .engine import MaskSystem  # engine imports this module

        return MaskSystem(self)

    def rule(self, rule_id: str) -> Rule:
        try:
            return self.by_id[rule_id]
        except KeyError:
            raise UsageError(f"system {self.name}: no rule named {rule_id}") from None

    def has_rule(self, rule_id: str) -> bool:
        return rule_id in self.by_id


# ---------------------------------------------------------------------------
# derivations


#: Insert source marking a hypothesis (as opposed to a unary rule id).
HYPOTHESIS = None


@dataclass(frozen=True)
class Insert:
    """Step inserting `element`; source None means hypothesis, else a
    unary rule id."""

    element: Element
    source: str | None = HYPOTHESIS


@dataclass(frozen=True)
class Apply:
    """Step concluding `conclusion` by `rule_id` from earlier steps.

    `premise_steps` are 1-based step numbers, one per premise
    coordinate of the matched tuple.
    """

    rule_id: str
    premise_steps: tuple[int, ...]
    conclusion: Element


Step = Union[Insert, Apply]


def step_element(step: Step) -> Element:
    return step.element if isinstance(step, Insert) else step.conclusion


@dataclass(frozen=True)
class Derivation:
    """A non-empty numbered sequence of steps; step i is steps[i-1]."""

    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise UsageError("a derivation needs at least one step")

    def __len__(self) -> int:
        return len(self.steps)

    def final_element(self) -> Element:
        return step_element(self.steps[-1])

    def render(self) -> str:
        lines = []
        for i, step in enumerate(self.steps, start=1):
            if isinstance(step, Insert):
                origin = "hypothesis" if step.source is None else f"axiom {step.source}"
                lines.append(f"{i}. {step.element}  [{origin}]")
            else:
                refs = ",".join(str(k) for k in step.premise_steps)
                lines.append(f"{i}. {step.conclusion}  [{step.rule_id} from {refs}]")
        return "\n".join(lines)


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict with a diagnostic for the failing step."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok
