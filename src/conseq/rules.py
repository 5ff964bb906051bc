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
from functools import cached_property, lru_cache, partial
from typing import Mapping, Sequence, Union

from .errors import DomainError, UsageError
from .language import (
    Element,
    ExplicitLanguage,
    FiniteSubset,
    Language,
    bit_indices,
    require_same_language,
)

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

    `by_id` maps each rule id to its rule, for `rule` and `has_rule`;
    `grounded` is the system's one grounding (`MaskSystem`).  The
    constructor builds it with the system by the generic per-rule loop
    (`ground`), checking every tuple element; `_of_grounding` takes one
    its caller has built from numbered parts.  Neither is a dataclass
    field, so equality, hashing and repr see only the three fields.
    """

    name: str
    language: Language
    rules: tuple[Rule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "by_id", _rules_by_id(self.name, self.rules))
        object.__setattr__(self, "grounded", ground(self))

    @classmethod
    def _of_grounding(
        cls, name: str, language: Language, rules: tuple[Rule, ...], grounded: "MaskSystem"
    ) -> "RuleSystem":
        """The system of these parts, grounded as `grounded`, which the
        caller vouches is the grounding `ground` would build for it: only
        the rule ids are checked."""
        system = object.__new__(cls)
        system.__dict__.update(
            name=name, language=language, rules=rules,
            by_id=_rules_by_id(name, rules), grounded=grounded,
        )
        return system

    def rule(self, rule_id: str) -> Rule:
        try:
            return self.by_id[rule_id]
        except KeyError:
            raise UsageError(f"system {self.name}: no rule named {rule_id}") from None

    def has_rule(self, rule_id: str) -> bool:
        return rule_id in self.by_id


def _rules_by_id(name: str, rules: tuple[Rule, ...]) -> dict[str, Rule]:
    by_id = {r.rule_id: r for r in rules}
    if len(by_id) != len(rules):
        raise UsageError(f"system {name}: rule ids must be unique: {[r.rule_id for r in rules]}")
    return by_id


# ---------------------------------------------------------------------------
# grounding: reduce a system to axiom bits plus numbered arcs


class MaskSystem:
    """A system grounded once onto bit masks; every call reuses it.

    It is built from its numbered parts.  Every element the grounding
    reaches gets one bit.  Over an explicit language that bit is the
    element's position in the language, so a subset's `mask` is already
    in this numbering and the widest mask has one bit per element.  Over
    an enumerated language the elements are numbered densely, in
    grounding order, so a mask is as wide as the elements seen, never as
    wide as an enumeration index; `encode` gives an element it has not
    seen the next free bit.  `elements` lists the numbered elements by
    bit and `bits` is its inverse.

    The axioms form the `insertable` mask; `inserted` keeps their
    justifications in rule order.  Hypotheses are no part of the
    grounding: each call encodes its own as a mask.  Every grounded
    tuple is one arc (premise mask, conclusion bit), in system order,
    and `sources` keeps its rule id and tuple.  `users` maps each
    premise bit to the numbers of the arcs that use it, read by two
    forward-chaining loops over these Horn clauses (Dowling & Gallier
    1984): `close` in any order, `engine.saturate` in witness order.
    `producers` maps each conclusion bit, as a mask, to the premise
    masks of the arcs that conclude it, in arc order: the step-bounded
    search reads it backward from its goal.  `conclusions` is the union
    of its keys.  These two are built from the arcs on first use, once
    per grounding, so a caller that never reads them never pays for
    them.  Arcs and indexes never change after grounding.  Over masks
    of a given width, two tables read the arcs: `closures`, the closure
    of every mask, and `closed_masks`, the closed family as one int of
    2^width bits, built from the arcs alone with a few big-int ANDs per
    arc and premise.

    Two functions build the parts: `ground`, the generic per-rule loop
    every `RuleSystem` constructor runs, and `propositional.pd_system`,
    whose bit i is pool formula i.
    """

    def __init__(
        self,
        language: Language,
        elements: Sequence[Element],
        bits: Mapping[Element, int],
        inserted: dict[Element, tuple],
        insertable: int,
        arcs: list[tuple[int, int]],
        sources: list[tuple[str, tuple[Element, ...]]],
        users: dict[int, list[int]],
    ):
        self.language, self.elements, self.bits = language, elements, bits
        self.inserted, self.insertable = inserted, insertable
        self.arcs, self.sources, self.users = arcs, sources, users

    @cached_property
    def producers(self) -> dict[int, list[int]]:
        producers: dict[int, list[int]] = {}
        for premises, conclusion in self.arcs:
            producers.setdefault(conclusion, []).append(premises)
        return producers

    @cached_property
    def conclusions(self) -> int:
        conclusions = 0
        for conclusion in self.producers:
            conclusions |= conclusion
        return conclusions

    def _bit_of(self, e: Element) -> int:
        return _number(self.language, self.elements, self.bits, e)

    def encode(self, subset: FiniteSubset) -> int:
        """The mask of `subset`, which must be over the system's language.
        Over an enumerated language a member the grounding has not seen
        takes the next free bit, which no arc uses."""
        require_same_language(self.language, subset.language, "saturate")
        if isinstance(self.language, ExplicitLanguage):
            return subset.mask
        mask = 0
        for i in map(self._bit_of, subset.members):
            mask |= 1 << i
        return mask

    def decode(self, mask: int) -> FiniteSubset:
        """The subset whose members are the elements of the bits of `mask`."""
        if isinstance(self.language, ExplicitLanguage):
            return FiniteSubset._of_mask(self.language, mask)
        return FiniteSubset(self.language, tuple(self.elements[i] for i in bit_indices(mask)))

    def image(self, subset: FiniteSubset) -> FiniteSubset:
        """Everything derivable from `subset`."""
        return self.decode(self.close(self.encode(subset)))

    def close(self, mask: int = 0, fresh: int | None = None) -> int:
        """The least superset of `mask` and the insertable elements that
        holds every arc's conclusion once it holds the arc's premises.

        When `mask` is closed apart from the bits of `fresh`, passing
        them visits only the arcs those bits can enable.
        """
        have = mask | self.insertable
        todo = have if fresh is None else fresh
        arcs, users = self.arcs, self.users
        while todo:
            low = todo & -todo
            todo ^= low
            for a in users.get(low.bit_length() - 1, ()):
                premises, conclusion = arcs[a]
                if not have & conclusion and have & premises == premises:
                    have |= conclusion
                    todo |= conclusion
        return have

    def closures(self, width: int) -> list[int]:
        """`close(X)` for every mask X of `width` bits, indexed by X.

        The table is filled in binary-counting order from the closure of
        X minus its lowest bit e: when that closure holds e it is X's
        closure too, and otherwise only the arcs that e enables are
        visited.
        """
        out = [self.close()]
        for x in range(1, 1 << width):
            low = x & -x
            below = out[x ^ low]
            out.append(below if below & low else self.close(below | low, low))
        return out

    def closed_masks(self, width: int) -> int:
        """The masks X of `width` bits that `close` fixes, as one int of
        2^width bits whose bit X is set when X is closed.

        X is closed when it holds every insertable bit and, for every
        arc whose premises it holds, the arc's conclusion.  Starting from
        the masks that hold the insertable bits, each arc clears the
        closed masks that lack its conclusion and hold its premises: a
        few ANDs with the bitsets of `_holding_masks` per arc and premise,
        with no loop over the 2^width masks.
        """
        holding = _holding_masks(width)
        insertable = self.insertable
        closed = (1 << (1 << width)) - 1
        for i in bit_indices(insertable):
            closed &= holding[i]
        for premises, conclusion in self.arcs:
            if conclusion & (premises | insertable):
                continue  # the conclusion is a premise or insertable: no mask breaks the arc
            violated = closed & ~holding[conclusion.bit_length() - 1]
            while premises:
                low = premises & -premises
                violated &= holding[low.bit_length() - 1]
                premises ^= low
            closed ^= violated
        return closed


@lru_cache(maxsize=4)
def _holding_masks(width: int) -> tuple[int, ...]:
    """For each bit i below `width`, the int of 2^width bits whose bit X
    is set when mask X holds bit i: runs of 2^i clear then 2^i set bits,
    built by doubling one block of two runs until it spans 2^width bits."""
    size = 1 << width
    out = []
    for i in range(width):
        run = 1 << i
        block, span = ((1 << run) - 1) << run, run << 1
        while span < size:
            block |= block << span
            span <<= 1
        out.append(block)
    return tuple(out)


def _number(language: Language, elements: list[Element], bits: dict[Element, int], e: Element) -> int:
    """The bit of `e` over an enumerated language, numbering it if new."""
    i = bits.get(e)
    if i is None:
        if e not in language:
            raise KeyError(e)  # as an explicit language's `positions` does
        i = bits[e] = len(elements)
        elements.append(e)
    return i


def ground(system: RuleSystem) -> MaskSystem:
    """The grounding of `system` by one pass over its rules, in rule
    order, then element order, checking every tuple element.  That is
    the system's only membership check: the first axiom set over another
    language or tuple element outside it is a `DomainError`."""
    language = system.language
    if isinstance(language, ExplicitLanguage):
        elements, bits = language.elements, language.positions
        bit_of = bits.__getitem__
    else:
        elements, bits = [], {}
        bit_of = partial(_number, language, elements, bits)
    inserted: dict[Element, tuple] = {}
    arcs: list[tuple[int, int]] = []
    sources: list[tuple[str, tuple[Element, ...]]] = []
    users: dict[int, list[int]] = {}
    insertable = 0
    add_user, add_arc, add_source = users.setdefault, arcs.append, sources.append
    for rule in system.rules:
        rule_id = rule.rule_id
        if isinstance(rule, UnaryRule):
            if rule.axioms.language != language:
                raise DomainError(f"system {system.name}: axioms of {rule_id} use another language")
            for e in rule.axioms:
                inserted.setdefault(e, ("axiom", rule_id))
                insertable |= 1 << bit_of(e)
            continue
        for t in rule.tuples:
            try:
                *positions, last = map(bit_of, t)
            except KeyError as outside:
                raise DomainError(
                    f"system {system.name}: rule {rule_id} mentions "
                    f"{outside.args[0]} outside the language"
                ) from None
            arc = len(arcs)
            premises = 0
            for i in positions:
                premises |= 1 << i
                add_user(i, []).append(arc)
            add_arc((premises, 1 << last))
            add_source((rule_id, t))
    return MaskSystem(language, elements, bits, inserted, insertable, arcs, sources, users)


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
                refs = ",".join(map(str, step.premise_steps))
                lines.append(f"{i}. {step.conclusion}  [{step.rule_id} from {refs}]")
        return "\n".join(lines)


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict with a diagnostic for the failing step."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok
