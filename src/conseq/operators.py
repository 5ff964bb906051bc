"""Operators on subsets and their lattice algebra.

An operator maps subsets of a fixed language to subsets of the same
language.  Nothing here assumes the closure axioms (extensive,
monotone, idempotent, finite character); `check_axioms` decides them
exhaustively over a finite language and hands back a reproducible
counterexample when one fails.  Deliberately lawless operators, such
as the pointwise union of two closure operators, are first-class.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

from .engine import bounded_consequences, bounded_mask
from .errors import DomainError, UsageError
from .language import (
    CofiniteSubset,
    Element,
    EnumeratedLanguage,
    ExplicitLanguage,
    FiniteSubset,
    Language,
    Subset,
    all_subsets,
    bit_indices,
    full_subset,
    require_same_language,
)
from .rules import RuleSystem, TupleRule, UnaryRule

# The largest language the exhaustive checks take unless told otherwise.
DEFAULT_BOUND = 6

# ---------------------------------------------------------------------------
# operator variants


def _family_order(mask: int) -> tuple[int, tuple[int, ...]]:
    """Sort key for families of subsets: by size, then member by member.

    Bit order is name order in an explicit language, so this is the
    order of (len(s.members), s.members) without comparing elements.
    """
    return mask.bit_count(), tuple(bit_indices(mask))


class Operator:
    """Total map on the subsets of one language."""

    def apply(self, subset: Subset) -> Subset:
        raise NotImplementedError

    def _image_masks(self, language: ExplicitLanguage) -> list[int]:
        """The image mask of every input mask over `language`, asked
        through `apply` one subset at a time; every answer must be a
        finite subset of `language`.

        Rule, step-bounded, table and closure-family operators override
        this with a mask kernel, which refuses a language other than its
        operator's with the error `apply` gives; a meet or pointwise
        union combines its operands' tables.
        """
        images = []
        for s in all_subsets(language):
            r = self.apply(s)
            if not isinstance(r, FiniteSubset):
                raise DomainError("operator returned a non-finite subset over a finite language")
            require_same_language(language, r.language, "operator result")
            images.append(r.mask)
        return images

    def __call__(self, subset: Subset) -> Subset:
        return self.apply(subset)


class Identity(Operator):
    """Maps every subset to itself; the bottom of the operator lattice."""

    def apply(self, subset: Subset) -> Subset:
        return subset

    def __repr__(self) -> str:
        return "Identity()"


class Unit(Operator):
    """Maps every subset to the whole language; the top of the lattice."""

    def apply(self, subset: Subset) -> Subset:
        return full_subset(subset.language)

    def __repr__(self) -> str:
        return "Unit()"


class TableOperator(Operator):
    """An operator given by an explicit total table over P(language),
    held as the image mask of every input mask."""

    def __init__(self, language: ExplicitLanguage, table: Mapping[FiniteSubset, FiniteSubset]):
        if not isinstance(language, ExplicitLanguage):
            raise UsageError("table-backed operators need an explicit finite language")
        images: list[int | None] = [None] * (1 << len(language.elements))
        for key, value in table.items():
            require_same_language(language, key.language, "table key")
            require_same_language(language, value.language, "table value")
            images[key.mask] = value.mask
        if None in images:
            missing = FiniteSubset._of_mask(language, images.index(None))
            raise UsageError(f"table is not total: no row for {missing}")
        self.language = language
        self._images = images

    @classmethod
    def _of_masks(cls, language: ExplicitLanguage, images: list[int]) -> "TableOperator":
        op = cls.__new__(cls)
        op.language = language
        op._images = images
        return op

    def apply(self, subset: Subset) -> FiniteSubset:
        if not isinstance(subset, FiniteSubset):
            raise UsageError("table-backed operators take finite subsets")
        require_same_language(self.language, subset.language, "apply")
        return FiniteSubset._of_mask(self.language, self._images[subset.mask])

    def _image_masks(self, language: ExplicitLanguage) -> list[int]:
        require_same_language(self.language, language, "apply")
        return self._images


class RuleOperator(Operator):
    """The consequence operator generated by a rule system: X maps to
    everything derivable from X.  It takes every finite subset of the
    system's language.

    Every image is forward chaining on ints over the system's one
    grounding (`RuleSystem.grounded`: an axiom mask and one (premise
    mask, conclusion bit) arc per tuple), with X as one more mask.
    The image table over P(language) is `MaskSystem.closures`, filled in
    binary-counting order from the image of X minus its lowest element
    e: when that image holds e it is X's image too, and otherwise only
    the arcs that e enables are visited.  Witnesses come from
    `saturate` alone.
    """

    def __init__(self, system: RuleSystem):
        self.system = system
        self.language = system.language

    def apply(self, subset: Subset) -> FiniteSubset:
        if not isinstance(subset, FiniteSubset):
            raise UsageError("rule-backed operators take finite subsets")
        require_same_language(self.language, subset.language, "apply")
        return self.system.grounded.image(subset)

    def _image_masks(self, language: ExplicitLanguage) -> list[int]:
        require_same_language(self.language, language, "apply")
        return self.system.grounded.closures(len(language.elements))

    def __repr__(self) -> str:
        return f"RuleOperator({self.system.name})"


class BoundedOperator(Operator):
    """Derivability within a fixed number of deduction steps.

    `apply` answers with one `engine.bounded_consequences` call, an
    exact search per element.

    Exhaustive checks read a mask kernel instead.  It fills the image
    table in binary-counting order on the system's one grounding, with
    `engine.bounded_mask`, the search `bounded_consequences` runs.  The
    closure of X comes from the closure of X minus its lowest element
    (`MaskSystem.closures`).
    Bounded deduction is monotone in its hypotheses, since a deduction
    from a subset is one from any superset, so the image of X minus its
    lowest element is known to fit the bound from X, and only the
    closure elements outside it, X and the axioms are searched.

    Generally fails idempotence: a chain too long for the bound can be
    finished by a second pass.
    """

    def __init__(self, system: RuleSystem, steps: int):
        if steps < 1:
            raise UsageError("the step bound must be at least 1")
        self.system = system
        self.steps = steps
        self.language = system.language

    def apply(self, subset: Subset) -> FiniteSubset:
        if not isinstance(subset, FiniteSubset):
            raise UsageError("step-bounded operators take finite subsets")
        require_same_language(self.language, subset.language, "apply")
        return bounded_consequences(self.system, subset, self.steps)

    def _image_masks(self, language: ExplicitLanguage) -> list[int]:
        require_same_language(self.language, language, "apply")
        system, steps = self.system, self.steps
        closures = system.grounded.closures(len(language.elements))
        images = [bounded_mask(system, 0, steps, closures[0])]
        for x in range(1, len(closures)):
            images.append(bounded_mask(system, x, steps, closures[x], images[x ^ (x & -x)]))
        return images

    def __repr__(self) -> str:
        return f"BoundedOperator({self.system.name}, steps={self.steps})"


def _overlaps(a: Subset, b: Subset) -> bool:
    if isinstance(a, FiniteSubset):
        return any(e in b for e in a)
    if isinstance(b, FiniteSubset):
        return any(e in a for e in b)
    return True  # two cofinite subsets of a denumerable language always meet


class AdjoinIfIntersects(Operator):
    """Adds `extra` to any input that meets `trigger`; otherwise the
    input passes through untouched."""

    def __init__(self, extra: FiniteSubset, trigger: Subset):
        require_same_language(extra.language, trigger.language, "AdjoinIfIntersects")
        self.extra = extra
        self.trigger = trigger
        self.language = extra.language

    def apply(self, subset: Subset) -> Subset:
        require_same_language(self.language, subset.language, "apply")
        if _overlaps(subset, self.trigger):
            return subset.union(self.extra)
        return subset

    def __repr__(self) -> str:
        return f"AdjoinIfIntersects(extra={self.extra}, trigger={self.trigger})"


class AdjoinIfContains(Operator):
    """Adds `extra` to any input that contains all of `trigger`."""

    def __init__(self, extra: FiniteSubset, trigger: Subset):
        require_same_language(extra.language, trigger.language, "AdjoinIfContains")
        self.extra = extra
        self.trigger = trigger
        self.language = extra.language

    def apply(self, subset: Subset) -> Subset:
        require_same_language(self.language, subset.language, "apply")
        if self.trigger.is_subset_of(subset):
            return subset.union(self.extra)
        return subset

    def __repr__(self) -> str:
        return f"AdjoinIfContains(extra={self.extra}, trigger={self.trigger})"


class MeetOperator(Operator):
    """Pointwise intersection of finitely many operators; the meet in
    the operator lattice.

    The image table is the operands' tables ANDed entry by entry,
    whether an operand fills its table from a mask kernel or through
    `apply`.
    """

    def __init__(self, operands: Sequence[Operator]):
        if not operands:
            raise UsageError("meet needs at least one operand")
        self.operands = tuple(operands)

    def apply(self, subset: Subset) -> Subset:
        out = self.operands[0].apply(subset)
        for op in self.operands[1:]:
            out = out.intersect(op.apply(subset))
        return out

    def _image_masks(self, language: ExplicitLanguage) -> list[int]:
        images = _image_table(self.operands[0], language)
        for op in self.operands[1:]:
            images = [a & b for a, b in zip(images, _image_table(op, language))]
        return images

    def __repr__(self) -> str:
        return f"MeetOperator({list(self.operands)!r})"


class PointwiseUnion(Operator):
    """Pointwise union of two operators.

    This is NOT the lattice join: the result of one operator can
    trigger the other, so idempotence usually fails.  Kept around as
    the standard counterexample.

    The image table is the operands' tables ORed entry by entry,
    whether an operand fills its table from a mask kernel or through
    `apply`.
    """

    def __init__(self, left: Operator, right: Operator):
        self.left = left
        self.right = right

    def apply(self, subset: Subset) -> Subset:
        return self.left.apply(subset).union(self.right.apply(subset))

    def _image_masks(self, language: ExplicitLanguage) -> list[int]:
        left, right = _image_table(self.left, language), _image_table(self.right, language)
        return [a | b for a, b in zip(left, right)]

    def __repr__(self) -> str:
        return f"PointwiseUnion({self.left!r}, {self.right!r})"


class ClosureFamilyOperator(Operator):
    """X maps to the intersection of all family members containing X.

    The family must contain the whole language, which makes the
    intersection non-empty and the operator extensive, monotone and
    idempotent by construction.
    """

    def __init__(self, language: ExplicitLanguage, family: Sequence[FiniteSubset]):
        if not isinstance(language, ExplicitLanguage):
            raise UsageError("closure families need an explicit finite language")
        members = dict.fromkeys(family)
        for m in members:
            require_same_language(language, m.language, "closure family member")
        top = FiniteSubset(language, language.elements)
        if top not in members:
            raise UsageError("a closure family must contain the whole language")
        self.language = language
        self.family = tuple(sorted(members, key=lambda s: _family_order(s.mask)))
        self._top = top.mask

    def _image(self, mask: int) -> int:
        out = self._top
        for member in self.family:
            if not mask & ~member.mask:
                out &= member.mask
        return out

    def apply(self, subset: Subset) -> FiniteSubset:
        if not isinstance(subset, FiniteSubset):
            raise UsageError("closure-family operators take finite subsets")
        require_same_language(self.language, subset.language, "apply")
        return FiniteSubset._of_mask(self.language, self._image(subset.mask))

    def _image_masks(self, language: ExplicitLanguage) -> list[int]:
        require_same_language(self.language, language, "apply")
        return [self._image(x) for x in range(1 << len(self.language.elements))]


class SupremumOperator(ClosureFamilyOperator):
    """Least upper bound of a family, computed from closed sets.

    The closed sets of the bound are exactly the subsets closed under
    every constituent; X maps to the least such set containing X.
    """

    @property
    def closed_sets(self) -> tuple[FiniteSubset, ...]:
        return self.family


class MeetFamily(Operator):
    """Meet of an infinite operator family {member(1), member(2), ...}.

    The constructor takes the family's own decision procedure for the
    intersection as a closed-form `infimum` operator; `member(n)`
    builds the n-th constituent, so the closed form can be
    cross-checked against any finite sample of them.
    """

    def __init__(
        self,
        member_factory: Callable[[int], Operator],
        infimum: Operator,
        language: Language,
    ):
        self._member_factory = member_factory
        self._infimum = infimum
        self.language = language

    def member(self, n: int) -> Operator:
        if n < 1:
            raise UsageError("family members are indexed from 1")
        return self._member_factory(n)

    def apply(self, subset: Subset) -> Subset:
        return self._infimum.apply(subset)


# ---------------------------------------------------------------------------
# constructors


def meet(operands: Sequence[Operator]) -> MeetOperator:
    return MeetOperator(operands)


def cup_join(left: Operator, right: Operator) -> PointwiseUnion:
    return PointwiseUnion(left, right)


def sup_w(
    operands: Sequence[Operator], language: ExplicitLanguage, *, bound: int = DEFAULT_BOUND
) -> SupremumOperator:
    """Least upper bound of `operands` over a finite language.

    Computed definitionally: the closed sets are the subsets that every
    constituent fixes, and inputs are closed within that family.
    """
    if not operands:
        raise UsageError("sup needs at least one operand")
    _require_small_language(language, bound)
    tables = [_image_table(op, language) for op in operands]
    top = len(tables[0]) - 1  # every bit set
    family = [x for x in range(top + 1) if all(t[x] == x for t in tables)]
    if family[-1:] != [top]:
        raise UsageError("constituents do not all fix the whole language")
    return SupremumOperator(language, [FiniteSubset._of_mask(language, x) for x in family])


def closed_family(
    op: Operator, language: ExplicitLanguage, *, bound: int = DEFAULT_BOUND
) -> tuple[FiniteSubset, ...]:
    """The image of P(language) under `op`, ordered by size, then
    member by member.  Every image must be a fixed point and the whole
    language must be among them."""
    _require_small_language(language, bound)
    images = _image_table(op, language)
    closed: dict[int, None] = {}
    for image in images:
        if image not in closed:
            if images[image] != image:
                raise UsageError(
                    f"{FiniteSubset._of_mask(language, image)} is an image but not a fixed point; "
                    "the operator is not idempotent"
                )
            closed[image] = None
    top = len(images) - 1  # every bit set
    if top not in closed:
        raise UsageError("the whole language is not closed; not a consequence operator")
    return tuple(FiniteSubset._of_mask(language, m) for m in sorted(closed, key=_family_order))


def from_closure_family(
    family: Iterable[FiniteSubset], language: ExplicitLanguage
) -> ClosureFamilyOperator:
    return ClosureFamilyOperator(language, tuple(family))


def tabulate(op: Operator, language: ExplicitLanguage) -> TableOperator:
    """Freeze an operator into an explicit table over P(language)."""
    return TableOperator._of_masks(language, _image_table(op, language))


# ---------------------------------------------------------------------------
# generated systems for the trigger operators


def overlap_trigger_system(
    extra: FiniteSubset, trigger: FiniteSubset, name: str = "overlap"
) -> RuleSystem:
    """A rule system whose saturation replays AdjoinIfIntersects.

    Every trigger element concludes every extra element, one binary
    tuple per pair.  Either side empty leaves nothing to fire, so the
    system is empty and generates the identity.
    """
    require_same_language(extra.language, trigger.language, "overlap_trigger_system")
    if not extra.members or not trigger.members:
        return RuleSystem(name, extra.language, ())
    pairs = tuple((y, x) for y in trigger for x in extra)
    return RuleSystem(name, extra.language, (TupleRule("pair", 2, pairs),))


def superset_trigger_system(
    extra: FiniteSubset, trigger: FiniteSubset, name: str = "superset"
) -> RuleSystem:
    """A rule system whose saturation replays AdjoinIfContains.

    All trigger elements together act as premises for each extra
    element.  Empty extra leaves the identity; an empty trigger with a
    non-empty extra degenerates to an axiom set (the condition holds
    vacuously, so the extra is always adjoined).
    """
    require_same_language(extra.language, trigger.language, "superset_trigger_system")
    if not extra.members:
        return RuleSystem(name, extra.language, ())
    if not trigger.members:
        return RuleSystem(name, extra.language, (UnaryRule("always", extra),))
    tuples = tuple(trigger.members + (x,) for x in extra)
    return RuleSystem(
        name,
        extra.language,
        (TupleRule("contains", len(trigger.members) + 1, tuples),),
    )


def prefix_adjoin_family(language: EnumeratedLanguage) -> MeetFamily:
    """The family member(n) = "adjoin element 0 when elements 1..n are
    all present", with its exact infinite meet.

    Every finite input fails some prefix, so the meet fixes it; a
    cofinite input containing all of elements 1, 2, ... gains element
    0.  The closed form is a single cofinite-trigger operator, and the
    decision it makes is one cofinite subset test.
    """
    zero = FiniteSubset(language, (language.element(0),))

    def member_factory(n: int) -> Operator:
        prefix = FiniteSubset(language, language.prefix_elements(n + 1)[1:])
        return AdjoinIfContains(zero, prefix)

    infimum = AdjoinIfContains(
        zero, CofiniteSubset(language, (language.element(0),))
    )
    return MeetFamily(member_factory, infimum, language)


# ---------------------------------------------------------------------------
# axiom checking and pointwise comparison


@dataclass(frozen=True)
class AxiomCounterexample:
    """A failed axiom with the inputs that witness the failure."""

    axiom: str
    subsets: tuple[FiniteSubset, ...]


@dataclass(frozen=True)
class AxiomReport:
    extensive: bool
    monotone: bool
    idempotent: bool
    finite_character: bool
    counterexample: AxiomCounterexample | None

    @property
    def ok(self) -> bool:
        return self.extensive and self.monotone and self.idempotent and self.finite_character


def _require_small_language(language: ExplicitLanguage, bound: int) -> None:
    if not isinstance(language, ExplicitLanguage):
        raise UsageError("exhaustive checks need an explicit finite language")
    if len(language.elements) > bound:
        raise UsageError(
            f"language has {len(language.elements)} elements, over the exhaustiveness "
            f"bound {bound}; raise the bound or check sampled subsets yourself"
        )


def _image_table(op: Operator, language: ExplicitLanguage) -> list[int]:
    """The image of every subset of `language` under `op`, as masks
    indexed by the input's mask; exhaustive checks see results only
    through this table, which `op._image_masks` fills.

    Any object with `apply` is accepted: one that is not an `Operator`
    is asked subset by subset, as `Operator._image_masks` asks.
    """
    all_subsets(language)  # refuses an enumerated language
    if isinstance(op, Operator):
        return op._image_masks(language)
    return Operator._image_masks(op, language)


def check_axioms(op: Operator, language: ExplicitLanguage, *, bound: int = DEFAULT_BOUND) -> AxiomReport:
    """Decide the four closure axioms exhaustively over P(language).

    Finite character asks that op(X) equal the union of op(F) over the
    finite F inside X.  Over a finite language X is one of those F, so
    the union always contains op(X), and equality holds exactly when
    op(F) lies inside op(X) for every F inside X: the monotone
    condition at X.  One scan therefore decides both axioms, and finite
    character fails at the first X where monotonicity does.

    That scan tests only covering pairs (X-e, X), n 2^(n-1) of them,
    not all 3^n pairs of a subset and a superset, and its
    counterexample is the one a full scan (X in binary-counting order,
    each X's subsets F in descending order) would report.  Every proper
    subset of the first failing X is a smaller number, so all its pairs
    pass.  A failing F inside X therefore makes X-e fail for every e in
    X-F, since op(F) lies inside op(X-e); when F is not X-e itself,
    X-e is a larger number than F and the descending scan reaches it
    first.  So the full scan's first failing X is the first X with a
    failing covering pair, and its first failing F is X-e for the
    lowest such e, which is the pair this scan tries first.

    The returned counterexample, if any, belongs to the first failing
    axiom in the order extensive, monotone, idempotent, finite
    character.
    """
    _require_small_language(language, bound)
    images = _image_table(op, language)
    size = len(images)
    failures: dict[str, tuple[int, ...]] = {}

    for x in range(size):
        if x & ~images[x]:
            failures["extensive"] = (x,)
            break

    for hi in range(size):
        image = images[hi]
        rest = hi
        while rest:
            low = rest & -rest
            if images[hi ^ low] & ~image:
                failures["monotone"] = (hi ^ low, hi)
                failures["finite_character"] = (hi,)
                break
            rest ^= low
        if "monotone" in failures:
            break

    for x in range(size):
        if images[images[x]] != images[x]:
            failures["idempotent"] = (x,)
            break

    first = None
    for axiom in ("extensive", "monotone", "idempotent", "finite_character"):
        if axiom in failures:
            masks = failures[axiom]
            first = AxiomCounterexample(
                axiom, tuple(FiniteSubset._of_mask(language, m) for m in masks)
            )
            break
    return AxiomReport(
        extensive="extensive" not in failures,
        monotone="monotone" not in failures,
        idempotent="idempotent" not in failures,
        finite_character="finite_character" not in failures,
        counterexample=first,
    )


def counterexample_reproduces(op: Operator, cex: AxiomCounterexample) -> bool:
    """Re-evaluate a recorded counterexample from scratch."""
    if cex.axiom == "extensive":
        (x,) = cex.subsets
        return not x.is_subset_of(op.apply(x))
    if cex.axiom == "monotone":
        x, y = cex.subsets
        return x.is_subset_of(y) and not op.apply(x).is_subset_of(op.apply(y))
    if cex.axiom == "idempotent":
        (x,) = cex.subsets
        once = op.apply(x)
        return op.apply(once) != once
    if cex.axiom == "finite_character":
        (x,) = cex.subsets
        union: set[Element] = set()
        for k in range(len(x.members) + 1):
            for picked in combinations(x.members, k):
                union |= set(op.apply(FiniteSubset(x.language, picked)).members)
        return union != set(op.apply(x).members)
    raise UsageError(f"unknown axiom {cex.axiom}")


def leq(
    first: Operator, second: Operator, language: ExplicitLanguage, *, bound: int = DEFAULT_BOUND
) -> bool:
    """Pointwise order: first(X) inside second(X) for every X."""
    _require_small_language(language, bound)
    pairs = zip(_image_table(first, language), _image_table(second, language))
    return not any(a & ~b for a, b in pairs)


def equal_ops(
    first: Operator, second: Operator, language: ExplicitLanguage, *, bound: int = DEFAULT_BOUND
) -> bool:
    """Pointwise equality: first(X) equals second(X) for every X."""
    _require_small_language(language, bound)
    return _image_table(first, language) == _image_table(second, language)
