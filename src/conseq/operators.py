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
    DEFAULT_BOUND,
    CofiniteSubset,
    Element,
    EnumeratedLanguage,
    ExplicitLanguage,
    FiniteSubset,
    Language,
    Subset,
    all_subsets,
    full_subset,
    intersection_closure,
    require_same_language,
)
from .rules import RuleSystem, TupleRule, UnaryRule

# The largest language any image table is built for, whatever the bound:
# one table holds 2^n images.  `check-axioms --bound n` on an n-element
# chain took 0.9 s and 26 MB peak RSS at n = 18, 3.5 s and 56 MB at 20,
# and 16 s and 177 MB at 22 (2 vCPUs, Python 3.11); each further element
# doubles both, so past this a check would exhaust time or memory.
MAX_TABLE_ELEMENTS = 22

# ---------------------------------------------------------------------------
# operator variants


# '0' to '1' and '1' to '0', for `_family_order`
_FLIP_DIGITS = str.maketrans("01", "10")


def _family_order(mask: int) -> tuple[int, str]:
    """Sort key for families of subsets: by size, then member by member.

    Bit order is name order in an explicit language, so this is the
    order of (len(s.members), s.members) without comparing elements.
    Of two masks of one size, the first is the one that holds the lowest
    bit where they differ: the one whose binary digits, lowest first and
    flipped, compare smaller.  Neither digit string is a prefix of the
    other, since each ends at its mask's highest bit and the sizes agree.
    """
    return mask.bit_count(), bin(mask)[:1:-1].translate(_FLIP_DIGITS)


def _family_masks(language: ExplicitLanguage, masks: Iterable[int], refusal: str) -> list[int]:
    """Distinct `masks` in `_family_order`, refused with `refusal` unless
    the whole language is among them."""
    ordered = sorted(masks, key=_family_order)
    if ordered[-1:] != [(1 << len(language.elements)) - 1]:
        raise UsageError(refusal)
    return ordered


def _set_bits(bits: int) -> list[int]:
    """The positions of the set bits of `bits`, lowest first, read off
    its binary digits: one pass however wide `bits` is, where a big-int
    operation per set bit would cost a pass each."""
    digits = bin(bits)[:1:-1]
    out, i = [], digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


class Operator:
    """Total map on the subsets of one language."""

    def _closed_masks(self, language: ExplicitLanguage) -> int | None:
        """The operator's closed family over `language` as one int of 2^n
        bits, bit X set when the operator fixes mask X, for an operator
        that is a closure operator by construction; None otherwise.

        A closure operator is fixed by its closed sets, so `closed_systems`,
        `sup_w`, `leq` and `equal_ops` read these bitsets when every
        operand has one, and its image table otherwise.  Every rule
        operator and every closure family, `sup_w`'s results among them,
        has one.
        """
        return None

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
        _require_table_fits(language)
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
    grounding (`RuleSystem.grounded`, built with the system), with X
    as one more mask.
    The image table over P(language) is `MaskSystem.closures`, filled in
    binary-counting order from the image of X minus its lowest element
    e: when that image holds e it is X's image too, and otherwise only
    the arcs that e enables are visited.  The closed family, which
    closed-set, sup and order queries read instead of that table, is
    `MaskSystem.closed_masks`: a few big-int operations per arc.
    Witnesses come from `saturate` alone.
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

    def _closed_masks(self, language: ExplicitLanguage) -> int:
        require_same_language(self.language, language, "apply")
        return self.system.grounded.closed_masks(len(language.elements))

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


class _AdjoinIf(Operator):
    """Adds `extra` to any input on which `_fires` holds; otherwise the
    input passes through untouched."""

    def __init__(self, extra: FiniteSubset, trigger: Subset):
        require_same_language(extra.language, trigger.language, type(self).__name__)
        self.extra = extra
        self.trigger = trigger
        self.language = extra.language

    def _fires(self, subset: Subset) -> bool:
        raise NotImplementedError

    def apply(self, subset: Subset) -> Subset:
        require_same_language(self.language, subset.language, "apply")
        if self._fires(subset):
            return subset.union(self.extra)
        return subset

    def __repr__(self) -> str:
        return f"{type(self).__name__}(extra={self.extra}, trigger={self.trigger})"


class AdjoinIfIntersects(_AdjoinIf):
    """Adds `extra` to any input that meets `trigger`; otherwise the
    input passes through untouched."""

    def _fires(self, subset: Subset) -> bool:
        if isinstance(subset, FiniteSubset):
            return any(e in self.trigger for e in subset)
        if isinstance(self.trigger, FiniteSubset):
            return any(e in subset for e in self.trigger)
        return True  # two cofinite subsets of a denumerable language always meet


class AdjoinIfContains(_AdjoinIf):
    """Adds `extra` to any input that contains all of `trigger`."""

    def _fires(self, subset: Subset) -> bool:
        return self.trigger.is_subset_of(subset)


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
    """X maps to the intersection of the members containing X.  The
    family must contain the whole language, which makes the operator
    extensive, monotone and idempotent by construction.

    The members are held closed under intersection, as masks in
    `_family_order`: the constructor closes the family it is given
    ({a}, {b} and the whole language gain the empty set), which changes
    no image.  So the members (`closed_sets`) are exactly the operator's
    fixed points, a Moore family, and its closed-mask bitset is their
    bits.  `apply` scans the members once.  The image table starts with
    each member at its own index and the whole language elsewhere; then,
    for each element e, every entry X without e is ANDed with entry X+e.
    """

    def __init__(self, language: ExplicitLanguage, family: Sequence[FiniteSubset]):
        if not isinstance(language, ExplicitLanguage):
            raise UsageError("closure families need an explicit finite language")
        masks = set()
        for member in family:
            require_same_language(language, member.language, "closure family member")
            masks.add(member.mask)
        refusal = "a closure family must contain the whole language"
        self._masks = _family_masks(language, intersection_closure(masks), refusal)
        self.language = language

    @classmethod
    def _of_masks(
        cls, language: ExplicitLanguage, masks: Iterable[int], refusal: str
    ) -> "ClosureFamilyOperator":
        """The family of `masks`, which must be distinct, closed under
        intersection and include the whole language, else `refusal`."""
        op = cls.__new__(cls)
        op.language, op._masks = language, _family_masks(language, masks, refusal)
        return op

    @property
    def closed_sets(self) -> tuple[FiniteSubset, ...]:
        return tuple(FiniteSubset._of_mask(self.language, m) for m in self._masks)

    def apply(self, subset: Subset) -> FiniteSubset:
        if not isinstance(subset, FiniteSubset):
            raise UsageError("closure-family operators take finite subsets")
        require_same_language(self.language, subset.language, "apply")
        x, out = subset.mask, self._masks[-1]
        for member in self._masks:
            if not x & ~member:
                out &= member
        return FiniteSubset._of_mask(self.language, out)

    def _closed_masks(self, language: ExplicitLanguage) -> int:
        require_same_language(self.language, language, "apply")
        # one binary digit per subset, written once per member, where
        # ORing in 1 << member would cost a pass over 2^n bits each
        digits = bytearray(b"0") * (1 << len(language.elements))
        for member in self._masks:
            digits[member] = 49  # ord("1")
        return int(digits[::-1], 2)

    def _image_masks(self, language: ExplicitLanguage) -> list[int]:
        require_same_language(self.language, language, "apply")
        images = [self._masks[-1]] * (1 << len(language.elements))
        for member in self._masks:
            images[member] = member
        for bit in (1 << e for e in range(len(language.elements))):
            for x in range(bit, len(images)):
                if x & bit:
                    images[x ^ bit] &= images[x]
        return images


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
) -> ClosureFamilyOperator:
    """Least upper bound of `operands` over a finite language.

    X maps to the intersection of the subsets every operand fixes that
    contain X.  The result's members (`closed_sets`) are its fixed
    points: the subsets every operand fixes, closed under intersection.
    For closure operands those subsets are closed under intersection
    already.  When every operand has a closed-mask bitset
    (`Operator._closed_masks`) they are the AND of those bitsets;
    otherwise they are the masks that every operand's image table fixes,
    and are closed under intersection here.
    """
    if not operands:
        raise UsageError("sup needs at least one operand")
    refusal = "constituents do not all fix the whole language"
    kernels, closed = _closed_or_tables(operands, language, bound)
    if closed:
        shared = kernels[0]
        for bits in kernels[1:]:
            shared &= bits
        return ClosureFamilyOperator._of_masks(language, _set_bits(shared), refusal)
    first, *rest = kernels
    fixed = (x for x, image in enumerate(first) if image == x and all(t[x] == x for t in rest))
    return ClosureFamilyOperator._of_masks(language, intersection_closure(fixed), refusal)


def from_closure_family(
    family: Iterable[FiniteSubset], language: ExplicitLanguage
) -> ClosureFamilyOperator:
    return ClosureFamilyOperator(language, tuple(family))


def tabulate(op: Operator, language: ExplicitLanguage) -> TableOperator:
    """Freeze an operator into an explicit table over P(language),
    built once: checks of the returned operator, alone or in
    composites, read the stored table and never build it again."""
    return TableOperator._of_masks(language, _image_table(op, language))


# ---------------------------------------------------------------------------
# rule systems that replay an operator


def canonical_system(op, language: ExplicitLanguage) -> RuleSystem:
    """The rule system whose saturation replays `op` exactly.

    One axiom set holds op(empty), and for every non-empty subset F of
    the language (premises in sorted order) the k-premise relation
    holds a tuple per element of op(F); each relation lists its subsets
    in binary-counting order, read off `op`'s image table in one pass.
    Construction is refused unless `op` passes `check_axioms` over the
    whole language, because saturation of the result always satisfies
    the closure axioms.
    """
    if not isinstance(language, ExplicitLanguage):
        raise UsageError("canonical systems need an explicit finite language")
    table = tabulate(op, language)
    cex = check_axioms(table, language, bound=len(language.elements)).counterexample
    if cex is not None:
        at = ", ".join(str(s) for s in cex.subsets)
        raise UsageError(f"operator is not {cex.axiom} at {at}; refusing")

    images = table._images
    tuples: list[list[tuple[Element, ...]]] = [[] for _ in language.elements]
    for x in range(1, len(images)):
        premises = FiniteSubset._of_mask(language, x).members
        image = FiniteSubset._of_mask(language, images[x])
        tuples[len(premises) - 1] += (premises + (e,) for e in image)
    axioms = UnaryRule("axioms", FiniteSubset._of_mask(language, images[0]))
    relations = (TupleRule(f"from{k}", k + 1, tuple(t)) for k, t in enumerate(tuples, start=1))
    return RuleSystem("canonical", language, (axioms, *relations))


def overlap_trigger_system(extra: FiniteSubset, trigger: FiniteSubset) -> RuleSystem:
    """A rule system whose saturation replays AdjoinIfIntersects.

    Every trigger element concludes every extra element, one binary
    tuple per pair.  Either side empty leaves nothing to fire, so the
    system is empty and generates the identity.
    """
    require_same_language(extra.language, trigger.language, "overlap_trigger_system")
    if not extra.members or not trigger.members:
        return RuleSystem("overlap", extra.language, ())
    pairs = tuple((y, x) for y in trigger for x in extra)
    return RuleSystem("overlap", extra.language, (TupleRule("pair", 2, pairs),))


def superset_trigger_system(extra: FiniteSubset, trigger: FiniteSubset) -> RuleSystem:
    """A rule system whose saturation replays AdjoinIfContains.

    All trigger elements together act as premises for each extra
    element.  Empty extra leaves the identity; an empty trigger with a
    non-empty extra degenerates to an axiom set (the condition holds
    vacuously, so the extra is always adjoined).
    """
    require_same_language(extra.language, trigger.language, "superset_trigger_system")
    if not extra.members:
        return RuleSystem("superset", extra.language, ())
    if not trigger.members:
        return RuleSystem("superset", extra.language, (UnaryRule("always", extra),))
    tuples = tuple(trigger.members + (x,) for x in extra)
    return RuleSystem(
        "superset",
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


def _require_table_fits(language: ExplicitLanguage) -> None:
    """Refuse, before allocating, a table of 2^n images over a language
    of more than `MAX_TABLE_ELEMENTS` elements."""
    n = len(language.elements)
    if n > MAX_TABLE_ELEMENTS:
        raise UsageError(
            f"language has {n} elements; a table of all 2^{n} subsets is refused "
            f"above {MAX_TABLE_ELEMENTS} elements"
        )


def _image_table(op: Operator, language: ExplicitLanguage) -> list[int]:
    """The image of every subset of `language` under `op`, as masks
    indexed by the input's mask; exhaustive checks see results only
    through this table, which `op._image_masks` fills.

    Any object with `apply` is accepted: one that is not an `Operator`
    is asked subset by subset, as `Operator._image_masks` asks.
    """
    all_subsets(language)  # refuses an enumerated language
    _require_table_fits(language)
    if isinstance(op, Operator):
        return op._image_masks(language)
    return Operator._image_masks(op, language)


def _closed_or_tables(
    ops: Sequence[Operator], language: ExplicitLanguage, bound: int
) -> tuple[list[int], bool]:
    """Each of `ops` over `language` as its closed-mask bitset, with True;
    or, as soon as one has none, each as its image table, with False.
    Refuses what `_require_small_language`, then `_require_table_fits`, refuses."""
    _require_small_language(language, bound)
    _require_table_fits(language)
    out = []
    for op in ops:
        closed = op._closed_masks(language) if isinstance(op, Operator) else None
        if closed is None:
            return [_image_table(each, language) for each in ops], False
        out.append(closed)
    return out, True


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
    character.  Each call builds `op`'s table; a caller who checks one
    operator several times, or composites of the same operands, passes
    `tabulate(op, language)`, whose kernel is its stored table.
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
    """Pointwise order: first(X) inside second(X) for every X.

    For two closure operators that holds exactly when every set closed
    under `second` is closed under `first`, which is how operands that
    both have closed-mask bitsets are compared; others compare their
    image tables entry by entry.
    """
    (left, right), closed = _closed_or_tables((first, second), language, bound)
    if closed:
        return not right & ~left
    return not any(a & ~b for a, b in zip(left, right))


def equal_ops(
    first: Operator, second: Operator, language: ExplicitLanguage, *, bound: int = DEFAULT_BOUND
) -> bool:
    """Pointwise equality: first(X) equals second(X) for every X.

    Two closure operators are equal exactly when their closed sets are,
    so operands that both have closed-mask bitsets compare those; others
    compare their image tables.
    """
    (left, right), _ = _closed_or_tables((first, second), language, bound)
    return left == right


# ---------------------------------------------------------------------------
# the lattice of one operator's closed sets


def closed_systems(
    op: Operator, language: ExplicitLanguage, *, bound: int = DEFAULT_BOUND
) -> tuple[FiniteSubset, ...]:
    """The closed sets of `op` as a tuple of subsets, ordered by size,
    then member by member, as `sup_w([op], language).closed_sets` are.

    An operator with a closed-mask bitset (`Operator._closed_masks`: a
    rule operator or a closure family, sups included) lists its set bits.
    Any other operator is read from its image table: every image must be
    a fixed point, so the closed sets are the distinct images, and the
    whole language must be among them.  They need not be closed under
    intersection when the operator is not a closure operator."""
    refusal = "the whole language is not closed; not a consequence operator"
    (kernel,), closed = _closed_or_tables([op], language, bound)
    if closed:
        masks = _set_bits(kernel)
    else:
        for image in kernel:
            if kernel[image] != image:
                raise UsageError(
                    f"{FiniteSubset._of_mask(language, image)} is an image but not a fixed point; "
                    "the operator is not idempotent"
                )
        masks = set(kernel)
    return tuple(FiniteSubset._of_mask(language, m) for m in _family_masks(language, masks, refusal))


def _lattice_result(op: Operator, left: FiniteSubset, right: FiniteSubset, name: str, combine: Callable):
    """`combine(left, right)` for two sets `op` fixes, refused unless `op`
    fixes it too, as it does for a consequence operator."""
    for side, subset in (("left", left), ("right", right)):
        if op.apply(subset) != subset:
            raise UsageError(f"{side} argument {subset} is not closed under the operator")
    out = combine(left, right)
    if op.apply(out) != out:
        raise UsageError(f"{name} {out} is not closed; the operator is not a consequence operator")
    return out


def join_uplus(op: Operator, left: FiniteSubset, right: FiniteSubset) -> FiniteSubset:
    """Join of two closed sets: the closure of their union (the plain union
    usually is not closed), checked closed."""
    return _lattice_result(op, left, right, "join", lambda x, y: op.apply(x.union(y)))


def meet_cap(op: Operator, left: FiniteSubset, right: FiniteSubset) -> FiniteSubset:
    """Meet of two closed sets: their intersection, checked closed."""
    return _lattice_result(op, left, right, "intersection", lambda x, y: x.intersect(y))
