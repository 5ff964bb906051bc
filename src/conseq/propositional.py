"""Implicational propositional calculus with restricted rule sets.

Formulas are built from indexed atoms with negation and implication.
The deductive systems here pair a set of axiom instances (drawn from
the three standard schemata, possibly filtered) with detachment, and
everything runs over an explicit finite formula pool so that the
generic saturation engine applies unchanged.  Each schema is written
once, as a shape that recognizes its instances, fills them and bounds
their printed size.  The pool closure fills shapes in semi-naive rounds
and returns, with the pool, each shape's fills: exactly its instances in
the pool.  A variant is one row of a table: a filter per shape on those
instances, whether the bridge axiom of its index joins them, and whether
detachment is restricted to that index.  `query` answers a query in the
one order the command line uses: pool, truth table, saturation, then
bounded evidence.

Formula syntax: atoms are ``P`` plus a decimal index, negation is
``~``, implication is infix ``->`` and every implication is
parenthesized.  Whitespace is insignificant.  The printer emits the
spaced canonical form ``(P1 -> P0)``; when formulas are embedded as
language elements the compact form ``(P1->P0)`` is used, since element
tokens may not contain whitespace.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter, itemgetter
from typing import (
    TYPE_CHECKING, AbstractSet, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union
)

from .errors import DomainError, InputSyntaxError, UsageError
from .language import Element, ExplicitLanguage, FiniteSubset
from .rules import MaskSystem, RuleSystem, TupleRule, UnaryRule

if TYPE_CHECKING:
    from .engine import SaturationResult

# ---------------------------------------------------------------------------
# formulas


# Each formula node stores its hash and its printed token, both computed
# once at construction from its children's stored ones.  The hash equals
# the field-tuple hash the dataclass would compute on every call by walking
# the whole tree, so set iteration order, and every output built from it,
# is unchanged; hashes of int tuples are not salted per process, so a
# pickled formula's stored hash stays valid where it is unpickled.  The
# token is the whitespace-free rendering, the formula's element name.
# The nodes stay frozen slotted dataclasses, but `__init__` is written by
# hand: it stores each slot by calling the slot descriptor's `__set__`,
# which the frozen `__setattr__` never sees, one call per slot in place of
# the generated `__init__` plus a `__post_init__` of `object.__setattr__`
# calls, the closure's main cost per node.  Equality, repr, pickling and
# the refusal of assignment stay the dataclass's own.


def _slot_setters(cls: type) -> tuple:
    """The `__set__` of each slot descriptor of a slotted dataclass, in field order."""
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


@dataclass(frozen=True, slots=True, init=False)
class Atom:
    """The atom P<index>; stores its hash, `hash((index,))`, and its token."""

    index: int
    _hash: int = field(init=False, repr=False, compare=False)
    _token: str = field(init=False, repr=False, compare=False)

    def __init__(self, index: int) -> None:
        if index < 0:
            raise DomainError("atom indices start at 0")
        _set_index(self, index)
        _set_atom_hash(self, hash((index,)))
        _set_atom_token(self, f"P{index}")

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, slots=True, init=False)
class Neg:
    """The negation ~operand; stores its hash, `hash((operand,))`, and its token."""

    operand: "Wff"
    _hash: int = field(init=False, repr=False, compare=False)
    _token: str = field(init=False, repr=False, compare=False)

    def __init__(self, operand: "Wff") -> None:
        _set_operand(self, operand)
        _set_neg_hash(self, hash((operand,)))
        _set_neg_token(self, f"~{operand._token}")

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, slots=True, init=False)
class Impl:
    """The implication (antecedent -> consequent); stores its hash,
    `hash((antecedent, consequent))`, and its token."""

    antecedent: "Wff"
    consequent: "Wff"
    _hash: int = field(init=False, repr=False, compare=False)
    _token: str = field(init=False, repr=False, compare=False)

    def __init__(self, antecedent: "Wff", consequent: "Wff") -> None:
        _set_antecedent(self, antecedent)
        _set_consequent(self, consequent)
        _set_impl_hash(self, hash((antecedent, consequent)))
        _set_impl_token(self, f"({antecedent._token}->{consequent._token})")

    def __hash__(self) -> int:
        return self._hash


_set_index, _set_atom_hash, _set_atom_token = _slot_setters(Atom)
_set_operand, _set_neg_hash, _set_neg_token = _slot_setters(Neg)
_set_antecedent, _set_consequent, _set_impl_hash, _set_impl_token = _slot_setters(Impl)

Wff = Union[Atom, Neg, Impl]


def wff_token(w: Wff) -> str:
    """Whitespace-free rendering, stored at construction; usable as a
    language element name."""
    return w._token


def wff_to_text(w: Wff) -> str:
    """Canonical spaced rendering, parse(wff_to_text(w)) == w: the token
    with every '->' spaced, as tokens hold '->' only as the arrow."""
    return w._token.replace("->", " -> ")


def wff_element(w: Wff) -> Element:
    return Element(w._token)


# Deepest accepted nesting of '~' and '(' in parsed text.  The parser and
# evaluators recurse once per level, so this keeps them well under the
# interpreter's recursion limit.
MAX_DEPTH = 200


def parse(text: str) -> Wff:
    """Parse a formula; failures carry the offending column.

    Nesting deeper than MAX_DEPTH is refused at the connective that
    passes it.
    """
    pos = 0

    def fail(message: str) -> "InputSyntaxError":
        return InputSyntaxError(message, where=f"column {pos + 1}")

    def skip_space() -> None:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse_wff(depth: int) -> Wff:
        nonlocal pos
        skip_space()
        if pos >= len(text):
            raise fail("unexpected end of formula")
        ch = text[pos]
        if ch in "~(" and depth == MAX_DEPTH:
            raise fail(f"formula nested deeper than {MAX_DEPTH} levels")
        if ch == "~":
            pos += 1
            return Neg(parse_wff(depth + 1))
        if ch == "P":
            pos += 1
            start = pos
            while pos < len(text) and text[pos] in "0123456789":
                pos += 1
            if start == pos:
                raise fail("atom needs a decimal index after 'P'")
            return Atom(int(text[start:pos]))
        if ch == "(":
            pos += 1
            left = parse_wff(depth + 1)
            skip_space()
            if text[pos : pos + 2] != "->":
                raise fail("expected '->'")
            pos += 2
            right = parse_wff(depth + 1)
            skip_space()
            if pos >= len(text) or text[pos] != ")":
                raise fail("expected ')'")
            pos += 1
            return Impl(left, right)
        raise fail(f"unexpected character {ch!r}")

    w = parse_wff(0)
    skip_space()
    if pos != len(text):
        raise fail("trailing input after formula")
    return w


def atoms(w: Wff) -> frozenset[int]:
    if isinstance(w, Atom):
        return frozenset((w.index,))
    if isinstance(w, Neg):
        return atoms(w.operand)
    return atoms(w.antecedent) | atoms(w.consequent)


def _children(w: Wff) -> tuple[Wff, ...]:
    """The immediate parts of a formula."""
    if isinstance(w, Neg):
        return (w.operand,)
    if isinstance(w, Impl):
        return (w.antecedent, w.consequent)
    return ()


def subformulas(w: Wff) -> frozenset[Wff]:
    out: set[Wff] = set()
    stack = [w]
    while stack:
        v = stack.pop()
        if v in out:
            continue
        out.add(v)
        stack.extend(_children(v))
    return frozenset(out)


# ---------------------------------------------------------------------------
# semantics


@dataclass(frozen=True)
class Valuation:
    """A truth assignment for finitely many atom indices."""

    assignment: tuple[tuple[int, bool], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", tuple(sorted(dict(self.assignment).items())))

    @classmethod
    def of(cls, mapping: Mapping[int, bool]) -> "Valuation":
        return cls(tuple(mapping.items()))

    def __str__(self) -> str:
        return "{" + ", ".join(f"P{i}={'true' if b else 'false'}" for i, b in self.assignment) + "}"


def _holds(w: Wff, shift: Mapping[int, int], mask: int) -> bool:
    """Truth of `w` when atom i takes bit shift[i] of `mask`."""
    if isinstance(w, Atom):
        return bool(mask >> shift[w.index] & 1)
    if isinstance(w, Neg):
        return not _holds(w.operand, shift, mask)
    return not _holds(w.antecedent, shift, mask) or _holds(w.consequent, shift, mask)


def falsifying_valuation(w: Wff) -> Valuation | None:
    """First falsifying assignment in binary-counting order (lowest
    atom index is the most significant bit), or None for a tautology.

    Each candidate is a mask read bit by bit, so an atom's value is one
    shift; only the falsifier returned becomes a `Valuation`.
    """
    indices = sorted(atoms(w))
    k = len(indices)
    shift = {index: k - 1 - j for j, index in enumerate(indices)}
    for mask in range(1 << k):
        if not _holds(w, shift, mask):
            return Valuation.of({index: bool(mask >> s & 1) for index, s in shift.items()})
    return None


def is_tautology(w: Wff) -> bool:
    return falsifying_valuation(w) is None


def h_transform(w: Wff) -> Wff:
    """Erase every negation, keeping atoms and implication structure."""
    if isinstance(w, Atom):
        return w
    if isinstance(w, Neg):
        return h_transform(w.operand)
    return Impl(h_transform(w.antecedent), h_transform(w.consequent))


# ---------------------------------------------------------------------------
# schemata


# Each axiom schema is written once, as a shape: a formula whose atoms P0,
# P1 and P2 stand for the metavariables X, Y and Z.  `_match` recognizes its
# instances, `_fill` builds them and `subformula_closure` bounds their size
# and records, per shape, the instances it fills.
_SHAPES = {
    "r1": parse("(P0 -> (P1 -> P0))"),
    "r2": parse("((P0 -> (P1 -> P2)) -> ((P0 -> P1) -> (P0 -> P2)))"),
    "r3": parse("((~P0 -> ~P1) -> (P1 -> P0))"),
}
# Per shape, the occurrences of each metavariable, and the printed size of
# its own symbols: the shape's token minus its metavariables' (P0, P1 and
# P2 print in 2 characters).  An instance prints in that size plus, per
# metavariable, its occurrences times the bound formula's printed size.
_COUNTS = {
    kind: tuple(shape._token.count(f"P{i}") for i in range(max(atoms(shape)) + 1))
    for kind, shape in _SHAPES.items()
}
_SYMBOLS = {kind: len(shape._token) - 2 * sum(_COUNTS[kind]) for kind, shape in _SHAPES.items()}


def _match(shape: Wff, w: Wff, binding: dict[int, Wff]) -> bool:
    """Whether `w` is an instance of `shape` agreeing with `binding`, which maps metavariable
    indices to formulas and is extended in place; a node of another type is rejected at once."""
    if isinstance(shape, Atom):
        bound = binding.setdefault(shape.index, w)
        return bound is w or bound == w
    if type(w) is not type(shape):
        return False
    if isinstance(shape, Neg):
        return _match(shape.operand, w.operand, binding)
    return _match(shape.antecedent, w.antecedent, binding) and _match(shape.consequent, w.consequent, binding)


def _fill(shape: Wff, binding: Sequence[Wff], built: set[Wff], pool: AbstractSet[Wff]) -> Wff:
    """The instance of `shape` that puts binding[i] for metavariable i; each
    node built for it, that is each node outside the binding, goes into
    `built` unless `pool` holds it."""
    if isinstance(shape, Atom):
        return binding[shape.index]
    if isinstance(shape, Neg):
        w = Neg(_fill(shape.operand, binding, built, pool))
    else:
        w = Impl(
            _fill(shape.antecedent, binding, built, pool), _fill(shape.consequent, binding, built, pool)
        )
    if w not in pool:
        built.add(w)
    return w


def bridge_axiom(n: int) -> Wff:
    """The one axiom instance that reintroduces atom 0 from atom n:
    R3 with X = P0 and Y = Pn, (~P0 -> ~Pn) -> (Pn -> P0)."""
    if n < 1:
        raise UsageError("bridge axioms are indexed from 1")
    return _fill(_SHAPES["r3"], (Atom(0), Atom(n)), set(), frozenset())


@dataclass(frozen=True)
class Schema:
    """A detachment schema, possibly index-restricted."""

    kind: str
    index: int | None = None


MP = Schema("mp")


def mp_restricted(n: int) -> Schema:
    """Detachment with every atom-to-P0 instance removed except index n."""
    if n < 1:
        raise UsageError("restricted detachment is indexed from 1")
    return Schema("mp-restricted", n)


def instantiate_schema(schema: Schema, pool: AbstractSet[Wff] | Pool) -> tuple[tuple[Wff, Wff, Wff], ...]:
    """All instances of a detachment schema whose coordinates lie in the
    pool, as (implication, antecedent, consequent) triples, one per
    implication, in pool order.

    An implication's parts are checked to be in the pool, except in a
    `Pool`, which is subformula-closed by construction.
    """
    if schema.kind not in ("mp", "mp-restricted"):
        raise UsageError(f"unknown schema {schema.kind}")
    closed = isinstance(pool, Pool)
    triples = []
    for w in pool:
        if not isinstance(w, Impl):
            continue
        if not closed and (w.antecedent not in pool or w.consequent not in pool):
            continue
        # restricted detachment drops P<i> -> P0 for every i >= 1 but its index
        if (
            schema.kind == "mp-restricted"
            and isinstance(w.antecedent, Atom)
            and w.consequent == Atom(0)
            and w.antecedent.index not in (0, schema.index)
        ):
            continue
        triples.append((w, w.antecedent, w.consequent))
    return tuple(triples)


# ---------------------------------------------------------------------------
# pools


def _bindings(
    counts: list[int], lists: list[list[tuple[int, Wff]]], room: int, binding: tuple[Wff, ...] = ()
) -> Iterator[tuple[Wff, ...]]:
    """Each extension of `binding` by a formula of lists[i] per further metavariable i (occurring
    counts[i] times) within `room` more characters; lists hold (length, formula), shortest first."""
    i = len(binding)
    for length, w in lists[i]:
        if counts[i] * length > room:
            break
        if i + 1 < len(lists):
            yield from _bindings(counts, lists, room - counts[i] * length, binding + (w,))
        else:
            yield binding + (w,)


class Pool(tuple):
    """A formula pool: distinct, subformula-closed formulas in token order.

    A tuple, so it compares, iterates and measures like one.  `instances`
    maps each axiom shape's kind ("r1", "r2", "r3") to that shape's
    instances in the pool.
    """

    instances: Mapping[str, tuple[Wff, ...]]

    def __new__(cls, formulas: Iterable[Wff], instances: Mapping[str, tuple[Wff, ...]]) -> "Pool":
        pool = super().__new__(cls, formulas)
        pool.instances = instances
        return pool

    def __getnewargs__(self) -> tuple[tuple[Wff, ...], Mapping[str, tuple[Wff, ...]]]:
        # copies and unpickled pools go through __new__, which needs both
        return tuple(self), self.instances


DEFAULT_MAX_POOL = 400


def subformula_closure(
    seeds: Iterable[Wff], size_cap: int, *, max_pool: int = DEFAULT_MAX_POOL
) -> Pool:
    """Close a formula set under subformulas and axiom instances.

    Every axiom-schema instance over the pool whose printed size stays
    within `size_cap` is added, together with its subformulas, until
    nothing changes.  Growth past `max_pool` formulas aborts with an
    error rather than silently truncating.

    Instances are filled from the schema shapes.  An instance prints in
    its shape's own symbols plus, per metavariable, the occurrences
    times the printed size of the bound formula, so bindings run
    shortest first and stop at the cap.  Rounds are semi-naive: a round
    binds some metavariable to a formula new since the last one (an
    all-old binding was offered then) and ranks only the new formulas.
    Each node stores its hash and token, set at construction from its
    children's, so a candidate is hashed and ranked without a walk or a
    second printing.  A filled instance's subformulas are its bound
    formulas, already in the pool, and the nodes built for it, which
    `_fill` collects as it builds them when they are new.  The pool only
    grows within a round, so the round stops as soon as its new formulas
    would take the pool past `max_pool`.

    The result is a `Pool` that records every instance filled, per shape.
    The record is exact: every pool formula fits the cap (seeds over it
    are refused, subformulas are shorter and fills stay within it), and
    the last round adds nothing, so every instance whose binding lies in
    the final pool was filled; the fills of a shape are its instances in
    the pool, as `_match` recognizes them.
    """
    pool: set[Wff] = set()
    for w in seeds:
        if len(w._token) > size_cap:
            raise UsageError(
                f"seed {wff_to_text(w)} is longer than the size cap {size_cap}"
            )
        pool |= subformulas(w)

    fills: dict[str, list[Wff]] = {kind: [] for kind in _SHAPES}
    old: list[tuple[int, Wff]] = []  # the pool outside `new` as (printed length, formula), shortest first
    new = pool
    while True:
        ranked_new = sorted(((len(w._token), w) for w in new), key=itemgetter(0))
        ranked = sorted(old + ranked_new, key=itemgetter(0))  # merges the two sorted runs
        built: set[Wff] = set()
        room = max(max_pool - len(pool), 0)  # seeds alone may pass max_pool; a new formula then does
        for kind, shape in _SHAPES.items():
            counts, filled = _COUNTS[kind], fills[kind]
            for j in range(len(counts)):  # j: the first metavariable bound to a new formula
                lists = [old] * j + [ranked_new] + [ranked] * (len(counts) - 1 - j)
                for binding in _bindings(counts, lists, size_cap - _SYMBOLS[kind]):
                    filled.append(_fill(shape, binding, built, pool))
                    if len(built) > room:
                        raise UsageError(
                            f"pool grew past {max_pool} formulas under size cap {size_cap}; "
                            "lower the cap or raise max_pool"
                        )

        if not built:
            break
        pool |= built
        old, new = ranked, built
    return Pool(
        sorted(pool, key=attrgetter("_token")),
        {kind: tuple(filled) for kind, filled in fills.items()},
    )


# ---------------------------------------------------------------------------
# deductive systems


def _positive(w: Wff) -> bool:
    """Whether the positive variant keeps an R3 instance
    `((~X -> ~Y) -> (Y -> X))`: its negation-erased transform is a
    tautology.  That transform, `((X' -> Y') -> (Y' -> X'))`, is false
    exactly when Y' is true and X' false, so it is a tautology exactly
    when `(Y' -> X')`, the transform of the consequent, is one."""
    return is_tautology(h_transform(w.consequent))


def _avoids_atom0(w: Wff) -> bool:
    # an index prints with no leading zero, so only atom 0 puts '0' right after a 'P'
    return "P0" not in w._token


class _Variant(NamedTuple):
    """What a variant adds to the shapes' instances and detachment.

    `keep` holds, per shape in `_SHAPES` order, the filter its recorded
    instances must pass to be axioms (None keeps them all).  `bridge`:
    the bridge axiom of index n joins the axioms when the pool holds it.
    `restricted`: detachment drops the atom-to-P0 steps of every index
    but n.  A variant with either takes an index n.
    """

    keep: tuple[Callable[[Wff], bool] | None, ...]
    bridge: bool
    restricted: bool

    @property
    def indexed(self) -> bool:
        return self.bridge or self.restricted


_VARIANTS = {
    "standard": _Variant((None, None, None), bridge=False, restricted=False),
    "restricted-mp": _Variant((None, None, None), bridge=False, restricted=True),
    "missing-atom": _Variant((_avoids_atom0,) * 3, bridge=True, restricted=False),
    "positive": _Variant((None, None, _positive), bridge=True, restricted=False),
}
VARIANTS = tuple(_VARIANTS)


def _variant(variant: str, n: int | None) -> _Variant:
    """The table row of `variant`; refuses an unknown variant, and an
    indexed one without an index n >= 1."""
    row = _VARIANTS.get(variant)
    if row is None:
        raise UsageError(f"unknown variant {variant}; expected one of {', '.join(VARIANTS)}")
    if row.indexed and (n is None or n < 1):
        raise UsageError(f"variant {variant} needs an index n >= 1")
    return row


def _as_pool(formulas: Iterable[Wff]) -> Pool:
    """The `Pool` of a caller-given formula collection: refused unless
    subformula-closed, with each shape's instances recognized."""
    members = set(formulas)
    ordered = sorted(members, key=attrgetter("_token"))
    for w in ordered:
        for part in _children(w):
            if part not in members:
                raise UsageError(
                    f"pool is not subformula-closed: {wff_to_text(part)}, "
                    f"part of {wff_to_text(w)}, is missing"
                )
    return Pool(
        ordered,
        {kind: tuple(w for w in ordered if _match(shape, w, {})) for kind, shape in _SHAPES.items()},
    )


def pd_system(variant: str, pool: Sequence[Wff], *, n: int | None = None) -> RuleSystem:
    """Build a deductive system over an explicit formula pool.

    standard       axioms: the R1, R2 and R3 instances; unrestricted
                   detachment
    restricted-mp  axioms as standard; detachment minus atom-to-P0
                   steps other than index n
    missing-atom   axioms: the instances avoiding P0, plus the bridge
                   axiom of index n; unrestricted detachment
    positive       axioms: the R1 and R2 instances, the R3 instances
                   whose negation-erased transform is a tautology, and
                   the bridge axiom of index n; unrestricted detachment

    Each line is one row of the variant table.  The pool must be
    non-empty; it becomes the language, one element per formula (named
    by its token).  A `Pool` from `subformula_closure` is taken as it
    is: already sorted, distinct and closed, with each shape's instances
    recorded.  Any other pool must be subformula-closed (checking every
    member's immediate parts suffices, by induction) and is made a
    `Pool`, each member matched against each shape.  The variant's row
    then filters each shape's instances.

    The system is grounded here, once, over the whole pool, with no
    second pass through `rules.ground`: a pool is in token order, which
    is the language's name order, so pool formula i is bit i.  Each
    formula's element is built once, unchecked, since a token passes
    every name check.  The axiom instances become one mask, which is
    also the axiom set, since bit i is pool formula i; the detachment
    triples (implication, antecedent, consequent), in pool order,
    become a 3-ary tuple rule "mp" and one arc each, so tuple numbers,
    and with them witnesses, do not depend on set order.
    """
    row = _variant(variant, n)
    if n is not None and not row.indexed:
        raise UsageError(f"variant {variant} takes no index")
    if not isinstance(pool, Pool):
        pool = _as_pool(pool)
    if not pool:
        raise UsageError("the formula pool must be non-empty")
    tokens = [w._token for w in pool]
    bit = {token: i for i, token in enumerate(tokens)}
    language = ExplicitLanguage(Element._of_names(tokens))
    elements = language.elements

    insertable = 0
    for kind, keep in zip(_SHAPES, row.keep):
        for w in pool.instances[kind]:
            if keep is None or keep(w):
                insertable |= 1 << bit[w._token]
    if row.bridge and (i := bit.get(bridge_axiom(n)._token)) is not None:
        insertable |= 1 << i
    axioms = UnaryRule("axioms", FiniteSubset._of_mask(language, insertable))

    detachment = mp_restricted(n) if row.restricted else MP
    tuples, arcs, users = [], [], {}
    for w, a, c in instantiate_schema(detachment, pool):
        i, j, k = bit[w._token], bit[a._token], bit[c._token]
        users.setdefault(i, []).append(len(arcs))
        users.setdefault(j, []).append(len(arcs))
        arcs.append((1 << i | 1 << j, 1 << k))
        tuples.append((elements[i], elements[j], elements[k]))
    mp = TupleRule("mp", 3, tuple(tuples))

    grounded = MaskSystem(
        language,
        elements,
        language.positions,
        dict.fromkeys(axioms.axioms.members, ("axiom", "axioms")),
        insertable,
        arcs,
        [("mp", t) for t in mp.tuples],
        users,
    )
    name = variant if n is None else f"{variant}-{n}"
    return RuleSystem._of_grounding(name, language, (axioms, mp), grounded)


def formula_subset(system: RuleSystem, wffs: Iterable[Wff]) -> FiniteSubset:
    return FiniteSubset(system.language, tuple(wff_element(w) for w in wffs))


DEFAULT_SIZE_CAP = 22


@dataclass(frozen=True)
class PoolSearch:
    """One saturation of the hypotheses over a capped formula pool; the
    pool is the system's language, one element per formula."""

    system: RuleSystem
    hypotheses: FiniteSubset
    result: SaturationResult


def query_pool(
    variant: str,
    hypotheses: Sequence[Wff],
    goal: Wff,
    *,
    n: int | None = None,
    size_cap: int = DEFAULT_SIZE_CAP,
    max_pool: int = DEFAULT_MAX_POOL,
) -> Pool:
    """The pool a query seeds: the subformula closure of the hypotheses,
    the goal and, for the variants that have one, the bridge axiom of
    index n.

    The standard variant ignores n.  A bridge axiom longer than
    `size_cap` is refused with an error that names it and the cap it
    needs.  A `size_cap` or `max_pool` below 1 is refused with an error
    that names its command-line flag, and an unknown variant or a
    missing or non-positive n with `pd_system`'s error, before any pool
    is built.
    """
    for flag, cap in (("--size-cap", size_cap), ("--pool-cap", max_pool)):
        if cap < 1:
            raise UsageError(f"{flag} must be at least 1, not {cap}")
    row = _variant(variant, n)
    seeds = list(hypotheses) + [goal]
    if row.bridge:
        bridge = bridge_axiom(n)
        needed = len(wff_token(bridge))
        if needed > size_cap:
            raise UsageError(
                f"the {variant} variant adds the bridge axiom {wff_to_text(bridge)} to the pool, "
                f"which needs --size-cap {needed} or more, not {size_cap}"
            )
        seeds.append(bridge)
    return subformula_closure(seeds, size_cap, max_pool=max_pool)


def saturate_pool(
    variant: str, pool: Pool, hypotheses: Sequence[Wff], *, n: int | None = None
) -> PoolSearch:
    """Saturate `hypotheses` in the variant's system over `pool`, the
    `query_pool` of a query with these hypotheses.

    The system takes its axioms from the instances the closure filled,
    so detachment is the one schema instantiated.  A variant that takes
    no index ignores n.
    """
    # Imported per call, not at module level, so that a patched
    # `conseq.engine.saturate` is the one this call runs.
    from .engine import saturate

    system = pd_system(variant, pool, n=n if _variant(variant, n).indexed else None)
    hyp_subset = formula_subset(system, hypotheses)
    return PoolSearch(system, hyp_subset, saturate(system, hyp_subset))


# ---------------------------------------------------------------------------
# non-derivability evidence


@dataclass(frozen=True)
class Certified:
    """Semantic proof of non-derivability: the hypotheses-to-goal
    implication chain is falsified by this valuation."""

    goal: Wff
    transform: Wff
    valuation: Valuation


@dataclass(frozen=True)
class BoundedEvidence:
    """A capped search saturated its pool without reaching the goal.

    Evidence, not proof: a bigger pool might still derive the goal.
    """

    goal: Wff
    pool_size: int
    size_cap: int
    closure_size: int


CertificateResult = Union[Certified, BoundedEvidence]


def _chain(hypotheses: Sequence[Wff], goal: Wff) -> Wff:
    """The hypotheses-to-goal implication chain (h1 -> (h2 -> ... goal))."""
    chain = goal
    for h in reversed(hypotheses):
        chain = Impl(h, chain)
    return chain


def _certified(chain: Wff, goal: Wff) -> Certified | None:
    """The certificate of the chain's first falsifier, or None for a tautology."""
    valuation = falsifying_valuation(chain)
    if valuation is None:
        return None
    return Certified(goal=goal, transform=chain, valuation=valuation)


def certificate_first(hypotheses: Sequence[Wff], goal: Wff, pool: Sequence[Wff]) -> Certified | None:
    """The truth-table certificate of a query whose pool is built but
    not yet grounded, or None.

    The table runs only where it costs no more than grounding: the
    hypotheses-to-goal chain has at most MAX_DEPTH hypotheses and its
    2^k valuations (k distinct atoms) are no more than the pool's
    formulas, each of which grounding and saturation visit at least
    once.  A falsifier gives the same `Certified` as
    `certificate_non_derivable`; every variant is sound, so that goal
    is not in the pool's closure either.  None when the table does not
    run or the chain is a tautology.
    """
    if len(hypotheses) > MAX_DEPTH:
        return None
    chain = _chain(hypotheses, goal)
    if 1 << len(atoms(chain)) > len(pool):
        return None
    return _certified(chain, goal)


def certificate_non_derivable(
    variant: str,
    hypotheses: Sequence[Wff],
    goal: Wff,
    *,
    n: int | None = None,
    size_cap: int = DEFAULT_SIZE_CAP,
    max_pool: int = DEFAULT_MAX_POOL,
    search: PoolSearch | None = None,
) -> CertificateResult:
    """Evidence that `goal` is not derivable from `hypotheses`.

    Every variant's axioms are tautologies and detachment preserves
    truth, so anything derivable from hypotheses is entailed by them.
    One falsifying valuation of the hypotheses-to-goal implication
    chain is therefore a certificate.  The chain nests once per
    hypothesis, so at most MAX_DEPTH hypotheses are taken.  When the
    chain is a tautology (the hypotheses really do entail the goal)
    that route is closed, and we fall back to saturating a capped pool
    and reporting the failed search.  A goal derivable within the caps,
    an unknown variant and a parametrized one without n >= 1 are refused.

    The truth table runs first here, whatever its size, and no pool is
    built for a falsified chain.  `query` builds its pool first, tries
    `certificate_first`, and calls this only after a saturation that
    missed the goal.

    `search`, when given, must be `saturate_pool` over the `query_pool`
    of this same query and caps; it is used in place of saturating the
    pool again.
    """
    if goal in set(hypotheses):
        raise UsageError("the goal is already a hypothesis; nothing to certify")
    _variant(variant, n)
    if len(hypotheses) > MAX_DEPTH:
        raise UsageError(
            f"a non-derivability certificate takes at most {MAX_DEPTH} hypotheses, "
            f"not {len(hypotheses)}"
        )

    certificate = _certified(_chain(hypotheses, goal), goal)
    if certificate is not None:
        return certificate

    if search is None:
        pool = query_pool(variant, hypotheses, goal, n=n, size_cap=size_cap, max_pool=max_pool)
        search = saturate_pool(variant, pool, hypotheses, n=n)
    closure = search.result.closure
    if wff_element(goal) in closure:
        raise UsageError("the goal is derivable within the caps; nothing to certify")
    return BoundedEvidence(
        goal=goal,
        pool_size=len(search.system.language),
        size_cap=size_cap,
        closure_size=len(closure.members),
    )


def query(
    variant: str,
    hypotheses: Sequence[Wff],
    goal: Wff,
    *,
    n: int | None = None,
    size_cap: int = DEFAULT_SIZE_CAP,
    max_pool: int = DEFAULT_MAX_POOL,
) -> PoolSearch | Certified | BoundedEvidence:
    """Answer a query: the saturation whose closure holds the goal, or
    evidence that the goal is not derivable.

    The pool is built first, so every cap, bridge and pool-overflow
    error comes out as the search would give it.  Then the
    hypotheses-to-goal chain's truth table runs if it has at most
    MAX_DEPTH hypotheses and its 2^k valuations (k distinct atoms) are
    no more than the pool's formulas: every variant is sound, so a
    falsifier certifies the goal as not derivable, and nothing is
    grounded or saturated.  Otherwise the pool is saturated, and a goal
    outside the closure gets `certificate_non_derivable`'s evidence.
    """
    pool = query_pool(variant, hypotheses, goal, n=n, size_cap=size_cap, max_pool=max_pool)
    certificate = certificate_first(hypotheses, goal, pool)
    if certificate is not None:
        return certificate
    search = saturate_pool(variant, pool, hypotheses, n=n)
    if wff_element(goal) in search.result.closure:
        return search
    return certificate_non_derivable(
        variant, hypotheses, goal, n=n, size_cap=size_cap, max_pool=max_pool, search=search
    )
