"""Closure operators at small sizes, every case listed.

A closure operator on a finite language is fixed by its closed sets,
which form a Moore family: a family that holds the whole language and is
closed under intersection.  Here the families are generated by brute
force, as frozensets of element indices, and every closure operator on
at most 3 elements is built three ways (from its family, as the rule
system that replays it, and as a frozen image table), so closed-set,
sup and order queries are checked on the closed-mask and table paths
against the set definitions: F, F ⊆ G, F = G and F ∩ G.  Every pair of
them also goes through `meet` and `cup_join`, against the pointwise
intersection and union of their images and the literal closure axioms,
and every pair of one operator's closed sets through `join_uplus` and
`meet_cap`, against the least closed superset and the intersection.
The 2480 closure operators on 4 elements are checked one at a time, and
all 256 operators of any kind on 2 elements against the literal axioms;
every pair of those 256 goes through `meet` and `cup_join`, against the
pointwise AND and OR of their images, and every pair in which one of
them fixes the whole language through `sup_w`, refusals included.

A family that is not closed under intersection, given to
`from_closure_family` or shared by the operands of a `sup_w`, must read
back as its Moore closure, which is the set of the operator's fixed
points.
"""

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conseq.errors import UsageError
from conseq.language import FiniteSubset
from conseq.operators import (
    AxiomCounterexample,
    RuleOperator,
    TableOperator,
    _image_table,
    canonical_system,
    check_axioms,
    closed_systems,
    counterexample_reproduces,
    cup_join,
    equal_ops,
    from_closure_family,
    join_uplus,
    leq,
    meet,
    meet_cap,
    sup_w,
    tabulate,
)
from conseq.sampling import small_language

from reference import (
    apply_table,
    axiom_report,
    family_sorted,
    literal_axioms,
    moore_closure,
    subsets,
    sup_family,
)

# Moore families on 1, 2 and 3 elements (OEIS A102896).  An explicit
# language needs at least one element, so the one family on 0 elements
# is not built.
MOORE_COUNTS = {1: 2, 2: 7, 3: 61}


def _all_index_sets(n):
    return [frozenset(s) for k in range(n + 1) for s in combinations(range(n), k)]


def _families_holding_the_top(n):
    """Every family of index sets that holds the whole of range(n)."""
    top = frozenset(range(n))
    rest = [s for s in _all_index_sets(n) if s != top]
    for k in range(len(rest) + 1):
        for chosen in combinations(rest, k):
            yield frozenset((top, *chosen))


def _moore_families(n):
    """The families holding the top that are closed under intersection."""
    return [f for f in _families_holding_the_top(n) if all(x & y in f for x in f for y in f)]


def _subset(language, indices):
    return FiniteSubset(language, tuple(language.elements[i] for i in indices))


def _listed(language, family):
    """`family` as subsets in the library's order."""
    return family_sorted(_subset(language, s) for s in family)


def _indices(language, subset):
    return frozenset(language.positions[e] for e in subset)


def _fixed_index_sets(op, language):
    every = (_subset(language, s) for s in _all_index_sets(len(language.elements)))
    return {_indices(language, s) for s in every if op.apply(s) == s}


def _representations(family, language):
    """The closure operator of `family` as a closure family, as the rule
    system that replays it, and as an image table."""
    op = from_closure_family([_subset(language, s) for s in family], language)
    return (op, RuleOperator(canonical_system(op, language)), tabulate(op, language))


@pytest.mark.parametrize("n", sorted(MOORE_COUNTS))
def test_every_pair_of_closure_operators_answers_by_its_closed_sets(n):
    language = small_language(n)
    families = _moore_families(n)
    assert len(families) == MOORE_COUNTS[n]
    ops = [_representations(f, language) for f in families]
    for family, each in zip(families, ops):
        for op in each:
            assert closed_systems(op, language) == _listed(language, family)
    for k, ((f, f_ops), (g, g_ops)) in enumerate(
        ((a, b) for a in zip(families, ops) for b in zip(families, ops))
    ):
        # every pair as closure families, and one mix of the three paths
        # per pair, in turn
        mixed = (f_ops[k % 3], g_ops[k // 3 % 3])
        for first, second in ((f_ops[0], g_ops[0]), mixed):
            assert leq(second, first, language) == (f <= g)
            assert leq(first, second, language) == (g <= f)
            assert equal_ops(first, second, language) == (f == g)
            assert sup_w([first, second], language).closed_sets == _listed(language, f & g)


def test_every_family_on_three_elements_reads_back_as_its_fixed_points():
    language = small_language(3)
    families = list(_families_holding_the_top(3))
    assert len(families) == 2 ** 7
    every, top = [_subset(language, x) for x in _all_index_sets(3)], _subset(language, range(3))
    for family in families:
        moore = moore_closure(family)
        op = from_closure_family([_subset(language, s) for s in family], language)
        assert op.closed_sets == closed_systems(op, language) == _listed(language, moore)
        assert _fixed_index_sets(op, language) == moore
        # an idempotent table that fixes exactly `family` and sends every
        # other subset to the whole language: its closed sets are its
        # images, and its sup's are their Moore closure
        table = TableOperator(language, {s: s if _indices(language, s) in family else top for s in every})
        assert closed_systems(table, language) == _listed(language, family)
        sup = sup_w([table], language)
        assert sup.closed_sets == closed_systems(sup, language) == _listed(language, moore)
        assert _fixed_index_sets(sup, language) == moore
        assert equal_ops(sup, op, language)


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 8), st.integers(0, 10_000), st.integers(1, 3))
def test_families_and_sups_of_tables_read_back_as_their_fixed_points(n, seed, count):
    language = small_language(n)
    rng = random.Random(seed)
    top = frozenset(range(n))
    every = _all_index_sets(n)

    def random_family():
        return {top} | {frozenset(rng.sample(range(n), rng.randint(0, n))) for _ in range(rng.randint(0, 6))}

    given_family = random_family()
    op = from_closure_family([_subset(language, s) for s in given_family], language)
    moore = moore_closure(given_family)
    assert op.closed_sets == closed_systems(op, language, bound=n) == _listed(language, moore)
    assert _fixed_index_sets(op, language) == moore

    # idempotent tables: each fixes a random family and sends every other
    # subset to one of that family's members
    tables, shared = [], set(every)
    for _ in range(count):
        fixed = random_family()
        members = sorted(fixed, key=sorted)
        images = {x: x if x in fixed else rng.choice(members) for x in every}
        table = {_subset(language, x): _subset(language, y) for x, y in images.items()}
        tables.append(TableOperator(language, table))
        shared &= fixed
    sup = sup_w(tables, language, bound=n)
    moore = moore_closure(shared)
    assert sup.closed_sets == closed_systems(sup, language, bound=n) == _listed(language, moore)
    assert _fixed_index_sets(sup, language) == moore
    assert equal_ops(sup, from_closure_family(sup.closed_sets, language), language, bound=n)


def test_every_pair_of_closure_operators_on_three_elements_meets_and_joins_pointwise():
    language = small_language(3)
    ops = [_representations(f, language) for f in _moore_families(3)]
    for k, (f_ops, g_ops) in enumerate(product(ops, repeat=2)):
        # one mix of the three paths per pair, in turn
        first, second = f_ops[k % 3], g_ops[k // 3 % 3]
        f_table, g_table = apply_table(first, language), apply_table(second, language)
        for combined, table in (
            (meet([first, second]), [a & b for a, b in zip(f_table, g_table)]),
            (cup_join(first, second), [a | b for a, b in zip(f_table, g_table)]),
        ):
            assert apply_table(tabulate(combined, language), language) == table
            assert check_axioms(combined, language) == axiom_report(table, language)


def test_every_pair_of_closed_sets_joins_to_its_least_closed_superset_and_meets_to_its_intersection():
    language = small_language(3)
    for family in _moore_families(3):
        for op in _representations(family, language):
            for x, y in product(family, repeat=2):
                least = frozenset.intersection(*(m for m in family if x | y <= m))
                left, right = _subset(language, x), _subset(language, y)
                assert join_uplus(op, left, right) == _subset(language, least)
                assert meet_cap(op, left, right) == _subset(language, x & y)


def test_every_closure_operator_on_four_elements_answers_by_its_closed_sets():
    language = small_language(4)
    families = _moore_families(4)
    assert len(families) == 2480
    for family in families:
        op = from_closure_family([_subset(language, s) for s in family], language)
        assert closed_systems(op, language) == _listed(language, family)
        assert check_axioms(op, language) == axiom_report(apply_table(op, language), language)
        assert equal_ops(RuleOperator(canonical_system(op, language)), op, language)


def test_every_operator_on_two_elements_meets_the_literal_axioms():
    language = small_language(2)
    every = subsets(language)
    tables = list(product(range(4), repeat=4))
    assert len(tables) == 256
    for out in tables:
        op = TableOperator(language, {s: every[image] for s, image in zip(every, out)})
        assert check_axioms(op, language) == axiom_report(out, language)
        for axiom, masks in literal_axioms(out, 2).items():
            if masks is not None:
                assert counterexample_reproduces(op, AxiomCounterexample(axiom, tuple(every[m] for m in masks)))


def _outcome(call):
    """A value, or the refusal it raised, so that refusals compare too."""
    try:
        return ("value", call())
    except UsageError as exc:
        return ("error", str(exc))


def test_every_pair_of_operators_on_two_elements_meets_joins_and_sups_pointwise():
    language = small_language(2)
    every, whole = subsets(language), 0b11
    images = product(range(4), repeat=4)
    ops = [TableOperator(language, {s: every[i] for s, i in zip(every, out)}) for out in images]
    tables = [apply_table(op, language) for op in ops]
    for (first, f_table), (second, g_table) in product(zip(ops, tables), repeat=2):
        # `tabulate` stores the table each composite builds, read back as stored
        meets = _image_table(tabulate(meet([first, second]), language), language)
        joins = _image_table(tabulate(cup_join(first, second), language), language)
        assert meets == [a & b for a, b in zip(f_table, g_table)]
        assert joins == [a | b for a, b in zip(f_table, g_table)]
        # the sups, and the refusals with either operand at fault; a pair
        # where neither operand fixes L is refused by the same check
        if f_table[whole] == whole or g_table[whole] == whole:
            assert _outcome(lambda: sup_w([first, second], language).closed_sets) == _outcome(
                lambda: sup_family([f_table, g_table], language)
            )
