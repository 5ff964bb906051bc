"""The bit-mask paths of exhaustive operator work and step-bounded
deduction, against the FiniteSubset loops they replaced.

Each oracle is the definitional loop: it builds every subset with the
validating constructor, asks the operator through `apply`, and reads the
answers as the definitions say (tests/reference.py holds the shared
ones).  Reports, counterexample subsets, family order,
bounded sets and minimal sizes must come out equal, on lawful operators
(rule systems, closure families) and lawless ones (pointwise unions,
step-bounded operators, random tables), and on composites whose
operands fill their tables two ways: from a mask kernel or through
`apply`, the latter also for an operand that is not an `Operator`.

Closed-set, sup and order queries on operands with closed-mask bitsets
are checked against those operands' image tables and their fixed points.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conseq import rules
from conseq.cli import main
from conseq.engine import bounded_consequences, min_derivation_size, saturate, union_systems
from conseq.errors import DomainError, UsageError
from conseq.fileformat import load_system, loads_system
from conseq.language import Element, ExplicitLanguage, FiniteSubset, all_subsets
from conseq.operators import (
    AdjoinIfContains,
    AdjoinIfIntersects,
    BoundedOperator,
    ClosureFamilyOperator,
    MeetOperator,
    Operator,
    PointwiseUnion,
    RuleOperator,
    TableOperator,
    _image_table,
    check_axioms,
    closed_systems,
    cup_join,
    equal_ops,
    from_closure_family,
    leq,
    meet,
    sup_w,
    tabulate,
)
from conseq.rules import RuleSystem, TupleRule
from conseq.sampling import random_closure_family, random_system, seeded, small_language

from reference import (
    apply_table,
    axiom_report,
    close_in_family,
    oracle_ground,
    oracle_min_size,
    random_subset,
    round_scan_saturate,
    subsets,
    sup_family,
    table_closed_systems,
    table_leq,
)


# ---------------------------------------------------------------------------
# oracles


def oracle_leq(first, second, language):
    return table_leq(apply_table(first, language), apply_table(second, language))


def oracle_equal(first, second, language):
    return apply_table(first, language) == apply_table(second, language)


def _step_grounding(system, hypotheses):
    insertable, grounded = oracle_ground(system, hypotheses)
    arcs = [(frozenset(t[:-1]), t[-1]) for _, tuples in grounded for t in tuples]
    universe = set(insertable) | {c for _, c in arcs}
    return set(insertable), arcs, universe


def oracle_bounded(system, hypotheses, steps):
    """One minimal-size search per element of the universe."""
    insertable, arcs, universe = _step_grounding(system, hypotheses)
    kept = [e for e in universe if oracle_min_size(insertable, arcs, e, steps) is not None]
    return FiniteSubset(system.language, tuple(kept))


def _outcome(fn, *args):
    """A value, or the error it raised, so that refusals compare too."""
    try:
        return ("value", fn(*args))
    except UsageError as exc:
        return ("error", str(exc))


# ---------------------------------------------------------------------------
# random operators, lawful and lawless


class _ApplyOnly:
    """An operator seen only through `apply`, with no mask kernel."""

    def __init__(self, op):
        self.apply = op.apply


KINDS = (
    "rules", "union", "bounded", "table", "grow", "family", "meet", "union-bounded",
    "meet-trigger", "union-trigger",
)


def random_operator(kind, seed, language):
    rng = seeded(seed, kind)
    every = subsets(language)
    if kind == "rules":
        return RuleOperator(random_system(rng, language))
    if kind == "union":
        left, right = (RuleOperator(random_system(rng, language)) for _ in range(2))
        return PointwiseUnion(left, right)
    if kind == "bounded":
        return BoundedOperator(random_system(rng, language), rng.randint(1, 3))
    if kind == "meet":  # two or three rule operators, one of them step-bounded half the time
        operands = [RuleOperator(random_system(rng, language)) for _ in range(rng.randint(2, 3))]
        if rng.random() < 0.5:
            bounded = BoundedOperator(random_system(rng, language), rng.randint(1, 3))
            operands[rng.randrange(len(operands))] = bounded
        return MeetOperator(operands)
    if kind == "union-bounded":  # the cup-not-join scenario's shape, one side step-bounded
        bounded = BoundedOperator(random_system(rng, language), rng.randint(1, 3))
        return PointwiseUnion(bounded, RuleOperator(random_system(rng, language)))
    if kind in ("meet-trigger", "union-trigger"):  # a kernel operand beside one asked through apply
        system = random_system(rng, language)
        kernel = BoundedOperator(system, rng.randint(1, 3)) if rng.random() < 0.5 else RuleOperator(system)
        adjoin = rng.choice((AdjoinIfContains, AdjoinIfIntersects))(rng.choice(every), rng.choice(every))
        pair = [kernel, _ApplyOnly(adjoin) if rng.random() < 0.5 else adjoin]
        rng.shuffle(pair)
        return meet(pair) if kind == "meet-trigger" else cup_join(*pair)
    if kind == "table":
        return TableOperator(language, {s: rng.choice(every) for s in every})
    if kind == "grow":  # extensive, otherwise arbitrary
        return TableOperator(language, {s: s.union(rng.choice(every)) for s in every})
    if rng.random() < 0.5:
        return random_closure_family(rng, language)
    # not intersection-closed: the operator glues by intersection anyway
    return from_closure_family(rng.sample(every, rng.randint(0, min(4, len(every)))) + [every[-1]], language)


operators = st.tuples(
    st.sampled_from(KINDS), st.integers(min_value=0, max_value=10_000), st.integers(1, 6)
)


@settings(deadline=None, max_examples=200)
@given(operators)
def test_every_image_table_is_the_per_subset_apply(drawn):
    kind, seed, n = drawn
    language = small_language(n)
    op = random_operator(kind, seed, language)
    table = tabulate(op, language)
    for s in subsets(language):
        assert table.apply(s) == op.apply(s)


@settings(deadline=None, max_examples=200)
@given(operators)
def test_check_axioms_matches_the_full_submask_scan(drawn):
    kind, seed, n = drawn
    language = small_language(n)
    op = random_operator(kind, seed, language)
    got = _outcome(check_axioms, op, language)
    assert got == _outcome(lambda: axiom_report(apply_table(op, language), language))


@settings(deadline=None, max_examples=150)
@given(operators)
def test_closed_systems_match_the_image_scan(drawn):
    kind, seed, n = drawn
    language = small_language(n)
    op = random_operator(kind, seed, language)
    got = _outcome(closed_systems, op, language)
    assert got == _outcome(lambda: table_closed_systems(apply_table(op, language), language))


@settings(deadline=None, max_examples=150)
@given(st.lists(operators, min_size=1, max_size=3), st.integers(1, 6))
def test_sup_w_matches_the_shared_fixed_points(drawn, n):
    language = small_language(n)
    ops = [random_operator(kind, seed, language) for kind, seed, _ in drawn]
    got = _outcome(lambda: sup_w(ops, language).closed_sets)
    assert got == _outcome(lambda: sup_family([apply_table(op, language) for op in ops], language))
    if got[0] == "value":
        sup = sup_w(ops, language)
        for s in subsets(language):
            assert sup.apply(s) == close_in_family(got[1], s)


@settings(deadline=None, max_examples=150)
@given(operators, operators)
def test_leq_and_equal_ops_match_the_pointwise_loops(first, second):
    n = min(first[2], second[2])
    language = small_language(n)
    a = random_operator(first[0], first[1], language)
    b = random_operator(second[0], second[1], language)
    for x, y in ((a, b), (b, a), (a, a)):
        assert _outcome(leq, x, y, language) == _outcome(oracle_leq, x, y, language)
        assert _outcome(equal_ops, x, y, language) == _outcome(oracle_equal, x, y, language)


# ---------------------------------------------------------------------------
# step-bounded deduction


@settings(deadline=None, max_examples=150)
@given(st.integers(min_value=0, max_value=10_000), st.integers(1, 6), st.integers(1, 4))
def test_bounded_consequences_and_min_sizes_match_the_per_element_search(seed, n, steps):
    language = small_language(n)
    rng = seeded(seed, "bounded-oracle")
    system = random_system(rng, language)
    hypotheses = random_subset(rng, language)
    _assert_bounded_search_matches_the_oracles(system, hypotheses, steps)


def _assert_bounded_search_matches_the_oracles(system, hypotheses, steps):
    assert bounded_consequences(system, hypotheses, steps) == oracle_bounded(system, hypotheses, steps)
    insertable, arcs, _ = _step_grounding(system, hypotheses)
    for goal in system.language.elements:
        assert min_derivation_size(system, hypotheses, goal, steps) == oracle_min_size(
            insertable, arcs, goal, steps
        )


def _layered_system(rng, language):
    """A deep Horn system from e0: each later element is concluded from
    1-3 of the three elements before it, and now and then by a second
    arc that also needs the last element, which nothing concludes."""
    *layers, dead = language.elements
    by_arity = {}
    for i in range(1, len(layers)):
        window = layers[max(0, i - 3):i]
        premises = rng.sample(window, rng.randint(1, len(window)))
        by_arity.setdefault(len(premises) + 1, []).append((*premises, layers[i]))
        if rng.random() < 0.25:
            premises = rng.sample(window, rng.randint(1, min(2, len(window))))
            by_arity.setdefault(len(premises) + 2, []).append((*premises, dead, layers[i]))
    rules = tuple(TupleRule(f"r{k}", k, tuple(by_arity[k])) for k in sorted(by_arity))
    return RuleSystem("layered", language, rules)


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=0, max_value=10_000), st.integers(6, 10), st.data())
def test_bounded_search_matches_the_oracles_on_goals_deeper_than_the_cap(seed, n, data):
    language = small_language(n)
    rng = seeded(seed, "bounded-layered")
    system = _layered_system(rng, language)
    extra = rng.sample(language.elements[1:-1], rng.randint(0, 1))
    hypotheses = FiniteSubset(language, (language.elements[0], *extra))
    steps = data.draw(st.integers(1, n))
    _assert_bounded_search_matches_the_oracles(system, hypotheses, steps)


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=0, max_value=10_000), st.integers(1, 6))
def test_bounded_consequences_grow_with_steps_up_to_saturation(seed, n):
    language = small_language(n)
    rng = seeded(seed, "bounded-growth")
    system = random_system(rng, language, max_rules=4, max_tuples=5)
    hypotheses = random_subset(rng, language)
    closure = saturate(system, hypotheses).closure
    universe = len(_step_grounding(system, hypotheses)[2])
    previous = FiniteSubset.empty(language)
    for steps in range(1, universe + 2):
        got = bounded_consequences(system, hypotheses, steps)
        assert previous.is_subset_of(got) and got.is_subset_of(closure)
        if steps >= universe:
            assert got == closure
        previous = got


@settings(deadline=None, max_examples=150)
@given(st.integers(min_value=0, max_value=10_000), st.integers(1, 7), st.integers(1, 5), st.booleans())
def test_the_bounded_kernel_table_is_the_per_subset_search(seed, n, steps, axioms):
    language = small_language(n)
    rng = seeded(seed, "bounded-kernel")
    system = random_system(rng, language, axiom_chance=1.0 if axioms else 0.0)
    op = BoundedOperator(system, steps)
    assert op._image_masks(language) == [
        bounded_consequences(system, x, steps).mask for x in all_subsets(language)
    ]


def test_a_composite_over_mismatched_languages_fails_as_apply_does():
    language, other = small_language(3), small_language(3, prefix="f")
    rng = seeded(0, "mismatch")
    mine = RuleOperator(random_system(rng, language))
    foreign = BoundedOperator(random_system(rng, other), 2)
    composites = (meet([mine, foreign]), meet([foreign, mine]), cup_join(mine, foreign), cup_join(foreign, mine))
    for op in composites:
        for checked in (language, other, small_language(2)):
            with pytest.raises(DomainError) as through_apply:
                check_axioms(_ApplyOnly(op), checked)
            with pytest.raises(DomainError, match="mismatched languages") as through_kernel:
                check_axioms(op, checked)
            assert str(through_kernel.value) == str(through_apply.value)


# Indices past 2**63: a bit per enumeration index would make Python
# refuse the shift outright, so a mask numbered that way fails fast.
HUGE_INDICES = (2**64 + 3, 2**64 + 40, 10**30)


def _prefix_system(rng):
    """A random system over `language: enumerated f` whose elements mix
    one-digit, two-digit and huge indices, so enumeration order is not
    name order and no mask may use an index as its bit."""
    indices = rng.sample([*range(40), *HUGE_INDICES], 8)
    lines = ["language: enumerated f"]
    if rng.random() < 0.7:
        lines.append("axioms ax: " + " ".join(f"f{i}" for i in rng.sample(indices, 2)))
    for r in range(rng.randint(1, 3)):
        arity = rng.randint(2, 3)
        for _ in range(rng.randint(1, 4)):
            *premises, conclusion = (rng.choice(indices) for _ in range(arity))
            lines.append(f"rule r{r}: " + " ".join(f"f{i}" for i in premises) + f" => f{conclusion}")
    return loads_system("\n".join(lines) + "\n"), indices


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=0, max_value=10_000), st.integers(1, 4))
def test_mask_paths_over_an_enumerated_language(seed, steps):
    rng = seeded(seed, "prefix")
    system, indices = _prefix_system(rng)
    language = system.language
    picked = rng.sample(indices, rng.randint(0, 4))
    if rng.random() < 0.5:
        picked.append(40)  # in no rule: grounded only as a hypothesis
    hypotheses = FiniteSubset(language, tuple(Element(f"f{i}") for i in picked))
    result = saturate(system, hypotheses)
    closure = result.closure
    oracle_closure, oracle_witnesses = round_scan_saturate(system, hypotheses)
    assert (closure, [(e, w.render()) for e, w in result.witnesses.items()]) == (
        oracle_closure,
        [(e, w.render()) for e, w in oracle_witnesses.items()],
    )
    assert RuleOperator(system).apply(hypotheses) == closure
    bounded = oracle_bounded(system, hypotheses, steps)
    assert bounded_consequences(system, hypotheses, steps) == bounded
    assert BoundedOperator(system, steps).apply(hypotheses) == bounded
    with pytest.raises(UsageError, match="explicit finite language"):
        hypotheses.mask
    insertable, arcs, _ = _step_grounding(system, hypotheses)
    for i in indices:
        goal = Element(f"f{i}")
        assert min_derivation_size(system, hypotheses, goal, steps) == oracle_min_size(
            insertable, arcs, goal, steps
        )


# ---------------------------------------------------------------------------
# one grounding per system, shared by every call


def _answer(system, call, hypotheses, goal, steps):
    """One engine or operator call on `system`, as comparable data."""
    if call == "saturate":
        result = saturate(system, hypotheses)
        return result.closure, [(e, w.render()) for e, w in result.witnesses.items()]
    if call == "min_derivation_size":
        return min_derivation_size(system, hypotheses, goal, steps)
    if call == "bounded_consequences":
        return bounded_consequences(system, hypotheses, steps)
    return RuleOperator(system).apply(hypotheses)


CALLS = ("saturate", "min_derivation_size", "bounded_consequences", "apply")

# Beyond the eight indices of a `_prefix_system`: elements no rule mentions.
UNMENTIONED = (40, 41, 2**70)


@settings(deadline=None, max_examples=100)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.lists(
        st.tuples(
            st.sampled_from(CALLS),
            st.lists(st.integers(0, 10), max_size=4),
            st.integers(0, 10),
            st.integers(1, 4),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_one_shared_grounding_answers_like_a_fresh_one(seed, calls):
    system, indices = _prefix_system(seeded(seed, "prefix"))
    language = system.language
    pool = [Element(f"f{i}") for i in (*indices, *UNMENTIONED)]
    for call, picked, goal, steps in calls:
        hypotheses = FiniteSubset(language, tuple(pool[i] for i in picked))
        fresh = RuleSystem(system.name, language, system.rules)
        assert _answer(system, call, hypotheses, pool[goal], steps) == _answer(
            fresh, call, hypotheses, pool[goal], steps
        )
    assert system == fresh and "grounded" not in repr(system)


STEP_LIMITED = str(Path(__file__).parent.parent / "systems" / "step-limited.system")


def _check_bounded_operator_axioms():
    system = load_system(STEP_LIMITED)
    check_axioms(BoundedOperator(system, 3), system.language)


def _check_composite_axioms(combine):
    system = load_system(STEP_LIMITED)
    check_axioms(combine(BoundedOperator(system, 3), RuleOperator(system)), system.language)


def _bounded_past_the_universe():
    system = load_system(STEP_LIMITED)
    bounded_consequences(system, FiniteSubset.of(system.language, ["x1", "x2"]), 10)


GROUNDED_ONCE = {
    "check-axioms-bounded": _check_bounded_operator_axioms,
    "check-axioms-meet": lambda: _check_composite_axioms(lambda a, b: meet([a, b])),
    "check-axioms-cup-join": lambda: _check_composite_axioms(cup_join),
    "bounded-past-the-universe": _bounded_past_the_universe,
    "derive-max-steps": lambda: main(
        ["derive", "--system", STEP_LIMITED, "--hyp", "x1,x2", "--goal", "b", "--max-steps", "6"]
    ),
    "pd-search-max-steps": lambda: main(
        ["pd", "search", "--hyp", "(P1 -> P0), P1", "--goal", "P0", "--size-cap", "8", "--max-steps", "5"]
    ),
    "pd-search-derived": lambda: main(["pd", "search", "--hyp", "(P1 -> P0), P1", "--goal", "P0"]),
    # the chain is a tautology, so the pool is saturated and bounded evidence reuses that search
    "pd-search-bounded": lambda: main(["pd", "search", "--hyp", "P0", "--goal", "(P1 -> P1)"]),
}


@pytest.mark.parametrize("query", GROUNDED_ONCE)
def test_each_query_grounds_its_system_once(monkeypatch, capsys, query):
    built = []
    init = rules.MaskSystem.__init__

    def counted(grounding, *args):
        built.append(args)
        init(grounding, *args)

    monkeypatch.setattr(rules.MaskSystem, "__init__", counted)
    GROUNDED_ONCE[query]()
    capsys.readouterr()
    assert len(built) == 1


# ---------------------------------------------------------------------------
# closed-mask bitsets against the image tables


# Operators with a closed-mask bitset first: rule operators, sups (one
# with a step-bounded operand) and closure families from the constructor,
# intersection-closed or not.  Then a step-bounded operator, read from
# its table.
WITH_BITSETS = ("rules", "sup", "sup-bounded", "family", "glued-family")
CLOSED_KINDS = (*WITH_BITSETS, "bounded")


def closed_operand(kind, seed, language):
    rng = seeded(seed, f"closed-{kind}")
    n = len(language.elements)
    if kind == "rules":
        return RuleOperator(random_system(rng, language))
    if kind == "sup":
        operands = [RuleOperator(random_system(rng, language)) for _ in range(rng.randint(1, 3))]
        return sup_w(operands, language, bound=n)
    if kind == "sup-bounded":
        operands = [RuleOperator(random_system(rng, language)), BoundedOperator(random_system(rng, language), 2)]
        return sup_w(operands, language, bound=n)
    if kind == "bounded":
        return BoundedOperator(random_system(rng, language), rng.randint(1, 3))
    if kind == "family":
        return random_closure_family(rng, language)
    subsets = [FiniteSubset._of_mask(language, rng.randrange(1 << n)) for _ in range(rng.randint(0, 4))]
    return from_closure_family(subsets + [FiniteSubset(language, language.elements)], language)


@settings(deadline=None, max_examples=120)
@given(
    st.sampled_from(CLOSED_KINDS),
    st.sampled_from(CLOSED_KINDS),
    st.integers(min_value=0, max_value=10_000),
    st.integers(1, 8),
)
def test_closed_mask_bitsets_answer_as_the_image_tables_do(first_kind, second_kind, seed, n):
    language = small_language(n)
    first = closed_operand(first_kind, seed, language)
    second = closed_operand(second_kind, seed + 1, language)
    again = closed_operand(first_kind, seed, language)  # an equal operator, built anew
    sup = sup_w([first, second], language, bound=n)
    ops = (first, second, again, sup)
    tables = [_image_table(op, language) for op in ops]
    for op, kind, table in zip(ops, (first_kind, second_kind, first_kind, None), tables):
        closed = op._closed_masks(language)
        if kind is not None:
            assert (closed is not None) == (kind in WITH_BITSETS)
        if closed is not None:
            assert closed == sum(1 << x for x, image in enumerate(table) if image == x)
        got = _outcome(lambda: closed_systems(op, language, bound=n))
        assert got == _outcome(table_closed_systems, table, language)
    assert sup.closed_sets == sup_family(tables[:2], language)
    for i, j in ((0, 1), (1, 0), (0, 2), (0, 3), (3, 0), (1, 3), (3, 1)):
        x, y = ops[i], ops[j]
        assert leq(x, y, language, bound=n) == table_leq(tables[i], tables[j])
        assert equal_ops(x, y, language, bound=n) == (tables[i] == tables[j])


def test_a_family_not_closed_under_intersection_is_closed_when_built():
    language = ExplicitLanguage.of_tokens(["a", "b", "c"])
    empty, a, b, whole = (FiniteSubset.of(language, m) for m in ([], ["a"], ["b"], ["a", "b", "c"]))
    glued = from_closure_family([a, b, whole], language)
    assert glued.closed_sets == (empty, a, b, whole)
    assert glued._closed_masks(language) == sum(1 << s.mask for s in (empty, a, b, whole))
    assert glued.apply(empty) == empty
    assert closed_systems(glued, language) == (empty, a, b, whole)
    rules = RuleOperator(
        loads_system("language: a b c\nrule join: a b => c\nrule left: c => a\nrule right: c => b\n")
    )
    assert closed_systems(rules, language) == (empty, a, b, whole)
    assert equal_ops(glued, rules, language) and equal_ops(rules, glued, language)
    assert leq(glued, rules, language) and leq(rules, glued, language)
    # an idempotent table that fixes {a}, {b} and the whole language: the
    # sup fixes the empty set too, so its members hold it
    fixed = {a: a, b: b, whole: whole}
    table = TableOperator(language, {s: fixed.get(s, a if s == empty else whole) for s in all_subsets(language)})
    sup = sup_w([table], language)
    assert sup.closed_sets == (empty, a, b, whole) == closed_systems(sup, language)
    assert sup._closed_masks(language) == glued._closed_masks(language)
    assert equal_ops(sup, rules, language) and equal_ops(sup, glued, language)
    assert not equal_ops(sup, table, language)


def test_closed_set_sup_and_order_queries_on_rule_operators_build_no_image_table(monkeypatch):
    def no_table(op, language):
        raise AssertionError(f"{op!r} built an image table")

    for kind in (Operator, RuleOperator, ClosureFamilyOperator):
        monkeypatch.setattr(kind, "_image_masks", no_table)
    language = small_language(6)
    rng = seeded(0, "no-table")
    first, second = (random_system(rng, language) for _ in range(2))
    left, right = RuleOperator(first), RuleOperator(second)
    union = RuleOperator(union_systems([first, second]))
    family = closed_systems(left, language)
    assert sup_w([left], language).closed_sets == family
    sup = sup_w([left, right], language)
    assert equal_ops(sup, union, language) and equal_ops(union, sup, language)
    assert leq(left, sup, language) and leq(right, sup, language)
    assert leq(sup, union, language) and leq(union, sup, language)
    assert equal_ops(sup_w([left], language), left, language)
    # closure families, one given closed under intersection and one not:
    # {e0, e1} and {e1, e2} without {e1}
    closed = from_closure_family(family, language)
    given = [FiniteSubset.of(language, m) for m in (["e0", "e1"], ["e1", "e2"], language.elements)]
    glued = from_closure_family(given, language)
    assert closed_systems(closed, language) == family
    assert closed_systems(glued, language) == glued.closed_sets == (given[0].intersect(given[1]), *given)
    assert equal_ops(closed, left, language) and equal_ops(left, closed, language)
    assert equal_ops(glued, from_closure_family(glued.closed_sets, language), language)
    assert not equal_ops(closed, glued, language)
    assert leq(closed, glued, language) == (set(glued.closed_sets) <= set(family))
    assert equal_ops(sup_w([closed, glued], language), sup_w([left, glued], language), language)
