"""Consequence operators: the closure axioms, the lattice operations,
and the equivalence between trigger operators and their generated rule
systems."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conseq import canonical_system, operators
from conseq.engine import intersect_rulewise, intersect_systems, union_systems
from conseq.errors import DomainError, UsageError
from conseq.language import (
    CofiniteSubset,
    Element,
    EnumeratedLanguage,
    ExplicitLanguage,
    FiniteSubset,
    all_subsets,
)
from conseq.operators import (
    MAX_TABLE_ELEMENTS,
    AdjoinIfContains,
    AdjoinIfIntersects,
    BoundedOperator,
    Identity,
    MeetOperator,
    RuleOperator,
    TableOperator,
    Unit,
    check_axioms,
    counterexample_reproduces,
    cup_join,
    equal_ops,
    from_closure_family,
    leq,
    meet,
    overlap_trigger_system,
    prefix_adjoin_family,
    sup_w,
    superset_trigger_system,
    tabulate,
)
from conseq.rules import RuleSystem, TupleRule
from conseq.sampling import random_system, seeded, small_language

from reference import axiom_report, random_subset, subsets

LANG = ExplicitLanguage.of_tokens(["a", "b", "c", "d"])
A, B, C, D = (Element(n) for n in "abcd")


def _sub(*names):
    return FiniteSubset.of(LANG, list(names))


def pair_chain_system():
    return RuleSystem("B", LANG, (TupleRule("step", 2, ((A, B), (C, D))),))


def single_step_system():
    return RuleSystem("R", LANG, (TupleRule("step", 2, ((A, C),)),))


# ---------------------------------------------------------------------------
# basic operators


def test_identity_and_unit_are_lattice_extremes():
    ident, unit = Identity(), Unit()
    assert check_axioms(ident, LANG).ok
    assert check_axioms(unit, LANG).ok
    assert leq(ident, unit, LANG)
    assert not leq(unit, ident, LANG)
    some_closure = RuleOperator(pair_chain_system())
    assert leq(ident, some_closure, LANG)
    assert leq(some_closure, unit, LANG)


def test_table_operator_requires_a_total_table():
    rows = {s: s for s in all_subsets(LANG)}
    op = TableOperator(LANG, rows)
    assert equal_ops(op, Identity(), LANG)
    del rows[_sub("a")]
    incomplete = {k: v for k, v in rows.items() if k != _sub("a")}
    with pytest.raises(UsageError, match="not total"):
        TableOperator(LANG, incomplete)


def test_tabulate_freezes_an_operator():
    op = RuleOperator(pair_chain_system())
    frozen = tabulate(op, LANG)
    assert equal_ops(op, frozen, LANG)
    assert frozen.apply(_sub("a")) == _sub("a", "b")


# ---------------------------------------------------------------------------
# generated and step-bounded operators


def test_rule_operator_satisfies_all_axioms():
    report = check_axioms(RuleOperator(pair_chain_system()), LANG)
    assert (
        report.extensive
        and report.monotone
        and report.idempotent
        and report.finite_character
    )
    assert report.ok and report.counterexample is None


def test_bounded_operator_fails_idempotence_on_a_long_chain():
    lang = ExplicitLanguage.of_tokens(["a", "b", "x1", "x2"])
    x1, x2, a, b = (Element(n) for n in ("x1", "x2", "a", "b"))
    system = RuleSystem(
        "steps",
        lang,
        (TupleRule("to-a", 3, ((x1, x2, a),)), TupleRule("to-b", 2, ((a, b),))),
    )
    op = BoundedOperator(system, 3)
    x = FiniteSubset.of(lang, ["x1", "x2"])
    assert str(op.apply(x)) == "{a,x1,x2}"
    assert str(op.apply(op.apply(x))) == "{a,b,x1,x2}"

    report = check_axioms(op, lang)
    assert report.extensive and report.monotone and report.finite_character
    assert not report.idempotent
    cex = report.counterexample
    assert cex.axiom == "idempotent"
    assert cex.subsets == (x,)
    assert counterexample_reproduces(op, cex)
    with pytest.raises(UsageError):
        BoundedOperator(system, 0)


# ---------------------------------------------------------------------------
# trigger operators match their generated systems


def test_trigger_operators_match_generated_systems_exhaustively():
    language = small_language(5)
    rng = seeded(5, "trigger")
    for _ in range(30):
        extra = random_subset(rng, language)
        trigger = random_subset(rng, language)
        overlap_op = AdjoinIfIntersects(extra, trigger)
        superset_op = AdjoinIfContains(extra, trigger)
        assert equal_ops(
            overlap_op, RuleOperator(overlap_trigger_system(extra, trigger)), language
        )
        assert equal_ops(
            superset_op,
            RuleOperator(superset_trigger_system(extra, trigger)),
            language,
        )
        assert check_axioms(overlap_op, language).ok
        assert check_axioms(superset_op, language).ok


def test_trigger_degenerate_cases():
    language = small_language(5)
    empty = FiniteSubset.empty(language)
    extra = FiniteSubset.of(language, ["e0", "e1"])
    # nothing to adjoin: both collapse to the identity, via the empty system
    assert equal_ops(
        AdjoinIfIntersects(empty, extra), Identity(), language
    )
    assert overlap_trigger_system(empty, extra).rules == ()
    # empty overlap trigger never fires
    assert equal_ops(AdjoinIfIntersects(extra, empty), Identity(), language)
    assert overlap_trigger_system(extra, empty).rules == ()
    # empty containment trigger holds vacuously: the extra is always adjoined
    always = AdjoinIfContains(extra, empty)
    assert always.apply(empty) == extra
    generated = superset_trigger_system(extra, empty)
    assert generated.rule("always").axioms == extra
    assert equal_ops(always, RuleOperator(generated), language)


def test_canonical_system_lists_its_rules_by_size_then_counting_order():
    language = small_language(3)
    family = [
        FiniteSubset.of(language, names)
        for names in (["e1"], ["e0", "e1"], ["e1", "e2"], ["e0", "e1", "e2"])
    ]
    system = canonical_system(from_closure_family(family, language), language)
    assert system.name == "canonical"
    assert [r.rule_id for r in system.rules] == ["axioms", "from1", "from2", "from3"]
    assert str(system.rule("axioms").axioms) == "{e1}"
    listed = {
        r.rule_id: (r.arity, [" ".join(e.name for e in t) for t in r.tuples])
        for r in system.rules[1:]
    }
    assert listed == {
        "from1": (2, ["e0 e0", "e0 e1", "e1 e1", "e2 e1", "e2 e2"]),
        "from2": (
            3,
            ["e0 e1 e0", "e0 e1 e1", "e0 e2 e0", "e0 e2 e1", "e0 e2 e2", "e1 e2 e1", "e1 e2 e2"],
        ),
        "from3": (4, ["e0 e1 e2 e0", "e0 e1 e2 e1", "e0 e1 e2 e2"]),
    }


def test_overlap_trigger_meets_cofinite_inputs_and_triggers():
    language = EnumeratedLanguage("f")
    f = [language.element(i) for i in range(4)]
    extra = FiniteSubset(language, (f[0],))
    cofinite_trigger = AdjoinIfIntersects(extra, CofiniteSubset(language, (f[1],)))
    assert str(cofinite_trigger.apply(FiniteSubset(language, (f[1],)))) == "{f1}"
    assert str(cofinite_trigger.apply(FiniteSubset(language, (f[2],)))) == "{f0,f2}"
    # two cofinite subsets of a denumerable language always meet
    assert str(cofinite_trigger.apply(CofiniteSubset(language, (f[0],)))) == "L"
    finite_trigger = AdjoinIfIntersects(extra, FiniteSubset(language, (f[3],)))
    missing_trigger = CofiniteSubset(language, (f[0], f[3]))
    assert str(finite_trigger.apply(missing_trigger)) == "L-{f0,f3}"
    assert str(finite_trigger.apply(CofiniteSubset(language, (f[0],)))) == "L"


def test_trigger_operators_name_themselves_in_reprs_and_language_errors():
    language = EnumeratedLanguage("f")
    extra = FiniteSubset(language, (language.element(0),))
    trigger = CofiniteSubset(language, (language.element(1),))
    other = FiniteSubset.empty(ExplicitLanguage.of_tokens(["a"]))
    mismatch = "mismatched languages EnumeratedLanguage(prefix:f) and ExplicitLanguage(a)"
    for cls in (AdjoinIfIntersects, AdjoinIfContains):
        name = cls.__name__
        assert repr(cls(extra, trigger)) == f"{name}(extra={{f0}}, trigger=L-{{f1}})"
        with pytest.raises(DomainError) as built:
            cls(extra, other)
        assert str(built.value) == f"{name}: {mismatch}"
        with pytest.raises(DomainError) as applied:
            cls(extra, trigger).apply(other)
        assert str(applied.value) == f"apply: {mismatch}"


# ---------------------------------------------------------------------------
# meet


def test_meet_of_closure_operators_is_a_closure_operator():
    rng = seeded(23, "meet")
    language = small_language(5)
    for _ in range(20):
        pair = [RuleOperator(random_system(rng, language)) for _ in range(2)]
        both = meet(pair)
        assert check_axioms(both, language).ok
        assert leq(both, pair[0], language) and leq(both, pair[1], language)
    with pytest.raises(UsageError):
        meet([])


def test_meet_is_not_generated_by_intersecting_the_systems():
    c = RuleSystem("C", LANG, (TupleRule("r", 2, ((A, B),)),))
    d = RuleSystem("D", LANG, (TupleRule("r", 2, ((A, B), (B, C))),))
    both = meet([RuleOperator(c), RuleOperator(d)])
    assert both.apply(_sub("a")) == _sub("a", "b")
    # the systems share no whole relation, so the intersection generates
    # the identity, strictly below the meet
    generated = RuleOperator(intersect_systems([c, d]))
    assert equal_ops(generated, Identity(), LANG)
    assert not equal_ops(generated, tabulate(both, LANG), LANG)


def test_rulewise_intersection_also_undershoots_the_meet():
    e = RuleSystem("E", LANG, (TupleRule("r", 2, ((A, B), (B, C))),))
    f = RuleSystem("F", LANG, (TupleRule("r", 2, ((A, B), (B, D), (D, C))),))
    both = meet([RuleOperator(e), RuleOperator(f)])
    assert both.apply(_sub("a")) == _sub("a", "b", "c")
    rulewise = RuleOperator(intersect_rulewise(e, f))
    assert rulewise.apply(_sub("a")) == _sub("a", "b")
    assert leq(rulewise, both, LANG)
    assert not equal_ops(rulewise, tabulate(both, LANG), LANG)


# ---------------------------------------------------------------------------
# pointwise union vs the true least upper bound


def test_pointwise_union_is_not_idempotent():
    b_op = RuleOperator(pair_chain_system())
    r_op = RuleOperator(single_step_system())
    k = cup_join(b_op, r_op)
    assert k.apply(_sub("a")) == _sub("a", "b", "c")
    assert k.apply(k.apply(_sub("a"))) == _sub("a", "b", "c", "d")
    report = check_axioms(k, LANG)
    assert report.extensive and report.monotone
    assert not report.idempotent
    assert counterexample_reproduces(k, report.counterexample)


def test_sup_is_the_least_upper_bound():
    b_op = RuleOperator(pair_chain_system())
    r_op = RuleOperator(single_step_system())
    lub = sup_w([b_op, r_op], LANG)
    assert lub.apply(_sub("a")) == _sub("a", "b", "c", "d")
    assert check_axioms(lub, LANG).ok
    assert leq(b_op, lub, LANG) and leq(r_op, lub, LANG)
    # saturating the union of the systems lands on the same operator
    merged = RuleOperator(union_systems([pair_chain_system(), single_step_system()]))
    assert equal_ops(lub, merged, LANG)
    # least: no closed set of the union is missing from lub's family
    for s in all_subsets(LANG):
        if merged.apply(s) == s:
            assert lub.apply(s) == s


def test_sup_closes_within_the_sets_every_operand_fixes():
    # a -> b -> c within two steps: {a} reaches {a,b}, which is not fixed
    language = ExplicitLanguage.of_tokens("abc")
    a, b, c = language.elements
    two_steps = BoundedOperator(
        RuleSystem("chain", language, (TupleRule("step", 2, ((a, b), (b, c))),)), 2
    )
    lub = sup_w([two_steps], language)
    assert leq(two_steps, lub, language)
    assert FiniteSubset(language, (a, b)) not in lub.closed_sets
    assert all(two_steps.apply(s) == s for s in lub.closed_sets)


def test_sup_rejects_operators_that_move_the_whole_language():
    shrink = TableOperator(LANG, {s: FiniteSubset.empty(LANG) for s in all_subsets(LANG)})
    with pytest.raises(UsageError, match="fix the whole language"):
        sup_w([shrink], LANG)
    with pytest.raises(UsageError):
        sup_w([], LANG)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=10_000))
def test_sup_of_generated_operators_equals_union_saturation(seed):
    language = small_language(4)
    rng = seeded(seed, "sup")
    systems = [random_system(rng, language) for _ in range(2)]
    ops = [RuleOperator(s) for s in systems]
    assert equal_ops(
        sup_w(ops, language), RuleOperator(union_systems(systems)), language
    )


# ---------------------------------------------------------------------------
# closure families


def test_closure_family_operator_requires_the_top():
    family = [_sub("a", "b", "c", "d"), _sub("a"), _sub("b", "c")]
    op = from_closure_family(family, LANG)
    assert op.apply(_sub("a")) == _sub("a")
    assert op.apply(_sub("b")) == _sub("b", "c")
    assert op.apply(_sub("a", "b")) == _sub("a", "b", "c", "d")
    with pytest.raises(UsageError, match="whole language"):
        from_closure_family([_sub("a")], LANG)


def test_closure_family_need_not_be_intersection_closed_to_build():
    # {a,b} and {b,c} without {b}: the operator glues by intersection anyway
    family = [_sub("a", "b", "c", "d"), _sub("a", "b"), _sub("b", "c")]
    op = from_closure_family(family, LANG)
    assert op.apply(_sub("b")) == _sub("b")
    assert check_axioms(op, LANG).ok


# ---------------------------------------------------------------------------
# an infinite meet with a closed-form infimum


def test_prefix_adjoin_family_members_and_infimum():
    language = EnumeratedLanguage.prefixed("f")
    family = prefix_adjoin_family(language)
    f = [Element(f"f{i}") for i in range(6)]

    third = family.member(3)
    with_prefix = FiniteSubset(language, (f[1], f[2], f[3]))
    assert f[0] in third.apply(with_prefix)
    assert family.member(4).apply(with_prefix) == with_prefix  # f4 missing
    with pytest.raises(UsageError):
        family.member(0)

    # every finite set misses some prefix, so the infimum fixes it
    finite = FiniteSubset(language, tuple(f[1:6]))
    assert family.apply(finite) == finite
    # a cofinite set containing every f1, f2, ... gains f0
    almost_all = CofiniteSubset(language, (f[0],))
    assert f[0] in family.apply(almost_all)


def test_prefix_adjoin_members_agree_with_the_infimum_on_finite_sets():
    language = EnumeratedLanguage.prefixed("f")
    family = prefix_adjoin_family(language)
    rng = seeded(31, "family")
    elements = [language.element(i) for i in range(1, 9)]
    for _ in range(40):
        picked = FiniteSubset(
            language, tuple(rng.sample(elements, rng.randint(0, 8)))
        )
        meet_value = family.apply(picked)
        assert meet_value == picked
        for n in (1, 2, 3, 8):
            assert meet_value.is_subset_of(family.member(n).apply(picked))


# ---------------------------------------------------------------------------
# axiom checking machinery


def test_check_axioms_reports_the_first_failing_axiom():
    shrink = TableOperator(LANG, {s: FiniteSubset.empty(LANG) for s in all_subsets(LANG)})
    report = check_axioms(shrink, LANG)
    assert not report.extensive
    assert report.counterexample.axiom == "extensive"
    assert counterexample_reproduces(shrink, report.counterexample)

    # grows strict subsets only: extensive but not monotone
    full = FiniteSubset(LANG, LANG.elements)
    bumpy = TableOperator(
        LANG,
        {s: (full if len(s.members) == 1 else s) for s in all_subsets(LANG)},
    )
    report = check_axioms(bumpy, LANG)
    assert report.extensive and not report.monotone
    assert report.counterexample.axiom == "monotone"
    x, y = report.counterexample.subsets
    assert x.is_subset_of(y)
    assert counterexample_reproduces(bumpy, report.counterexample)


@settings(deadline=None, max_examples=300)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.integers(min_value=0, max_value=(1 << n) - 1), min_size=1 << n, max_size=1 << n
        )
    )
)
def test_check_axioms_matches_the_literal_definitions(out):
    language = small_language(len(out).bit_length() - 1)
    every = subsets(language)
    op = TableOperator(language, {s: every[image] for s, image in zip(every, out)})
    assert check_axioms(op, language) == axiom_report(out, language)


def test_check_axioms_enforces_the_exhaustiveness_bound():
    wide = small_language(7)
    with pytest.raises(UsageError, match="bound"):
        check_axioms(Identity(), wide)
    assert check_axioms(Identity(), wide, bound=7).ok
    with pytest.raises(UsageError):
        leq(Identity(), Unit(), wide)
    with pytest.raises(UsageError):
        equal_ops(Identity(), Identity(), wide)


def test_counterexample_reproduces_a_finite_character_failure():
    from conseq.operators import AxiomCounterexample

    # inputs of one element gain d; so op({a,b}) = {a,b} misses op({a}) = {a,d}
    grow_singletons = TableOperator(
        LANG,
        {s: (s.union(_sub("d")) if len(s.members) == 1 else s) for s in all_subsets(LANG)},
    )
    assert counterexample_reproduces(
        grow_singletons, AxiomCounterexample("finite_character", (_sub("a", "b"),))
    )
    assert not counterexample_reproduces(
        Identity(), AxiomCounterexample("finite_character", (_sub("a", "b"),))
    )


def test_counterexample_reproduces_rejects_unknown_axioms():
    from conseq.operators import AxiomCounterexample

    with pytest.raises(UsageError):
        counterexample_reproduces(
            Identity(), AxiomCounterexample("shiny", (_sub("a"),))
        )


# ---------------------------------------------------------------------------
# the ceiling on 2^n image tables


def _chain(n):
    names = tuple(Element(f"e{i:02d}") for i in range(n))
    steps = TupleRule("step", 2, tuple(zip(names, names[1:])))
    return RuleSystem("chain", ExplicitLanguage(names), (steps,))


def test_tables_past_the_ceiling_are_refused_before_anything_is_allocated(monkeypatch):
    def no_table(op, language):
        raise AssertionError(f"{op!r} built a table over {len(language)} elements")

    for kind in (RuleOperator, BoundedOperator, MeetOperator):
        monkeypatch.setattr(kind, "_image_masks", no_table)
    n = 40  # an unguarded [None] * 2^40 fails at once rather than filling memory
    system = _chain(n)
    language, op = system.language, RuleOperator(system)
    refusals = {
        "table": lambda: TableOperator(language, {}),
        "tabulate": lambda: tabulate(op, language),
        "check_axioms": lambda: check_axioms(op, language, bound=n),
        "equal_ops": lambda: equal_ops(op, op, language, bound=n),
        "sup_w": lambda: sup_w([op], language, bound=n),
        "meet": lambda: tabulate(meet([op, BoundedOperator(system, 2)]), language),
    }
    expected = (
        f"language has {n} elements; a table of all 2^{n} subsets is refused "
        f"above {MAX_TABLE_ELEMENTS} elements"
    )
    tracemalloc.start()
    try:
        for name, refuse in refusals.items():
            with pytest.raises(UsageError) as info:
                refuse()
            assert str(info.value) == expected, name
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_the_ceiling_admits_a_table_of_exactly_its_size(monkeypatch):
    monkeypatch.setattr(operators, "MAX_TABLE_ELEMENTS", 4)
    system = _chain(4)
    frozen = tabulate(RuleOperator(system), system.language)
    assert check_axioms(frozen, system.language).ok
    wider = _chain(5)
    with pytest.raises(UsageError, match="2\\^5 subsets is refused above 4 elements"):
        tabulate(RuleOperator(wider), wider.language)
    with pytest.raises(UsageError, match="2\\^5 subsets is refused above 4 elements"):
        TableOperator(wider.language, {})


def test_checks_of_tabulated_operands_build_each_operand_table_once(monkeypatch):
    built = []
    image_masks = BoundedOperator._image_masks

    def counted(op, language):
        built.append(op)
        return image_masks(op, language)

    monkeypatch.setattr(BoundedOperator, "_image_masks", counted)
    chain = _chain(6)
    language = chain.language
    names = language.elements
    joins = TupleRule("join", 3, tuple(zip(names, names[1:], names[2:])))
    first = BoundedOperator(chain, 2)
    second = BoundedOperator(RuleSystem("joins", language, (joins,)), 3)
    tables = [tabulate(first, language), tabulate(second, language)]
    assert built == [first, second]
    reports = [check_axioms(meet(tables), language) for _ in range(3)]
    reports.append(check_axioms(cup_join(*tables), language))
    assert built == [first, second]
    assert reports[0] == reports[1] == reports[2] == check_axioms(meet([first, second]), language)
    assert reports[3] == check_axioms(cup_join(first, second), language)
    assert built == [first, second] * 3


# ---------------------------------------------------------------------------
# refusals


F = EnumeratedLanguage("f")
F_SYSTEM = RuleSystem("f", F, ())
COFINITE = CofiniteSubset.full(F)


class _ReturnsCofinite:
    """An apply-only operator whose answer is not a finite subset."""

    def apply(self, subset):
        return COFINITE


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: TableOperator(F, {}), UsageError,
         "table-backed operators need an explicit finite language"),
        (lambda: operators.ClosureFamilyOperator(F, []), UsageError,
         "closure families need an explicit finite language"),
        (lambda: canonical_system(Identity(), F), UsageError,
         "canonical systems need an explicit finite language"),
        (lambda: RuleOperator(F_SYSTEM).apply(COFINITE), UsageError,
         "rule-backed operators take finite subsets"),
        (lambda: BoundedOperator(F_SYSTEM, 2).apply(COFINITE), UsageError,
         "step-bounded operators take finite subsets"),
        (lambda: tabulate(Identity(), LANG).apply(COFINITE), UsageError,
         "table-backed operators take finite subsets"),
        (lambda: from_closure_family([_sub("a", "b", "c", "d")], LANG).apply(COFINITE), UsageError,
         "closure-family operators take finite subsets"),
        (lambda: check_axioms(_ReturnsCofinite(), LANG), DomainError,
         "operator returned a non-finite subset over a finite language"),
        (lambda: F.element(-1), DomainError, "enumeration index must be non-negative"),
    ],
    ids=[
        "table-enumerated", "closure-family-enumerated", "canonical-enumerated",
        "rule-apply-cofinite", "bounded-apply-cofinite", "table-apply-cofinite",
        "closure-family-apply-cofinite", "apply-only-non-finite",
        "negative-enumeration-index",
    ],
)
def test_refusals_give_their_messages(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message


@pytest.mark.parametrize("kind", [RuleOperator, lambda system: Identity()], ids=["bitset", "table"])
def test_closed_family_queries_refuse_in_order_before_building_anything(kind, monkeypatch):
    def nothing_built(op, language):
        raise AssertionError(f"{op!r} built a bitset or table over {len(language)} elements")

    for owner, kernel in ((operators.Operator, "_image_masks"), (RuleOperator, "_image_masks"),
                          (RuleOperator, "_closed_masks")):
        monkeypatch.setattr(owner, kernel, nothing_built)
    chain = _chain(40)
    cases = [
        (F_SYSTEM, {}, "exhaustive checks need an explicit finite language"),
        (F_SYSTEM, {"bound": 40}, "exhaustive checks need an explicit finite language"),
        (chain, {}, "language has 40 elements, over the exhaustiveness bound 6; "
                    "raise the bound or check sampled subsets yourself"),
        (chain, {"bound": 40}, "language has 40 elements; a table of all 2^40 subsets is refused "
                               "above 22 elements"),
    ]
    for system, bound, message in cases:
        op, language = kind(system), system.language
        queries = {
            "closed_systems": lambda: operators.closed_systems(op, language, **bound),
            "sup_w": lambda: sup_w([op, op], language, **bound),
            "leq": lambda: leq(op, op, language, **bound),
            "equal_ops": lambda: equal_ops(op, op, language, **bound),
        }
        for name, query in queries.items():
            with pytest.raises(UsageError) as refused:
                query()
            assert str(refused.value) == message, (name, bound)
    with pytest.raises(UsageError) as refused:
        sup_w([], F)
    assert str(refused.value) == "sup needs at least one operand"
