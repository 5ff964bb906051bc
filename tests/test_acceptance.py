"""Acceptance suite: one test per shipped guarantee, each printing a
single PASS/FAIL verdict line.

Run `pytest tests/test_acceptance.py -v -s` to see every verdict; a
FAIL line is always followed by the assertion failure that explains it.
"""

import itertools

from conseq.engine import (
    check_derivation,
    intersect_rulewise,
    intersect_systems,
    min_derivation_size,
    permute_premises,
    saturate,
    union_systems,
)
from conseq.errors import UsageError
from conseq.language import (
    CofiniteSubset,
    Element,
    EnumeratedLanguage,
    ExplicitLanguage,
    FiniteSubset,
)
from conseq.operators import (
    AdjoinIfContains,
    AdjoinIfIntersects,
    BoundedOperator,
    Identity,
    RuleOperator,
    canonical_system,
    check_axioms,
    closed_systems,
    cup_join,
    equal_ops,
    from_closure_family,
    join_uplus,
    meet,
    meet_cap,
    overlap_trigger_system,
    prefix_adjoin_family,
    sup_w,
    superset_trigger_system,
)
from conseq import propositional as pd
from conseq.rules import RuleSystem, TupleRule
from conseq.sampling import random_system, seeded, small_language

from reference import random_subset, random_table_operator


def sample_systems(seed, count, *, language_size=5):
    rng = seeded(seed, "systems")
    language = small_language(language_size)
    return [random_system(rng, language) for _ in range(count)]


def _verdict(number: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance check {number} ({label}) failed"


def test_1_generated_operators_always_satisfy_the_closure_axioms():
    language = small_language(5)
    failures = [
        system.name
        for system in sample_systems(0, 200, language_size=5)
        if not check_axioms(RuleOperator(system), language).ok
    ]
    _verdict(1, "200-generated-operators-pass-all-axioms", not failures)


def test_2_union_saturation_equals_the_weak_join():
    language = small_language(5)
    rng = seeded(0, "acceptance-union")
    mismatches = 0
    for t in range(50):
        count = 2 if t % 2 == 0 else 3
        systems = [random_system(rng, language) for _ in range(count)]
        union_op = RuleOperator(union_systems(systems))
        weak_join = sup_w([RuleOperator(s) for s in systems], language)
        if not equal_ops(union_op, weak_join, language):
            mismatches += 1
    _verdict(2, "50-union-vs-weak-join-agreements", mismatches == 0)


def test_3_step_bounded_deduction_loses_exactly_idempotence():
    language = ExplicitLanguage.of_tokens(["x1", "x2", "a", "b"])
    x1, x2, a, b = (Element(n) for n in ("x1", "x2", "a", "b"))
    system = RuleSystem(
        "step-limited",
        language,
        (TupleRule("to-a", 3, ((x1, x2, a),)), TupleRule("to-b", 2, ((a, b),))),
    )
    op = BoundedOperator(system, 3)
    x = FiniteSubset.of(language, ["x1", "x2"])

    once = op.apply(x)
    twice = op.apply(once)
    report = check_axioms(op, language)
    ok = (
        str(once) == "{a,x1,x2}"
        and str(twice) == "{a,b,x1,x2}"
        and report.extensive
        and report.monotone
        and not report.idempotent
        and report.finite_character
        and report.counterexample.axiom == "idempotent"
        and report.counterexample.subsets == (x,)
        and min_derivation_size(system, x, a, cap=8) == 3
        and min_derivation_size(system, x, b, cap=8) == 4
    )
    _verdict(3, "three-step-bound-fails-only-idempotence", ok)


def test_4_pointwise_union_and_system_intersections_miss_the_lattice():
    language = ExplicitLanguage.of_tokens(["a", "b", "c", "d"])
    a, b, c, d = (Element(n) for n in "abcd")

    def sub(*names):
        return FiniteSubset.of(language, list(names))

    b_sys = RuleSystem("B", language, (TupleRule("r", 2, ((a, b), (c, d))),))
    r_sys = RuleSystem("R", language, (TupleRule("r", 2, ((a, c),)),))
    k = cup_join(RuleOperator(b_sys), RuleOperator(r_sys))
    cup_ok = (
        k.apply(sub("a")) == sub("a", "b", "c")
        and k.apply(k.apply(sub("a"))) == sub("a", "b", "c", "d")
        and not check_axioms(k, language).idempotent
    )

    c_sys = RuleSystem("C", language, (TupleRule("r", 2, ((a, b),)),))
    d_sys = RuleSystem("D", language, (TupleRule("r", 2, ((a, b), (b, c))),))
    shared = RuleOperator(intersect_systems([c_sys, d_sys]))
    meet_cd = meet([RuleOperator(c_sys), RuleOperator(d_sys)])
    whole_ok = (
        equal_ops(shared, Identity(), language)
        and meet_cd.apply(sub("a")) == sub("a", "b")
    )

    e_sys = RuleSystem("E", language, (TupleRule("r", 2, ((a, b), (b, c))),))
    f_sys = RuleSystem("F", language, (TupleRule("r", 2, ((a, b), (b, d), (d, c))),))
    rulewise = RuleOperator(intersect_rulewise(e_sys, f_sys))
    meet_ef = meet([RuleOperator(e_sys), RuleOperator(f_sys)])
    rulewise_ok = (
        rulewise.apply(sub("a")) == sub("a", "b")
        and meet_ef.apply(sub("a")) == sub("a", "b", "c")
    )

    _verdict(
        4,
        "cup-join-and-system-intersections-disagree-with-lattice",
        cup_ok and whole_ok and rulewise_ok,
    )


def test_5_trigger_operators_equal_their_generated_systems():
    language = small_language(5)
    rng = seeded(0, "acceptance-trigger")
    mismatches = 0
    for _ in range(40):
        extra = random_subset(rng, language)
        trigger = random_subset(rng, language)
        overlap = AdjoinIfIntersects(extra, trigger)
        superset = AdjoinIfContains(extra, trigger)
        if not equal_ops(
            overlap, RuleOperator(overlap_trigger_system(extra, trigger)), language
        ):
            mismatches += 1
        if not equal_ops(
            superset,
            RuleOperator(superset_trigger_system(extra, trigger)),
            language,
        ):
            mismatches += 1
        if not (check_axioms(overlap, language).ok and check_axioms(superset, language).ok):
            mismatches += 1
    _verdict(5, "40-trigger-pairs-match-generated-systems", mismatches == 0)


def test_6_infinite_meet_family_fixes_every_finite_set():
    language = EnumeratedLanguage.prefixed("f")
    family = prefix_adjoin_family(language)
    f0 = language.element(0)

    # positive witness: a set containing f1, f2, ... does gain f0
    almost_all = CofiniteSubset(language, (f0,))
    gains = f0 in family.apply(almost_all)

    rng = seeded(0, "acceptance-family")
    moved = 0
    candidates = [language.element(i) for i in range(1, 65)]
    for _ in range(64):
        picked = FiniteSubset(
            language, tuple(rng.sample(candidates, rng.randint(0, 12)))
        )
        if family.apply(picked) != picked:
            moved += 1
    first_eight = [language.element(i) for i in range(1, 9)]
    for mask in range(1 << 8):
        picked = FiniteSubset(
            language,
            tuple(e for i, e in enumerate(first_eight) if mask >> i & 1),
        )
        if family.apply(picked) != picked:
            moved += 1
        # the meet stays below each member on every input
        for n in (1, 8):
            if not family.apply(picked).is_subset_of(family.member(n).apply(picked)):
                moved += 1
    _verdict(6, "prefix-family-meet-fixes-all-320-finite-sets", gains and moved == 0)


def test_7_restricted_deduction_variants_reach_atom0_only_via_the_bridge():
    p0 = pd.Atom(0)
    variants = ("restricted-mp", "missing-atom", "positive")

    derivations_ok = True
    for n in range(1, 5):
        negs = pd.Impl(pd.Neg(p0), pd.Neg(pd.Atom(n)))
        hyps = [negs, pd.Atom(n)]
        pool = pd.subformula_closure(
            hyps + [p0, pd.bridge_axiom(n)], 22, max_pool=1200
        )
        for variant in variants:
            system = pd.pd_system(variant, pool, n=n)
            hyp_subset = pd.formula_subset(system, hyps)
            result = saturate(system, hyp_subset)
            goal = pd.wff_element(p0)
            if goal not in result.closure:
                derivations_ok = False
                continue
            if not check_derivation(system, hyp_subset, result.witnesses[goal]):
                derivations_ok = False

    certificate = pd.certificate_non_derivable(
        "standard", [pd.Impl(pd.Atom(2), p0)], pd.Impl(pd.Atom(1), p0)
    )
    certified_ok = (
        isinstance(certificate, pd.Certified)
        and str(certificate.valuation) == "{P0=false, P1=true, P2=false}"
    )

    blocked_ok = True
    blocked_queries = {
        "restricted-mp": [pd.Impl(pd.Atom(2), p0), pd.Atom(2)],
        "missing-atom": [pd.Impl(pd.Neg(p0), pd.Neg(pd.Atom(2))), pd.Atom(2)],
        "positive": [pd.Impl(pd.Neg(p0), pd.Neg(pd.Atom(2))), pd.Atom(2)],
    }
    for variant, hyps in blocked_queries.items():
        evidence = pd.certificate_non_derivable(
            variant, hyps, p0, n=1, size_cap=22, max_pool=1200
        )
        if not isinstance(evidence, pd.BoundedEvidence):
            blocked_ok = False

    _verdict(
        7,
        "bridge-variants-derive-verify-certify-and-block",
        derivations_ok and certified_ok and blocked_ok,
    )


def test_8_canonical_systems_round_trip_and_premise_order_is_free():
    language = small_language(4)
    rng = seeded(0, "acceptance-canonical")
    round_trip_failures = 0
    op = None
    for _ in range(20):
        op = random_table_operator(rng, language)
        if not equal_ops(RuleOperator(canonical_system(op, language)), op, language):
            round_trip_failures += 1

    system = canonical_system(op, language)
    variants = [
        permute_premises(system, "from4", 0, p)
        for p in itertools.permutations(range(4))
    ]
    signatures = {v.rule("from4").tuples for v in variants}
    permuted_ok = len(signatures) == 24 and all(
        equal_ops(RuleOperator(v), op, language) for v in variants
    )
    _verdict(
        8,
        "20-canonical-round-trips-and-24-premise-orders",
        round_trip_failures == 0 and permuted_ok,
    )


def test_9_closed_set_families_form_the_expected_lattice():
    language = small_language(5)
    rng = seeded(0, "acceptance-lattice")
    failures = 0
    for _ in range(50):
        op = random_table_operator(rng, language)
        family = closed_systems(op, language)
        members = list(family)
        member_sets = {frozenset(m.members) for m in members}
        for x in members:
            for y in members:
                both = x.intersect(y)
                if frozenset(both.members) not in member_sets:
                    failures += 1
                try:
                    if meet_cap(op, x, y) != both:
                        failures += 1
                except UsageError:
                    failures += 1
                joined = join_uplus(op, x, y)
                least = None
                for z in members:
                    if x.is_subset_of(z) and y.is_subset_of(z):
                        least = z if least is None else least.intersect(z)
                if joined != least:
                    failures += 1
        if not equal_ops(from_closure_family(members, language), op, language):
            failures += 1
    _verdict(9, "50-closed-set-families-are-lattices", failures == 0)
