"""Named, replayable demonstrations of the library's core facts.

Each scenario builds a small construction and asserts its known
outcomes; reports are byte-deterministic for a given seed and trial
count, so they double as regression fixtures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from . import propositional as pd
from .engine import (
    check_derivation,
    intersect_rulewise,
    intersect_systems,
    min_derivation_size,
    permute_premises,
    union_systems,
)
from .errors import UsageError
from .language import (
    CofiniteSubset,
    Element,
    EnumeratedLanguage,
    ExplicitLanguage,
    FiniteSubset,
)
from .operators import (
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
    tabulate,
)
from .rules import RuleSystem, TupleRule
from .sampling import random_closure_family, random_system, seeded, small_language

# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class Assertion:
    name: str
    expected: str
    got: str

    @property
    def passed(self) -> bool:
        return self.expected == self.got

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"ASSERT {self.name}: {status} (expected={self.expected}, got={self.got})"


@dataclass(frozen=True)
class ScenarioReport:
    scenario_id: str
    assertions: tuple[Assertion, ...]

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def render(self) -> str:
        lines = [a.line() for a in self.assertions]
        lines.append(f"SCENARIO {self.scenario_id}: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _expect(name: str, expected: object, got: object) -> Assertion:
    return Assertion(name, str(expected), str(got))


# ---------------------------------------------------------------------------
# shared constructions


def _abcd() -> ExplicitLanguage:
    return ExplicitLanguage.of_tokens(["a", "b", "c", "d"])


def _pair_system(
    language: ExplicitLanguage, name: str, *relations: Sequence[tuple[str, str]]
) -> RuleSystem:
    rules = tuple(
        TupleRule(
            f"r{i}", 2, tuple((Element(x), Element(y)) for x, y in pairs)
        )
        for i, pairs in enumerate(relations)
    )
    return RuleSystem(name, language, rules)


def step_limited_example() -> tuple[RuleSystem, BoundedOperator, FiniteSubset]:
    """The three-step deduction bound: two chained rules over four
    elements, everything derivable in at most 3 numbered steps."""
    language = ExplicitLanguage.of_tokens(["x1", "x2", "a", "b"])
    x1, x2, a, b = Element("x1"), Element("x2"), Element("a"), Element("b")
    system = RuleSystem(
        "step-limited",
        language,
        (TupleRule("to-a", 3, ((x1, x2, a),)), TupleRule("to-b", 2, ((a, b),))),
    )
    return system, BoundedOperator(system, steps=3), FiniteSubset(language, (x1, x2))


# ---------------------------------------------------------------------------
# scenarios


def _scenario_axiom_suite(seed: int, trials: int) -> list[Assertion]:
    language = small_language(5)
    rng = seeded(seed, "axiom-suite")
    failures = 0
    for _ in range(trials):
        report = check_axioms(RuleOperator(random_system(rng, language)), language)
        if not report.ok:
            failures += 1
    return [
        _expect("systems-checked", trials, trials),
        _expect("axiom-failures", 0, failures),
    ]


def _scenario_step_limit(seed: int, trials: int) -> list[Assertion]:
    system, d, x = step_limited_example()
    language = system.language
    dx = d.apply(x)
    ddx = d.apply(dx)
    report = check_axioms(d, language)
    cex = report.counterexample
    return [
        _expect("D(X)", "{a,x1,x2}", dx),
        _expect("D(D(X))", "{a,b,x1,x2}", ddx),
        _expect("extensive", True, report.extensive),
        _expect("monotone", True, report.monotone),
        _expect("idempotent", False, report.idempotent),
        _expect("finite-character", True, report.finite_character),
        _expect("failing-axiom", "idempotent", cex.axiom if cex else "none"),
        _expect("failure-at", "{x1,x2}", cex.subsets[0] if cex else "none"),
        _expect("steps-to-a", 3, min_derivation_size(system, x, Element("a"), cap=8)),
        _expect("steps-to-b", 4, min_derivation_size(system, x, Element("b"), cap=8)),
    ]


def _scenario_cup_not_join(seed: int, trials: int) -> list[Assertion]:
    language = _abcd()
    b_op = RuleOperator(_pair_system(language, "B", [("a", "b"), ("c", "d")]))
    r_op = RuleOperator(_pair_system(language, "R", [("a", "c")]))
    k = cup_join(b_op, r_op)
    ka = k.apply(FiniteSubset.of(language, ["a"]))
    report = check_axioms(k, language)
    return [
        _expect("K({a})", "{a,b,c}", ka),
        _expect("K(K({a}))", "{a,b,c,d}", k.apply(ka)),
        _expect("extensive", True, report.extensive),
        _expect("monotone", True, report.monotone),
        _expect("idempotent", False, report.idempotent),
    ]


def _scenario_meet_counterexample(seed: int, trials: int) -> list[Assertion]:
    language = _abcd()
    a_set = FiniteSubset.of(language, ["a"])

    c_sys = _pair_system(language, "C", [("a", "b")])
    d_sys = _pair_system(language, "D", [("a", "b"), ("b", "c")])
    c_op, d_op = RuleOperator(c_sys), RuleOperator(d_sys)
    meet_cd = meet([c_op, d_op])
    shared = intersect_systems([c_sys, d_sys])
    shared_op = RuleOperator(shared)

    e_sys = _pair_system(language, "E", [("a", "b"), ("b", "c")])
    f_sys = _pair_system(language, "F", [("a", "b"), ("b", "d"), ("d", "c")])
    e_op, f_op = RuleOperator(e_sys), RuleOperator(f_sys)
    rulewise_op = RuleOperator(intersect_rulewise(e_sys, f_sys))

    return [
        _expect("C({a})", "{a,b}", c_op.apply(a_set)),
        _expect("D({a})", "{a,b,c}", d_op.apply(a_set)),
        _expect("meet-CD({a})", "{a,b}", meet_cd.apply(a_set)),
        _expect("shared-relations", 0, len(shared.rules)),
        _expect("shared-system({a})", "{a}", shared_op.apply(a_set)),
        _expect(
            "shared-system-is-identity", True, equal_ops(shared_op, Identity(), language)
        ),
        _expect(
            "shared-system-realizes-meet", False, equal_ops(shared_op, meet_cd, language)
        ),
        _expect("rulewise({a})", "{a,b}", rulewise_op.apply(a_set)),
        _expect("meet-EF({a})", "{a,b,c}", meet([e_op, f_op]).apply(a_set)),
        _expect(
            "rulewise-realizes-meet",
            False,
            equal_ops(rulewise_op, meet([e_op, f_op]), language),
        ),
    ]


def _scenario_meet_condition(seed: int, trials: int) -> list[Assertion]:
    language = ExplicitLanguage.of_tokens(["a", "b", "c"])
    g_sys = _pair_system(language, "G", [("a", "b")])
    d_sys = _pair_system(language, "D", [("a", "b")], [("b", "c")])
    shared = intersect_systems([g_sys, d_sys])
    g_op, d_op = RuleOperator(g_sys), RuleOperator(d_sys)
    return [
        _expect("shared-relations", 1, len(shared.rules)),
        _expect(
            "shared-generates-G", True, equal_ops(RuleOperator(shared), g_op, language)
        ),
        _expect(
            "G-is-the-meet", True, equal_ops(g_op, meet([g_op, d_op]), language)
        ),
    ]


def _scenario_trigger_operators(seed: int, trials: int) -> list[Assertion]:
    language = small_language(5)
    extra = FiniteSubset.of(language, ["e3", "e4"])
    trigger = FiniteSubset.of(language, ["e0", "e1"])

    overlap_op = AdjoinIfIntersects(extra, trigger)
    overlap_sys = overlap_trigger_system(extra, trigger)
    contains_op = AdjoinIfContains(extra, trigger)
    contains_sys = superset_trigger_system(extra, trigger)

    empty = FiniteSubset.empty(language)
    return [
        _expect(
            "overlap-op-equals-system",
            True,
            equal_ops(overlap_op, RuleOperator(overlap_sys), language),
        ),
        _expect("overlap-axioms", True, check_axioms(overlap_op, language).ok),
        _expect(
            "contains-op-equals-system",
            True,
            equal_ops(contains_op, RuleOperator(contains_sys), language),
        ),
        _expect("contains-axioms", True, check_axioms(contains_op, language).ok),
        _expect(
            "empty-extra-is-identity",
            True,
            equal_ops(AdjoinIfIntersects(empty, trigger), Identity(), language),
        ),
        _expect(
            "empty-extra-system-is-identity",
            True,
            equal_ops(
                RuleOperator(overlap_trigger_system(empty, trigger)), Identity(), language
            ),
        ),
        _expect(
            "empty-trigger-contains-always-adjoins",
            True,
            equal_ops(
                AdjoinIfContains(extra, empty),
                RuleOperator(superset_trigger_system(extra, empty)),
                language,
            ),
        ),
    ]


def _scenario_meet_family(seed: int, trials: int) -> list[Assertion]:
    language = EnumeratedLanguage.prefixed("f")
    family = prefix_adjoin_family(language)
    f0 = language.element(0)
    cofinite = CofiniteSubset.of(language, [f0])

    base = [language.element(i) for i in range(1, 9)]
    violations = 0
    checked = 0
    for mask in range(1 << 8):
        finite = FiniteSubset(
            language, tuple(base[i] for i in range(8) if mask >> i & 1)
        )
        checked += 1
        if f0 in family.apply(finite):
            violations += 1
    rng = seeded(seed, "meet-family")
    pool = [language.element(i) for i in range(1, 13)]
    for _ in range(trials):
        finite = FiniteSubset(language, tuple(rng.sample(pool, rng.randint(0, len(pool)))))
        checked += 1
        if f0 in family.apply(finite):
            violations += 1

    below_members = all(
        family.apply(FiniteSubset(language, tuple(base[:n])))
        .is_subset_of(family.member(n).apply(FiniteSubset(language, tuple(base[:n]))))
        for n in range(1, 9)
    ) and family.apply(cofinite).is_subset_of(family.member(3).apply(cofinite))

    return [
        _expect("meet-adds-f0-on-cofinite", True, f0 in family.apply(cofinite)),
        _expect("finite-inputs-checked", 256 + trials, checked),
        _expect("meet-adds-f0-on-finite", 0, violations),
        _expect("meet-below-members", True, below_members),
        _expect(
            "member-adds-f0-at-own-prefix",
            True,
            f0 in family.member(3).apply(FiniteSubset(language, tuple(base[:3]))),
        ),
        _expect(
            "member-needs-whole-prefix",
            False,
            f0 in family.member(3).apply(FiniteSubset(language, tuple(base[:2]))),
        ),
    ]


def _derivable_with_verified_witness(
    variant: str, hypotheses: list[pd.Wff], goal: pd.Wff, n: int
) -> bool:
    answer = pd.query(variant, hypotheses, goal, n=n, size_cap=22, max_pool=1200)
    if not isinstance(answer, pd.PoolSearch):
        return False
    witness = answer.result.witnesses[pd.wff_element(goal)]
    return bool(check_derivation(answer.system, answer.hypotheses, witness))


def _detachment_pair(n: int) -> list[pd.Wff]:
    """`(Pn -> P0), Pn`: restricted detachment at index n reaches P0."""
    return [pd.Impl(pd.Atom(n), pd.Atom(0)), pd.Atom(n)]


def _bridge_pair(n: int) -> list[pd.Wff]:
    """`(~P0 -> ~Pn), Pn`: the bridge variants at index n reach P0."""
    return [pd.Impl(pd.Neg(pd.Atom(0)), pd.Neg(pd.Atom(n))), pd.Atom(n)]


def _p0_by_index(variant: str, pair: Callable[[int], list[pd.Wff]]) -> tuple[int, str]:
    """For `variant`: how many of n = 1..4 derive P0 from `pair(n)` with
    a checked witness, and the kind of evidence that P0 does not follow
    from `pair(1) + pair(2)` at index 3."""
    p0 = pd.Atom(0)
    derivable = sum(
        _derivable_with_verified_witness(variant, pair(n), p0, n) for n in range(1, 5)
    )
    evidence = pd.certificate_non_derivable(
        variant, pair(1) + pair(2), p0, n=3, size_cap=22, max_pool=1200
    )
    return derivable, type(evidence).__name__


def _bridged_pool() -> tuple[pd.Wff, ...]:
    """The closure of `(~P0 -> ~P1), P1, P0` and bridges 1 and 2 at cap 22."""
    return pd.subformula_closure(
        [*_bridge_pair(1), pd.Atom(0), pd.bridge_axiom(1), pd.bridge_axiom(2)],
        size_cap=22,
        max_pool=1200,
    )


def _min_steps_to_p0(
    variant: str, pool: Sequence[pd.Wff], hypotheses: list[pd.Wff], cap: int
) -> int | None:
    system = pd.pd_system(variant, pool, n=1)
    return min_derivation_size(
        system, pd.formula_subset(system, hypotheses), pd.wff_element(pd.Atom(0)), cap=cap
    )


def _in_closure(system: RuleSystem, hypotheses: list[pd.Wff], goal: pd.Wff) -> bool:
    """Whether `goal` follows from `hypotheses`, read off the closure alone."""
    closure = system.grounded.image(pd.formula_subset(system, hypotheses))
    return pd.wff_element(goal) in closure


def _scenario_restricted_detachment(seed: int, trials: int) -> list[Assertion]:
    p0 = pd.Atom(0)
    derivable, evidence = _p0_by_index("restricted-mp", _detachment_pair)
    small_pool = pd.subformula_closure(_detachment_pair(1), size_cap=8)
    min_steps = _min_steps_to_p0("restricted-mp", small_pool, _detachment_pair(1), cap=6)

    certificate = pd.certificate_non_derivable(
        "restricted-mp", [pd.Impl(pd.Atom(2), p0), pd.Atom(1)], p0, n=3
    )
    valuation = (
        str(certificate.valuation) if isinstance(certificate, pd.Certified) else "none"
    )

    return [
        _expect("P0-derivable-when-index-matches", "4/4", f"{derivable}/4"),
        _expect("min-steps-direct-detachment", 3, min_steps),
        _expect("mismatched-pair-certificate", "Certified", type(certificate).__name__),
        _expect("certificate-valuation", "{P0=false, P1=true, P2=false}", valuation),
        _expect("next-index-blocks-search", "BoundedEvidence", evidence),
    ]


def _scenario_missing_atom(seed: int, trials: int) -> list[Assertion]:
    p0 = pd.Atom(0)
    derivable, evidence = _p0_by_index("missing-atom", _bridge_pair)
    small_pool = tuple(
        sorted(
            set().union(
                *(pd.subformulas(w) for w in (*_bridge_pair(1), p0, pd.bridge_axiom(1)))
            ),
            key=pd.wff_token,
        )
    )
    min_steps = _min_steps_to_p0("missing-atom", small_pool, _bridge_pair(1), cap=7)
    wide_sys = pd.pd_system("missing-atom", _bridged_pool(), n=1)

    return [
        _expect("P0-derivable-via-bridge", "4/4", f"{derivable}/4"),
        _expect("min-steps-via-bridge", 5, min_steps),
        _expect("P0-not-a-theorem", False, _in_closure(wide_sys, [], p0)),
        _expect(
            "other-bridge-not-derivable",
            False,
            _in_closure(wide_sys, _bridge_pair(1), pd.bridge_axiom(2)),
        ),
        _expect("next-index-blocks-search", "BoundedEvidence", evidence),
    ]


def _scenario_positive_axioms(seed: int, trials: int) -> list[Assertion]:
    p0 = pd.Atom(0)
    bridge = pd.bridge_axiom(1)
    self_flip = pd.Impl(pd.Impl(pd.Neg(p0), pd.Neg(p0)), pd.Impl(p0, p0))
    derivable, evidence = _p0_by_index("positive", _bridge_pair)
    pool = _bridged_pool()
    sys_one = pd.pd_system("positive", pool, n=1)
    sys_two = pd.pd_system("positive", pool, n=2)

    return [
        _expect(
            "negation-erasure-keeps-symmetric-flip",
            True,
            pd.is_tautology(pd.h_transform(self_flip)),
        ),
        _expect(
            "negation-erasure-drops-bridge",
            False,
            pd.is_tautology(pd.h_transform(bridge)),
        ),
        _expect("P0-derivable-via-bridge", "4/4", f"{derivable}/4"),
        _expect("own-index-derives-P0", True, _in_closure(sys_one, _bridge_pair(1), p0)),
        _expect("other-index-does-not", False, _in_closure(sys_two, _bridge_pair(1), p0)),
        _expect("next-index-blocks-search", "BoundedEvidence", evidence),
    ]


def _scenario_adjoin_family(seed: int, trials: int) -> list[Assertion]:
    language = small_language(6, prefix="f")
    anchor = Element("f0")
    others = [Element(f"f{i}") for i in range(1, 6)]
    anchor_set = FiniteSubset(language, (anchor,))

    images = []
    mismatches = 0
    for mask in range(1, 1 << 5):
        grown = tuple(others[i] for i in range(5) if mask >> i & 1)
        system = RuleSystem(
            f"adjoin-{mask}",
            language,
            (TupleRule("grow", 2, tuple((anchor, x) for x in grown)),),
        )
        image = RuleOperator(system).apply(anchor_set)
        if image != FiniteSubset(language, (anchor,) + grown):
            mismatches += 1
        images.append(frozenset(image.members))
    sample = RuleSystem(
        "adjoin-sample",
        language,
        (TupleRule("grow", 2, tuple((anchor, x) for x in others[:2])),),
    )
    return [
        _expect("systems-built", 31, len(images)),
        _expect("image-mismatches", 0, mismatches),
        _expect("operators-pairwise-distinct", 31, len(set(images))),
        _expect(
            "sample-axioms", True, check_axioms(RuleOperator(sample), language).ok
        ),
    ]


def _scenario_canonical_permutations(seed: int, trials: int) -> list[Assertion]:
    language = small_language(4)
    rng = seeded(seed, "canonical")
    mismatches = 0
    op = None
    for _ in range(trials):
        op = tabulate(random_closure_family(rng, language), language)
        system = canonical_system(op, language)
        if not equal_ops(RuleOperator(system), op, language):
            mismatches += 1

    system = canonical_system(op, language)
    permutations = list(itertools.permutations(range(4)))
    variants = [permute_premises(system, "from4", 0, p) for p in permutations]
    signatures = {v.rule("from4").tuples for v in variants}
    same_operator = all(equal_ops(RuleOperator(v), op, language) for v in variants)

    identity_language = small_language(3)
    members = list(identity_language.elements)
    self_rules = []
    for mask in range(1, 1 << 3):
        chosen = tuple(members[i] for i in range(3) if mask >> i & 1)
        self_rules.append(
            TupleRule(
                f"self{mask}",
                len(chosen) + 1,
                tuple(chosen + (x,) for x in chosen),
            )
        )
    self_system = RuleSystem("self", identity_language, tuple(self_rules))

    return [
        _expect(f"round-trips-over-{trials}-operators", 0, mismatches),
        _expect("distinct-permuted-systems", 24, len(signatures)),
        _expect("permuted-systems-same-operator", True, same_operator),
        _expect(
            "self-rules-generate-identity",
            True,
            equal_ops(RuleOperator(self_system), Identity(), identity_language),
        ),
    ]


def _scenario_union_weak_join(seed: int, trials: int) -> list[Assertion]:
    language = small_language(5)
    rng = seeded(seed, "union-join")
    mismatches = 0
    for t in range(trials):
        count = 2 if t % 2 == 0 else 3
        systems = [random_system(rng, language) for _ in range(count)]
        union_op = RuleOperator(union_systems(systems))
        weak_join = sup_w([RuleOperator(s) for s in systems], language)
        if not equal_ops(union_op, weak_join, language):
            mismatches += 1
    return [
        _expect("trials", trials, trials),
        _expect("union-vs-weak-join-mismatches", 0, mismatches),
    ]


def _scenario_closed_set_lattice(seed: int, trials: int) -> list[Assertion]:
    language = small_language(5)
    rng = seeded(seed, "lattice")
    not_intersection_closed = 0
    join_mismatches = 0
    meet_mismatches = 0
    recovery_failures = 0
    for _ in range(trials):
        op = tabulate(random_closure_family(rng, language), language)
        family = closed_systems(op, language)
        members = list(family)
        member_sets = {frozenset(m.members) for m in members}
        for x in members:
            for y in members:
                both = x.intersect(y)
                if frozenset(both.members) not in member_sets:
                    not_intersection_closed += 1
                try:
                    if meet_cap(op, x, y) != both:
                        meet_mismatches += 1
                except UsageError:
                    meet_mismatches += 1
                joined = join_uplus(op, x, y)
                least = None
                for z in members:
                    if x.is_subset_of(z) and y.is_subset_of(z):
                        least = z if least is None else least.intersect(z)
                if joined != least:
                    join_mismatches += 1
        if not equal_ops(from_closure_family(members, language), op, language):
            recovery_failures += 1
    return [
        _expect("families-not-intersection-closed", 0, not_intersection_closed),
        _expect("meet-mismatches", 0, meet_mismatches),
        _expect("join-vs-least-superset-mismatches", 0, join_mismatches),
        _expect("operator-recovery-failures", 0, recovery_failures),
    ]


# ---------------------------------------------------------------------------
# registry


ScenarioFn = Callable[[int, int], list[Assertion]]

_REGISTRY: dict[str, tuple[ScenarioFn, int]] = {
    "2.1-axioms": (_scenario_axiom_suite, 200),
    "2.2": (_scenario_step_limit, 1),
    "cup-not-join": (_scenario_cup_not_join, 1),
    "meet-rules-counterexample": (_scenario_meet_counterexample, 1),
    "3.1": (_scenario_meet_condition, 1),
    "3.2": (_scenario_trigger_operators, 1),
    "3.3": (_scenario_meet_family, 64),
    "3.3.1": (_scenario_restricted_detachment, 1),
    "3.3.2": (_scenario_missing_atom, 1),
    "3.3.3": (_scenario_positive_axioms, 1),
    "3.4-construction": (_scenario_adjoin_family, 1),
    "3.5": (_scenario_canonical_permutations, 20),
    "thm-2.2-random": (_scenario_union_weak_join, 50),
    "csystem-lattice": (_scenario_closed_set_lattice, 50),
}


def scenario_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def run_scenario(scenario_id: str, *, seed: int = 0, trials: int | None = None) -> ScenarioReport:
    """Execute one named scenario and collect its assertions."""
    if scenario_id not in _REGISTRY:
        known = ", ".join(scenario_ids())
        raise UsageError(f"unknown scenario {scenario_id!r}; known scenarios: {known}")
    fn, default_trials = _REGISTRY[scenario_id]
    count = default_trials if trials is None else trials
    if count < 1:
        raise UsageError("trials must be at least 1")
    return ScenarioReport(scenario_id, tuple(fn(seed, count)))
