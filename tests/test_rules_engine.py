"""Rule systems and the deduction engine.

The minimal-derivation search is cross-checked against a brute-force
enumerator that literally tries every numbered step sequence.
"""

import copy
import itertools
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conseq import engine
from conseq.engine import (
    bounded_consequences,
    check_derivation,
    intersect_rulewise,
    intersect_systems,
    min_derivation_size,
    permute_premises,
    saturate,
    union_systems,
)
from conseq.errors import DomainError, UsageError
from conseq.fileformat import loads_system
from conseq.language import (
    Element,
    EnumeratedLanguage,
    ExplicitLanguage,
    FiniteSubset,
    all_subsets,
)
from conseq.operators import (
    ClosureFamilyOperator,
    RuleOperator,
    canonical_system,
    check_axioms,
    equal_ops,
)
from conseq.rules import (
    Apply,
    Derivation,
    Insert,
    RuleSystem,
    TupleRule,
    UnaryRule,
    rules_extensionally_equal,
    step_element,
)
from conseq.sampling import random_closure_family, random_system, seeded, small_language

from reference import (
    documented_order,
    family_of,
    moore_closure,
    oracle_min_steps,
    random_table_operator,
    replay_oracle,
    round_scan_saturate,
)


def _pairwise_closure_family(rng, language, *, max_generators=4):
    """The definitional `random_closure_family`: draw every generator,
    then add pairwise intersections until none is new."""
    n = len(language.elements)
    masks = {(1 << n) - 1}
    for _ in range(rng.randint(0, max_generators)):
        masks.add(rng.randrange(1 << n))
    return family_of(language, moore_closure(masks))


def test_random_closure_family_matches_the_pairwise_fixpoint():
    for n in range(1, 8):
        language = small_language(n)
        for max_generators in (0, 1, 4, 9):
            for seed in range(400):
                expected = _pairwise_closure_family(
                    random.Random(seed), language, max_generators=max_generators
                )
                got = random_closure_family(
                    random.Random(seed), language, max_generators=max_generators
                )
                assert got.closed_sets == expected, (n, max_generators, seed)


def test_random_closure_family_is_an_operator_in_the_family_order():
    op = random_closure_family(random.Random(25), small_language(4))
    assert type(op) is ClosureFamilyOperator
    assert [str(s) for s in op.closed_sets] == ["{}", "{e0,e3}", "{e1,e2}", "{e0,e1,e2,e3}"]


def _el(*names):
    return tuple(Element(n) for n in names)


LANG4 = ExplicitLanguage.of_tokens(["a", "b", "x1", "x2"])
X1, X2, A, B = _el("x1", "x2", "a", "b")


def step_system():
    return RuleSystem(
        "steps",
        LANG4,
        (TupleRule("to-a", 3, ((X1, X2, A),)), TupleRule("to-b", 2, ((A, B),))),
    )


# ---------------------------------------------------------------------------
# rule construction


def test_tuple_rule_validates_and_dedups():
    rule = TupleRule("r", 2, ((A, B), (A, B), (X1, A)))
    assert rule.tuples == ((A, B), (X1, A))
    with pytest.raises(UsageError):
        TupleRule("r", 2, ((A, B, X1),))
    with pytest.raises(UsageError):
        TupleRule("r", 1, ((A,),))


def test_system_validates_rule_ids_and_elements():
    with pytest.raises(UsageError):
        RuleSystem(
            "dup",
            LANG4,
            (TupleRule("r", 2, ((A, B),)), TupleRule("r", 2, ((B, A),))),
        )
    other = ExplicitLanguage.of_tokens(["z"])
    with pytest.raises(DomainError):
        RuleSystem("bad", other, (TupleRule("r", 2, ((A, B),)),))
    empty = RuleSystem("empty", LANG4, ())
    assert saturate(empty, FiniteSubset.of(LANG4, ["a"])).closure == FiniteSubset.of(
        LANG4, ["a"]
    )


def test_system_checks_each_distinct_tuple_element_once(monkeypatch):
    contains = ExplicitLanguage.__contains__
    asked = []

    def counted(language, element):
        asked.append(element)
        return contains(language, element)

    repeated = TupleRule("r", 3, ((X1, X2, A), (X2, X1, A), (A, A, B), (X1, A, B)))
    monkeypatch.setattr(ExplicitLanguage, "__contains__", counted)
    RuleSystem("s", LANG4, (repeated,))
    assert asked == []  # grounding numbers each element through `positions`, no membership pass
    y = Element("y")
    outsider = TupleRule("r", 2, ((A, B), (X1, y), (y, A), (Element("z"), A)))
    with pytest.raises(DomainError) as info:
        RuleSystem("s", LANG4, (outsider,))
    assert str(info.value) == "system s: rule r mentions y outside the language"


def _two_pass_construction_error(name, language, rules):
    """The error a system's construction must raise, or None: the
    validation systems ran before grounding became their membership
    check.  Ids first; then, rule by rule, an axiom set's language or
    each distinct tuple element in first-seen order."""
    if len({r.rule_id for r in rules}) != len(rules):
        ids = [r.rule_id for r in rules]
        return UsageError(f"system {name}: rule ids must be unique: {ids}")
    for rule in rules:
        if isinstance(rule, UnaryRule):
            if rule.axioms.language != language:
                return DomainError(f"system {name}: axioms of {rule.rule_id} use another language")
        else:
            for e in dict.fromkeys(itertools.chain.from_iterable(rule.tuples)):
                if e not in language:
                    return DomainError(
                        f"system {name}: rule {rule.rule_id} mentions {e} outside the language"
                    )
    return None


# members of both test languages, and names each language refuses:
# another prefix, a leading zero, a bare prefix, non-ASCII digits
_EXPLICIT_NAMES = ("a", "b", "c", "f1", "f2")
_ENUMERATED_NAMES = ("f0", "f1", "f2", "f10", "f123456789012")
_OUTSIDERS = ("y", "g1", "f01", "f", "f²", "a1")


@st.composite
def systems_with_injected_faults(draw):
    if draw(st.booleans()):
        language = ExplicitLanguage.of_tokens(_EXPLICIT_NAMES)
        members, others = _EXPLICIT_NAMES, (ExplicitLanguage.of_tokens("ab"), EnumeratedLanguage("f"))
    else:
        language = EnumeratedLanguage("f")
        members, others = _ENUMERATED_NAMES, (EnumeratedLanguage("g"), ExplicitLanguage.of_tokens(["f1"]))
    outsider_rate = draw(st.sampled_from((0.0, 0.05, 0.3)))
    ids = ("r0", "r1", "r2", "r3")

    def name():
        if draw(st.floats(0, 1)) < outsider_rate:
            return draw(st.sampled_from(_OUTSIDERS))
        return draw(st.sampled_from(members))

    rules = []
    for i in range(draw(st.integers(0, 4))):
        rule_id = draw(st.sampled_from(ids)) if draw(st.integers(0, 9)) == 0 else ids[i]
        if draw(st.integers(0, 3)) == 0:
            over = draw(st.sampled_from(others)) if draw(st.floats(0, 1)) < outsider_rate else language
            picked = draw(st.lists(st.sampled_from(members), max_size=3))
            picked = [n for n in picked if Element(n) in over]
            rules.append(UnaryRule(rule_id, FiniteSubset.of(over, picked)))
        else:
            arity = draw(st.integers(2, 4))
            count = draw(st.integers(0, 4))
            tuples = tuple(tuple(Element(name()) for _ in range(arity)) for _ in range(count))
            rules.append(TupleRule(rule_id, arity, tuples))
    return language, tuple(rules)


@settings(deadline=None, max_examples=300)
@given(systems_with_injected_faults())
def test_construction_raises_what_the_two_pass_validation_raised(drawn):
    language, rules = drawn
    expected = _two_pass_construction_error("s", language, rules)
    if expected is None:
        system = RuleSystem("s", language, rules)
        assert system.grounded.language == language
        return
    with pytest.raises((DomainError, UsageError)) as info:
        RuleSystem("s", language, rules)
    assert type(info.value) is type(expected)
    assert str(info.value) == str(expected)


def test_rule_lookup_by_id_leaves_equality_hashing_and_repr_alone():
    first, second = UnaryRule("ax", FiniteSubset.of(LANG4, ["a"])), TupleRule("r", 2, ((A, B),))
    system = RuleSystem("s", LANG4, (first, second))
    assert system.rule("ax") is first and system.rule("r") is second
    assert system.has_rule("r") and not system.has_rule("q")
    with pytest.raises(UsageError, match="system s: no rule named q"):
        system.rule("q")
    twin = RuleSystem("s", LANG4, (first, second))
    assert system == twin and hash(system) == hash(twin)
    assert "by_id" not in repr(system)
    assert system != RuleSystem("s", LANG4, (second, first))


def test_rules_extensionally_equal_ignores_ids_and_order():
    assert rules_extensionally_equal(
        TupleRule("p", 2, ((A, B), (X1, A))), TupleRule("q", 2, ((X1, A), (A, B)))
    )
    assert not rules_extensionally_equal(
        TupleRule("p", 2, ((A, B),)), TupleRule("q", 2, ((A, B), (X1, A)))
    )
    assert rules_extensionally_equal(
        UnaryRule("u", FiniteSubset.of(LANG4, ["a"])),
        UnaryRule("v", FiniteSubset.of(LANG4, ["a"])),
    )
    assert not rules_extensionally_equal(
        UnaryRule("u", FiniteSubset.of(LANG4, ["a"])), TupleRule("p", 2, ((A, B),))
    )


# ---------------------------------------------------------------------------
# saturation


def test_saturate_chained_rules():
    system = step_system()
    result = saturate(system, FiniteSubset.of(LANG4, ["x1", "x2"]))
    assert str(result.closure) == "{a,b,x1,x2}"
    for element, witness in result.witnesses.items():
        assert witness.final_element() == element
        assert check_derivation(system, FiniteSubset.of(LANG4, ["x1", "x2"]), witness)


def test_saturate_axioms_always_insertable():
    system = RuleSystem(
        "ax",
        LANG4,
        (UnaryRule("base", FiniteSubset.of(LANG4, ["a"])), TupleRule("r", 2, ((A, B),))),
    )
    result = saturate(system, FiniteSubset.empty(LANG4))
    assert str(result.closure) == "{a,b}"
    assert check_derivation(system, FiniteSubset.empty(LANG4), result.witnesses[B])


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=31))
def test_saturation_witnesses_always_verify(seed, mask):
    language = small_language(5)
    system = random_system(seeded(seed, "wit"), language)
    hypotheses = FiniteSubset(
        language, tuple(e for i, e in enumerate(language.elements) if mask >> i & 1)
    )
    result = saturate(system, hypotheses)
    assert hypotheses.is_subset_of(result.closure)
    for element, witness in result.witnesses.items():
        assert witness.final_element() == element
        outcome = check_derivation(system, hypotheses, witness)
        assert outcome, outcome.reason


# ---------------------------------------------------------------------------
# saturation against the round-scan oracle, the definitional loop with
# eager witnesses


def _assert_matches_oracle(system, hypotheses):
    result = saturate(system, hypotheses)
    closure, witnesses = round_scan_saturate(system, hypotheses)
    assert result.closure == closure
    assert list(result.witnesses) == list(witnesses)
    for element, witness in witnesses.items():
        assert result.witnesses[element].render() == witness.render()
    return result


@st.composite
def horn_chains(draw):
    """A chain e0 => e1 => ... => en plus alternative tuples of one to
    three premises, one rule per arity, tuples and rules in drawn order."""
    n = draw(st.integers(min_value=2, max_value=40))
    language = small_language(n + 1)
    e = language.elements
    by_arity = {2: [(e[i], e[i + 1]) for i in range(n)]}
    for _ in range(draw(st.integers(0, 2 * n))):
        # mostly premises just below the conclusion, as in a layered proof
        conclusion = draw(st.integers(1, n))
        low = draw(st.sampled_from([0, max(0, conclusion - 4)]))
        premises = draw(st.lists(st.integers(low, n), min_size=1, max_size=3))
        t = tuple(e[i] for i in premises) + (e[conclusion],)
        by_arity.setdefault(len(t), []).append(t)
    rules = []
    for arity, tuples in sorted(by_arity.items()):
        order = draw(st.permutations(range(len(tuples))))
        rules.append(TupleRule(f"r{arity}", arity, tuple(tuples[i] for i in order)))
    if draw(st.booleans()):
        rules.reverse()
    system = RuleSystem("chain", language, tuple(rules))
    hyp = draw(st.sets(st.sampled_from(e), min_size=1, max_size=3))
    return system, FiniteSubset(language, tuple(hyp))


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=63),
)
def test_saturate_matches_round_scan_oracle_on_random_systems(seed, size, mask):
    language = small_language(size)
    system = random_system(seeded(seed, "oracle"), language, max_rules=4, max_tuples=8)
    hypotheses = FiniteSubset(
        language, tuple(e for i, e in enumerate(language.elements) if mask >> i & 1)
    )
    _assert_matches_oracle(system, hypotheses)


@settings(deadline=None, max_examples=60)
@given(horn_chains())
def test_saturate_matches_round_scan_oracle_on_deep_horn_chains(chain):
    system, hypotheses = chain
    _assert_matches_oracle(system, hypotheses)


def test_a_tuple_fires_in_the_round_its_earlier_premise_was_derived():
    # round 1 fires a -> b, then (a, b) -> c sees b already and fires too,
    # ahead of a -> d; a round-delayed firing would order d before c
    a, b, c, d = _el("a", "b", "c", "d")
    language = ExplicitLanguage((a, b, c, d))
    system = RuleSystem(
        "same-round",
        language,
        (
            TupleRule("r1", 2, ((a, b),)),
            TupleRule("r2", 3, ((a, b, c),)),
            TupleRule("r3", 2, ((a, d),)),
        ),
    )
    result = _assert_matches_oracle(system, FiniteSubset(language, (a,)))
    assert list(result.witnesses) == [a, b, c, d]
    assert result.witnesses[c].render() == (
        "1. a  [hypothesis]\n2. b  [r1 from 1]\n3. c  [r2 from 1,2]"
    )


def test_witnesses_are_replayed_on_lookup_only(monkeypatch):
    replayed = []
    replay = engine._replay

    def counted(goal, *args):
        replayed.append(goal)
        return replay(goal, *args)

    monkeypatch.setattr(engine, "_replay", counted)
    result = saturate(step_system(), FiniteSubset.of(LANG4, ["x1", "x2"]))
    assert replayed == []
    assert result.witnesses[B].final_element() == B
    assert replayed == [B]


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=63),
)
def test_replayed_witnesses_match_the_constructor_built_oracle(seed, size, mask):
    language = small_language(size)
    system = random_system(seeded(seed, "replay"), language, max_rules=4, max_tuples=8)
    hypotheses = FiniteSubset(
        language, tuple(e for i, e in enumerate(language.elements) if mask >> i & 1)
    )
    witnesses = saturate(system, hypotheses).witnesses
    for element, witness in witnesses.items():
        expected = replay_oracle(element, witnesses._justification, witnesses._justification)
        assert [(type(s), vars(s)) for s in witness.steps] == [
            (type(s), vars(s)) for s in expected.steps
        ]
        assert witness == expected
        outcome = check_derivation(system, hypotheses, witness)
        assert outcome, outcome.reason
        for again in (pickle.loads(pickle.dumps(witness)), copy.deepcopy(witness)):
            assert again == witness
            assert [type(s) for s in again.steps] == [type(s) for s in witness.steps]


def test_witnesses_refuse_an_element_that_was_not_derived():
    result = saturate(step_system(), FiniteSubset.of(LANG4, ["x1"]))
    assert A not in result.witnesses
    with pytest.raises(KeyError) as raised:
        result.witnesses[A]
    assert raised.value.args == (A,)


def test_language_mismatches_name_the_function_called():
    system = step_system()
    other = FiniteSubset.empty(ExplicitLanguage.of_tokens(["z"]))
    mismatch = "mismatched languages ExplicitLanguage(a,b,x1,x2) and ExplicitLanguage(z)"
    calls = {
        "saturate": lambda: saturate(system, other),
        "bounded_consequences": lambda: bounded_consequences(system, other, steps=2),
        "min_derivation_size": lambda: min_derivation_size(system, other, A, cap=3),
    }
    for name, call in calls.items():
        with pytest.raises(DomainError) as raised:
            call()
        assert str(raised.value) == f"{name}: {mismatch}"


# ---------------------------------------------------------------------------
# derivation checking


def test_check_derivation_accepts_hand_built_proof():
    system = step_system()
    hyp = FiniteSubset.of(LANG4, ["x1", "x2"])
    proof = Derivation(
        (
            Insert(X1),
            Insert(X2),
            Apply("to-a", (1, 2), A),
            Apply("to-b", (3,), B),
        )
    )
    assert check_derivation(system, hyp, proof)
    # premise order in the citation does not matter
    swapped = Derivation(
        (Insert(X2), Insert(X1), Apply("to-a", (1, 2), A))
    )
    assert check_derivation(system, hyp, swapped)


def test_check_derivation_rejects_bad_steps():
    system = step_system()
    hyp = FiniteSubset.of(LANG4, ["x1", "x2"])

    not_hyp = Derivation((Insert(A),))
    assert not check_derivation(system, hyp, not_hyp)

    forward = Derivation((Insert(X1), Apply("to-a", (1, 3), A), Insert(X2)))
    result = check_derivation(system, hyp, forward)
    assert not result and "earlier" in result.reason

    self_ref = Derivation((Insert(X1), Apply("to-b", (2,), B)))
    assert not check_derivation(system, hyp, self_ref)

    unknown = Derivation((Insert(X1), Apply("nope", (1,), A)))
    assert not check_derivation(system, hyp, unknown)

    wrong_width = Derivation((Insert(X1), Apply("to-a", (1,), A)))
    assert not check_derivation(system, hyp, wrong_width)

    wrong_tuple = Derivation((Insert(X1), Apply("to-b", (1,), B)))
    assert not check_derivation(system, hyp, wrong_tuple)


def test_check_derivation_axiom_inserts_respect_pool():
    system = RuleSystem(
        "ax", LANG4, (UnaryRule("base", FiniteSubset.of(LANG4, ["a", "b"])),)
    )
    proof = Derivation((Insert(A, "base"),))
    assert check_derivation(system, FiniteSubset.empty(LANG4), proof)
    wrong_source = Derivation((Insert(A, "nope"),))
    assert not check_derivation(system, FiniteSubset.empty(LANG4), wrong_source)


def test_check_derivation_names_misused_rules():
    system = RuleSystem(
        "mixed",
        LANG4,
        (UnaryRule("ax", FiniteSubset.of(LANG4, ["a"])), TupleRule("r", 2, ((A, B),))),
    )
    empty = FiniteSubset.empty(LANG4)
    cases = {
        (Insert(B, "r"),): "step 1: rule r is not an axiom set",
        (Insert(B, "ax"),): "step 1: b is not an axiom of ax",
        (Insert(A, "ax"), Apply("ax", (1,), B)): "step 2: ax takes no premises",
    }
    for steps, reason in cases.items():
        result = check_derivation(system, empty, Derivation(steps))
        assert not result and result.reason == reason


def test_derivation_render_is_numbered():
    proof = Derivation((Insert(X1), Apply("to-b", (1,), B)))
    assert proof.render() == "1. x1  [hypothesis]\n2. b  [to-b from 1]"
    with pytest.raises(UsageError):
        Derivation(())


# ---------------------------------------------------------------------------
# minimal derivation sizes and step bounds


def test_min_sizes_on_the_chained_example():
    system = step_system()
    hyp = FiniteSubset.of(LANG4, ["x1", "x2"])
    assert min_derivation_size(system, hyp, X1, cap=8) == 1
    assert min_derivation_size(system, hyp, A, cap=8) == 3
    assert min_derivation_size(system, hyp, B, cap=8) == 4
    assert min_derivation_size(system, hyp, B, cap=3) is None
    with pytest.raises(UsageError):
        min_derivation_size(system, hyp, B, cap=0)
    with pytest.raises(DomainError):
        min_derivation_size(system, hyp, Element("zz"), cap=3)


def test_min_sizes_match_brute_force_enumeration():
    system = step_system()
    for mask in range(16):
        hyp = FiniteSubset(
            LANG4, tuple(e for i, e in enumerate(LANG4.elements) if mask >> i & 1)
        )
        for goal in LANG4.elements:
            got = min_derivation_size(system, hyp, goal, cap=5)
            want = oracle_min_steps(system, hyp, goal, cap=5)
            assert got == want, (str(hyp), goal.name, got, want)


def test_min_sizes_match_brute_force_on_random_systems():
    language = small_language(4)
    rng = seeded(11, "minsize")
    for _ in range(25):
        system = random_system(rng, language)
        hyp = FiniteSubset(language, tuple(rng.sample(list(language.elements), 2)))
        for goal in language.elements:
            got = min_derivation_size(system, hyp, goal, cap=4)
            want = oracle_min_steps(system, hyp, goal, cap=4)
            assert got == want, (system, str(hyp), goal.name, got, want)


@st.composite
def layered_systems(draw):
    """A system over at most 8 elements, and hypotheses that hold its
    first element.  Each later element is concluded by up to two tuples
    whose premises come before it, so deductions branch and merge; up
    to two tuples per rule connect any elements, and two axiom sets may
    share members.  The rules come in a drawn order."""
    language = small_language(draw(st.integers(1, 8)))
    elements = language.elements
    element = st.sampled_from(elements)
    rows = {2: [], 3: []}
    for k in range(1, len(elements)):
        for arity in draw(st.lists(st.sampled_from([2, 3]), max_size=2)):
            premises = draw(st.lists(st.sampled_from(elements[:k]), min_size=arity - 1, max_size=arity - 1))
            rows[arity].append((*premises, elements[k]))
    rules = [
        UnaryRule(rule_id, FiniteSubset.of(language, draw(st.lists(element, max_size=2))))
        for rule_id in ("ax", "bx")
    ]
    for arity, tuples in rows.items():
        tuples += draw(st.lists(st.tuples(*[element] * arity), max_size=2))
        rules.append(TupleRule(f"r{arity}", arity, tuple(tuples)))
    system = RuleSystem("layered", language, tuple(draw(st.permutations(rules))))
    return system, FiniteSubset.of(language, [elements[0], *draw(st.lists(element, max_size=1))])


# x and y are both ready after a: the lower bit, x, comes first
BRANCHING = loads_system("language: a g x y\nrule f: a => y\nrule h: a => x\nrule w: x y => g\n")


@settings(deadline=None, max_examples=150)
@given(layered_systems(), st.integers(1, 6))
@example((BRANCHING, FiniteSubset.of(BRANCHING.language, ["a"])), 4)
def test_shortest_derivations_keep_their_documented_order(query, cap):
    system, hypotheses = query
    for goal in saturate(system, hypotheses).closure.members:
        derivation = engine.shortest_derivation(system, hypotheses, goal, cap)
        size = min_derivation_size(system, hypotheses, goal, cap)
        if derivation is None:
            assert size is None
            continue
        assert len(derivation) == size and derivation.final_element() == goal
        deduction = [step_element(s) for s in derivation.steps]
        assert derivation == documented_order(system, hypotheses, deduction), derivation.render()


def test_bounded_consequences_three_step_cap():
    system = step_system()
    x = FiniteSubset.of(LANG4, ["x1", "x2"])
    d1 = bounded_consequences(system, x, steps=3)
    assert str(d1) == "{a,x1,x2}"
    d2 = bounded_consequences(system, d1, steps=3)
    assert str(d2) == "{a,b,x1,x2}"
    with pytest.raises(UsageError):
        bounded_consequences(system, x, steps=0)


def test_bounded_consequences_equals_saturation_past_universe_size():
    language = small_language(5)
    rng = seeded(3, "bounded")
    for _ in range(10):
        system = random_system(rng, language)
        hyp = FiniteSubset(language, tuple(rng.sample(list(language.elements), 2)))
        assert bounded_consequences(system, hyp, steps=10) == saturate(system, hyp).closure


# ---------------------------------------------------------------------------
# canonical systems and premise permutation


def test_canonical_system_replays_the_operator():
    language = small_language(3)
    op = random_table_operator(seeded(7, "table"), language)
    system = canonical_system(op, language)
    assert equal_ops(RuleOperator(system), op, language)
    assert system.rule("axioms").axioms == op.apply(FiniteSubset.empty(language))


def test_canonical_system_refuses_non_closure_operators():
    language = small_language(3)
    e0 = Element("e0")

    class Shrink:
        def apply(self, subset):
            return FiniteSubset.empty(language)

    with pytest.raises(UsageError, match="extensive"):
        canonical_system(Shrink(), language)

    class Bump:
        # adds e0 to inputs of size exactly 1: not idempotent from {}
        def apply(self, subset):
            if len(subset.members) == 1:
                return subset.union(FiniteSubset(language, (e0,)))
            return subset

    with pytest.raises(UsageError, match="monotone|idempotent"):
        canonical_system(Bump(), language)


def test_permute_premises_changes_structure_not_behavior():
    language = small_language(4)
    op = random_table_operator(seeded(19, "table"), language)
    system = canonical_system(op, language)
    seen = set()
    for permutation in itertools.permutations(range(4)):
        variant = permute_premises(system, "from4", 0, permutation)
        seen.add(variant.rule("from4").tuples)
        assert equal_ops(RuleOperator(variant), op, language)
    assert len(seen) == 24


def test_permute_premises_validates_arguments():
    system = step_system()
    with pytest.raises(UsageError):
        permute_premises(system, "to-a", 0, (0, 0))
    with pytest.raises(UsageError):
        permute_premises(system, "to-a", 5, (0, 1))
    with pytest.raises(UsageError):
        permute_premises(system, "to-b", 0, (0,))  # single premise
    swapped = permute_premises(system, "to-a", 0, (1, 0))
    assert swapped.rule("to-a").tuples == ((X2, X1, A),)
    assert system.rule("to-a").tuples == ((X1, X2, A),)  # original untouched


# ---------------------------------------------------------------------------
# combination


def test_union_systems_namespaces_rule_ids():
    s1 = RuleSystem("one", LANG4, (TupleRule("r", 2, ((A, B),)),))
    s2 = RuleSystem("two", LANG4, (TupleRule("r", 2, ((X1, A),)),))
    merged = union_systems([s1, s2])
    assert merged.name == "one+two"
    assert merged.has_rule("one.r") and merged.has_rule("two.r")
    closure = saturate(merged, FiniteSubset.of(LANG4, ["x1"])).closure
    assert str(closure) == "{a,b,x1}"


def test_union_systems_same_name_bumps_ids():
    s1 = RuleSystem("s", LANG4, (TupleRule("r", 2, ((A, B),)),))
    s2 = RuleSystem("s", LANG4, (TupleRule("r", 2, ((X1, A),)),))
    merged = union_systems([s1, s2])
    assert merged.has_rule("s.r") and merged.has_rule("s.r~2")


def test_intersect_systems_keeps_shared_relations():
    shared = TupleRule("step", 2, ((A, B),))
    s1 = RuleSystem("one", LANG4, (shared,))
    s2 = RuleSystem(
        "two", LANG4, (TupleRule("other", 2, ((A, B),)), TupleRule("x", 2, ((B, A),)))
    )
    kept = intersect_systems([s1, s2])
    assert len(kept.rules) == 1
    assert rules_extensionally_equal(kept.rules[0], shared)
    disjoint = intersect_systems(
        [s1, RuleSystem("three", LANG4, (TupleRule("step", 2, ((A, B), (B, A))),))]
    )
    assert disjoint.rules == ()


def test_intersect_rulewise_pairs_positionally():
    s1 = RuleSystem("one", LANG4, (TupleRule("p", 2, ((A, B), (X1, A))),))
    s2 = RuleSystem("two", LANG4, (TupleRule("q", 2, ((X1, A), (X2, A))),))
    together = intersect_rulewise(s1, s2)
    assert together.rules[0].tuples == ((X1, A),)
    mismatched = intersect_rulewise(
        s1, RuleSystem("three", LANG4, (TupleRule("w", 3, ((X1, X2, A),)),))
    )
    assert mismatched.rules[0].tuples == ()


def test_intersect_rulewise_pairs_axiom_sets_and_mixed_kinds():
    axioms_ab = RuleSystem("one", LANG4, (UnaryRule("u", FiniteSubset.of(LANG4, ["a", "b"])),))
    axioms_b = RuleSystem("two", LANG4, (UnaryRule("v", FiniteSubset.of(LANG4, ["b", "x1"])),))
    pairs = RuleSystem("three", LANG4, (TupleRule("p", 2, ((A, B),)),))
    both = intersect_rulewise(axioms_ab, axioms_b).rules
    assert [(r.rule_id, str(r.axioms)) for r in both] == [("u&v", "{b}")]
    tuple_first = intersect_rulewise(pairs, axioms_ab).rules
    assert [(r.rule_id, r.arity, r.tuples) for r in tuple_first] == [("p&u", 2, ())]
    unary_first = intersect_rulewise(axioms_ab, pairs).rules
    assert [(type(r), r.rule_id, str(r.axioms)) for r in unary_first] == [(UnaryRule, "u&p", "{}")]


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=10_000))
def test_union_saturation_contains_each_component(seed):
    language = small_language(4)
    rng = seeded(seed, "union")
    systems = [random_system(rng, language) for _ in range(2)]
    hyp = FiniteSubset(language, tuple(rng.sample(list(language.elements), 2)))
    union_closure = saturate(union_systems(systems), hyp).closure
    for system in systems:
        assert saturate(system, hyp).closure.is_subset_of(union_closure)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=10_000))
def test_generated_operators_satisfy_the_axioms(seed):
    language = small_language(4)
    system = random_system(seeded(seed, "axioms"), language)
    report = check_axioms(RuleOperator(system), language)
    assert report.ok, report.counterexample


def test_generated_operator_has_finite_character_literally():
    # closure of X is the union of the closures of X's finite parts
    language = small_language(4)
    system = random_system(seeded(99, "fc"), language)
    op = RuleOperator(system)
    for x in all_subsets(language):
        union = set()
        for k in range(len(x.members) + 1):
            for part in itertools.combinations(x.members, k):
                union |= set(op.apply(FiniteSubset(language, part)).members)
        assert union == set(op.apply(x).members)
