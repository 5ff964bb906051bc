"""The lattice of closed sets of a single operator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conseq.errors import UsageError
from conseq.fileformat import loads_system
from conseq.language import Element, ExplicitLanguage, FiniteSubset, all_subsets
from conseq.operators import (
    BoundedOperator,
    Identity,
    RuleOperator,
    Unit,
    closed_systems,
    equal_ops,
    from_closure_family,
    join_uplus,
    meet_cap,
    sup_w,
)
from conseq.rules import RuleSystem, TupleRule
from conseq.sampling import random_closure_family, random_system, seeded, small_language

LANG = ExplicitLanguage.of_tokens(["a", "b", "c", "d"])
A, B, C, D = (Element(n) for n in "abcd")


def _sub(*names):
    return FiniteSubset.of(LANG, list(names))


def branching_system():
    return RuleSystem(
        "branching",
        LANG,
        (TupleRule("pair", 2, ((A, C),)), TupleRule("wide", 4, ((A, B, C, D),))),
    )


def test_family_of_the_branching_example():
    family = closed_systems(RuleOperator(branching_system()), LANG)
    listed = [str(s) for s in family]
    assert listed == [
        "{}",
        "{b}",
        "{c}",
        "{d}",
        "{a,c}",
        "{b,c}",
        "{b,d}",
        "{c,d}",
        "{a,c,d}",
        "{b,c,d}",
        "{a,b,c,d}",
    ]
    assert len(family) == 11
    assert _sub("a", "c") in family
    assert _sub("a") not in family
    assert FiniteSubset(LANG, LANG.elements) in family


def test_identity_and_unit_families():
    everything = closed_systems(Identity(), LANG)
    assert len(everything) == 16
    only_top = closed_systems(Unit(), LANG)
    assert [str(s) for s in only_top] == ["{a,b,c,d}"]


def test_non_idempotent_operators_are_rejected():
    lang = ExplicitLanguage.of_tokens(["a", "b", "x1", "x2"])
    x1, x2, a, b = (Element(n) for n in ("x1", "x2", "a", "b"))
    chained = RuleSystem(
        "steps",
        lang,
        (TupleRule("to-a", 3, ((x1, x2, a),)), TupleRule("to-b", 2, ((a, b),))),
    )
    with pytest.raises(UsageError, match="not idempotent"):
        closed_systems(BoundedOperator(chained, 3), lang)


def test_join_recloses_and_meet_checks():
    op = RuleOperator(branching_system())
    assert join_uplus(op, _sub("b"), _sub("a", "c")) == _sub("a", "b", "c", "d")
    assert join_uplus(op, _sub("b"), _sub("c")) == _sub("b", "c")
    assert meet_cap(op, _sub("a", "c"), _sub("c", "d")) == _sub("c")
    assert meet_cap(op, _sub("b"), _sub("c")) == _sub()
    with pytest.raises(UsageError, match="not closed"):
        join_uplus(op, _sub("a"), _sub("b"))
    with pytest.raises(UsageError, match="not closed"):
        meet_cap(op, _sub("a"), _sub("b"))


def test_meet_cap_detects_non_consequence_operators():
    # closed family {ab, cb}: intersection {b} is not in the family,
    # and an operator with exactly these fixed points cannot be monotone
    family = [_sub("a", "b"), _sub("b", "c"), FiniteSubset(LANG, LANG.elements)]

    class Pick:
        def apply(self, subset):
            for member in family:
                if subset.is_subset_of(member):
                    return member
            return FiniteSubset(LANG, LANG.elements)

    with pytest.raises(UsageError, match="not closed"):
        meet_cap(Pick(), _sub("a", "b"), _sub("b", "c"))


def test_family_recovers_the_operator():
    rng = seeded(47, "csys")
    language = small_language(5)
    for _ in range(20):
        op = RuleOperator(random_system(rng, language))
        family = closed_systems(op, language)
        rebuilt = from_closure_family(family, language)
        assert equal_ops(op, rebuilt, language)
        # intersection-closed: meets of members stay inside
        members = set(family)
        for left in family:
            for right in family:
                assert left.intersect(right) in members


def test_joins_are_least_closed_supersets():
    op = RuleOperator(branching_system())
    family = closed_systems(op, LANG)
    members = list(family)
    for left in members:
        for right in members:
            join = join_uplus(op, left, right)
            assert join in family
            above = [
                m
                for m in members
                if left.is_subset_of(m) and right.is_subset_of(m)
            ]
            least = min(above, key=lambda s: len(s.members))
            assert sum(
                1 for m in above if len(m.members) == len(least.members)
            ) == 1
            assert join == least


def test_family_bound_guard():
    wide = small_language(7)
    with pytest.raises(UsageError):
        closed_systems(Identity(), wide)
    assert len(closed_systems(Identity(), wide, bound=7)) == 128


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(["rules", "family"]), st.integers(0, 10_000), st.integers(1, 6))
def test_family_is_the_tuple_sup_w_gives(kind, seed, n):
    language = small_language(n)
    rng = seeded(seed, kind)
    if kind == "rules":
        op = RuleOperator(random_system(rng, language))
    else:
        op = random_closure_family(rng, language)
    family = closed_systems(op, language)
    assert type(family) is tuple
    assert family == sup_w([op], language).closed_sets


def test_join_refuses_a_closure_of_the_union_that_is_not_closed():
    system = loads_system("language: a b c d\nrule mk: a b => c\nrule up: c => d\n")
    language = system.language
    op = BoundedOperator(system, 3)  # {a,b} reaches c in 3 steps; d needs a 4th
    a, b = FiniteSubset.of(language, ["a"]), FiniteSubset.of(language, ["b"])
    assert op.apply(a) == a and op.apply(b) == b
    with pytest.raises(UsageError) as refused:
        join_uplus(op, a, b)
    assert str(refused.value) == "join {a,b,c} is not closed; the operator is not a consequence operator"
    with pytest.raises(UsageError, match="not idempotent"):
        closed_systems(op, language)


def test_csystems_re_exports_the_functions_of_operators():
    import conseq
    from conseq import csystems, operators

    for name in ("closed_systems", "join_uplus", "meet_cap"):
        assert getattr(csystems, name) is getattr(operators, name) is getattr(conseq, name), name
