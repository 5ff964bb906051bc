"""Implicational formulas, their semantics, the axiom schemata, and
non-derivability certificates."""

import copy
import json
import pickle
import re
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass, fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conseq.propositional
from conseq.engine import min_derivation_size, saturate
from conseq.errors import DomainError, InputSyntaxError, UsageError
from conseq.propositional import (
    MAX_DEPTH,
    MP,
    VARIANTS,
    Atom,
    BoundedEvidence,
    Certified,
    Impl,
    Neg,
    Pool,
    PoolSearch,
    Schema,
    Valuation,
    atoms,
    bridge_axiom,
    certificate_first,
    certificate_non_derivable,
    falsifying_valuation,
    formula_subset,
    h_transform,
    instantiate_schema,
    is_tautology,
    mp_restricted,
    parse,
    pd_system,
    query,
    query_pool,
    subformula_closure,
    subformulas,
    wff_element,
    wff_to_text,
    wff_token,
)
from conseq.language import Element
from conseq.rules import RuleSystem, UnaryRule

from reference import oracle_axioms, r1_shape, r2_shape, r3_shape, search_pool

ROOT = Path(__file__).resolve().parent.parent
P0, P1, P2 = Atom(0), Atom(1), Atom(2)


def element_wff(e):
    """The formula an element names."""
    return parse(e.name)


def wffs(max_depth=4):
    return st.recursive(
        st.builds(Atom, st.integers(min_value=0, max_value=5)),
        lambda inner: st.one_of(
            st.builds(Neg, inner), st.builds(Impl, inner, inner)
        ),
        max_leaves=2 ** max_depth,
    )


# ---------------------------------------------------------------------------
# syntax


@settings(deadline=None, max_examples=150)
@given(wffs())
def test_both_renderings_parse_back(w):
    assert parse(wff_to_text(w)) == w
    assert parse(wff_token(w)) == w
    assert wff_token(w) == wff_to_text(w).replace(" ", "")


def test_elements_embed_formulas():
    w = Impl(Impl(P2, P0), Impl(P1, P0))
    e = wff_element(w)
    assert e.name == "((P2->P0)->(P1->P0))"
    assert element_wff(e) == w
    assert wff_to_text(w) == "((P2 -> P0) -> (P1 -> P0))"


def test_parse_reports_the_offending_column():
    cases = [
        ("", "column 1"),
        ("P", "column 2"),
        ("(P1 P2)", "column 5"),
        ("(P1 -> P2", "column 10"),
        (")", "column 1"),
        ("P1 P2", "column 4"),
        ("~", "column 2"),
    ]
    for text, where in cases:
        with pytest.raises(InputSyntaxError) as info:
            parse(text)
        assert where in str(info.value), text


def test_parse_refuses_nesting_past_max_depth():
    for opener, closer in (("~", ""), ("(", " -> P1)")):
        text = opener * MAX_DEPTH + "P0" + closer * MAX_DEPTH
        assert wff_to_text(parse(text)) == text
        too_deep = opener + text + closer
        with pytest.raises(InputSyntaxError) as info:
            parse(too_deep)
        assert str(info.value) == (
            f"column {MAX_DEPTH + 1}: formula nested deeper than {MAX_DEPTH} levels"
        )


@pytest.mark.parametrize("text", ["P\u00b2", "P\u0661", "(P\u0663 -> P0)", "~P\u00b9"])
def test_atom_indices_take_ascii_digits_only(text):
    # superscripts and Arabic-Indic digits are digits to str.isdigit
    with pytest.raises(InputSyntaxError) as info:
        parse(text)
    column = text.index("P") + 2
    assert str(info.value) == f"column {column}: atom needs a decimal index after 'P'"


def test_non_ascii_digit_after_an_index_is_trailing_input():
    with pytest.raises(InputSyntaxError, match="column 3: trailing input after formula"):
        parse("P1\u00b2")
    assert parse("P0123456789") == Atom(123456789)


# The formula classes as plain frozen dataclasses, whose generated
# __hash__ walks the whole tree on every call; the stored hash must
# equal theirs.


@dataclass(frozen=True)
class _PlainAtom:
    index: int


@dataclass(frozen=True)
class _PlainNeg:
    operand: object


@dataclass(frozen=True)
class _PlainImpl:
    antecedent: object
    consequent: object


def _plain(w):
    if isinstance(w, Atom):
        return _PlainAtom(w.index)
    if isinstance(w, Neg):
        return _PlainNeg(_plain(w.operand))
    return _PlainImpl(_plain(w.antecedent), _plain(w.consequent))


@settings(deadline=None, max_examples=150)
@given(wffs())
def test_stored_hash_is_the_field_tuple_hash(w):
    assert hash(w) == hash(_plain(w))
    if isinstance(w, Atom):
        assert hash(w) == hash((w.index,))
    elif isinstance(w, Neg):
        assert hash(w) == hash((w.operand,))
    else:
        assert hash(w) == hash((w.antecedent, w.consequent))
    parsed = parse(wff_to_text(w))
    assert parsed is not w
    assert parsed == w
    assert hash(parsed) == hash(w)
    assert pickle.loads(pickle.dumps(w)) == w
    assert hash(pickle.loads(pickle.dumps(w))) == hash(w)
    for copied in (copy.copy(w), copy.deepcopy(w)):
        assert copied == w and hash(copied) == hash(w)
    for f in fields(w):
        with pytest.raises(FrozenInstanceError):
            setattr(w, f.name, getattr(w, f.name))


def _field_tuple_hash(w):
    """The hash the dataclass would compute for `w` from its fields."""
    if isinstance(w, Atom):
        return hash((w.index,))
    if isinstance(w, Neg):
        return hash((w.operand,))
    return hash((w.antecedent, w.consequent))


@settings(deadline=None, max_examples=150)
@given(wffs())
def test_a_node_copied_or_pickled_before_its_hash_is_asked_hashes_as_its_fields(w):
    for round_trip in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        fresh = parse(wff_to_text(w))  # parsing hashes no node
        if not isinstance(fresh, Atom):
            assert fresh._hash is None
        again = round_trip(fresh)
        assert again == w
        assert hash(again) == _field_tuple_hash(again) == hash(_plain(w))
        assert hash(fresh) == hash(again)


def test_closure_formulas_equal_and_hash_as_their_parsed_text():
    for w in subformula_closure([P0, P1, P2], 22):
        parsed = parse(wff_to_text(w))
        assert parsed == w
        assert hash(parsed) == hash(w) == _field_tuple_hash(w)


def _printed(w):
    """The recursive printer, kept as the oracle for the stored token."""
    if isinstance(w, Atom):
        return f"P{w.index}"
    if isinstance(w, Neg):
        return f"~{_printed(w.operand)}"
    return f"({_printed(w.antecedent)}->{_printed(w.consequent)})"


@st.composite
def _deep_texts(draw):
    """Formula text nested exactly MAX_DEPTH deep: each level wraps the one
    inside in '~' or in an implication with an atom on one side."""
    text = f"P{draw(st.integers(0, 12))}"
    for _ in range(MAX_DEPTH):
        atom = f"P{draw(st.integers(0, 12))}"
        text = draw(st.sampled_from((f"~{text}", f"({atom} -> {text})", f"({text} -> {atom})")))
    return text


@settings(deadline=None, max_examples=150)
@given(wffs())
def test_stored_token_is_the_printed_token(w):
    assert wff_token(w) == _printed(w)
    assert wff_token(pickle.loads(pickle.dumps(w))) == _printed(w)
    assert repr(w) == repr(_plain(w)).replace("_Plain", "")


@settings(deadline=None, max_examples=30)
@given(_deep_texts())
def test_stored_token_is_the_printed_token_at_max_depth(text):
    w = parse(text)
    assert wff_token(w) == _printed(w) == text.replace(" ", "")
    assert wff_to_text(w) == text


def test_atom_indices_are_non_negative():
    with pytest.raises(DomainError):
        Atom(-1)


def test_atoms_and_subformulas():
    w = Impl(Neg(P0), Impl(P1, P0))
    assert atoms(w) == frozenset({0, 1})
    assert subformulas(w) == frozenset(
        {w, Neg(P0), Impl(P1, P0), P0, P1}
    )


# ---------------------------------------------------------------------------
# semantics


def value_of(valuation, index):
    """The truth value a valuation assigns to atom `index`, found by a
    scan of its sorted assignment."""
    for i, b in valuation.assignment:
        if i == index:
            return b
    raise DomainError(f"valuation does not assign atom P{index}")


def eval_wff(w, valuation):
    """The definitional evaluator: each atom looked up in the valuation."""
    if isinstance(w, Atom):
        return value_of(valuation, w.index)
    if isinstance(w, Neg):
        return not eval_wff(w.operand, valuation)
    return (not eval_wff(w.antecedent, valuation)) or eval_wff(w.consequent, valuation)


def test_valuation_api():
    v = Valuation.of({1: True, 0: False})
    assert str(v) == "{P0=false, P1=true}"
    assert value_of(v, 1) and not value_of(v, 0)
    assert v == Valuation(((0, False), (1, True)))
    with pytest.raises(DomainError):
        value_of(v, 7)


def test_falsifying_valuation_is_first_in_counting_order():
    w = Impl(Impl(P2, P0), Impl(P1, P0))
    v = falsifying_valuation(w)
    assert str(v) == "{P0=false, P1=true, P2=false}"
    assert not eval_wff(w, v)
    assert falsifying_valuation(w) == v  # deterministic
    assert falsifying_valuation(Impl(P0, P0)) is None
    assert is_tautology(Impl(P0, Impl(P1, P0)))
    assert not is_tautology(Impl(P0, P1))


@settings(deadline=None, max_examples=100)
@given(wffs())
def test_tautology_agrees_with_exhaustive_evaluation(w):
    indices = sorted(atoms(w))
    brute = all(
        eval_wff(
            w,
            Valuation.of({i: bool(mask >> j & 1) for j, i in enumerate(indices)}),
        )
        for mask in range(1 << len(indices))
    )
    assert is_tautology(w) == brute


def _valuation_loop_falsifier(w):
    """The definitional search: a sorted `Valuation` per candidate, read
    atom by atom through `value_of`, in binary-counting order."""
    indices = sorted(atoms(w))
    k = len(indices)
    for mask in range(1 << k):
        valuation = Valuation.of({indices[j]: bool((mask >> (k - 1 - j)) & 1) for j in range(k)})
        if not eval_wff(w, valuation):
            return valuation
    return None


@settings(deadline=None, max_examples=200)
@given(wffs())
@example(Impl(Impl(P2, P0), Impl(P1, P0)))
@example(Impl(Atom(5), Impl(Atom(3), Atom(3))))
def test_falsifying_valuation_matches_the_valuation_loop(w):
    found = falsifying_valuation(w)
    assert found == _valuation_loop_falsifier(w)
    assert found is None or str(found) == str(_valuation_loop_falsifier(w))


def test_h_transform_erases_negations():
    assert h_transform(Neg(Neg(P0))) == P0
    bridged = h_transform(bridge_axiom(1))
    assert bridged == Impl(Impl(P0, P1), Impl(P1, P0))
    assert not is_tautology(bridged)
    # h of every negation-free formula is itself
    w = Impl(P0, Impl(P1, P0))
    assert h_transform(w) == w


# ---------------------------------------------------------------------------
# schemata


def axiom_wffs(system):
    return {element_wff(e) for e in system.rule("axioms").axioms}


def _closed(*wffs):
    return tuple(set().union(*(subformulas(w) for w in wffs)))


def test_axiom_schema_instantiation():
    r1 = Impl(P0, Impl(P1, P0))
    r2 = Impl(
        Impl(P0, Impl(P1, P2)), Impl(Impl(P0, P1), Impl(P0, P2))
    )
    r3 = Impl(Impl(Neg(P0), Neg(P1)), Impl(P1, P0))
    pool = frozenset({r1, r2, r3, P0, P1, Impl(P0, P1)})
    assert {w for w in pool if r1_shape(w)} == {r1}
    assert {w for w in pool if r2_shape(w)} == {r2}
    assert {w for w in pool if r3_shape(w)} == {r3}
    # r3's negation-erased transform is not a tautology, so the
    # positive schema rejects it
    assert {w for w in pool if r3_shape(w) and is_tautology(h_transform(w))} == set()
    taut_r3 = Impl(Impl(Neg(P0), Neg(P0)), Impl(P0, P0))
    assert {w for w in pool | {taut_r3} if r3_shape(w) and is_tautology(h_transform(w))} == {taut_r3}
    # the variants' axiom sets recognize the same instances in a closed
    # pool (r3 is the bridge axiom of index 1, so index 2 leaves it out)
    closed = _closed(r1, r2, r3)
    assert axiom_wffs(pd_system("standard", closed)) == {r1, r2, r3}
    assert axiom_wffs(pd_system("positive", closed, n=2)) == {r1, r2}
    closed = _closed(r1, r2, r3, taut_r3)
    assert axiom_wffs(pd_system("standard", closed)) == {r1, r2, r3, taut_r3}
    assert axiom_wffs(pd_system("positive", closed, n=2)) == {r1, r2, taut_r3}
    # the axiom schemata are no schemata of `instantiate_schema`
    for kind in ("r1", "r2", "r3", "r3-positive", "axioms-without-atom0"):
        with pytest.raises(UsageError, match=f"unknown schema {kind}"):
            instantiate_schema(Schema(kind), pool)


def test_positive_r3_filter_matches_the_whole_instances_truth_table_on_catalog_pools():
    # the filter as first written, a truth table of the whole erased
    # instance, is the oracle over every positive-variant catalog pool
    catalog = json.loads((ROOT / "perfbench" / "pd_catalog.json").read_text(encoding="utf-8"))
    pools = set()
    for q in catalog["queries"]:
        if q["variant"] == "positive":
            hyps, goal = [parse(h) for h in q["hyps"]], parse(q["goal"])
            caps = {"size_cap": catalog["size_cap"], "max_pool": catalog["pool_cap"]}
            pools.add(query_pool("positive", hyps, goal, n=q["n"], **caps))
    instances = {w for pool in pools for w in pool.instances["r3"]}
    keep = conseq.propositional._VARIANTS["positive"].keep[2]
    assert {keep(w) for w in instances} == {True, False}
    for w in instances:
        assert keep(w) == is_tautology(h_transform(w)), wff_to_text(w)


@settings(deadline=None, max_examples=200)
@given(wffs(), wffs())
def test_positive_r3_filter_matches_the_whole_instances_truth_table(x, y):
    w = Impl(Impl(Neg(x), Neg(y)), Impl(y, x))
    keep = conseq.propositional._VARIANTS["positive"].keep[2]
    assert keep(w) == is_tautology(h_transform(w))


def test_detachment_instantiation_and_restriction():
    impl1 = Impl(P1, P0)
    impl2 = Impl(P2, P0)
    other = Impl(P0, P1)
    pool = frozenset({impl1, impl2, other, P0, P1, P2})
    full = instantiate_schema(MP, pool)
    assert len(full) == 3 and frozenset(full) == frozenset(
        {(impl1, P1, P0), (impl2, P2, P0), (other, P0, P1)}
    )
    # index-1 restriction drops only the atom-to-P0 step at index 2
    limited = instantiate_schema(mp_restricted(1), pool)
    assert len(limited) == 2 and frozenset(limited) == frozenset({(impl1, P1, P0), (other, P0, P1)})
    # consequences must also be in the pool
    assert instantiate_schema(MP, frozenset({impl1, P1})) == ()


def test_detachment_trusts_a_pool_to_be_subformula_closed():
    pool = subformula_closure([Impl(P2, P0), Impl(P1, P0), P1], 10)
    # one triple per implication of the pool, in pool order
    assert instantiate_schema(MP, pool) == tuple((w, w.antecedent, w.consequent) for w in pool if isinstance(w, Impl))
    for schema in (MP, mp_restricted(1)):
        triples = instantiate_schema(schema, pool)
        positions = [pool.index(w) for w, _, _ in triples]
        assert positions == sorted(set(positions))
        assert frozenset(triples) == frozenset(instantiate_schema(schema, frozenset(pool)))
    # a Pool's parts are not looked up; any other collection's are
    unclosed = (Impl(P1, P0),)
    assert instantiate_schema(MP, Pool(unclosed, {})) == ((Impl(P1, P0), P1, P0),)
    assert instantiate_schema(MP, unclosed) == ()


def test_axioms_without_atom0_keep_only_the_bridge():
    with_zero = Impl(P0, Impl(P1, P0))
    without_zero = Impl(P1, Impl(P2, P1))
    pool = frozenset(
        {with_zero, without_zero, bridge_axiom(2)}
        | subformulas(bridge_axiom(2))
    )
    kept = oracle_axioms("missing-atom", pool, 2)
    assert kept == {without_zero, bridge_axiom(2)}
    # a bridge of a different index is just an R3 instance with atom 0
    kept1 = oracle_axioms("missing-atom", pool, 1)
    assert kept1 == {without_zero}
    # and so is it for the missing-atom variant over the closed pool
    closed = _closed(*pool)
    assert axiom_wffs(pd_system("missing-atom", closed, n=2)) == {without_zero, bridge_axiom(2)}
    assert axiom_wffs(pd_system("missing-atom", closed, n=1)) == {without_zero}


def test_schema_index_validation():
    with pytest.raises(UsageError):
        bridge_axiom(0)
    with pytest.raises(UsageError):
        mp_restricted(0)
    with pytest.raises(UsageError):
        oracle_axioms("missing-atom", (P0,), 0)
    with pytest.raises(UsageError, match="needs an index n >= 1"):
        pd_system("missing-atom", (P0,), n=0)
    with pytest.raises(UsageError):
        instantiate_schema(Schema("shiny"), frozenset({P0}))


# ---------------------------------------------------------------------------
# pools


def test_subformula_closure_is_closed_and_complete():
    pool = subformula_closure([P0, P1], 22)
    assert len(pool) == 120
    pool_set = set(pool)
    for w in pool:
        assert subformulas(w) <= pool_set
        assert len(wff_token(w)) <= 22
    # every R1 instance over the pool that fits the cap is present
    for x in pool:
        for y in pool:
            candidate = Impl(x, Impl(y, x))
            if len(wff_token(candidate)) <= 22:
                assert candidate in pool_set


def test_subformula_closure_frozen_sizes():
    assert len(subformula_closure([P0, P1, P2], 22)) == 357
    assert len(subformula_closure([P0, P1, P2, Atom(3)], 22, max_pool=1200)) == 792
    assert subformula_closure([P0], 2) == (P0,)


def test_subformula_closure_guards():
    with pytest.raises(UsageError, match="size cap"):
        subformula_closure([bridge_axiom(1)], 10)
    with pytest.raises(UsageError, match="max_pool|grew past"):
        subformula_closure([P0, P1], 22, max_pool=50)


def test_subformula_closure_stops_as_soon_as_the_pool_passes_its_cap(monkeypatch):
    """Fourteen atoms under size cap 40 bind over a million implications
    in the second round; the closure stops once the pool passes max_pool,
    with the error a whole round would have given."""
    built = Counter()
    init = Impl.__init__

    def counting_init(self, antecedent, consequent):
        built["impl"] += 1
        init(self, antecedent, consequent)

    monkeypatch.setattr(Impl, "__init__", counting_init)
    message = "pool grew past 20000 formulas under size cap 40; lower the cap or raise max_pool"
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        subformula_closure([Atom(i) for i in range(14)], 40, max_pool=20000)
    assert 0 < built["impl"] < 2 * 20000
    # the cap bounds the whole pool, exactly; seeds that are closed already may pass it
    pool = subformula_closure([P0, P1, P2], 22, max_pool=357)
    with pytest.raises(UsageError, match="grew past 356 formulas"):
        subformula_closure([P0, P1, P2], 22, max_pool=356)
    assert subformula_closure(pool, 22, max_pool=356) == pool


def test_subformula_closure_builds_each_new_formula_once(monkeypatch):
    """Each pool formula that no seed holds is constructed exactly once:
    a node is looked up by its token before it is built."""
    built = Counter()
    impl_init, neg_init = Impl.__init__, Neg.__init__

    def counting_impl_init(self, antecedent, consequent):
        impl_init(self, antecedent, consequent)
        built[wff_token(self)] += 1

    def counting_neg_init(self, operand):
        neg_init(self, operand)
        built[wff_token(self)] += 1

    monkeypatch.setattr(Impl, "__init__", counting_impl_init)
    monkeypatch.setattr(Neg, "__init__", counting_neg_init)
    seeds = [P0, P1, P2]
    pool = subformula_closure(seeds, 22)
    held = set().union(*map(subformulas, seeds))
    compound = [w for w in pool if not isinstance(w, Atom) and w not in held]
    assert len(compound) == 354
    assert built == Counter(wff_token(w) for w in compound)


def _definitional_closure(seeds, size_cap, *, max_pool):
    """The closure as first written: each candidate not yet in the pool
    contributes its full subformula set, and the pool is removed after."""

    def length(w):
        return len(_printed(w))

    pool = set()
    for w in seeds:
        if length(w) > size_cap:
            raise UsageError(f"seed {wff_to_text(w)} is longer than the size cap {size_cap}")
        pool |= subformulas(w)
    while True:
        ranked = sorted(((length(w), _printed(w), w) for w in pool))
        items = [(lw, w) for lw, _, w in ranked]
        shortest = items[0][0] if items else 0
        fresh = set()

        def offer(candidate):
            if candidate not in pool:
                fresh.update(subformulas(candidate))

        for lx, x in items:
            if 2 * lx + shortest + 8 > size_cap:
                break
            for ly, y in items:
                if 2 * lx + ly + 8 > size_cap:
                    break
                offer(Impl(x, Impl(y, x)))
        for lx, x in items:
            if 3 * lx + 4 * shortest + 24 > size_cap:
                break
            for ly, y in items:
                if 3 * lx + 2 * ly + 2 * shortest + 24 > size_cap:
                    break
                for lz, z in items:
                    if 3 * lx + 2 * ly + 2 * lz + 24 > size_cap:
                        break
                    offer(Impl(Impl(x, Impl(y, z)), Impl(Impl(x, y), Impl(x, z))))
        for lx, x in items:
            if 2 * lx + 2 * shortest + 14 > size_cap:
                break
            for ly, y in items:
                if 2 * lx + 2 * ly + 14 > size_cap:
                    break
                offer(Impl(Impl(Neg(x), Neg(y)), Impl(y, x)))
        fresh -= pool
        if not fresh:
            break
        pool |= fresh
        if len(pool) > max_pool:
            raise UsageError(
                f"pool grew past {max_pool} formulas under size cap {size_cap}; "
                "lower the cap or raise max_pool"
            )
    return tuple(sorted(pool, key=_printed))


def _closure_or_error(closure, seeds, size_cap, max_pool):
    try:
        return closure(seeds, size_cap, max_pool=max_pool)
    except UsageError as exc:
        return str(exc)


def closure_cases(test):
    """Run `test(seeds, size_cap, max_pool)` on drawn closure inputs."""
    cases = given(
        st.lists(wffs(max_depth=2), min_size=1, max_size=3),
        st.integers(min_value=4, max_value=22),
        st.integers(min_value=5, max_value=400),
    )(test)
    # pools of 7, 52 and 120 formulas: the third round adds nothing
    cases = example([Impl(Neg(P0), Neg(P1)), P1, P0, bridge_axiom(1)], 22, 400)(cases)
    # eleven rounds, ending at 1966 formulas
    cases = example([Impl(P0, P0)], 34, 2000)(cases)
    # pools of 1, 6, 35, 135 and 282 formulas, then 389 crosses max_pool
    cases = example([P0], 30, 300)(cases)
    return settings(deadline=None, max_examples=60)(cases)


@closure_cases
def test_subformula_closure_matches_the_definitional_closure(seeds, size_cap, max_pool):
    assert _closure_or_error(subformula_closure, seeds, size_cap, max_pool) == _closure_or_error(
        _definitional_closure, seeds, size_cap, max_pool
    )


@closure_cases
def test_closure_records_the_instances_recognition_finds(seeds, size_cap, max_pool):
    try:
        pool = subformula_closure(seeds, size_cap, max_pool=max_pool)
    except UsageError:
        return
    for kind, shape in (("r1", r1_shape), ("r2", r2_shape), ("r3", r3_shape)):
        recorded = pool.instances[kind]
        assert len(set(recorded)) == len(recorded)
        assert set(recorded) == {w for w in pool if shape(w)}
    # the closure's record and recognition over a plain tuple ground the same system
    for variant in VARIANTS:
        for n in [None] if variant == "standard" else [1, 2]:
            assert pd_system(variant, pool, n=n) == pd_system(variant, tuple(pool), n=n)


def _assert_generic_grounding(system, pool):
    """`system`'s grounding, built by `pd_system` with bit i for pool
    formula i, is the one the generic per-rule loop builds for its rules."""
    generic_system = RuleSystem(system.name, system.language, system.rules)
    assert system == generic_system and hash(system) == hash(generic_system)
    assert system.by_id == generic_system.by_id
    built, generic = system.grounded, generic_system.grounded
    assert built.language == generic.language
    assert tuple(built.elements) == tuple(generic.elements) and built.bits == generic.bits
    assert built.insertable == generic.insertable
    assert built.conclusions == generic.conclusions
    assert list(built.inserted.items()) == list(generic.inserted.items())
    assert built.arcs == generic.arcs
    assert built.sources == generic.sources
    assert list(built.users.items()) == list(generic.users.items())
    assert list(built.producers.items()) == list(generic.producers.items())
    # the elements pd_system builds unchecked are the checked ones, bit i for pool formula i
    assert [type(e) for e in built.elements] == [Element] * len(pool)
    assert list(built.elements) == [Element(wff_token(w)) for w in pool]


@closure_cases
def test_pd_grounding_is_the_generic_grounding(seeds, size_cap, max_pool):
    try:
        pool = subformula_closure(seeds, size_cap, max_pool=max_pool)
    except UsageError:
        return
    for variant in VARIANTS:
        for n in (1, 2):
            index = None if variant == "standard" else n
            for given_pool in (pool, tuple(pool)):
                _assert_generic_grounding(pd_system(variant, given_pool, n=index), pool)


def test_a_pool_survives_copy_and_pickle():
    pool = subformula_closure([bridge_axiom(1), P2], 22)
    assert pool.instances["r1"] and pool.instances["r3"]
    for round_trip in (copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))):
        again = round_trip(pool)
        assert type(again) is Pool
        assert tuple(again) == tuple(pool)
        assert again.instances == pool.instances
        assert pd_system("positive", again, n=1) == pd_system("positive", pool, n=1)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(wffs(max_depth=2), min_size=1, max_size=3),
    st.integers(min_value=4, max_value=22),
    st.sampled_from([None, 1, 2, 3]),
)
@example([Impl(Neg(P0), Neg(P1)), P1, P0], 22, 1)
@example([Impl(Neg(P0), Neg(P0)), P1], 22, 2)
def test_variant_axioms_match_the_schema_oracle(seeds, size_cap, bridge):
    # a drawn bridge axiom widens the cap to fit it; its index is the variant's n or another
    if bridge is not None:
        seeds, size_cap = seeds + [bridge_axiom(bridge)], 22
    try:
        pool = subformula_closure(seeds, size_cap, max_pool=400)
    except UsageError:
        return
    for variant in VARIANTS:
        for n in (1, 2):
            expected = oracle_axioms(variant, pool, n)
            index = None if variant == "standard" else n
            for given_pool in (pool, tuple(pool)):
                system = pd_system(variant, given_pool, n=index)
                assert system.rule("axioms") == UnaryRule(
                    "axioms", formula_subset(system, expected)
                ), (variant, n)


# ---------------------------------------------------------------------------
# deductive systems


def test_pd_system_validation():
    pool = subformula_closure([P0, P1], 12)
    with pytest.raises(UsageError, match="unknown variant"):
        pd_system("clever", pool)
    with pytest.raises(UsageError, match="needs an index"):
        pd_system("restricted-mp", pool)
    with pytest.raises(UsageError, match="takes no index"):
        pd_system("standard", pool, n=1)
    with pytest.raises(UsageError, match="non-empty"):
        pd_system("standard", [])
    with pytest.raises(UsageError, match="subformula-closed"):
        pd_system("standard", [Impl(P0, P1)])


def test_standard_system_detaches_in_three_steps():
    pool = subformula_closure([Impl(P1, P0)], 8)
    assert set(pool) == {P0, P1, Impl(P1, P0)}
    system = pd_system("standard", pool)
    hyp = formula_subset(system, [Impl(P1, P0), P1])
    result = saturate(system, hyp)
    assert wff_element(P0) in result.closure
    assert min_derivation_size(system, hyp, wff_element(P0), cap=5) == 3


def test_restricted_detachment_blocks_other_indices():
    pool = subformula_closure([Impl(P2, P0)], 8)
    hyps = [Impl(P2, P0), P2]
    blocked = pd_system("restricted-mp", pool, n=1)
    closure = saturate(blocked, formula_subset(blocked, hyps)).closure
    assert wff_element(P0) not in closure
    allowed = pd_system("restricted-mp", pool, n=2)
    closure = saturate(allowed, formula_subset(allowed, hyps)).closure
    assert wff_element(P0) in closure


def test_positive_variant_needs_the_bridge_to_reach_atom0():
    pool = subformula_closure([bridge_axiom(1)], 22)
    system = pd_system("positive", pool, n=1)
    axiom_elements = set(system.rule("axioms").axioms.members)
    assert wff_element(bridge_axiom(1)) in axiom_elements
    # plain R3 instances with a non-tautological transform are excluded
    # (the mirror image of the bridge, so it is not special-cased)
    r3 = Impl(Impl(Neg(P1), Neg(P0)), Impl(P0, P1))
    assert wff_element(r3) in {wff_element(w) for w in pool}
    assert wff_element(r3) not in axiom_elements
    # and under the standard variant the same instance is an axiom
    standard = pd_system("standard", pool)
    assert wff_element(r3) in set(standard.rule("axioms").axioms.members)


def test_missing_atom_variant_drops_axioms_naming_atom0():
    pool = subformula_closure([bridge_axiom(1)], 22)
    system = pd_system("missing-atom", pool, n=1)
    axiom_wffs = {element_wff(e) for e in system.rule("axioms").axioms}
    assert bridge_axiom(1) in axiom_wffs
    assert all(w == bridge_axiom(1) or 0 not in atoms(w) for w in axiom_wffs)


def test_bridge_derivation_needs_five_steps():
    # insert both hypotheses, insert the bridge axiom, detach twice
    negs = Impl(Neg(P0), Neg(P1))
    pool = tuple(
        sorted(
            subformulas(negs) | subformulas(bridge_axiom(1)) | {P1},
            key=wff_token,
        )
    )
    for variant in ("restricted-mp", "missing-atom", "positive"):
        system = pd_system(variant, pool, n=1)
        hyp = formula_subset(system, [negs, P1])
        result = saturate(system, hyp)
        assert wff_element(P0) in result.closure
        assert min_derivation_size(system, hyp, wff_element(P0), cap=7) == 5


# pd_system as first written: the axioms filtered per variant on the
# shapes (`oracle_axioms`), detachment instantiated by parsing each
# element's name back into its formula, and closure checked against every
# formula's full subformula set.  These oracles state each part from its
# definition.


def _parsed_detachment(variant, n, pool_elements):
    wffs = {parse(e.name): e for e in pool_elements}
    triples = set()
    for w, e in wffs.items():
        if not (isinstance(w, Impl) and w.antecedent in wffs and w.consequent in wffs):
            continue
        atom_to_p0 = isinstance(w.antecedent, Atom) and w.antecedent.index >= 1 and w.consequent == P0
        if variant == "restricted-mp" and atom_to_p0 and w.antecedent.index != n:
            continue
        triples.add((e, wffs[w.antecedent], wffs[w.consequent]))
    return frozenset(triples)


def _is_subformula_closed(pool):
    pool_set = set(pool)
    return all(subformulas(w) <= pool_set for w in pool_set)


def _immediate_parts(w):
    if isinstance(w, Neg):
        return (w.operand,)
    if isinstance(w, Impl):
        return (w.antecedent, w.consequent)
    return ()


small_wffs = st.recursive(
    st.builds(Atom, st.integers(min_value=0, max_value=2)),
    lambda inner: st.one_of(st.builds(Neg, inner), st.builds(Impl, inner, inner)),
    max_leaves=4,
)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(small_wffs, min_size=1, max_size=3),
    st.integers(min_value=4, max_value=22),
    st.sampled_from(VARIANTS),
    st.integers(min_value=1, max_value=3),
    st.booleans(),
)
def test_pd_system_matches_its_definitional_oracles(seeds, size_cap, variant, n, with_bridge):
    if with_bridge:
        seeds, size_cap = seeds + [bridge_axiom(n)], 22
    try:
        pool = subformula_closure(seeds, size_cap, max_pool=400)
    except UsageError:
        return
    system = pd_system(variant, pool, n=None if variant == "standard" else n)
    assert {e.name for e in system.rule("axioms").axioms} == {
        _printed(w) for w in oracle_axioms(variant, pool, n)
    }
    tuples = system.rule("mp").tuples
    assert set(tuples) == _parsed_detachment(variant, n, frozenset(system.language.elements))
    # sorted by element names, so tuple numbers do not depend on set order
    assert list(tuples) == sorted(tuples)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(small_wffs, min_size=1, max_size=3),
    st.integers(min_value=4, max_value=16),
    st.sampled_from(VARIANTS),
    st.data(),
)
def test_pd_system_refuses_exactly_the_pools_missing_a_part(seeds, size_cap, variant, data):
    try:
        pool = subformula_closure(seeds, size_cap, max_pool=400)
    except UsageError:
        return
    victim = data.draw(st.sampled_from(pool))
    damaged = [w for w in pool if w != victim]
    if not damaged:
        return
    try:
        pd_system(variant, damaged, n=None if variant == "standard" else 1)
    except UsageError as exc:
        assert not _is_subformula_closed(damaged)
        named = re.fullmatch(r"pool is not subformula-closed: (.+), part of (.+), is missing", str(exc))
        part, whole = parse(named.group(1)), parse(named.group(2))
        assert whole in damaged
        assert part not in damaged
        assert part in _immediate_parts(whole)
    else:
        assert _is_subformula_closed(damaged)


def test_pd_system_names_the_missing_part():
    with pytest.raises(UsageError) as info:
        pd_system("standard", [P1, Impl(P0, P1)])
    assert str(info.value) == "pool is not subformula-closed: P0, part of (P0 -> P1), is missing"


def test_pd_system_neither_parses_nor_collects_subformulas(monkeypatch):
    hyps = [Impl(P2, P0), P2, Impl(Neg(P0), Neg(P1)), P1]
    pool = subformula_closure(hyps + [bridge_axiom(1)], 22)
    calls = Counter()
    for name in ("parse", "subformulas"):

        def counting(*args, _name=name, _original=getattr(conseq.propositional, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(conseq.propositional, name, counting)
    for variant, n in (("standard", None), ("restricted-mp", 2), ("missing-atom", 1), ("positive", 1)):
        system = pd_system(variant, pool, n=n)
        closure = saturate(system, formula_subset(system, hyps)).closure
        assert wff_element(P0) in closure
    assert calls == Counter()
    # the counters do count
    conseq.propositional.parse("P0")
    conseq.propositional.subformulas(P0)
    assert calls == Counter({"parse": 1, "subformulas": 1})


# ---------------------------------------------------------------------------
# certificates


def test_certificate_semantic_route():
    result = certificate_non_derivable(
        "standard", [Impl(P2, P0)], Impl(P1, P0)
    )
    assert isinstance(result, Certified)
    assert str(result.valuation) == "{P0=false, P1=true, P2=false}"
    assert result.transform == Impl(Impl(P2, P0), Impl(P1, P0))
    assert not eval_wff(result.transform, result.valuation)


def test_certificate_semantic_route_covers_all_variants():
    for variant, n in (
        ("standard", None),
        ("restricted-mp", 1),
        ("missing-atom", 1),
        ("positive", 1),
    ):
        result = certificate_non_derivable(
            variant, [Impl(P2, P0)], Impl(P1, P0), n=n
        )
        assert isinstance(result, Certified)


def test_certificate_bounded_route():
    # the hypotheses entail the goal, but index-1 restricted detachment
    # cannot detach P2 -> P0; the search saturates without reaching P0
    result = certificate_non_derivable(
        "restricted-mp", [Impl(P2, P0), P2], P0, n=1, size_cap=22
    )
    assert isinstance(result, BoundedEvidence)
    assert result.goal == P0
    assert result.size_cap == 22
    assert 0 < result.closure_size <= result.pool_size
    # a finished search of the same query stands in for saturating again
    search = search_pool("restricted-mp", [Impl(P2, P0), P2], P0, n=1, size_cap=22)
    assert result == certificate_non_derivable(
        "restricted-mp", [Impl(P2, P0), P2], P0, n=1, size_cap=22, search=search
    )


def test_certificate_refusals():
    with pytest.raises(UsageError, match="already a hypothesis"):
        certificate_non_derivable("standard", [P0], P0)
    with pytest.raises(UsageError, match="derivable"):
        certificate_non_derivable("standard", [Impl(P1, P0), P1], P0)
    with pytest.raises(UsageError, match="unknown variant"):
        certificate_non_derivable("clever", [P1], P0)


def test_certificate_takes_at_most_max_depth_hypotheses():
    # the hypotheses-to-goal chain nests once per hypothesis
    assert isinstance(certificate_non_derivable("standard", [P1] * MAX_DEPTH, P2), Certified)
    with pytest.raises(UsageError) as info:
        certificate_non_derivable("standard", [P1] * (MAX_DEPTH + 1), P2)
    assert str(info.value) == (
        f"a non-derivability certificate takes at most {MAX_DEPTH} hypotheses, not {MAX_DEPTH + 1}"
    )


def _chain(hypotheses, goal):
    for h in reversed(hypotheses):
        goal = Impl(h, goal)
    return goal


@settings(deadline=None, max_examples=80)
@given(
    st.sampled_from(VARIANTS),
    st.sampled_from([1, 2]),
    st.lists(wffs(max_depth=2), max_size=3),
    wffs(max_depth=2),
    st.sampled_from([6, 10, 14, 22]),
)
@example("standard", 1, [Impl(P2, P0)], Impl(P1, P0), 14)
@example("positive", 1, [Impl(Neg(P0), Neg(P1)), P1], P0, 22)
def test_a_falsified_chain_keeps_its_goal_out_of_the_closure(variant, n, hypotheses, goal, size_cap):
    # the search is the reference for certifying before grounding
    n = None if variant == "standard" else n
    try:
        search = search_pool(variant, hypotheses, goal, n=n, size_cap=size_cap, max_pool=400)
    except UsageError:
        return
    falsified = falsifying_valuation(_chain(hypotheses, goal)) is not None
    if falsified:
        assert wff_element(goal) not in search.result.closure
    pool = search.system.language.elements
    first = certificate_first(hypotheses, goal, pool)
    if first is not None:
        assert falsified
        assert first == certificate_non_derivable(variant, hypotheses, goal, n=n)
    # the query tries that table first and answers as the search does otherwise
    answer = query(variant, hypotheses, goal, n=n, size_cap=size_cap, max_pool=400)
    if first is not None:
        assert answer == first
    elif wff_element(goal) in search.result.closure:
        assert isinstance(answer, PoolSearch)
        assert answer.result.closure == search.result.closure
    else:
        assert answer == certificate_non_derivable(
            variant, hypotheses, goal, n=n, size_cap=size_cap, max_pool=400, search=search
        )


def test_certificate_first_runs_the_truth_table_only_within_the_pool(monkeypatch):
    tables = Counter()
    original = conseq.propositional.falsifying_valuation

    def counted(w):
        tables[wff_to_text(w)] += 1
        return original(w)

    monkeypatch.setattr(conseq.propositional, "falsifying_valuation", counted)
    hyps, goal = [Impl(P2, P0)], Impl(P1, P0)  # three atoms: 8 valuations
    assert certificate_first(hyps, goal, [P0] * 7) is None
    assert tables == Counter()
    assert certificate_first(hyps, goal, [P0] * 8) == certificate_non_derivable("standard", hyps, goal)
    # a tautological chain within the pool is looked at and left to the search
    assert certificate_first([Impl(P1, P0), P1], P0, [P0] * 4) is None
    # more hypotheses than the chain may nest
    assert certificate_first([P1] * (MAX_DEPTH + 1), P2, [P0] * 10) is None
    assert certificate_first([P1] * MAX_DEPTH, P2, [P0] * 4) is not None
    # 21 atoms against 222 formulas: 2^21 valuations are never enumerated
    many = [Atom(i) for i in range(1, 21)] + [Impl(Atom(20), P0)]
    assert certificate_first(many, P0, [P0] * 222) is None
    assert set(tables) == {
        "((P2 -> P0) -> (P1 -> P0))",
        "((P1 -> P0) -> (P1 -> P0))",
        wff_to_text(_chain([P1] * MAX_DEPTH, P2)),
    }
