"""Subset algebra checked against a plain-set oracle."""

import copy
import itertools
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conseq.engine import saturate
from conseq.errors import DomainError, UsageError
from conseq.fileformat import load_system
from conseq.language import (
    CofiniteSubset,
    Element,
    EnumeratedLanguage,
    ExplicitLanguage,
    FiniteSubset,
    all_subsets,
    full_subset,
    subsets_equal,
)

DATA = Path(__file__).parent / "data"
LANG = ExplicitLanguage.of_tokens(["a", "b", "c", "d"])
ELEMENTS = list(LANG.elements)


def all_finite_subsets():
    for k in range(len(ELEMENTS) + 1):
        for members in itertools.combinations(ELEMENTS, k):
            yield FiniteSubset(LANG, members)


# ---------------------------------------------------------------------------
# elements and languages


def test_element_names_are_validated():
    with pytest.raises(DomainError):
        Element("")
    with pytest.raises(DomainError):
        Element("has space")
    with pytest.raises(DomainError):
        Element("no#hash")
    with pytest.raises(DomainError):
        Element("x=>y")


WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


def test_element_names_refuse_every_whitespace_code_point():
    for c in WHITESPACE:
        with pytest.raises(DomainError, match="whitespace"):
            Element("a" + c + "b")


_names = st.text(alphabet=st.characters(blacklist_characters=WHITESPACE + ["#"]), min_size=1).filter(
    lambda name: "=>" not in name
)
_round_trips = (copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e)))


@settings(deadline=None)
@given(_names, _names)
def test_element_names_without_reserved_text_are_accepted_and_hash_once(name, other):
    e = Element(name)
    assert e.name == name
    assert hash(e) == hash((name,))
    assert e == Element(name) == (name,) and hash(e) == hash(Element(name))
    assert (e < Element(other)) == (name < other) and (e <= Element(other)) == (name <= other)
    assert [x.name for x in sorted([Element(other), e])] == sorted([other, name])
    assert repr(e) == f"Element(name={name!r})" and str(e) == name
    assert not hasattr(e, "__dict__")
    for round_trip in _round_trips:
        again = round_trip(e)
        assert type(again) is Element and again == e and hash(again) == hash(e)
    # a forged element, built around the name check, is refused on the way back
    forged = tuple.__new__(Element, (name + " ",))
    for round_trip in _round_trips:
        with pytest.raises(DomainError, match="whitespace"):
            round_trip(forged)


_WHITESPACE = re.compile(r"\s")


def _checked_element(name):
    """`Element(name)` as first written, the oracle for its alphanumeric
    shortcut: every name runs the regex and both scans."""
    if not name:
        raise DomainError("element name must be non-empty")
    if _WHITESPACE.search(name):
        raise DomainError(f"element name may not contain whitespace: {name!r}")
    if "#" in name:
        raise DomainError(f"element name may not contain '#': {name!r}")
    if "=>" in name:
        raise DomainError(f"element name may not contain '=>': {name!r}")
    return (name,)


def test_alphanumeric_code_points_hold_nothing_a_name_refuses():
    for c in map(chr, range(sys.maxunicode + 1)):
        if c.isalnum():
            assert not c.isspace() and c not in "#=>" and not _WHITESPACE.search(c), hex(ord(c))


def _element_outcome(build, name):
    try:
        return build(name)
    except DomainError as exc:
        return str(exc)


_any_names = st.text(
    alphabet=st.characters() | st.sampled_from(["a", "Z", "7", "é", "٣", "#", "=", ">", " ", "\t", "\u3000"]),
    max_size=6,
)


@settings(deadline=None, max_examples=500)
@given(_any_names)
def test_elements_match_the_fully_checked_constructor(name):
    built = _element_outcome(Element, name)
    assert built == _element_outcome(_checked_element, name)
    assert type(built) is (Element if isinstance(built, tuple) else str)


def test_unpickled_elements_hash_like_fresh_ones():
    # str hashes are salted per process: an Element pickled under another
    # hash seed must not bring its stored hash along.
    dumped = subprocess.run(
        [sys.executable, "-c", "import pickle, sys; from conseq.language import Element; "
         "sys.stdout.buffer.write(pickle.dumps([Element('a'), Element('b')]))"],
        env={**os.environ, "PYTHONHASHSEED": "123", "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True,
        check=True,
    ).stdout
    loaded = pickle.loads(dumped)
    assert [hash(e) for e in loaded] == [hash(Element("a")), hash(Element("b"))]
    assert set(loaded) == {Element("a"), Element("b")}


def test_explicit_language_sorts_and_rejects_duplicates():
    lang = ExplicitLanguage.of_tokens(["b", "a"])
    assert [e.name for e in lang.elements] == ["a", "b"]
    with pytest.raises(DomainError):
        ExplicitLanguage.of_tokens(["a", "a"])
    with pytest.raises(DomainError):
        ExplicitLanguage.of_tokens([])


def test_enumerated_language_prefix_membership():
    lang = EnumeratedLanguage.prefixed("f")
    assert Element("f0") in lang
    assert Element("f17") in lang
    assert Element("f01") not in lang  # no leading zeros
    assert Element("g0") not in lang
    assert lang.index_of(Element("f5")) == 5
    assert lang.element(3) == Element("f3")
    assert lang.prefix_elements(3) == (Element("f0"), Element("f1"), Element("f2"))


def test_enumerated_language_prefix_label_round_trip():
    lang = EnumeratedLanguage.prefixed("atom")
    assert lang.prefix == "atom"
    assert lang == EnumeratedLanguage.prefixed("atom")
    assert lang != EnumeratedLanguage.prefixed("other")


_digits_and_lookalikes = st.text(alphabet="0123456789\u00b2\u0661x", max_size=5)


@settings(deadline=None, max_examples=400)
@given(_names | st.sampled_from(["f", "x1", "a0"]), _digits_and_lookalikes)
def test_enumerated_membership_matches_the_prefix_regex(prefix, tail):
    # the regex the language used to carry, kept here as the oracle
    pattern = re.compile(re.escape(prefix) + r"(0|[1-9][0-9]*)\Z")
    lang = EnumeratedLanguage.prefixed(prefix)
    for name in (prefix + tail, tail):
        if not name:
            continue
        match = pattern.match(name)
        expected = int(match.group(1)) if match else None
        assert lang.index_of(Element(name)) == expected, name
        assert (Element(name) in lang) == (match is not None), name
        if expected is not None:
            assert lang.element(expected) == Element(name)


@pytest.mark.parametrize(
    "language", [EnumeratedLanguage("f"), ExplicitLanguage.of_tokens(["a", "f1"])], ids=repr
)
@pytest.mark.parametrize("name", ["f1", "a", "f01", "g2", "f"])
def test_a_bare_name_tuple_is_a_member_exactly_when_its_element_is(language, name):
    assert ((name,) in language) == (Element(name) in language)


def test_enumerated_systems_survive_pickle_and_deepcopy():
    system = load_system(DATA / "enumerated.system")
    lang = system.language
    hypotheses = FiniteSubset.of(lang, ["f0", "f7"])
    before = saturate(system, hypotheses)
    cofinite = CofiniteSubset.of(lang, ["f2", "f1"])
    for round_trip in _round_trips[1:]:
        again = round_trip(system)
        assert again == system and again.language == lang
        after = saturate(again, round_trip(hypotheses))
        assert after.closure == before.closure
        assert list(after.witnesses.items()) == list(before.witnesses.items())
        assert round_trip(hypotheses) == hypotheses
        assert round_trip(cofinite) == cofinite and Element("f1") not in round_trip(cofinite)


# ---------------------------------------------------------------------------
# finite subsets against the set oracle


def test_finite_subset_canonicalizes():
    s = FiniteSubset.of(LANG, ["c", "a", "c"])
    assert [e.name for e in s.members] == ["a", "c"]
    assert str(s) == "{a,c}"
    assert str(FiniteSubset.empty(LANG)) == "{}"


def test_finite_subset_rejects_foreign_elements():
    with pytest.raises(DomainError):
        FiniteSubset.of(LANG, ["z"])
    s = FiniteSubset.of(LANG, ["a"])
    with pytest.raises(DomainError):
        s.contains(Element("z"))


def test_finite_algebra_matches_set_oracle():
    for s in all_finite_subsets():
        for t in all_finite_subsets():
            ss, tt = set(s.members), set(t.members)
            assert s.is_subset_of(t) == (ss <= tt)
            assert set(s.union(t).members) == ss | tt
            assert set(s.intersect(t).members) == ss & tt
            assert (s == t) == (ss == tt)
            assert subsets_equal(s, t) == (ss == tt)


def test_operator_sugar_matches_methods():
    s = FiniteSubset.of(LANG, ["a", "b"])
    t = FiniteSubset.of(LANG, ["b", "c"])
    assert s | t == s.union(t)
    assert s & t == s.intersect(t)
    assert (s <= t) == s.is_subset_of(t)


def test_all_subsets_is_exhaustive_and_binary_ordered():
    subsets = list(all_subsets(LANG))
    assert len(subsets) == 16
    assert len(set(subsets)) == 16
    assert subsets[0] == FiniteSubset.empty(LANG)
    assert subsets[-1] == full_subset(LANG)
    # mask order: element i of the sorted language is bit i
    assert subsets[1] == FiniteSubset.of(LANG, ["a"])
    assert subsets[6] == FiniteSubset.of(LANG, ["b", "c"])


# ---------------------------------------------------------------------------
# cofinite subsets


EN = EnumeratedLanguage.prefixed("f")


def _fin(*indices):
    return FiniteSubset(EN, tuple(Element(f"f{i}") for i in indices))


def _cof(*excluded):
    return CofiniteSubset(EN, tuple(Element(f"f{i}") for i in excluded))


def test_cofinite_requires_enumerated_language():
    with pytest.raises(UsageError):
        CofiniteSubset(LANG, (Element("a"),))


def test_cofinite_membership():
    c = _cof(0, 2)
    assert Element("f1") in c
    assert Element("f0") not in c
    assert Element("f2") not in c
    assert str(c) == "L-{f0,f2}"
    assert str(CofiniteSubset.full(EN)) == "L"


def test_cofinite_subset_order():
    # a cofinite set is never inside a finite one
    assert not _cof(0).is_subset_of(_fin(1, 2, 3))
    # finite inside cofinite iff it avoids the exclusions
    assert _fin(1, 2).is_subset_of(_cof(0))
    assert not _fin(0, 1).is_subset_of(_cof(0))
    # cofinite inside cofinite iff exclusions shrink
    assert _cof(0, 1).is_subset_of(_cof(0))
    assert not _cof(0).is_subset_of(_cof(0, 1))
    assert _cof(0).is_subset_of(_cof(0))


def test_cofinite_union_and_intersection():
    assert subsets_equal(_cof(0, 1).union(_fin(1)), _cof(0))
    assert subsets_equal(_cof(0).union(_cof(1)), CofiniteSubset.full(EN))
    assert subsets_equal(_cof(0).intersect(_fin(0, 1, 2)), _fin(1, 2))
    assert subsets_equal(_cof(0).intersect(_cof(1)), _cof(0, 1))
    assert subsets_equal(_fin(0, 1).union(_cof(0)), CofiniteSubset.full(EN))
    assert subsets_equal(_fin(0, 1).intersect(_cof(0)), _fin(1))


def test_full_subset_picks_the_right_representation():
    assert isinstance(full_subset(LANG), FiniteSubset)
    assert isinstance(full_subset(EN), CofiniteSubset)
    assert not full_subset(EN).excluded


def test_all_subsets_refuses_enumerated_language():
    with pytest.raises(UsageError):
        list(all_subsets(EN))


# ---------------------------------------------------------------------------
# properties


subset_strategy = st.builds(
    lambda mask: FiniteSubset(
        LANG, tuple(ELEMENTS[i] for i in range(4) if mask >> i & 1)
    ),
    st.integers(min_value=0, max_value=15),
)


@settings(deadline=None)
@given(subset_strategy, subset_strategy, subset_strategy)
def test_lattice_laws(s, t, u):
    assert s.union(t) == t.union(s)
    assert s.intersect(t) == t.intersect(s)
    assert s.union(t.union(u)) == s.union(t).union(u)
    assert s.intersect(t.intersect(u)) == s.intersect(t).intersect(u)
    assert s.union(s.intersect(t)) == s
    assert s.intersect(s.union(t)) == s


@settings(deadline=None)
@given(subset_strategy, subset_strategy)
def test_subset_order_is_antisymmetric(s, t):
    if s.is_subset_of(t) and t.is_subset_of(s):
        assert s == t
    assert s.is_subset_of(s.union(t))
    assert s.intersect(t).is_subset_of(s)


# Each width's language: elements w00, w01, ... in bit order.
_WIDE_LANGUAGES = [ExplicitLanguage.of_tokens([f"w{i:02d}" for i in range(max(w, 1))]) for w in range(25)]


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 24).flatmap(lambda w: st.tuples(st.just(w), st.integers(0, (1 << w) - 1))))
def test_subsets_of_masks_read_every_bit_as_the_digit_parse_does(drawn):
    width, mask = drawn
    language = _WIDE_LANGUAGES[width]
    # the oracle: each reversed binary digit of the mask parsed with int()
    expected = tuple(itertools.compress(language.elements, map(int, bin(mask)[:1:-1])))
    subset = FiniteSubset._of_mask(language, mask)
    assert subset.members == expected and subset.mask == mask
    assert subset == FiniteSubset(language, expected)
