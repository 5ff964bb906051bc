"""The plain-text system format: loading, saving, and round-trips.

tests/data holds canonical files (comment-free, sorted language line,
trailing newline): loading and saving one reproduces it byte for byte.
systems/ at the repository root holds commented files for humans;
those round-trip semantically, not byte for byte.
"""

import string
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conseq.engine import union_systems
from conseq.errors import ConseqError, InputSyntaxError, UsageError
from conseq.fileformat import dumps_system, load_system, loads_system, save_system
from conseq.language import Element, EnumeratedLanguage, ExplicitLanguage, FiniteSubset
from conseq.rules import (
    Rule,
    RuleSystem,
    TupleRule,
    UnaryRule,
    rules_extensionally_equal,
)
from conseq.sampling import random_system, seeded, small_language

from reference import words

DATA = Path(__file__).parent / "data"
SHOWCASE = Path(__file__).parent.parent / "systems"


def _same_system(left: RuleSystem, right: RuleSystem) -> bool:
    if len(left.rules) != len(right.rules):
        return False
    return all(
        a.rule_id == b.rule_id and rules_extensionally_equal(a, b)
        for a, b in zip(left.rules, right.rules)
    )


def test_corpus_files_round_trip_byte_for_byte():
    files = sorted(DATA.glob("*.system"))
    assert len(files) >= 5
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert dumps_system(loads_system(text)) == text, path.name


def test_showcase_files_round_trip_semantically():
    files = sorted(SHOWCASE.glob("*.system"))
    assert len(files) >= 5
    for path in files:
        system = load_system(path)
        assert system.name == path.stem
        again = loads_system(dumps_system(system), name=system.name)
        assert _same_system(system, again), path.name


def test_save_load_through_the_filesystem(tmp_path):
    system = load_system(DATA / "axioms.system")
    target = tmp_path / "copy.system"
    save_system(system, target)
    assert target.read_text(encoding="utf-8") == (DATA / "axioms.system").read_text(
        encoding="utf-8"
    )
    assert load_system(target).name == "copy"


def test_a_leading_byte_order_mark_is_dropped(tmp_path):
    text = "language: a b\nrule r: a => b\n"
    plain, marked = tmp_path / "f.system", tmp_path / "marked" / "f.system"
    marked.parent.mkdir()
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    system = load_system(marked)
    assert _same_system(system, load_system(plain))
    assert system.name == "f"
    assert dumps_system(system) == text


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=100_000))
def test_dumps_loads_is_idempotent_on_random_systems(seed):
    system = random_system(seeded(seed, "fileformat"), small_language(5))
    dumped = dumps_system(system)
    again = loads_system(dumped, name=system.name)
    assert dumps_system(again) == dumped
    assert _same_system(system, again)


def test_loaded_details():
    system = loads_system(
        "language: enumerated f\n"
        "axioms seed: f0 f3\n"
        "rule grow: f0 => f1  # comment\n"
        "\n"
        "rule grow: f1 => f2\n",
        name="growth",
    )
    assert system.name == "growth"
    assert isinstance(system.language, EnumeratedLanguage)
    assert system.rule("seed").axioms.members == (Element("f0"), Element("f3"))
    assert system.rule("grow").tuples == (
        (Element("f0"), Element("f1")),
        (Element("f1"), Element("f2")),
    )


def test_parse_errors_name_the_line():
    cases = [
        ("rule r: a => b\n", "language line must come first", "line 1"),
        ("language: a b\nlanguage: a\n", "declared twice", "line 2"),
        ("language: a a\n", "distinct", "line 1"),
        ("language:\n", "empty language", "line 1"),
        ("language: enumerated\n", "enumerated <prefix>", "line 1"),
        ("language: enumerated f g\n", "enumerated <prefix>", "line 1"),
        ("language: enumerated x=>y\n", "may not contain '=>'", "line 1"),
        ("language: a b\nrule r: a => z\n", "unknown element 'z'", "line 2"),
        ("language: a b\naxioms x: a\naxioms x: b\n", "declared twice", "line 3"),
        ("language: a b\nrule r: a => b\naxioms r: a\n", "declared twice", "line 3"),
        (
            "language: a b c\nrule r: a => b\nrule r: a b => c\n",
            "1 premises elsewhere, 2 here",
            "line 3",
        ),
        ("language: a b\nrule r: a b\n", "'<premises> => <conclusion>'", "line 2"),
        ("language: a b\nrule r: => a\n", "at least one premise", "line 2"),
        ("language: a b\nrule r: a => a b\n", "exactly one conclusion", "line 2"),
        ("language a b\n", "expected 'language:'", "line 1"),
        ("language: a b\nfrob x: a\n", "unrecognized declaration", "line 2"),
        ("# nothing here\n", "missing language", "end of input"),
    ]
    for text, message, where in cases:
        with pytest.raises(InputSyntaxError) as info:
            loads_system(text)
        assert message in str(info.value), text
        assert where in str(info.value), text


def test_unsaveable_systems_are_refused():
    lang = ExplicitLanguage.of_tokens(["a", "b"])
    a, b = Element("a"), Element("b")

    hollow = RuleSystem("hollow", lang, (TupleRule("r", 2, ()),))
    with pytest.raises(UsageError, match="no premise tuples"):
        dumps_system(hollow)

    for names in (["enumerated", "x"], ["enumerated", "x", "y"]):
        keyword_first = ExplicitLanguage.of_tokens(names)
        with pytest.raises(UsageError, match="'enumerated' reads as the keyword") as info:
            dumps_system(RuleSystem("k", keyword_first, ()))
        assert repr(keyword_first) in str(info.value)

    for rule_id in ("", "r:s", "my sys.r", "r#1", "r\u2028s"):
        with pytest.raises(UsageError, match="has no line form") as info:
            dumps_system(RuleSystem("ids", lang, (TupleRule(rule_id, 2, ((a, b),)),)))
        assert repr(rule_id) in str(info.value)
    named = loads_system("language: a b\nrule r: a => b\n", name="my sys")
    with pytest.raises(UsageError, match="'my sys.r' has no line form"):
        dumps_system(union_systems([named]))


@settings(deadline=None, max_examples=300)
@given(st.text(max_size=6), st.booleans())
def test_any_rule_id_dumps_to_a_refusal_or_a_round_trip(rule_id, unary):
    lang = ExplicitLanguage.of_tokens(["a", "b"])
    if unary:
        rule: Rule = UnaryRule(rule_id, FiniteSubset.of(lang, ["b"]))
    else:
        rule = TupleRule(rule_id, 2, ((Element("a"), Element("b")),))
    system = RuleSystem("ids", lang, (rule,))
    try:
        dumped = dumps_system(system)
    except UsageError:
        return
    assert _same_system(loads_system(dumped), system)


def test_empty_axiom_line_round_trips():
    lang = ExplicitLanguage.of_tokens(["p", "q"])
    system = RuleSystem("anon", lang, (UnaryRule("none", FiniteSubset.empty(lang)),))
    dumped = dumps_system(system)
    assert dumped == "language: p q\naxioms none:\n"
    again = loads_system(dumped)
    assert again.rule("none").axioms.members == ()


# ---------------------------------------------------------------------------
# the per-token loader, kept as the oracle for the name-table loader: it
# builds, validates and membership-checks a new Element for every token
# occurrence and finds rule ids by scanning lists


def _per_token_element(token: str, language, where: str) -> Element:
    try:
        e = Element(token)
    except Exception as exc:
        raise InputSyntaxError(str(exc), where=where) from exc
    if e not in language:
        raise InputSyntaxError(f"unknown element {token!r}", where=where)
    return e


def _per_token_loads(text: str, *, name: str = "system") -> RuleSystem:
    language = None
    unary: list[tuple[str, list[Element]]] = []
    tuple_rules: dict[str, list[tuple[Element, ...]]] = {}
    order: list[tuple[str, str]] = []  # (kind, id) in first-seen order

    for lineno, raw in enumerate(text.splitlines(), start=1):
        where = f"line {lineno}"
        cut = raw.find("#")
        line = (raw if cut < 0 else raw[:cut]).strip()
        if not line:
            continue
        head, sep, rest = line.partition(":")
        if not sep:
            raise InputSyntaxError("expected 'language:', 'axioms <id>:' or 'rule <id>:'", where=where)
        head = head.strip()
        rest = rest.strip()

        if head == "language":
            if language is not None:
                raise InputSyntaxError("language declared twice", where=where)
            tokens = rest.split()
            if not tokens:
                raise InputSyntaxError("empty language declaration", where=where)
            if tokens[0] == "enumerated":
                if len(tokens) != 2:
                    raise InputSyntaxError("expected 'language: enumerated <prefix>'", where=where)
                language = EnumeratedLanguage.prefixed(tokens[1])
            else:
                try:
                    language = ExplicitLanguage(tuple(Element(t) for t in tokens))
                except Exception as exc:
                    raise InputSyntaxError(str(exc), where=where) from exc
            continue

        if language is None:
            raise InputSyntaxError("the language line must come first", where=where)

        parts = head.split()
        if len(parts) != 2 or parts[0] not in ("axioms", "rule"):
            raise InputSyntaxError(f"unrecognized declaration {head!r}", where=where)
        kind, rule_id = parts

        if kind == "axioms":
            if any(rid == rule_id for _, rid in order):
                raise InputSyntaxError(f"rule id {rule_id!r} declared twice", where=where)
            members = [_per_token_element(t, language, where) for t in rest.split()]
            unary.append((rule_id, members))
            order.append(("axioms", rule_id))
            continue

        premises_part, sep, conclusion_part = rest.partition("=>")
        if not sep:
            raise InputSyntaxError("rule lines need '<premises> => <conclusion>'", where=where)
        premise_tokens = premises_part.split()
        conclusion_tokens = conclusion_part.split()
        if not premise_tokens:
            raise InputSyntaxError("a rule needs at least one premise", where=where)
        if len(conclusion_tokens) != 1:
            raise InputSyntaxError("a rule line needs exactly one conclusion", where=where)
        premises = tuple(_per_token_element(t, language, where) for t in premise_tokens)
        conclusion = _per_token_element(conclusion_tokens[0], language, where)
        if rule_id in tuple_rules:
            expected = len(tuple_rules[rule_id][0]) - 1
            if len(premises) != expected:
                raise InputSyntaxError(
                    f"rule {rule_id!r} has {expected} premises elsewhere, {len(premises)} here",
                    where=where,
                )
        else:
            if any(rid == rule_id for _, rid in order):
                raise InputSyntaxError(f"rule id {rule_id!r} declared twice", where=where)
            tuple_rules[rule_id] = []
            order.append(("rule", rule_id))
        tuple_rules[rule_id].append(premises + (conclusion,))

    if language is None:
        raise InputSyntaxError("missing language declaration", where="end of input")

    rules: list[Rule] = []
    for kind, rule_id in order:
        if kind == "axioms":
            members = next(m for rid, m in unary if rid == rule_id)
            rules.append(UnaryRule(rule_id, FiniteSubset(language, tuple(members))))
        else:
            tuples = tuple_rules[rule_id]
            rules.append(TupleRule(rule_id, len(tuples[0]), tuple(tuples)))
    return RuleSystem(name, language, tuple(rules))


def _outcome(load, text):
    try:
        return load(text)
    except ConseqError as exc:
        return type(exc).__name__, str(exc)


# Tokens in and out of both language kinds, names the Element checks
# refuse ('=>' inside, a lone '=>'), non-ASCII names, and near misses
# of the enumerated prefix (leading zero, bare prefix).
_TOKENS = ("a", "b", "c", "zz", "f0", "f1", "f7", "f10", "f01", "f", "é", "fé", "x=>y", "=>")
_NAMES = ("a", "b", "c", "é", "f0", "f1", "fé")  # valid explicit element names
_IDS = ("r", "s", "t", "u", "ü", "R1")
_ODD_LINES = ("frob x: a", "rule: a => b", "rule r s: a => b", "no colon", "language: a b")


@st.composite
def _system_texts(draw):
    """Mostly well-formed texts over one language, each line broken
    with a small chance, so that both loaders reach whole systems as
    well as every refusal."""

    def chance(k):  # about 1 in k; shrinks towards False, the well-formed side
        return draw(st.integers(0, k - 1)) == k - 1

    def tokens(low, high):
        pool = st.sampled_from(_TOKENS if chance(20) else valid)
        return draw(st.lists(pool, min_size=low, max_size=high))

    lines = []
    if chance(3):
        valid = ("f0", "f1", "f7", "f10", "f123")
        lines.append("language: enumerated" + ("" if chance(30) else " f"))
    elif chance(30):
        valid = _TOKENS
        lines.append("language: " + " ".join(draw(st.lists(st.sampled_from(_TOKENS), max_size=4))))
    elif not chance(30):
        valid = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=5, unique=True))
        lines.append("language: " + " ".join(draw(st.permutations(valid))))
    else:
        valid = _NAMES
    premise_counts = {rule_id: draw(st.integers(1, 3)) for rule_id in _IDS}
    axiom_ids = iter(("ax1", "ax2", "ax3", "ax4", "ax5", "ax6", "ax7", "ax8"))
    for _ in range(draw(st.integers(0, 8))):
        rule_id = draw(st.sampled_from(_IDS))
        if chance(15):
            lines.append(draw(st.sampled_from(_ODD_LINES + ("", "# a comment"))))
        elif chance(3):
            axiom_id = rule_id if chance(10) else next(axiom_ids)
            lines.append(f"axioms {axiom_id}: " + " ".join(tokens(0, 3)))
        else:
            count = draw(st.integers(0, 3)) if chance(10) else premise_counts[rule_id]
            premises = tokens(count, count)
            conclusions = tokens(0, 2) if chance(20) else tokens(1, 1)
            arrow = draw(st.sampled_from((" ", "=>"))) if chance(20) else " => "
            lines.append(f"rule {rule_id}: " + " ".join(premises) + arrow + " ".join(conclusions))
    return "\n".join(lines) + "\n"


@settings(deadline=None, max_examples=400)
@given(_system_texts())
def test_name_table_loader_matches_the_per_token_loader(text):
    assert _outcome(loads_system, text) == _outcome(_per_token_loads, text)


def test_name_table_loader_matches_the_per_token_loader_on_misses():
    for text, message in [
        ("language: enumerated f\nrule r: f0 => f01\n", "unknown element 'f01'"),
        ("language: enumerated f\nrule r: f0 => f1\naxioms s: f1 fé\n", "unknown element 'fé'"),
        ("language: a b\naxioms s: a x=>y\n", "may not contain '=>'"),
        ("language: a é\nrule ü: a => é\nrule ü: a é => a\n", "1 premises elsewhere, 2 here"),
    ]:
        kind, shown = _outcome(loads_system, text)
        assert kind == "InputSyntaxError" and message in shown, text
        assert (kind, shown) == _outcome(_per_token_loads, text)


def test_each_distinct_token_is_validated_once(monkeypatch):
    built = []
    new = Element.__new__

    def counted(cls, name):
        built.append(name)
        return new(cls, name)

    monkeypatch.setattr(Element, "__new__", counted)
    loads_system("language: b a\nrule r: a => b\nrule r: b => a\naxioms s: a b a\n")
    assert built == ["b", "a"]  # the language line only
    built.clear()
    loads_system("language: enumerated f\nrule r: f0 => f1\nrule r: f1 => f0\naxioms s: f1 f1\n")
    assert built == ["f", "f0", "f1"]  # the prefix, then each token's first occurrence


# ---------------------------------------------------------------------------
# canonical texts: what dumps_system writes, drawn directly

_LOWER = string.ascii_lowercase + "é"
_explicit_names = st.sets(words(_LOWER, _LOWER + string.digits, 3), min_size=1, max_size=6)
_enumerated_names = st.sets(st.integers(0, 30).map(lambda i: f"f{i}"), min_size=1, max_size=6)
_LETTERS = string.ascii_letters + "ß"
_rule_ids = st.lists(words(_LETTERS, _LETTERS + string.digits + "_", 3), unique=True, max_size=5)


@st.composite
def _canonical_texts(draw):
    if draw(st.booleans()):
        names = sorted(draw(_explicit_names))
        lines = ["language: " + " ".join(names)]
    else:
        names = sorted(draw(_enumerated_names))
        lines = ["language: enumerated f"]
    for rule_id in draw(_rule_ids):
        if draw(st.booleans()):
            members = sorted(draw(st.sets(st.sampled_from(names), max_size=4)))
            lines.append(f"axioms {rule_id}:" + "".join(f" {m}" for m in members))
        else:
            arity = draw(st.integers(2, 3))
            rows = draw(
                st.lists(
                    st.lists(st.sampled_from(names), min_size=arity, max_size=arity).map(tuple),
                    min_size=1,
                    max_size=4,
                    unique=True,
                )
            )
            lines.extend(f"rule {rule_id}: {' '.join(row[:-1])} => {row[-1]}" for row in rows)
    return "\n".join(lines) + "\n"


@settings(deadline=None, max_examples=200)
@given(_canonical_texts())
def test_canonical_texts_round_trip_byte_for_byte(text):
    assert dumps_system(loads_system(text)) == text



# ---------------------------------------------------------------------------
# canonical texts bent just off the loader's one-split line form: a bent
# line must get the same outcome as from the per-token loader, error
# type, message and line number included

# every break str.splitlines splits on
_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
_GAPS = (" ", "  ", "\t", "\u00a0", "\u3000")
_COMMENTS = ("#", " # note", "\t#x => y", "# rule r: a => b")
_BENDS = ("id", "count", "colon", "arrow", "gap", "comment")


@st.composite
def _bent_canonical_texts(draw):
    lines = draw(_canonical_texts()).splitlines()
    names = lines[0].split()[1:]
    if names != ["enumerated", "f"] and draw(st.booleans()):
        # a ':' inside an element name, on every line that names it
        old = draw(st.sampled_from(names))
        new = draw(st.sampled_from((f"{old}:", f":{old}", f"{old}:x")))
        lines = [" ".join(new if t == old else t for t in line.split(" ")) for line in lines]
    ids = [line.split(" ")[1][:-1] for line in lines[1:]]
    text = ""
    for line in lines:
        tokens = line.split(" ")
        bends = draw(st.lists(st.sampled_from(_BENDS), max_size=2))
        if "id" in bends and tokens[0] != "language:":
            # an id reused across axiom and rule lines, an empty one, or
            # one that holds a ':' or '#'
            tokens[1] = draw(st.sampled_from(ids + ["", "r:x", ":r", "r#", "#"])) + ":"
        if "count" in bends and "=>" in tokens:
            # a premise more, or one fewer, than the rule's other lines
            if draw(st.booleans()):
                tokens.insert(2, tokens[2])
            else:
                del tokens[2]
        gap = draw(st.sampled_from(_GAPS)) if "gap" in bends else " "
        line = gap.join(tokens)
        if "colon" in bends:
            line = line.replace(": ", draw(st.sampled_from((":", " :", " : "))), 1)
        if "arrow" in bends:
            line = line.replace(" => ", draw(st.sampled_from(("=>", " =>", "=> "))))
        if "comment" in bends:
            line += draw(st.sampled_from(_COMMENTS))
        text += line + draw(st.sampled_from(_BREAKS))
    return text


@settings(deadline=None, max_examples=400)
@given(_bent_canonical_texts())
@example("language: a b\nrule r#: a => b\n")
@example("language: a b\nrule #: a => b\n")
@example("language: a b\nrule : a => b\n")
@example("language: a b\nrule r:x: a => b\n")
@example("language: a b\naxioms r: a\nrule r: a => b\n")
@example("language: a b\nrule r: a => b\nrule r: a b => a\n")
@example("language: a b:\nrule r: b: => a\r\nrule r:a => b: # c\x85rule r: a\u00a0=> b")
@example("language: enumerated f\nrule r: f0 => f1\u2028rule r: f1\u3000f0 => f2\n")
def test_bent_canonical_lines_load_as_the_per_token_loader_loads_them(text):
    assert _outcome(loads_system, text) == _outcome(_per_token_loads, text)
