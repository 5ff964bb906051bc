"""Plain-text storage for rule systems.

Format, one declaration per line, ``#`` starts a comment:

    language: a b x1 x2            # explicit, element names sorted on save
    language: enumerated f         # enumerated with prefix f (f0, f1, ...)
    axioms ax: x1 x2               # unary rule listing its members
    rule R1: x1 x2 => a            # one premise tuple per line; repeat the
    rule R1: a x1 => b             # id to extend the same rule

Rule lines with the same id accumulate tuples in file order and must
agree on the number of premises.  Loading then saving a saved file
reproduces it byte for byte.

The common line takes one split: a rule line without a comment whose
second token is `<id>:`, whose last but one is `=>`, and whose other
tokens are all in the name table (below), for a new rule id or one
with the same premise count.  Every other line, and every error, takes
the full parse, which reads such a line the same way.

Tokens resolve through one name table, a dict from token to element
local to each load.  Over an explicit language it starts as the
language's own elements, so a token in the language costs one lookup;
over an enumerated language it starts empty.  A token missing from the
table is built and checked as an `Element` and for membership, and
kept only if both pass, so each distinct token is validated at most
once; a refused token is reported with its line.
"""

from __future__ import annotations

from pathlib import Path

from .errors import DomainError, InputSyntaxError, UsageError
from .language import Element, EnumeratedLanguage, ExplicitLanguage, FiniteSubset
from .rules import Rule, RuleSystem, TupleRule, UnaryRule


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _learn(names: dict[str, Element], token: str, language, where: str) -> Element:
    """A token missing from the name table: build and check it as an
    `Element`, then for membership in the language, and only then add it."""
    try:
        e = Element(token)
    except DomainError as exc:
        raise InputSyntaxError(str(exc), where=where) from exc
    if e not in language:
        raise InputSyntaxError(f"unknown element {token!r}", where=where)
    names[token] = e
    return e


def loads_system(text: str, *, name: str = "system") -> RuleSystem:
    language = None
    names: dict[str, Element] = {}  # token -> element, every entry already validated
    # rule id -> (kind, members or tuples), in first-seen order
    declared: dict[str, tuple[str, list]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        # the common line, "rule <id>: <premises> => <conclusion>" over known
        # tokens, in one split; a line this cannot take gets the full parse
        parts = raw.split()
        if len(parts) > 4 and parts[0] == "rule" and parts[-2] == "=>" and "#" not in raw:
            rule_id = parts[1][:-1]
            if parts[1][-1] == ":" and rule_id and ":" not in rule_id:
                del parts[-2]  # no name holds '=>', so this is the only arrow
                row = tuple(map(names.get, parts[2:]))
                if None not in row:
                    seen = declared.get(rule_id)
                    if seen is None:
                        declared[rule_id] = ("rule", [row])
                        continue
                    if seen[0] == "rule" and len(seen[1][0]) == len(row):
                        seen[1].append(row)
                        continue

        where = f"line {lineno}"
        line = _strip_comment(raw).strip()
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
            if tokens[0] == "enumerated" and len(tokens) != 2:
                raise InputSyntaxError("expected 'language: enumerated <prefix>'", where=where)
            try:
                if tokens[0] == "enumerated":
                    language = EnumeratedLanguage.prefixed(tokens[1])
                else:
                    language = ExplicitLanguage(tuple(Element(t) for t in tokens))
                    names = {e.name: e for e in language.elements}
            except DomainError as exc:
                raise InputSyntaxError(str(exc), where=where) from exc
            continue

        if language is None:
            raise InputSyntaxError("the language line must come first", where=where)

        parts = head.split()
        if len(parts) != 2 or parts[0] not in ("axioms", "rule"):
            raise InputSyntaxError(f"unrecognized declaration {head!r}", where=where)
        kind, rule_id = parts

        if kind == "axioms":
            if rule_id in declared:
                raise InputSyntaxError(f"rule id {rule_id!r} declared twice", where=where)
            members = [names.get(t) or _learn(names, t, language, where) for t in rest.split()]
            declared[rule_id] = ("axioms", members)
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
        row = tuple([
            names.get(t) or _learn(names, t, language, where)
            for t in premise_tokens + conclusion_tokens
        ])
        seen = declared.get(rule_id)
        if seen is None:
            declared[rule_id] = ("rule", [row])
            continue
        seen_kind, tuples = seen
        if seen_kind != "rule":
            raise InputSyntaxError(f"rule id {rule_id!r} declared twice", where=where)
        expected = len(tuples[0]) - 1
        if len(premise_tokens) != expected:
            raise InputSyntaxError(
                f"rule {rule_id!r} has {expected} premises elsewhere, {len(premise_tokens)} here",
                where=where,
            )
        tuples.append(row)

    if language is None:
        raise InputSyntaxError("missing language declaration", where="end of input")

    rules: list[Rule] = []
    for rule_id, (kind, items) in declared.items():
        if kind == "axioms":
            rules.append(UnaryRule(rule_id, FiniteSubset(language, tuple(items))))
        else:
            rules.append(TupleRule(rule_id, len(items[0]), tuple(items)))
    return RuleSystem(name, language, tuple(rules))


def dumps_system(system: RuleSystem) -> str:
    lines: list[str] = []
    if isinstance(system.language, ExplicitLanguage):
        if system.language.elements[0].name == "enumerated":
            raise UsageError(
                f"{system.language!r} has no line form: its first element 'enumerated' reads as the keyword"
            )
        lines.append("language: " + " ".join(e.name for e in system.language.elements))
    elif isinstance(system.language, EnumeratedLanguage):
        lines.append(f"language: enumerated {system.language.prefix}")
    else:
        raise UsageError(f"cannot save language of type {type(system.language).__name__}")
    for rule in system.rules:
        if not rule.rule_id or any(c in ":#" or c.isspace() for c in rule.rule_id):
            raise UsageError(
                f"rule id {rule.rule_id!r} has no line form: it must be non-empty, without whitespace, ':' or '#'"
            )
        if isinstance(rule, UnaryRule):
            members = " ".join(e.name for e in rule.axioms.members)
            lines.append(f"axioms {rule.rule_id}:" + (f" {members}" if members else ""))
        else:
            if not rule.tuples:
                raise UsageError(
                    f"rule {rule.rule_id!r} has no premise tuples, so it has no line form"
                )
            for t in rule.tuples:
                premises = " ".join(e.name for e in t[:-1])
                lines.append(f"rule {rule.rule_id}: {premises} => {t[-1].name}")
    return "\n".join(lines) + "\n"


def load_system(path: str | Path) -> RuleSystem:
    """Load a system file; a file that cannot be read or is not UTF-8
    text is a usage error naming the path.  A leading byte-order mark is
    dropped."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise UsageError(f"cannot read system file {str(p)!r}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"system file {str(p)!r} is not UTF-8 text: {exc.reason}") from exc
    return loads_system(text, name=p.stem)


def save_system(system: RuleSystem, path: str | Path) -> None:
    Path(path).write_text(dumps_system(system), encoding="utf-8")
