"""Independent oracles for the benchmark's outputs.

Nothing here imports conseq.  Every check recomputes the expected
answer from the generated inputs with its own code and compares it with
what the program printed or returned.  Each check returns None when the
output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import re

# Numbered derivation lines as the CLI prints them: "3. a  [to-a from 1,2]".
STEP_LINE = re.compile(r"(\d+)\. (\S+)  \[(.+)\]\Z")


# ---------------------------------------------------------------------------
# Horn systems (horn-deep)


def horn_closure(hyps, tuples):
    """Naive fixpoint: sweep every tuple until nothing new is derived.

    `tuples` holds (rule_id, premises, conclusion) triples of names.
    """
    derived = set(hyps)
    changed = True
    while changed:
        changed = False
        for _, premises, conclusion in tuples:
            if conclusion not in derived and all(p in derived for p in premises):
                derived.add(conclusion)
                changed = True
    return derived


def check_saturate_output(code, out, hyps, tuples):
    if code != 0:
        return f"saturate exited {code}"
    expected = sorted(horn_closure(hyps, tuples))
    if out.splitlines() != expected:
        return f"saturate printed {len(out.splitlines())} lines, expected the {len(expected)}-element closure"
    return None


def check_replayed_witness(lines, hyps, tuples, goal):
    """Replay a printed numbered derivation against the generated tuples."""
    by_rule = {}
    for rule_id, premises, conclusion in tuples:
        by_rule.setdefault(rule_id, set()).add((frozenset(premises), len(premises), conclusion))
    elements = []
    for k, line in enumerate(lines, start=1):
        m = STEP_LINE.match(line)
        if m is None or int(m.group(1)) != k:
            return f"step {k}: malformed line {line!r}"
        element, origin = m.group(2), m.group(3)
        if origin == "hypothesis":
            if element not in hyps:
                return f"step {k}: {element} is not a hypothesis"
        else:
            rule_id, sep, refs = origin.partition(" from ")
            if not sep:
                return f"step {k}: unexpected origin {origin!r}"
            steps = [int(r) for r in refs.split(",")]
            if any(r < 1 or r >= k for r in steps):
                return f"step {k}: premise references must point at earlier steps"
            premises = frozenset(elements[r - 1] for r in steps)
            if (premises, len(steps), element) not in by_rule.get(rule_id, ()):
                return f"step {k}: {rule_id} has no tuple concluding {element} from those steps"
        elements.append(element)
    if not elements or elements[-1] != goal:
        return "the last step is not the goal"
    return None


def check_derive_output(code, out, hyps, tuples, goal):
    if code != 0:
        return f"derive exited {code}"
    return check_replayed_witness(out.splitlines(), hyps, tuples, goal)


# ---------------------------------------------------------------------------
# small finite systems as bit masks (lattice-small)
#
# A system is (axiom_mask, arcs) with arcs a list of (premise_mask,
# conclusion_bit); element i of the sorted language is bit i.


def closure(system, x):
    axioms, arcs = system
    have = x | axioms
    changed = True
    while changed:
        changed = False
        for premises, conclusion in arcs:
            if premises & have == premises and not have & conclusion:
                have |= conclusion
                changed = True
    return have


def _supports(system, x, s):
    """Can every element of s be derived using only steps inside s?"""
    axioms, arcs = system
    have = s & (x | axioms)
    changed = True
    while changed:
        changed = False
        for premises, conclusion in arcs:
            if conclusion & s and not have & conclusion and premises & have == premises:
                have |= conclusion
                changed = True
    return have == s


def _masks_by_size(size):
    by_size = [[] for _ in range(size + 1)]
    for s in range(1, 1 << size):
        by_size[bin(s).count("1")].append(s)
    return by_size


def bounded(system, x, steps, size):
    """Elements with a numbered deduction of at most `steps` steps.

    A shortest deduction repeats no element, so its steps form a set s
    that supports itself; the answer is the union of such sets of at
    most `steps` elements.
    """
    out = 0
    for k, masks in enumerate(_masks_by_size(size)):
        if k > steps:
            break
        for s in masks:
            if s & ~out and _supports(system, x, s):
                out |= s
    return out


def min_size(system, x, element_bit, size):
    for k, masks in enumerate(_masks_by_size(size)):
        for s in masks:
            if s & element_bit and _supports(system, x, s):
                return k
    return None


def closed_sets(system, size):
    return sorted(x for x in range(1 << size) if closure(system, x) == x)


def lattice_expected(first, second, union, size, steps):
    """The record a correct lattice-small op returns, computed by hand."""
    full = range(1 << size)
    bounded_table = [bounded(first, x, steps, size) for x in full]
    idempotence_failure = next(
        (x for x in full if bounded_table[bounded_table[x]] != bounded_table[x]), None
    )
    explain = ()
    if idempotence_failure is not None:
        once = bounded_table[idempotence_failure]
        extra = bounded_table[once] & ~once
        explain = tuple(
            (i, min_size(first, idempotence_failure, 1 << i, size))
            for i in range(size)
            if extra >> i & 1
        )
    shared = set(closed_sets(first, size)) & set(closed_sets(second, size))
    return {
        "rule_report": (True, True, True, True, None, ()),
        "bounded_report": (
            True,
            True,
            idempotence_failure is None,
            True,
            None if idempotence_failure is None else "idempotent",
            () if idempotence_failure is None else (idempotence_failure,),
        ),
        "explain": explain,
        "family": tuple(closed_sets(first, size)),
        "sup_closed": tuple(sorted(shared)),
        "union_closed": tuple(closed_sets(union, size)),
        "same": True,
    }


def check_lattice_record(record, expected, steps):
    if record["rule_report"] != expected["rule_report"]:
        return f"check_axioms on the rule operator reported {record['rule_report']}"
    if record["bounded_report"] != expected["bounded_report"]:
        return f"check_axioms on the bounded operator reported {record['bounded_report']}"
    if record["explain"] != expected["explain"]:
        return f"min_derivation_size explained idempotence as {record['explain']}"
    if any(size is None or size <= steps for _, size in record["explain"]):
        return "an element outside the bounded image has a short derivation"
    if record["family"] != expected["family"]:
        return "closed_systems differs from the fixed points of the naive closure"
    if record["sup_closed"] != expected["sup_closed"]:
        return "sup_w's closed sets differ from the sets closed under both systems"
    if expected["sup_closed"] != expected["union_closed"]:
        return "the union system's closed sets differ from the shared closed sets"
    if record["same"] is not True:
        return "equal_ops says sup_w differs from saturating the union"
    return None


# ---------------------------------------------------------------------------
# propositional formulas (pd-search)
#
# A formula is ("P", i), ("~", a) or ("->", a, b).


def parse_wff(text):
    s = "".join(text.split())
    pos = 0

    def parse():
        nonlocal pos
        if s.startswith("~", pos):
            pos += 1
            return ("~", parse())
        if s.startswith("P", pos):
            m = re.compile(r"P(\d+)").match(s, pos)
            if m is None:
                raise ValueError(f"bad atom in {text!r}")
            pos = m.end()
            return ("P", int(m.group(1)))
        if s.startswith("(", pos):
            pos += 1
            left = parse()
            if not s.startswith("->", pos):
                raise ValueError(f"expected '->' in {text!r}")
            pos += 2
            right = parse()
            if not s.startswith(")", pos):
                raise ValueError(f"expected ')' in {text!r}")
            pos += 1
            return ("->", left, right)
        raise ValueError(f"unexpected input in {text!r}")

    w = parse()
    if pos != len(s):
        raise ValueError(f"trailing input in {text!r}")
    return w


def wff_atoms(w):
    if w[0] == "P":
        return {w[1]}
    return set().union(*(wff_atoms(part) for part in w[1:]))


def evaluate(w, valuation):
    if w[0] == "P":
        return valuation[w[1]]
    if w[0] == "~":
        return not evaluate(w[1], valuation)
    return (not evaluate(w[1], valuation)) or evaluate(w[2], valuation)


def is_tautology(w):
    atoms = sorted(wff_atoms(w))
    for picked in range(1 << len(atoms)):
        valuation = {a: bool(picked >> j & 1) for j, a in enumerate(atoms)}
        if not evaluate(w, valuation):
            return False
    return True


def erase_negations(w):
    if w[0] == "P":
        return w
    if w[0] == "~":
        return erase_negations(w[1])
    return ("->", erase_negations(w[1]), erase_negations(w[2]))


def implies(a, b):
    return ("->", a, b)


def _schema_r1(w):  # X -> (Y -> X)
    return w[0] == "->" and w[2][0] == "->" and w[2][2] == w[1]


def _schema_r2(w):  # (X -> (Y -> Z)) -> ((X -> Y) -> (X -> Z))
    if not (w[0] == "->" and w[1][0] == "->" and w[1][2][0] == "->"):
        return False
    x, y, z = w[1][1], w[1][2][1], w[1][2][2]
    return w[2] == implies(implies(x, y), implies(x, z))


def _schema_r3(w):  # (~X -> ~Y) -> (Y -> X)
    if not (w[0] == "->" and w[1][0] == "->" and w[1][1][0] == "~" and w[1][2][0] == "~"):
        return False
    return w[2] == implies(w[1][2][1], w[1][1][1])


def bridge(n):
    return implies(implies(("~", ("P", 0)), ("~", ("P", n))), implies(("P", n), ("P", 0)))


def axiom_allowed(w, variant, n):
    r1, r2, r3 = _schema_r1(w), _schema_r2(w), _schema_r3(w)
    if variant in ("standard", "restricted-mp"):
        return r1 or r2 or r3
    if w == bridge(n):
        return True
    if variant == "missing-atom":
        return (r1 or r2 or r3) and 0 not in wff_atoms(w)
    return r1 or r2 or (r3 and is_tautology(erase_negations(w)))  # positive


def hypothesis_chain(hyps, goal):
    out = goal
    for h in reversed(hyps):
        out = implies(h, out)
    return out


def check_pd_derivation(lines, hyps, goal, variant, n):
    formulas = []
    for k, line in enumerate(lines, start=1):
        m = STEP_LINE.match(line)
        if m is None or int(m.group(1)) != k:
            return f"step {k}: malformed line {line!r}"
        w, origin = parse_wff(m.group(2)), m.group(3)
        if origin == "hypothesis":
            if w not in hyps:
                return f"step {k}: not a hypothesis"
        elif origin.startswith("axiom "):
            if not is_tautology(w):
                return f"step {k}: axiom step is not a tautology"
            if not axiom_allowed(w, variant, n):
                return f"step {k}: not an axiom of variant {variant}"
        elif origin.startswith("mp from "):
            refs = [int(r) for r in origin[len("mp from "):].split(",")]
            if len(refs) != 2 or any(r < 1 or r >= k for r in refs):
                return f"step {k}: detachment must cite two earlier steps"
            a, b = (formulas[r - 1] for r in refs)
            major = next((f for f, minor in ((a, b), (b, a)) if f == implies(minor, w)), None)
            if major is None:
                return f"step {k}: cited steps are not A and (A -> B)"
            if (
                variant == "restricted-mp"
                and major[1][0] == "P"
                and major[1][1] >= 1
                and major[2] == ("P", 0)
                and major[1][1] != n
            ):
                return f"step {k}: detachment from P{major[1][1]} to P0 is not allowed"
        else:
            return f"step {k}: unexpected origin {origin!r}"
        formulas.append(w)
    if not formulas or formulas[-1] != goal:
        return "the last step is not the goal"
    return None


CERTIFIED = re.compile(r"not derivable: (.+) is falsified by \{(.*)\}\Z")


def classify_pd_output(code, out):
    if code == 0:
        return "derived"
    if code == 1 and CERTIFIED.match(out.rstrip("\n")):
        return "certified"
    if code == 1 and out.startswith("not derived: search exhausted a pool of "):
        return "bounded"
    return "unknown"


def check_pd_output(code, out, query):
    """Check one `pd search` result; `query` is a catalog entry."""
    hyps = [parse_wff(h) for h in query["hyps"]]
    goal = parse_wff(query["goal"])
    outcome = classify_pd_output(code, out)
    if outcome != query["outcome"]:
        return f"outcome {outcome} (exit {code}), expected {query['outcome']}"
    if outcome == "derived":
        return check_pd_derivation(out.splitlines(), hyps, goal, query["variant"], query["n"])
    chain = hypothesis_chain(hyps, goal)
    if outcome == "certified":
        m = CERTIFIED.match(out.rstrip("\n"))
        if parse_wff(m.group(1)) != chain:
            return "the printed transform is not the hypotheses-to-goal chain"
        valuation = {}
        for item in m.group(2).split(", "):
            atom, _, value = item.partition("=")
            valuation[int(atom[1:])] = value == "true"
        if not wff_atoms(chain) <= set(valuation) or evaluate(chain, valuation):
            return "the printed valuation does not falsify the transform"
        return None
    if not is_tautology(chain):
        return "bounded evidence for a goal the hypotheses do not entail"
    if out != query["expect"]:
        return "bounded-evidence report differs from the expected-outcome file"
    return None

