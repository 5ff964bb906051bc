"""Reference implementations the tests compare the library with.

Each definition has one implementation here, written from the definition
and built on none of the code it checks: the closure axioms read off an
image table, closed sets, sups and closure within a family, the Moore
closure, saturation and witness replay, step-bounded derivation sizes,
and the propositional axiom shapes.  Shared random draws and strategies
live here too.  Every test module imports them from this module; no test
module imports another.  Its name does not start with `test_`, so pytest
does not collect it.

A table here is a list of image masks in binary-counting order: entry x
is the image of the subset whose bit i is element i of the language.

The per-module `_outcome` helpers stay apart: one catching every error
class would turn some failures into compared outcomes.
"""

from functools import cache

from hypothesis import strategies as st

from conseq.errors import UsageError
from conseq.language import FiniteSubset
from conseq.operators import AxiomCounterexample, AxiomReport, TableOperator
from conseq.propositional import (
    Impl,
    Neg,
    atoms,
    bridge_axiom,
    h_transform,
    is_tautology,
    query_pool,
    saturate_pool,
)
from conseq.rules import Apply, Derivation, Insert, TupleRule, UnaryRule
from conseq.sampling import random_closure_family

AXIOMS = ("extensive", "monotone", "idempotent", "finite_character")


# ---------------------------------------------------------------------------
# subsets, families and tables


@cache
def subsets(language):
    """Every subset, built by the validating constructor, in
    binary-counting order: bit i is element i.  Built once per language."""
    elements = language.elements
    return tuple(
        FiniteSubset(language, tuple(e for i, e in enumerate(elements) if m >> i & 1))
        for m in range(1 << len(elements))
    )


def random_subset(rng, language):
    elements = list(language.elements)
    count = rng.randint(0, len(elements))
    return FiniteSubset(language, tuple(rng.sample(elements, count)))


def family_sorted(family):
    """A family of subsets in the library's order: by size, then member
    by member."""
    return tuple(sorted(family, key=lambda s: (len(s.members), s.members)))


def family_of(language, masks):
    every = subsets(language)
    return family_sorted(every[m] for m in masks)


def apply_table(op, language):
    """The image mask of every subset, each asked through `apply` before
    any is compared: an operator that refuses some input is refused even
    where an earlier input decides."""
    position = {e: i for i, e in enumerate(language.elements)}
    return [sum(1 << position[e] for e in op.apply(s).members) for s in subsets(language)]


def table_leq(first, second):
    """Pointwise order of two tables: every image of `first` inside the
    image of `second` at the same subset."""
    return not any(a & ~b for a, b in zip(first, second))


def moore_closure(family):
    """The pairwise fixpoint: add the intersection of any two members
    until nothing new appears.  Members are frozensets or masks."""
    family = set(family)
    while True:
        both = {x & y for x in family for y in family}
        if both <= family:
            return frozenset(family)
        family |= both


def close_in_family(family, subset):
    """The intersection of the members of `family` that hold `subset`."""
    out = set(subset.language.elements)
    for member in family:
        if subset.member_set <= member.member_set:
            out &= member.member_set
    return FiniteSubset(subset.language, tuple(out))


def random_table_operator(rng, language):
    """A random consequence operator as a table: each subset closed within
    one `random_closure_family`, the only draws made."""
    family = random_closure_family(rng, language).closed_sets
    return TableOperator(language, {s: close_in_family(family, s) for s in subsets(language)})


# ---------------------------------------------------------------------------
# the closure axioms


def literal_axioms(out, n):
    """The closure axioms read off a table as they are defined, finite
    character as a union over every submask; each field is the first
    failing input in check_axioms' scan order, or None."""
    masks = range(1 << n)

    def submasks(x):
        return [f for f in range(x, -1, -1) if f & ~x == 0]

    def union(x):
        acc = 0
        for f in submasks(x):
            acc |= out[f]
        return acc

    return {
        "extensive": next(((x,) for x in masks if x & ~out[x]), None),
        "monotone": next(
            ((lo, hi) for hi in masks for lo in submasks(hi) if out[lo] & ~out[hi]), None
        ),
        "idempotent": next(((x,) for x in masks if out[out[x]] != out[x]), None),
        "finite_character": next(((x,) for x in masks if union(x) != out[x]), None),
    }


def axiom_report(out, language):
    """`literal_axioms` of a table as the `AxiomReport` check_axioms
    gives: the counterexample of the first failing axiom."""
    found = literal_axioms(out, len(language.elements))
    every = subsets(language)
    first = next((a for a in AXIOMS if found[a] is not None), None)
    cex = None if first is None else AxiomCounterexample(first, tuple(every[m] for m in found[first]))
    return AxiomReport(*(found[a] is None for a in AXIOMS), counterexample=cex)


# ---------------------------------------------------------------------------
# closed sets and sups


def table_closed_systems(table, language):
    """The fixed points of one table, refused as `closed_systems` refuses
    a table that is not idempotent or does not fix the top."""
    every = subsets(language)
    for image in table:
        if table[image] != image:
            raise UsageError(f"{every[image]} is an image but not a fixed point; the operator is not idempotent")
    if table[-1] != len(table) - 1:
        raise UsageError("the whole language is not closed; not a consequence operator")
    return family_of(language, [x for x, image in enumerate(table) if image == x])


def sup_family(tables, language):
    """The closed sets of the sup: the subsets every table fixes, closed
    under intersection."""
    top = len(tables[0]) - 1
    shared = [x for x in range(top + 1) if all(t[x] == x for t in tables)]
    if top not in shared:
        raise UsageError("constituents do not all fix the whole language")
    return family_of(language, moore_closure(shared))


# ---------------------------------------------------------------------------
# saturation, witnesses and step-bounded derivations


def oracle_ground(system, hypotheses):
    """The insertable elements with their justifications (hypotheses in
    sorted order, then the other axioms in rule order) and every tuple
    rule's (rule id, tuples), in system order."""
    insertable = {e: ("hyp",) for e in hypotheses}
    grounded = []
    for rule in system.rules:
        if isinstance(rule, UnaryRule):
            for e in rule.axioms:
                insertable.setdefault(e, ("axiom", rule.rule_id))
        else:
            grounded.append((rule.rule_id, rule.tuples))
    return insertable, grounded


def replay_oracle(goal, justification, order):
    """`engine._replay` as first written: walk the support, copy `order`
    (every derived element, in step order) filtered to it, number that
    copy, then build each step through its dataclass constructor."""
    support = set()
    stack = [goal]
    while stack:
        e = stack.pop()
        if e in support:
            continue
        support.add(e)
        j = justification[e]
        if j[0] == "apply":
            stack.extend(j[2])
    ordered = [e for e in order if e in support]
    step_no = {e: i for i, e in enumerate(ordered, start=1)}
    steps = []
    for e in ordered:
        j = justification[e]
        if j[0] == "hyp":
            steps.append(Insert(e))
        elif j[0] == "axiom":
            steps.append(Insert(e, j[1]))
        else:
            steps.append(Apply(j[1], tuple(step_no[p] for p in j[2]), e))
    return Derivation(tuple(steps))


def round_scan_saturate(system, hypotheses):
    """Every round scans every grounded tuple in rule, then tuple order;
    a tuple fires when its conclusion is new, all its premises are
    present and one of them was derived in the previous round.  Every
    witness is replayed eagerly.  Returns (closure, witnesses dict)."""
    insertable, grounded = oracle_ground(system, hypotheses)
    justification = dict(insertable)
    sequence = list(insertable)
    derived = set(sequence)
    frontier = set(sequence)
    while frontier:
        fresh = []
        for rule_id, tuples in grounded:
            for t in tuples:
                conclusion = t[-1]
                if conclusion in derived:
                    continue
                premises = t[:-1]
                if all(p in derived for p in premises) and any(p in frontier for p in premises):
                    derived.add(conclusion)
                    justification[conclusion] = ("apply", rule_id, premises)
                    sequence.append(conclusion)
                    fresh.append(conclusion)
        frontier = set(fresh)
    witnesses = {e: replay_oracle(e, justification, sequence) for e in sequence}
    return FiniteSubset(system.language, tuple(sequence)), witnesses


# Two minimal-size oracles, kept apart: each is the one that runs at its sizes.


def oracle_min_steps(system, hypotheses, goal, cap):
    """Try every numbered deduction of length <= cap, smallest first."""
    insertable = set(hypotheses.members)
    for rule in system.rules:
        if isinstance(rule, UnaryRule):
            insertable |= set(rule.axioms.members)
    tuples = [t for rule in system.rules if isinstance(rule, TupleRule) for t in rule.tuples]

    def extend(done, depth):
        if goal in done:
            return True
        if depth == 0:
            return False
        options = set(insertable)
        for t in tuples:
            if all(p in done for p in t[:-1]):
                options.add(t[-1])
        return any(extend(done + (o,), depth - 1) for o in options)

    for size in range(1, cap + 1):
        if extend((), size):
            return size
    return None


def oracle_min_size(insertable, arcs, goal, cap):
    """Breadth-first search over sets of goal-relevant elements, held as
    frozensets, one derivable element added per step."""
    relevant = {goal}
    grew = True
    while grew:
        grew = False
        for premises, conclusion in arcs:
            if conclusion in relevant and not premises <= relevant:
                relevant |= premises
                grew = True
    insertable = {e for e in insertable if e in relevant}
    arcs = [(p, c) for p, c in arcs if c in relevant]

    def successors(have):
        out = {e for e in insertable if e not in have}
        for premises, conclusion in arcs:
            if conclusion not in have and premises <= have:
                out.add(conclusion)
        return out

    frontier = {frozenset()}
    visited = set(frontier)
    for size in range(cap):
        next_frontier = set()
        for have in frontier:
            grown = successors(have)
            if goal in grown:
                return size + 1
            if size + 1 < cap:
                for e in grown:
                    bigger = have | {e}
                    if bigger not in visited:
                        visited.add(bigger)
                        next_frontier.add(bigger)
        frontier = next_frontier
        if not frontier:
            break
    return None


# ---------------------------------------------------------------------------
# propositional deduction


def r1_shape(w):
    # X -> (Y -> X)
    return isinstance(w, Impl) and isinstance(w.consequent, Impl) and w.consequent.consequent == w.antecedent


def r2_shape(w):
    # (X -> (Y -> Z)) -> ((X -> Y) -> (X -> Z))
    if not (isinstance(w, Impl) and isinstance(w.antecedent, Impl)):
        return False
    if not isinstance(w.antecedent.consequent, Impl):
        return False
    x, y, z = w.antecedent.antecedent, w.antecedent.consequent.antecedent, w.antecedent.consequent.consequent
    return w.consequent == Impl(Impl(x, y), Impl(x, z))


def r3_shape(w):
    # (~X -> ~Y) -> (Y -> X)
    if not (isinstance(w, Impl) and isinstance(w.antecedent, Impl)):
        return False
    nx, ny = w.antecedent.antecedent, w.antecedent.consequent
    return isinstance(nx, Neg) and isinstance(ny, Neg) and w.consequent == Impl(ny.operand, nx.operand)


def oracle_axioms(variant, pool, n):
    """The axioms of `pd_system(variant, pool, n=n)`, each variant's
    filter stated on the shapes: the R1, R2 and R3 instances, those
    avoiding atom 0 (missing-atom) or with a tautological negation-free
    R3 transform (positive), and the bridge axiom of index n where those
    two variants' pool holds it."""
    pool_set = frozenset(pool)
    if variant in ("standard", "restricted-mp"):
        return {w for w in pool_set if r1_shape(w) or r2_shape(w) or r3_shape(w)}
    if variant == "missing-atom":
        kept = {w for w in pool_set if (r1_shape(w) or r2_shape(w) or r3_shape(w)) and 0 not in atoms(w)}
    else:  # positive
        kept = {
            w for w in pool_set if r1_shape(w) or r2_shape(w) or (r3_shape(w) and is_tautology(h_transform(w)))
        }
    if bridge_axiom(n) in pool_set:
        kept.add(bridge_axiom(n))
    return kept


def search_pool(variant, hypotheses, goal, *, n=None, size_cap=22, max_pool=400):
    """The query's saturation, with no truth table tried first."""
    pool = query_pool(variant, hypotheses, goal, n=n, size_cap=size_cap, max_pool=max_pool)
    return saturate_pool(variant, pool, hypotheses, n=n)


# ---------------------------------------------------------------------------
# strategies


def words(first: str, rest: str, longest: int):
    """Strings of one character of `first`, then up to `longest` of
    `rest`: the regex `[first][rest]{0,longest}`, drawn without the regex
    machinery."""
    return st.builds(str.__add__, st.sampled_from(first), st.text(rest, max_size=longest))
