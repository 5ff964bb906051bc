"""The benchmark's workloads: seeded inputs, the op that drives conseq,
and the conversion of each op's result into plain data for the oracles.

horn-deep and pd-search draw their inputs in a prefix-balanced order:
input j takes its size class from the bit-reversed index of j, so the
first 2**m inputs of any seed cover 2**m equal strata of the size
distribution.  Runs stop on a clock, not after a fixed count, and this
keeps the mix of cheap and expensive inputs the same from seed to seed.
lattice-small's costs vary less, and a run visits each of its inputs
about four times.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import statistics
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent
SEQUENCE = 256  # inputs drawn per run; a run that outlasts them cycles


def stratified_quantiles(rng, count=SEQUENCE):
    """u_j in [0, 1) for j < count (a power of two): one uniform draw
    inside stratum bit_reversed(j) of `count` equal strata."""
    width = count.bit_length() - 1
    return [(int(format(j, f"0{width}b")[::-1], 2) + rng.random()) / count for j in range(count)]


def run_cli(cq, argv):
    """Run `conseq <argv>` in-process; return (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cq.cli.main(argv)
    return code, out.getvalue()


def quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        return {"min": values[0], "median": values[0], "max": values[0]} if values else {}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"min": values[0], "q1": q1, "median": q2, "q3": q3, "max": values[-1]}


def shares(labels):
    labels = list(labels)
    return {k: labels.count(k) / len(labels) for k in sorted(set(labels))}


class Workload:
    """One workload's inputs.  Subclasses fill `ops` in `__init__`.

    `run(op)` is the timed part.  `record(op, raw)` turns its result into
    plain data and `check(op, record)` returns None or a reason; both run
    outside the timed region.
    """

    name = ""
    trace_block = 32  # ops in one traced pass

    def __init__(self, seed, cq, workdir):
        self.cq = cq
        self.ops = []

    def key(self, op):
        return op

    def outcome(self, op):
        """The pd search outcome an op must print, if it has one."""
        return None

    def fingerprint(self):
        return hashlib.sha256(self.describe_inputs().encode()).hexdigest()[:16]

    def describe_inputs(self):
        raise NotImplementedError

    def properties(self, visited):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# horn-deep


class HornDeep(Workload):
    """Definite Horn systems whose derivation depth grows with size."""

    name = "horn-deep"
    HYPS = ("e0", "e1", "e2")
    MIN_N, MAX_N = 64, 400
    WINDOW = 6
    ALTERNATIVE = 0.3
    SYSTEMS = 128  # two ops each

    def __init__(self, seed, cq, workdir):
        super().__init__(seed, cq, workdir)
        rng = random.Random(f"{seed}:horn-deep")
        workdir.mkdir(parents=True, exist_ok=True)
        lo, hi = math.log(self.MIN_N), math.log(self.MAX_N)
        self.systems = []
        for i, u in enumerate(stratified_quantiles(rng, self.SYSTEMS)):
            n = round(math.exp(lo + u * (hi - lo)))
            text, tuples, goal, depth = self._generate(rng, n)
            path = workdir / f"s{i}.system"
            path.write_text(text, encoding="utf-8")
            self.systems.append(
                {"n": n, "text": text, "path": str(path), "tuples": tuples, "goal": goal, "depth": depth}
            )
            hyp = ",".join(self.HYPS)
            self.ops.append((i, "saturate", ("saturate", "--system", str(path), "--hyp", hyp)))
            self.ops.append(
                (i, "derive", ("derive", "--system", str(path), "--hyp", hyp, "--goal", goal))
            )

    def _generate(self, rng, n):
        dead = [f"x{k}" for k in range(max(2, n // 32))]
        tuples = []
        depth = {h: 0 for h in self.HYPS}
        for i in range(len(self.HYPS), n):
            window = [f"e{j}" for j in range(max(0, i - self.WINDOW), i)]
            premises = rng.sample(window, rng.randint(1, 3))
            tuples.append((f"p{len(premises)}", tuple(premises), f"e{i}"))
            depth[f"e{i}"] = 1 + max(depth[p] for p in premises)
            if rng.random() < self.ALTERNATIVE:
                premises = rng.sample(window, rng.randint(1, 3))
                if rng.random() < 0.5:
                    premises[rng.randrange(len(premises))] = rng.choice(dead)
                else:
                    depth[f"e{i}"] = min(depth[f"e{i}"], 1 + max(depth[p] for p in premises))
                tuples.append((f"q{len(premises)}", tuple(premises), f"e{i}"))
        goal = max(depth, key=lambda e: (depth[e], int(e[1:])))
        lines = ["language: " + " ".join([f"e{i}" for i in range(n)] + dead)]
        lines += [f"rule {r}: {' '.join(p)} => {c}" for r, p, c in tuples]
        return "\n".join(lines) + "\n", tuples, goal, depth[goal]

    def key(self, op):
        return op[:2]

    def run(self, op):
        return run_cli(self.cq, list(op[2]))

    def record(self, op, raw):
        return raw

    def check(self, op, record):
        system = self.systems[op[0]]
        code, out = record
        if op[1] == "saturate":
            return oracles.check_saturate_output(code, out, self.HYPS, system["tuples"])
        return oracles.check_derive_output(code, out, self.HYPS, system["tuples"], system["goal"])

    def describe_inputs(self):
        return json.dumps([[s["text"], s["goal"]] for s in self.systems])

    def properties(self, visited):
        systems = [self.systems[i] for i in sorted({op[0] for op in visited})]
        closures = [len(oracles.horn_closure(self.HYPS, s["tuples"])) for s in systems]
        alternatives = [sum(1 for r, _, _ in s["tuples"] if r.startswith("q")) for s in systems]
        dead = [
            sum(1 for r, p, _ in s["tuples"] if r.startswith("q") and any(e[0] == "x" for e in p))
            for s in systems
        ]
        return {
            "systems": len(systems),
            "n": quartiles([s["n"] for s in systems]),
            "closure_size": quartiles(closures),
            "goal_depth": quartiles([s["depth"] for s in systems]),
            "file_bytes": quartiles([len(s["text"]) for s in systems]),
            "share_elements_with_alternative": sum(alternatives) / sum(s["n"] for s in systems),
            "share_alternatives_never_firing": sum(dead) / max(1, sum(alternatives)),
        }


# ---------------------------------------------------------------------------
# lattice-small


class LatticeSmall(Workload):
    """Random systems over six elements, checked exhaustively."""

    name = "lattice-small"
    SIZE = 6  # conseq's default exhaustiveness bound
    STEPS = 3

    def __init__(self, seed, cq, workdir):
        super().__init__(seed, cq, workdir)
        rng = random.Random(f"{seed}:lattice-small")
        self.names = [f"a{i}" for i in range(self.SIZE)]
        self.pairs = [(self._generate(rng), self._generate(rng)) for _ in range(SEQUENCE)]
        self.language = cq.language.ExplicitLanguage.of_tokens(self.names)
        self.elements = self.language.elements
        self.ops = list(range(SEQUENCE))
        self._expected = {}

    def _generate(self, rng):
        """An optional axiom set of up to two elements, then one to three
        relations of arity 2 or 3 with one to four tuples each."""
        axioms = tuple(rng.sample(range(self.SIZE), rng.randint(0, 2))) if rng.random() < 0.7 else None
        rules = []
        for r in range(rng.randint(1, 3)):
            arity = rng.randint(2, 3)
            drawn = (tuple(rng.randrange(self.SIZE) for _ in range(arity)) for _ in range(rng.randint(1, 4)))
            rules.append((f"r{r}", arity, tuple(dict.fromkeys(drawn))))
        return axioms, tuple(rules)

    def _system(self, name, spec):
        rules_mod, language = self.cq.rules, self.language
        axioms, relations = spec
        rules = []
        if axioms is not None:
            members = tuple(self.elements[i] for i in axioms)
            rules.append(rules_mod.UnaryRule("ax", self.cq.language.FiniteSubset(language, members)))
        for rule_id, arity, tuples in relations:
            rows = tuple(tuple(self.elements[i] for i in t) for t in tuples)
            rules.append(rules_mod.TupleRule(rule_id, arity, rows))
        return rules_mod.RuleSystem(name, language, tuple(rules))

    def run(self, op):
        cq, language = self.cq, self.language
        first, second = self.pairs[op]
        s = self._system("s", first)
        t = self._system("t", second)
        rule_op = cq.operators.RuleOperator(s)
        rule_report = cq.operators.check_axioms(rule_op, language)
        bounded_op = cq.operators.BoundedOperator(s, self.STEPS)
        bounded_report = cq.operators.check_axioms(bounded_op, language)
        explain = []
        if not bounded_report.idempotent:
            x = bounded_report.counterexample.subsets[0]
            once = bounded_op.apply(x)
            for e in bounded_op.apply(once).members:
                if e not in once:
                    explain.append((e, cq.engine.min_derivation_size(s, x, e, cap=len(language))))
        family = cq.csystems.closed_systems(rule_op, language)
        sup = cq.operators.sup_w([rule_op, cq.operators.RuleOperator(t)], language)
        union = cq.operators.RuleOperator(cq.engine.union_systems([s, t]))
        same = cq.operators.equal_ops(sup, union, language)
        return rule_report, bounded_report, explain, family, sup, same

    def _mask(self, subset):
        return sum(1 << self.names.index(e.name) for e in subset.members)

    def _report(self, report):
        cex = report.counterexample
        return (
            report.extensive,
            report.monotone,
            report.idempotent,
            report.finite_character,
            None if cex is None else cex.axiom,
            () if cex is None else tuple(self._mask(s) for s in cex.subsets),
        )

    def record(self, op, raw):
        rule_report, bounded_report, explain, family, sup, same = raw
        return {
            "rule_report": self._report(rule_report),
            "bounded_report": self._report(bounded_report),
            "explain": tuple((self.names.index(e.name), size) for e, size in explain),
            "family": tuple(sorted(self._mask(m) for m in family)),
            "sup_closed": tuple(sorted(self._mask(m) for m in sup.closed_sets)),
            "same": same,
        }

    def _masks(self, spec):
        axioms, relations = spec
        arcs = []
        for _, _, tuples in relations:
            for t in tuples:
                arcs.append((sum(1 << i for i in set(t[:-1])), 1 << t[-1]))
        return sum(1 << i for i in set(axioms or ())), arcs

    def expected(self, op):
        if op not in self._expected:
            first, second = (self._masks(spec) for spec in self.pairs[op])
            union = (first[0] | second[0], first[1] + second[1])
            self._expected[op] = oracles.lattice_expected(first, second, union, self.SIZE, self.STEPS)
        return self._expected[op]

    def check(self, op, record):
        return oracles.check_lattice_record(record, self.expected(op), self.STEPS)

    def describe_inputs(self):
        return json.dumps(self.pairs)

    def properties(self, visited):
        ops = sorted(set(visited))
        expected = [self.expected(op) for op in ops]
        return {
            "systems": len(ops),
            "share_bounded_not_idempotent": sum(not e["bounded_report"][2] for e in expected) / len(ops),
            "closed_family_size": quartiles([len(e["family"]) for e in expected]),
            "tuples_per_system": quartiles(
                [sum(len(r[2]) for r in self.pairs[op][0][1]) for op in ops]
            ),
            "share_with_axioms": sum(self.pairs[op][0][0] is not None for op in ops) / len(ops),
        }


# ---------------------------------------------------------------------------
# pd-search


class PdSearch(Workload):
    """`pd search` queries drawn from the committed query catalog."""

    name = "pd-search"
    CATALOG = HERE / "pd_catalog.json"
    POOL_CAP = "1200"
    # Share of queries by the number of atoms the pool is built over.
    # The pool size, and with it the cost of a query, is set mostly by
    # this count (about 120, 360 and 800 formulas for 2, 3 and 4 atoms),
    # and bounded evidence costs about twice as much as the other outcomes
    # because it saturates a second time.  Within an atom class the
    # catalog's outcome mix is kept (about a third bounded).  These shares
    # put the median in the middle of the 3-atom derived-or-certified band
    # (30% to 67% of queries) and the 90th percentile in the middle of the
    # 4-atom one (85% to 95%), not on a band edge, where it would jump
    # between two costs from seed to seed.
    ATOM_SHARE = {2: 0.3, 3: 0.55, 4: 0.15}

    def __init__(self, seed, cq, workdir):
        super().__init__(seed, cq, workdir)
        rng = random.Random(f"{seed}:pd-search")
        catalog = json.loads(self.CATALOG.read_text(encoding="utf-8"))["queries"]
        cells = {}
        for query in catalog:
            cells.setdefault((query["atoms"], query["outcome"]), []).append(query)
        weighted = []
        for (atoms, outcome), members in sorted(cells.items()):
            in_class = sum(len(m) for (a, _), m in cells.items() if a == atoms)
            weighted.append((self.ATOM_SHARE[atoms] * len(members) / in_class, members))
        decks = {id(members): [] for _, members in weighted}
        self.queries = []
        for u in stratified_quantiles(rng):
            for weight, members in weighted:
                if u < weight:
                    break
                u -= weight
            deck = decks[id(members)]
            if not deck:
                deck.extend(rng.sample(members, len(members)))
            self.queries.append(deck.pop())
        self.ops = list(range(len(self.queries)))

    @staticmethod
    def argv(query):
        argv = ["pd", "search", "--variant", query["variant"]]
        if query["n"] is not None:
            argv += ["--n", str(query["n"])]
        return argv + ["--hyp", ", ".join(query["hyps"]), "--goal", query["goal"], "--pool-cap", PdSearch.POOL_CAP]

    def run(self, op):
        return run_cli(self.cq, self.argv(self.queries[op]))

    def record(self, op, raw):
        return raw

    def check(self, op, record):
        code, out = record
        return oracles.check_pd_output(code, out, self.queries[op])

    def outcome(self, op):
        return self.queries[op]["outcome"]

    def describe_inputs(self):
        return json.dumps([self.argv(q) for q in self.queries])

    def properties(self, visited):
        queries = [self.queries[op] for op in visited]
        return {
            "queries": len(queries),
            "outcome": shares(q["outcome"] for q in queries),
            "variant": shares(q["variant"] for q in queries),
            "atoms": shares(str(q["atoms"]) for q in queries),
            "pool_size": quartiles([q["pool"] for q in queries]),
        }


WORKLOADS = {w.name: w for w in (HornDeep, LatticeSmall, PdSearch)}
