#!/usr/bin/env python3
"""Regenerate `pd_catalog.json`, the query catalog of the pd-search workload.

    python3 perfbench/make_pd_catalog.py

Queries are drawn from a fixed seed: a variant (uniform over the four),
an index n in 1..3 for the parametrized variants, an atom set of 2, 3 or
4 atoms out of P0..P3, and 1 to 3 hypotheses and a goal, all formulas
of depth at most 2 over that atom set.  The bridge axiom's atoms (P0 and
Pn) count toward the set, because `pd search` puts the bridge in the
pool.  Each query is run once through the conseq CLI to record its
outcome (derived, certified or bounded), its pool size and, for bounded
evidence, the exact report, which the benchmark's oracle then expects.
Queries the CLI refuses (exit code 2) are left out and counted.
"""

from __future__ import annotations

import json
import random
import re
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
from workloads import PdSearch, run_cli  # noqa: E402

CATALOG_SEED = 20060603
PER_CELL = 40  # queries per (variant, atom count)
VARIANTS = ("standard", "restricted-mp", "missing-atom", "positive")
SIZE_CAP = 22


def random_formula(rng, atoms, depth=2):
    if depth == 0 or rng.random() < 0.3:
        return f"P{rng.choice(atoms)}"
    if rng.random() < 0.25:
        return "~" + random_formula(rng, atoms, depth - 1)
    return f"({random_formula(rng, atoms, depth - 1)} -> {random_formula(rng, atoms, depth - 1)})"


def random_query(rng, variant, count):
    n = None if variant == "standard" else rng.randint(1, 3)
    bridge = {0, n} if variant in ("missing-atom", "positive") else set()
    others = sorted(set(range(4)) - bridge)
    atoms = sorted(bridge | set(rng.sample(others, count - len(bridge))))
    while True:
        hyps = [random_formula(rng, atoms) for _ in range(rng.randint(1, 3))]
        goal = random_formula(rng, atoms)
        used = {int(a) for a in re.findall(r"P(\d+)", " ".join(hyps + [goal]))}
        if used | bridge == set(atoms):
            return {"variant": variant, "n": n, "hyps": hyps, "goal": goal, "atoms": count}


def main():
    import conseq.cli
    import conseq.propositional as pd

    cq = types.SimpleNamespace(cli=conseq.cli)
    rng = random.Random(CATALOG_SEED)
    queries, refused = [], 0
    for variant in VARIANTS:
        for count in PdSearch.ATOM_SHARE:
            made = 0
            while made < PER_CELL:
                query = random_query(rng, variant, count)
                code, out = run_cli(cq, PdSearch.argv(query))
                if code == 2:
                    refused += 1
                    continue
                query["outcome"] = oracles.classify_pd_output(code, out)
                seeds = [pd.parse(w) for w in query["hyps"] + [query["goal"]]]
                if variant in ("missing-atom", "positive"):
                    seeds.append(pd.bridge_axiom(query["n"]))
                pool = pd.subformula_closure(seeds, SIZE_CAP, max_pool=int(PdSearch.POOL_CAP))
                query["pool"] = len(pool)
                if query["outcome"] == "bounded":
                    query["expect"] = out
                problem = oracles.check_pd_output(code, out, query)
                if problem is not None:
                    raise SystemExit(f"catalog query {query} fails its own oracle: {problem}")
                queries.append(query)
                made += 1
    header = {"seed": CATALOG_SEED, "size_cap": SIZE_CAP, "pool_cap": int(PdSearch.POOL_CAP), "refused": refused}
    lines = ",\n".join(json.dumps(q, sort_keys=True) for q in queries)
    text = json.dumps(header, sort_keys=True)[:-1] + ', "queries": [\n' + lines + "\n]}\n"
    PdSearch.CATALOG.write_text(text, encoding="utf-8")
    print(f"wrote {len(queries)} queries ({refused} refused) to {PdSearch.CATALOG}")


if __name__ == "__main__":
    main()
