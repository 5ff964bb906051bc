#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --seeds 1-10
    python3 perfbench/sweep.py --workloads pd-search --seeds 1-5 --seconds 30
    python3 perfbench/sweep.py --seeds 1-3 --trace 1 --baseline perfbench/baseline.json

Each run is its own process (`run.py`), one after the other.  For every
workload and metric it prints the median over the seeds and the
quartile spread, (q3 - q1) / median as `statistics.quantiles(n=4)` gives
the quartiles, next to the metric's bound from BENCHMARK.json.  It exits
1 if any run fails or reports a wrong output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return None, lines
    return json.loads(lines[-1]), lines[:-1]


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--baseline",
        type=Path,
        help="record the medians, quartiles and each run's inputs in this JSON file "
        "(its other keys are kept)",
    )
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    ok = True
    report, summary = {}, {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result, notes = run_once(workload, seed, args.seconds, args.trace)
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                ok = False
                continue
            runs.append({"seed": seed, "notes": notes, **result})
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: ops={result['attempted']} failed={result['failed']} {values}", flush=True)
        report[workload] = runs
        if not runs:
            continue
        summary[workload] = summarize(runs)
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':45} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, m in summary[workload].items():
            bound = bounds.get(name)
            flag = "" if bound is None or m["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"  {name:45} {m['median']:12.4f} {m['q1']:12.4f} {m['q3']:12.4f} {m['spread']:8.2%} "
                  f"{'' if bound is None else f'{bound:.2f}':>6} {m['unit']}{flag}")
        print(flush=True)
    if args.baseline and ok:
        record_baseline(args, report, summary)
    return 0 if ok else 1


def summarize(runs):
    """Per metric: unit, median, quartiles and spread (q3 - q1) / median."""
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        out[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3, "spread": spread}
    return out


def record_baseline(args, report, summary):
    """Merge this sweep into the baseline file: the metrics go under
    per_layer or end_to_end, each run's input fingerprint and properties
    under inputs (from untraced sweeps)."""
    baseline = json.loads(args.baseline.read_text(encoding="utf-8")) if args.baseline.exists() else {}
    kind = "per_layer" if args.trace else "end_to_end"
    baseline["python"] = platform.python_version()
    baseline["nproc"] = os.cpu_count()
    baseline["machine"] = platform.machine()
    for workload, metrics in summary.items():
        entry = baseline.setdefault("workloads", {}).setdefault(workload, {})
        entry[kind] = {"seconds": args.seconds, "seeds": [r["seed"] for r in report[workload]], "metrics": metrics}
        if not args.trace:
            entry["inputs"] = [
                {"seed": r["seed"], **parse_notes(r["notes"]), "attempted": r["attempted"], "failed": r["failed"]}
                for r in report[workload]
            ]
    args.baseline.write_text(compact_json(baseline) + "\n", encoding="utf-8")


def compact_json(value, depth=0):
    """JSON with every value that fits in 150 characters on one line."""
    flat = json.dumps(value)
    if len(flat) <= 150 or not isinstance(value, (dict, list)):
        return flat
    pad = " " * (depth + 1)
    if isinstance(value, dict):
        items = [f"{pad}{json.dumps(k)}: {compact_json(v, depth + 1)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad[:-1] + "}"
    items = [pad + compact_json(v, depth + 1) for v in value]
    return "[\n" + ",\n".join(items) + "\n" + pad[:-1] + "]"


def parse_notes(notes):
    """The fingerprint, input properties and raw values from a run's '#' lines."""
    out = {}
    for line in notes:
        if line.startswith("# inputs "):
            out["sha256"] = line.rsplit("sha256=", 1)[1]
        elif line.startswith("# properties "):
            out["properties"] = json.loads(line[len("# properties "):])
        elif line.startswith("# raw "):
            out["raw"] = {k: float(v) for k, v in (item.split("=") for item in line[len("# raw "):].split())}
    return out


if __name__ == "__main__":
    sys.exit(main())
