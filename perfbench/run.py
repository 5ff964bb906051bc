#!/usr/bin/env python3
"""conseq benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload horn-deep --seed 1 --seconds 30 --trace 0

Run from the root of a conseq checkout; the program is imported from its
`src/`.  The run sets up several times and reports the median set-up
time, then drives conseq the way a user does (CLI `main` in-process with
stdout captured, or the public library calls) until `--seconds` have
passed and at least MIN_OPS ops are done.  Every output is checked by the
oracles in `oracles.py`, outside the timed region; an input seen again
must give the output already checked.

With `--trace 0` the last stdout line reports the end-to-end metrics.
With `--trace 1` the run alternates untraced and traced passes over the
first ops of the workload and reports per-layer counts and self times
per op (see `spans.py`), plus the tracing overhead; spans are written
to `.bench_out/spans-<workload>.tsv.gz`.  Lines before the last one,
prefixed with '#', give the input fingerprint and the input properties.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
WARMUP_OPS = 2
MIN_OPS = 100  # so the 90th percentile has ten samples above it
SPAN_BUDGET = 1_500_000  # no new traced pass once this many spans are held

# Shared machines change speed: on a shared 2-vCPU x86_64 VM the same
# fixed work ran up to 70% slower from one second to the next, and whole
# runs minutes apart differed by 30%, more than any bound a run-to-run
# comparison can use.  So a fixed pure-Python
# reference loop runs before every op (and before every set-up), outside
# the timed region, and every reported time is scaled by REFERENCE_S over
# the median of the reference times taken around it (REFERENCE_WINDOW on
# each side): it is the time on a machine where the reference loop takes
# REFERENCE_S.  The '# raw' line before the result gives unscaled values.
# Of the loops tried (integer and tuple arithmetic, small-object
# allocation, a large dict), filling and probing a dict too big for the
# core's private caches tracked all three workloads best across runs.
REFERENCE_S = 0.007
REFERENCE_KEYS = 40_000
REFERENCE_WINDOW = 2

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# (metric, unit, source): "calls"/"self_ms" read a span, "count" a
# counter, both per traced op; "per_call" divides a counter by the calls
# of the span named after the metric's prefix.
PER_LAYER = (
    ("language.contains.calls", "count/op", "calls"),
    ("language.contains.self_ms", "ms/op", "self_ms"),
    ("language.subset_new.calls", "count/op", "calls"),
    ("language.subset_new.self_ms", "ms/op", "self_ms"),
    ("fileformat.loads_system.self_ms", "ms/op", "self_ms"),
    ("fileformat.input_bytes", "bytes/op", "count"),
    ("rules.rule_system_new.self_ms", "ms/op", "self_ms"),
    ("rules.tuple_rule_new.self_ms", "ms/op", "self_ms"),
    ("rules.tuples", "count/op", "count"),
    ("engine.saturate.calls", "count/op", "calls"),
    ("engine.saturate.self_ms", "ms/op", "self_ms"),
    ("engine.saturate.closure_elems", "count/op", "count"),
    ("engine.witness_steps", "count/op", "count"),
    ("engine.bounded_consequences.calls", "count/op", "calls"),
    ("engine.bounded_consequences.self_ms", "ms/op", "self_ms"),
    ("engine.min_derivation_size.calls", "count/op", "calls"),
    ("engine.min_derivation_size.self_ms", "ms/op", "self_ms"),
    ("operators.apply.calls", "count/op", "calls"),
    ("operators.cache_hit_ratio", "ratio", "cache"),
    ("operators.check_axioms.self_ms", "ms/op", "self_ms"),
    ("operators.sup_w.self_ms", "ms/op", "self_ms"),
    ("operators.equal_ops.self_ms", "ms/op", "self_ms"),
    ("operators.subsets_evaluated", "count/op", "count"),
    ("csystems.closed_systems.self_ms", "ms/op", "self_ms"),
    ("csystems.family_size", "sets/call", "per_call"),
    ("propositional.subformula_closure.self_ms", "ms/op", "self_ms"),
    ("propositional.pd_system.self_ms", "ms/op", "self_ms"),
    ("propositional.instantiate_schema.self_ms", "ms/op", "self_ms"),
    ("propositional.pool_size", "formulas/call", "per_call"),
    ("propositional.mp_instances", "count/op", "count"),
    ("propositional.certificate.calls", "count/op", "calls"),
    ("propositional.certificate.self_ms", "ms/op", "self_ms"),
    ("propositional.outcome.derived", "share", "outcome"),
    ("propositional.outcome.certified", "share", "outcome"),
    ("propositional.outcome.bounded", "share", "outcome"),
    ("cli.main.self_ms", "ms/op", "self_ms"),
    ("trace.overhead_ms", "ms/op", "overhead"),
    ("trace.overhead_pct", "%", "overhead"),
)
PER_CALL_SPAN = {
    "csystems.family_size": "csystems.closed_systems",
    "propositional.pool_size": "propositional.subformula_closure",
}

# Spans each workload must fire; a traced run where one stays silent fails.
MUST_FIRE = {
    "horn-deep": (
        "language.contains",
        "fileformat.loads_system",
        "rules.rule_system_new",
        "rules.tuple_rule_new",
        "engine.saturate",
        "cli.main",
    ),
    "lattice-small": (
        "language.subset_new",
        "engine.saturate",
        "engine.bounded_consequences",
        "engine.min_derivation_size",
        "operators.apply",
        "operators.check_axioms",
        "operators.sup_w",
        "operators.equal_ops",
        "csystems.closed_systems",
    ),
    "pd-search": (
        "language.contains",
        "engine.saturate",
        "propositional.subformula_closure",
        "propositional.pd_system",
        "propositional.instantiate_schema",
        "propositional.certificate",
        "cli.main",
    ),
}

CONSEQ_MODULES = ("cli", "csystems", "engine", "fileformat", "language", "operators", "propositional", "rules")


class Conseq:
    """The conseq modules, freshly imported."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "conseq" or m.startswith("conseq.")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        self.package = importlib.import_module("conseq")
        for name in CONSEQ_MODULES:
            setattr(self, name, importlib.import_module(f"conseq.{name}"))
        self._caches = [
            value.cache_clear
            for name, module in sys.modules.items()
            if name.split(".")[0] == "conseq"
            for value in vars(module).values()
            if callable(getattr(value, "cache_clear", None))
        ]

    def clear_caches(self):
        """Empty conseq's module-level function caches, so that each op
        starts as a fresh `conseq` process would and no op is served
        from an earlier op's cache."""
        for cache_clear in self._caches:
            cache_clear()


def reference_loop():
    table = {}
    for i in range(REFERENCE_KEYS):
        table[i * 7919 % 100_003] = i
    return sum(table.get(i * 104_729 % 100_003, 0) for i in range(0, REFERENCE_KEYS, 3))


class Speed:
    """Reference-loop timings, and the scale they give reported times."""

    def __init__(self):
        self.samples = []

    def sample(self):
        started = perf_counter()
        reference_loop()
        self.samples.append(perf_counter() - started)

    def scale(self):
        return REFERENCE_S / statistics.median(self.samples)

    def scaled(self, times):
        """times[i] was taken right after samples[i]; scale each by the
        reference times around it."""
        out = []
        for i, t in enumerate(times):
            around = self.samples[max(0, i - REFERENCE_WINDOW) : i + REFERENCE_WINDOW + 2]
            out.append(t * REFERENCE_S / statistics.median(around))
        return out


def setup(workload_cls, seed, workdir):
    """Import, generate and write the inputs, warm up; return the workload."""
    cq = Conseq()
    workload = workload_cls(seed, cq, workdir)
    for op in workload.ops[:WARMUP_OPS]:
        workload.run(op)
    return workload


class Checker:
    """Verifies each op's output; remembers verified outputs per input."""

    def __init__(self, workload):
        self.workload = workload
        self.verified = {}
        self.attempted = 0
        self.failed = 0
        self.visited = []

    def __call__(self, op, raw, error):
        self.attempted += 1
        self.visited.append(op)
        if error is not None:
            reason = "traceback:\n" + error
        else:
            record = self.workload.record(op, raw)
            key = self.workload.key(op)
            if key in self.verified:
                reason = None if record == self.verified[key] else "output differs from an earlier run of this input"
            else:
                reason = self.workload.check(op, record)
                if reason is None:
                    self.verified[key] = record
        if reason is not None:
            self.failed += 1
            if self.failed <= 3:
                print(f"op {op!r:.80} failed: {reason}", file=sys.stderr)
        return reason


def timed(workload, op, checker, speed):
    """Run one op; return its latency in seconds and whether it passed."""
    error = None
    speed.sample()
    workload.cq.clear_caches()
    started = perf_counter()
    try:
        raw = workload.run(op)
    except Exception:
        raw, error = None, traceback.format_exc()
    latency = perf_counter() - started
    return latency, checker(op, raw, error) is None


def measure(workload, checker, seconds, speed):
    latencies = []
    deadline = perf_counter() + seconds
    j = 0
    while perf_counter() < deadline or len(latencies) < MIN_OPS:
        latency, _ = timed(workload, workload.ops[j % len(workload.ops)], checker, speed)
        latencies.append(latency)
        j += 1
    return latencies


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end_values(setup_times, latencies):
    return {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": percentile(latencies, 50) * 1e3,
        "op_p90_ms": percentile(latencies, 90) * 1e3,
        "ops_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(workload, checker, seconds, spans_path, speed):
    recorder = SpanRecorder()
    block = workload.ops[: workload.trace_block]
    latencies, plain, traced = [], [], []  # latencies[i] follows speed.samples[i]
    deadline = perf_counter() + seconds

    def run_pass(passes, tracing):
        start = len(latencies)
        for op in block:
            if tracing:
                recorder.op += 1
            latencies.append(timed(workload, op, checker, speed)[0])
        passes.append(slice(start, len(latencies)))

    run_pass([], False)  # warms the interpreter; not compared
    while True:
        started = perf_counter()
        recorder.install(workload.cq)
        try:
            run_pass(traced, True)
        finally:
            recorder.uninstall()
        run_pass(plain, False)
        pair = perf_counter() - started
        if perf_counter() + pair > deadline or len(recorder) >= SPAN_BUDGET:
            break
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    recorder.write(spans_path)

    ops = len(traced) * len(block)
    # verified outputs match the expected outcome, so these are the printed ones
    outcomes = [workload.outcome(op) for op in block]
    calls, seconds_by_span, hits = recorder.summary()
    silent = [name for name in MUST_FIRE[workload.name] if calls[name] == 0]
    scale = speed.scale()
    scaled = speed.scaled(latencies)
    traced_s = statistics.median(sum(scaled[p]) for p in traced)
    plain_s = statistics.median(sum(scaled[p]) for p in plain)
    values = {}
    for metric, unit, source in PER_LAYER:
        span = metric.rsplit(".", 1)[0]
        if source == "calls":
            value = calls[span] / ops
        elif source == "self_ms":
            value = seconds_by_span[span] * 1e3 * scale / ops
        elif source == "count":
            value = recorder.counts[metric] / ops
        elif source == "per_call":
            value = recorder.counts[metric] / max(1, calls[PER_CALL_SPAN[metric]])
        elif source == "cache":
            value = hits / calls["operators.apply"] if calls["operators.apply"] else 0.0
        elif source == "outcome":
            value = outcomes.count(metric.rsplit(".", 1)[1]) / len(block)
        elif metric == "trace.overhead_ms":
            value = (traced_s - plain_s) * 1e3 / len(block)
        else:
            value = 100 * (traced_s - plain_s) / plain_s
        values[metric] = {"value": value, "unit": unit}
    return values, silent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "conseq" / "__init__.py").is_file():
        print(f"error: no conseq sources under {ROOT / 'src'}; run from a conseq checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"{args.workload}-{os.getpid()}"
    try:
        raw_setup, setup_times = [], []
        for _ in range(SETUP_REPEATS):
            speed = Speed()
            for _ in range(5):
                speed.sample()
            started = perf_counter()
            workload = setup(WORKLOADS[args.workload], args.seed, workdir)
            raw_setup.append(perf_counter() - started)
            setup_times.append(raw_setup[-1] * speed.scale())
        checker, speed = Checker(workload), Speed()
        if args.trace:
            metrics, silent = traced_run(
                workload, checker, args.seconds, out_dir / f"spans-{args.workload}.tsv.gz", speed
            )
        else:
            latencies = measure(workload, checker, args.seconds, speed)
            values = end_to_end_values(setup_times, speed.scaled(latencies))
            raw = end_to_end_values(raw_setup, latencies)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
            silent = []
            print("# raw " + " ".join(f"{name}={raw[name]:.6g}" for name in END_TO_END)
                  + f" reference_ms={1e3 * statistics.median(speed.samples):.4g}")
        print(f"# inputs {args.workload} seed={args.seed} sha256={workload.fingerprint()}")
        print("# properties " + json.dumps(workload.properties(checker.visited), sort_keys=True))
        print(f"# ops_attempted={checker.attempted} ops_failed={checker.failed}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if silent:
        print(f"error: spans never fired on {args.workload}: {', '.join(silent)}", file=sys.stderr)
        return 3
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
