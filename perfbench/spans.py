"""Span recorder for the traced run.

Spans are recorded from the benchmark's side: each public conseq
function below is replaced, at every module that holds a reference to
it, by a wrapper that records a span (name, op id, parent span, start,
end).  Class methods are replaced on the class.  Spans stay in memory in
flat arrays and are written out once, when the run ends.  A layer's self
time is its spans' duration minus the time covered by their child spans.
"""

from __future__ import annotations

import gzip
import sys
import types
from array import array
from collections import Counter
from time import perf_counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _saturate_counts(counts, args, kwargs, result):
    counts["engine.saturate.closure_elems"] += len(result.closure)


def _loads_counts(counts, args, kwargs, result):
    counts["fileformat.input_bytes"] += len(_arg(args, kwargs, 0, "text").encode("utf-8"))


def _tuple_rule_counts(counts, args, kwargs, result):
    counts["rules.tuples"] += len(args[0].tuples)


def _derivation_counts(counts, args, kwargs, result):
    counts["engine.witness_steps"] += len(args[0].steps)


def _family_counts(counts, args, kwargs, result):
    counts["csystems.family_size"] += len(result)


def _pool_counts(counts, args, kwargs, result):
    counts["propositional.pool_size"] += len(result)


def _schema_counts(counts, args, kwargs, result):
    if _arg(args, kwargs, 0, "schema").kind.startswith("mp"):
        counts["propositional.mp_instances"] += len(result)


# (span name or None for a count-only hook, module, attribute, counter)
# An attribute "Class.method" is replaced on the class.
HOOKS = (
    ("language.contains", "language", "ExplicitLanguage.__contains__", None),
    ("language.subset_new", "language", "FiniteSubset.__post_init__", None),
    ("fileformat.loads_system", "fileformat", "loads_system", _loads_counts),
    ("rules.rule_system_new", "rules", "RuleSystem.__post_init__", None),
    ("rules.tuple_rule_new", "rules", "TupleRule.__post_init__", _tuple_rule_counts),
    (None, "rules", "Derivation.__post_init__", _derivation_counts),
    ("engine.saturate", "engine", "saturate", _saturate_counts),
    ("engine.bounded_consequences", "engine", "bounded_consequences", None),
    ("engine.min_derivation_size", "engine", "min_derivation_size", None),
    ("operators.apply", "operators", "RuleOperator.apply", None),
    ("operators.apply", "operators", "BoundedOperator.apply", None),
    ("operators.check_axioms", "operators", "check_axioms", None),
    ("operators.sup_w", "operators", "sup_w", None),
    ("operators.equal_ops", "operators", "equal_ops", None),
    ("csystems.closed_systems", "csystems", "closed_systems", _family_counts),
    ("propositional.subformula_closure", "propositional", "subformula_closure", _pool_counts),
    ("propositional.pd_system", "propositional", "pd_system", None),
    ("propositional.instantiate_schema", "propositional", "instantiate_schema", _schema_counts),
    ("propositional.certificate", "propositional", "certificate_non_derivable", None),
    ("cli.main", "cli", "main", None),
)

# Subsets handed out by the exhaustive enumerator; counted, not spanned,
# because it is a generator.
SUBSET_ENUMERATOR = ("language", "all_subsets")

# The apply calls that hit the operator cache are those whose span has
# no saturation (or step-bounded deduction) span as a child.
ENGINE_CALLS = ("engine.saturate", "engine.bounded_consequences")


class SpanRecorder:
    def __init__(self):
        self.names = []
        self.op_of = array("l")
        self.parent = array("l")
        self.kind = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.op = -1
        self._stack = [-1]
        self._patches = []

    def __len__(self):
        return len(self.start)

    def _kind(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name, fn, counter):
        counts = self.counts
        if name is None:

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counter(counts, args, kwargs, result)
                return result

            return counted

        kind = self._kind(name)
        stack, op_of, parent, kinds = self._stack, self.op_of, self.parent, self.kind
        start, end = self.start, self.end

        def traced(*args, **kwargs):
            span = len(start)
            op_of.append(self.op)
            parent.append(stack[-1])
            kinds.append(kind)
            end.append(0.0)
            stack.append(span)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def _count_yields(self, fn):
        counts = self.counts

        def enumerate_counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts["operators.subsets_evaluated"] += 1
                yield item

        return enumerate_counted

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _rebind(self, original, replacement):
        """Replace `original` wherever a conseq module imported it."""
        for module in list(sys.modules.values()):
            if isinstance(module, types.ModuleType) and module.__name__.split(".")[0] == "conseq":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, replacement)

    def install(self, cq):
        """Wrap every hook that exists in this version of conseq."""
        for name, module_name, attr, counter in HOOKS:
            owner = getattr(cq, module_name)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                if cls is not None and method in cls.__dict__:
                    self._patch(cls, method, self._wrap(name, cls.__dict__[method], counter))
            elif hasattr(owner, attr):
                original = getattr(owner, attr)
                self._rebind(original, self._wrap(name, original, counter))
        module_name, attr = SUBSET_ENUMERATOR
        original = getattr(getattr(cq, module_name), attr, None)
        if original is not None:
            self._rebind(original, self._count_yields(original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Per span: its duration minus the time its child spans cover."""
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[span] - self.start[span]
        return own

    def summary(self):
        """Calls and self seconds per span name, and the apply-cache hits."""
        own = self.self_times()
        calls, seconds = Counter(), Counter()
        for kind, t in zip(self.kind, own):
            calls[self.names[kind]] += 1
            seconds[self.names[kind]] += t
        engine = {self.names.index(n) for n in ENGINE_CALLS if n in self.names}
        apply_kind = self.names.index("operators.apply") if "operators.apply" in self.names else None
        misses = {
            p for k, p in zip(self.kind, self.parent) if k in engine and p >= 0 and self.kind[p] == apply_kind
        }
        return calls, seconds, calls["operators.apply"] - len(misses)

    def write(self, path):
        own = self.self_times()
        t0 = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("span\top\tparent\tname\tstart_us\tdur_us\tself_us\n")
            for i in range(len(self)):
                out.write(
                    f"{i}\t{self.op_of[i]}\t{self.parent[i]}\t{self.names[self.kind[i]]}\t"
                    f"{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - self.start[i]) * 1e6:.1f}\t"
                    f"{own[i] * 1e6:.1f}\n"
                )
