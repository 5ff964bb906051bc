"""Workbench for finite rule systems and the closure operators they generate.

The pieces fit together like this: `language` gives elements, explicit
and enumerated languages, and finite/cofinite subsets; `rules` defines
relations and rule systems; `engine` runs numbered-step deduction
(saturation, derivation checking, step bounds);
`operators` treats closure operators as values with meet, weak join,
axiom checking and one operator's closed sets (listed, joined and
met; `csystems` keeps those three functions at their old path), and
builds the rule systems that replay them (canonical and trigger
systems);
`propositional` instantiates the machinery for implication/negation
formulas with several restricted axiom sets; `scenarios` packages the
worked examples; `cli` exposes everything on the command line.

`import conseq` loads none of these modules.  Each name of `__all__` is
looked up in its home module when it is first used (PEP 562), and the
lookup is not stored, so `conseq.X` is always the home module's `X`.
"""

import importlib

# home module -> the names `conseq` exports from it, in `__all__` order
_EXPORTS = {
    "errors": ("ConseqError", "DomainError", "InputSyntaxError", "UsageError"),
    "language": (
        "CofiniteSubset",
        "Element",
        "EnumeratedLanguage",
        "ExplicitLanguage",
        "FiniteSubset",
        "Subset",
        "all_subsets",
        "full_subset",
        "subsets_equal",
    ),
    "rules": (
        "Apply",
        "CheckResult",
        "Derivation",
        "Insert",
        "Rule",
        "RuleSystem",
        "TupleRule",
        "UnaryRule",
        "rules_extensionally_equal",
    ),
    "engine": (
        "SaturationResult",
        "bounded_consequences",
        "check_derivation",
        "intersect_rulewise",
        "intersect_systems",
        "min_derivation_size",
        "permute_premises",
        "saturate",
        "union_systems",
    ),
    "operators": (
        "AdjoinIfContains",
        "AdjoinIfIntersects",
        "AxiomCounterexample",
        "AxiomReport",
        "BoundedOperator",
        "Identity",
        "MeetFamily",
        "Operator",
        "RuleOperator",
        "TableOperator",
        "Unit",
        "canonical_system",
        "check_axioms",
        "counterexample_reproduces",
        "cup_join",
        "equal_ops",
        "from_closure_family",
        "leq",
        "meet",
        "overlap_trigger_system",
        "prefix_adjoin_family",
        "sup_w",
        "superset_trigger_system",
        "tabulate",
        "closed_systems",
        "join_uplus",
        "meet_cap",
    ),
    "fileformat": ("dumps_system", "load_system", "loads_system", "save_system"),
    "scenarios": ("Assertion", "ScenarioReport", "run_scenario", "scenario_ids"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return [*globals(), *__all__]
