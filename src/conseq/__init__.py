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
"""

from .errors import ConseqError, DomainError, InputSyntaxError, UsageError
from .language import (
    CofiniteSubset,
    Element,
    EnumeratedLanguage,
    ExplicitLanguage,
    FiniteSubset,
    Subset,
    all_subsets,
    full_subset,
    subsets_equal,
)
from .rules import (
    Apply,
    CheckResult,
    Derivation,
    Insert,
    Rule,
    RuleSystem,
    TupleRule,
    UnaryRule,
    rules_extensionally_equal,
)
from .engine import (
    SaturationResult,
    bounded_consequences,
    check_derivation,
    intersect_rulewise,
    intersect_systems,
    min_derivation_size,
    permute_premises,
    saturate,
    union_systems,
)
from .operators import (
    AdjoinIfContains,
    AdjoinIfIntersects,
    AxiomCounterexample,
    AxiomReport,
    BoundedOperator,
    Identity,
    MeetFamily,
    Operator,
    RuleOperator,
    TableOperator,
    Unit,
    canonical_system,
    check_axioms,
    closed_systems,
    counterexample_reproduces,
    cup_join,
    equal_ops,
    from_closure_family,
    join_uplus,
    leq,
    meet,
    meet_cap,
    overlap_trigger_system,
    prefix_adjoin_family,
    sup_w,
    superset_trigger_system,
    tabulate,
)
from .fileformat import dumps_system, load_system, loads_system, save_system
from .scenarios import Assertion, ScenarioReport, run_scenario, scenario_ids

__all__ = [
    "ConseqError",
    "DomainError",
    "InputSyntaxError",
    "UsageError",
    "CofiniteSubset",
    "Element",
    "EnumeratedLanguage",
    "ExplicitLanguage",
    "FiniteSubset",
    "Subset",
    "all_subsets",
    "full_subset",
    "subsets_equal",
    "Apply",
    "CheckResult",
    "Derivation",
    "Insert",
    "Rule",
    "RuleSystem",
    "TupleRule",
    "UnaryRule",
    "rules_extensionally_equal",
    "SaturationResult",
    "bounded_consequences",
    "check_derivation",
    "intersect_rulewise",
    "intersect_systems",
    "min_derivation_size",
    "permute_premises",
    "saturate",
    "union_systems",
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
    "dumps_system",
    "load_system",
    "loads_system",
    "save_system",
    "Assertion",
    "ScenarioReport",
    "run_scenario",
    "scenario_ids",
]

__version__ = "0.1.0"
