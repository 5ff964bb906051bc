"""Seeded random generators for rule systems and closure-family operators.

Everything here is deterministic in the seed, so randomized checks in
the scenario registry and the test suite replay exactly.
"""

from __future__ import annotations

import random

from .errors import UsageError
from .language import Element, ExplicitLanguage, FiniteSubset, intersection_closure
from .operators import ClosureFamilyOperator
from .rules import Rule, RuleSystem, TupleRule, UnaryRule


def small_language(size: int, *, prefix: str = "e") -> ExplicitLanguage:
    if size < 1:
        raise UsageError("a language needs at least one element")
    return ExplicitLanguage(tuple(Element(f"{prefix}{i}") for i in range(size)))


def random_system(
    rng: random.Random,
    language: ExplicitLanguage,
    *,
    max_rules: int = 3,
    max_tuples: int = 4,
    axiom_chance: float = 0.7,
) -> RuleSystem:
    """A random system: maybe a unary axiom rule, then a few tuple rules."""
    elements = list(language.elements)
    rules: list[Rule] = []
    if rng.random() < axiom_chance:
        count = rng.randint(0, min(2, len(elements)))
        members = tuple(rng.sample(elements, count))
        rules.append(UnaryRule("ax", FiniteSubset(language, members)))
    for i in range(rng.randint(1, max_rules)):
        arity = rng.randint(2, 3)
        count = rng.randint(1, max_tuples)
        tuples = tuple(tuple(rng.choice(elements) for _ in range(arity)) for _ in range(count))
        rules.append(TupleRule(f"r{i}", arity, tuples))
    return RuleSystem("random", language, tuple(rules))


def random_closure_family(
    rng: random.Random, language: ExplicitLanguage, *, max_generators: int = 4
) -> ClosureFamilyOperator:
    """The closure-family operator of the whole language and a few random subsets."""
    n = len(language.elements)
    generators = [rng.randrange(1 << n) for _ in range(rng.randint(0, max_generators))]
    masks = intersection_closure([(1 << n) - 1, *generators])
    refusal = "a closure family must contain the whole language"
    return ClosureFamilyOperator._of_masks(language, masks, refusal)


def seeded(seed: int, stream: str) -> random.Random:
    """Independent deterministic generator for a named stream."""
    return random.Random(f"{seed}:{stream}")
