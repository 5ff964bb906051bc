"""The lattice of closed sets of a single operator.

A subset is closed when the operator fixes it.  For a consequence
operator the closed sets form a lattice: meet is plain intersection
(closed again), and the join of two closed sets is the closure of
their union, the least closed superset.  Their plain union usually is
not closed, which is why the join has to re-close.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .errors import UsageError
from .language import ExplicitLanguage, FiniteSubset
from .operators import DEFAULT_BOUND, Operator, closed_family


@dataclass(eq=False, frozen=True)
class CSystemFamily:
    """All closed sets of one operator over a finite language.

    `member_set` holds the members as a frozenset, built once, for
    membership tests.
    """

    operator: Operator
    language: ExplicitLanguage
    members: tuple[FiniteSubset, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "member_set", frozenset(self.members))

    def __contains__(self, subset: FiniteSubset) -> bool:
        return subset in self.member_set

    def __iter__(self) -> Iterator[FiniteSubset]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


def closed_systems(op: Operator, language: ExplicitLanguage, *, bound: int = DEFAULT_BOUND) -> CSystemFamily:
    """The closed sets of `op` over a finite language, as
    `operators.closed_family` collects, checks and orders them."""
    members = closed_family(op, language, bound=bound)
    return CSystemFamily(operator=op, language=language, members=members)


def _require_closed(op: Operator, subset: FiniteSubset, side: str) -> None:
    if op.apply(subset) != subset:
        raise UsageError(f"{side} argument {subset} is not closed under the operator")


def join_uplus(op: Operator, left: FiniteSubset, right: FiniteSubset) -> FiniteSubset:
    """Join of two closed sets: the closure of their union."""
    _require_closed(op, left, "left")
    _require_closed(op, right, "right")
    return op.apply(left.union(right))


def meet_cap(op: Operator, left: FiniteSubset, right: FiniteSubset) -> FiniteSubset:
    """Meet of two closed sets: their intersection, checked closed."""
    _require_closed(op, left, "left")
    _require_closed(op, right, "right")
    shared = left.intersect(right)
    if op.apply(shared) != shared:
        raise UsageError(
            f"intersection {shared} is not closed; the operator is not a consequence operator"
        )
    return shared
