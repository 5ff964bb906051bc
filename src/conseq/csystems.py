"""The lattice of closed sets of a single operator.

A subset is closed when the operator fixes it.  For a consequence
operator the closed sets form a lattice: meet is plain intersection
(closed again), and the join of two closed sets is the closure of
their union, the least closed superset.  Their plain union usually is
not closed, which is why the join has to re-close.  `closed_systems`
lists the closed sets as a plain tuple of subsets.
"""

from __future__ import annotations

from .errors import UsageError
from .language import ExplicitLanguage, FiniteSubset
from .operators import (
    DEFAULT_BOUND,
    ClosureFamilyOperator,
    Operator,
    _closed_bitsets,
    _image_table,
    _require_small_language,
)


def closed_systems(
    op: Operator, language: ExplicitLanguage, *, bound: int = DEFAULT_BOUND
) -> tuple[FiniteSubset, ...]:
    """The closed sets of `op` as a tuple of subsets, ordered by size,
    then member by member, as `sup_w([op], language).closed_sets` are.

    An operator with a closed-mask bitset (`Operator._closed_masks`: a
    rule operator, or a family built from such bitsets) lists its set
    bits.  Any other operator is read from its image table: the closed
    sets are the images of P(language) under `op`, every image must be a
    fixed point, and the whole language must be among them."""
    _require_small_language(language, bound)
    refusal = "the whole language is not closed; not a consequence operator"
    closed = _closed_bitsets([op], language)
    if closed is not None:
        return ClosureFamilyOperator._of_closed(language, closed[0], refusal).closed_sets
    images = _image_table(op, language)
    for image in images:
        if images[image] != image:
            raise UsageError(
                f"{FiniteSubset._of_mask(language, image)} is an image but not a fixed point; "
                "the operator is not idempotent"
            )
    return ClosureFamilyOperator._fixed_by(language, [images], refusal).closed_sets


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
