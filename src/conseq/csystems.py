"""The lattice of closed sets of a single operator, by its old import path.

`closed_systems`, `join_uplus` and `meet_cap` live in `operators`, beside
`sup_w`, `leq` and `equal_ops`; `conseq.csystems` re-exports the same
function objects, so it stays a public import path.
"""

from .operators import closed_systems, join_uplus, meet_cap

__all__ = ["closed_systems", "join_uplus", "meet_cap"]
