"""Symbolic reachability analysis (the paper's application domain).

* :class:`TransitionRelation` — clustered conjunctive relations with
  early quantification and partial-image subsetting hooks.
* :func:`bfs_reachability` — the exact breadth-first baseline.
* :func:`high_density_reachability` — the traversal the paper
  accelerates with RUA (Table 1).
* :func:`governed_image` — the degrade-to-approximation escalation
  ladder both traversals use under resource budgets
  (``on_blowup="subset"|"retry-reorder"``).
"""

from .backward import backward_reachability, can_reach
from .bfs import ReachResult, bfs_reachability, count_states
from .degrade import ON_BLOWUP_MODES, governed_image, validate_on_blowup
from .highdensity import (HighDensityResult, Subsetter,
                          high_density_reachability)
from .transition import (ImageStats, PartialImagePolicy,
                         TransitionRelation)

__all__ = [
    "TransitionRelation",
    "PartialImagePolicy",
    "ImageStats",
    "bfs_reachability",
    "backward_reachability",
    "can_reach",
    "high_density_reachability",
    "count_states",
    "ReachResult",
    "HighDensityResult",
    "Subsetter",
    "ON_BLOWUP_MODES",
    "governed_image",
    "validate_on_blowup",
]
