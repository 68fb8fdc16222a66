"""Deterministic merit-greedy baseline.

Filling positions top to bottom with the most relevant individual whose
group cap still has room yields, among all valid rankings, one that
maximizes the worst individual value.  It is the natural deterministic
yardstick for the randomized solver: same worst case as any single ranking
can achieve, but with none of the randomized scheme's equalization.
"""

from __future__ import annotations

from .core import ConstraintSet, Instance, Ranking, ValueModel, _greedy_fill

__all__ = ["deterministic_baseline", "baseline_min_value"]


def deterministic_baseline(instance: Instance, constraints: ConstraintSet) -> Ranking:
    """The merit-order greedy valid ranking."""
    return _greedy_fill(instance, constraints, instance.merit_order)


def baseline_min_value(
    instance: Instance, constraints: ConstraintSet, value_model: ValueModel
) -> float:
    """Worst per-individual value attained by the deterministic baseline."""
    ranking = deterministic_baseline(instance, constraints)
    return float(value_model.values(ranking).min())
