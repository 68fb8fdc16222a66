"""Greedy best-response oracle for weighted ranking under prefix caps.

Given nonnegative per-individual weights ``w``, the oracle returns a valid
ranking maximizing ``sum_u w[u] * value(r, u)``.  Because position scores
are nonincreasing, the weighted score matrix ``w[u] * f(i)`` has the
exchange (Monge) property once individuals are sorted by descending weight:
swapping any inverted pair never helps.  Filling positions top to bottom
with the heaviest still-placeable individual is therefore optimal, and the
result depends only on the *order* of the weights.

Constraints must be upper-only (see :func:`fairrank.core.to_upper_only`)
and in the normalized monotone form that :class:`fairrank.core.ConstraintSet`
guarantees, so a placement that respects the cap at its own prefix can never
violate a later prefix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import ConstraintSet, Instance, Ranking, ValueModel
from .errors import InfeasibleConstraints

__all__ = [
    "OracleResult",
    "weight_order_key",
    "best_response",
]


class OracleResult:
    """A best-response ranking with its per-individual values and objective."""

    __slots__ = ("ranking", "values", "objective")

    def __init__(self, ranking: Ranking, values: np.ndarray, objective: float):
        self.ranking = ranking
        self.values = values
        self.objective = objective

    def __repr__(self) -> str:
        return f"OracleResult(objective={self.objective:.6g})"


def weight_order_key(instance: Instance, weights: Sequence[float]) -> tuple[int, ...]:
    """Individual indices sorted by descending weight.

    Ties fall back to the instance's merit order (descending relevance, then
    ascending id), so the key is a deterministic function of the weights.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (instance.n,):
        raise ValueError("need one weight per individual")
    if not (np.isfinite(w).all() and w.min() >= 0):
        raise ValueError("weights must be finite and nonnegative")
    order = np.lexsort((instance.merit_position, -w))
    return tuple(order.tolist())


def _greedy_fill(
    instance: Instance, constraints: ConstraintSet, order: Sequence[int]
) -> Ranking:
    """Fill positions 1..n, each time taking the earliest individual in
    ``order`` whose group cap at that prefix still has room."""
    n = instance.n
    t = instance.n_groups
    upper = constraints.upper
    group_of = instance.group_of
    queues: list[list[tuple[int, int]]] = [[] for _ in range(t)]
    for rank, u in enumerate(order):
        queues[group_of[u]].append((rank, u))
    heads = [0] * t
    counts = [0] * t
    out = []
    for i in range(n):
        best_rank = n
        best_g = -1
        for g in range(t):
            if heads[g] < len(queues[g]) and counts[g] < upper[g][i]:
                rank = queues[g][heads[g]][0]
                if rank < best_rank:
                    best_rank = rank
                    best_g = g
        if best_g < 0:
            raise InfeasibleConstraints(
                f"no group may take position {i + 1} without exceeding its cap"
            )
        u = queues[best_g][heads[best_g]][1]
        heads[best_g] += 1
        counts[best_g] += 1
        out.append(u)
    return Ranking(out)


def best_response(
    instance: Instance,
    constraints: ConstraintSet,
    value_model: ValueModel,
    weights: Sequence[float],
) -> OracleResult:
    """Maximize the weighted total value over valid rankings.

    Raises :class:`InfeasibleConstraints` when no valid ranking exists and
    ``ValueError`` on negative weights or lower-bounded constraints.
    """
    if not constraints.upper_only:
        raise ValueError("the oracle needs upper-only constraints; "
                         "convert with to_upper_only first")
    order = weight_order_key(instance, weights)
    ranking = _greedy_fill(instance, constraints, order)
    values = value_model.values(ranking)
    objective = float(np.asarray(weights, dtype=float) @ values)
    return OracleResult(ranking, values, objective)
