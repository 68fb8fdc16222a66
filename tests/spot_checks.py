"""Spot checks of the structure the solver rests on, and reference
versions of code the package replaced with faster equivalents.

These check the theory on small instances (the Monge exchange property of
the weighted score matrix, and diminishing returns of the
best-achievable-total set function), keep the weighted best-response
oracle (the package's fill takes an order, which the solver sorts from its
weights itself), and keep the plain loops that the vectorized bound
repair, the release-position greedy fill and the count-vector
decomposition must reproduce, and the Lorenz dominance check the tests
compare satisfaction vectors with; they are test helpers, not part of the
package's API.
"""

from fractions import Fraction
import math
from typing import Sequence

import numpy as np

from fairrank import (
    ConstraintSet, InfeasibleConstraints, Instance, Ranking, ValueModel,
    max_total_value, to_upper_only,
)
from fairrank.core import _FLOAT_TIE_TOL, _vertex


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
    order = np.lexsort((instance.merit_position, -w)).tolist()
    # The sort puts NaN last, so the two ends bound every weight.
    if not (w[order[-1]] >= 0 and w[order[0]] < math.inf):
        raise ValueError("weights must be finite and nonnegative")
    return tuple(order)


def best_response(
    instance: Instance,
    constraints: ConstraintSet,
    value_model: ValueModel,
    weights: Sequence[float],
) -> OracleResult:
    """Maximize the weighted total value over valid rankings.

    Raises :class:`InfeasibleConstraints` from the fill when no valid
    ranking exists, for any weights, and ``ValueError`` on negative weights
    or on lower bounds over three or more groups.
    """
    w = np.asarray(weights, dtype=float)
    ranking, values = _vertex(
        instance, constraints, value_model, weight_order_key(instance, w)
    )
    return OracleResult(ranking, values, float(w @ values))


def has_monge_property(instance, value_model, weights, tolerance=1e-9):
    """Check the exchange inequality on the weighted score matrix.

    With rows ordered by descending weight and columns by position, the
    matrix ``W[u][i] = w[u] * (f(i) - g(u))`` must satisfy
    ``W[u][i] + W[v][j] >= W[u][j] + W[v][i]`` for all ``u < v``, ``i < j``;
    equivalently each row-difference vector is nonincreasing across
    positions.
    """
    order = weight_order_key(instance, weights)
    w = np.asarray(weights, dtype=float)[list(order)]
    f = np.array(value_model.position_scores)
    g = np.array(value_model.merit_scores)[list(order)]
    scores = w[:, None] * (f[None, :] - g[:, None])
    for a in range(len(order) - 1):
        gaps = scores[a] - scores[a + 1 :]
        if np.any(np.diff(gaps, axis=1) > tolerance):
            return False
    return True


def indicator_best_total(instance, constraints, value_model, mask, cache):
    """Best achievable total value of the individuals in the bitmask
    ``mask``: :func:`fairrank.max_total_value` of its members, memoized in
    the dict ``cache``."""
    if mask not in cache:
        members = [i for i in range(instance.n) if (mask >> i) & 1]
        cache[mask] = max_total_value(instance, constraints, value_model, members)
    return cache[mask]


def subset_scan_decomposition(instance, constraints, value_model):
    """Block decomposition by scanning every subset of the remaining
    individuals: ``fair_decomposition``'s blocks and levels, found in
    ``2^n`` oracle calls without the count-vector shortcut."""
    n = instance.n
    integer = value_model.integer_valued
    cache = {}
    full = (1 << n) - 1
    frozen = 0
    frozen_total = 0.0
    blocks = []
    while frozen != full:
        rest = full ^ frozen
        best = None
        tol = 0
        union = 0
        sub = rest
        while sub:
            gain = indicator_best_total(
                instance, constraints, value_model, frozen | sub, cache
            ) - frozen_total
            size = sub.bit_count()
            ratio = Fraction(round(gain), size) if integer else gain / size
            if best is None or ratio < best - tol:
                best, union = ratio, sub
                tol = 0 if integer else _FLOAT_TIE_TOL * max(1.0, abs(best))
            elif ratio <= best + tol:
                union |= sub
            sub = (sub - 1) & rest
        blocks.append((tuple(i for i in range(n) if (union >> i) & 1), float(best)))
        frozen |= union
        frozen_total = indicator_best_total(
            instance, constraints, value_model, frozen, cache
        )
    return blocks


def check_submodularity(instance, constraints, value_model, trials=200, rng_seed=0):
    """Spot-check diminishing returns of the best-achievable-total set
    function on random nested triples ``X subset Y``, ``Z`` disjoint from
    ``Y``: the marginal gain of ``Z`` on ``X`` must cover its gain on
    ``Y``."""
    n = instance.n
    uc = to_upper_only(constraints, instance)
    cache = {}
    rng = np.random.default_rng(rng_seed)
    full = (1 << n) - 1
    for _ in range(trials):
        y = int(rng.integers(0, full + 1))
        x = int(rng.integers(0, full + 1)) & y
        z = int(rng.integers(0, full + 1)) & (full ^ y)
        gain_x = indicator_best_total(
            instance, uc, value_model, x | z, cache
        ) - indicator_best_total(instance, uc, value_model, x, cache)
        gain_y = indicator_best_total(
            instance, uc, value_model, y | z, cache
        ) - indicator_best_total(instance, uc, value_model, y, cache)
        if gain_x < gain_y - _FLOAT_TIE_TOL:
            return False
    return True


def normalize_upper_loops(rows, n):
    """Monotone closure of upper bounds, one prefix at a time."""
    rows = np.clip(rows, 0, np.arange(1, n + 1))
    for i in range(n - 2, -1, -1):
        rows[:, i] = np.minimum(rows[:, i], rows[:, i + 1])
    for i in range(1, n):
        rows[:, i] = np.minimum(rows[:, i], rows[:, i - 1] + 1)
    return rows


def normalize_lower_loops(rows, n):
    """Monotone closure of lower bounds, one prefix at a time."""
    rows = np.clip(rows, 0, np.arange(1, n + 1))
    for i in range(1, n):
        rows[:, i] = np.maximum(rows[:, i], rows[:, i - 1])
    for i in range(n - 2, -1, -1):
        rows[:, i] = np.maximum(rows[:, i], rows[:, i + 1] - 1)
    return rows


def greedy_fill_scan(instance, constraints, order):
    """Fill positions 1..n, each time scanning every group for the earliest
    individual in ``order`` whose group cap at that prefix still has room."""
    n = instance.n
    t = instance.n_groups
    upper = constraints.upper
    queues = [[] for _ in range(t)]
    for rank, u in enumerate(order):
        queues[instance.group_of[u]].append((rank, u))
    heads = [0] * t
    out = []
    for i in range(n):
        best_rank = n
        best_g = -1
        for g in range(t):
            if heads[g] < len(queues[g]) and heads[g] < upper[g][i]:
                rank = queues[g][heads[g]][0]
                if rank < best_rank:
                    best_rank = rank
                    best_g = g
        if best_g < 0:
            raise InfeasibleConstraints(
                "no valid ranking satisfies the bounds: no group may take "
                f"position {i + 1} without exceeding its cap"
            )
        out.append(queues[best_g][heads[best_g]][1])
        heads[best_g] += 1
    return Ranking(out)


def lorenz_dominates(a: Sequence[float], b: Sequence[float], tol: float = 0.0) -> bool:
    """Generalized Lorenz dominance: every ascending prefix sum of ``a``
    covers the matching prefix sum of ``b``, up to ``tol``."""
    xa = np.sort(np.asarray(a, dtype=float))
    xb = np.sort(np.asarray(b, dtype=float))
    if xa.shape != xb.shape:
        raise ValueError("vectors must have equal length")
    return bool(np.all(np.cumsum(xa) >= np.cumsum(xb) - tol))
