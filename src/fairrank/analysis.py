"""Exact analysis tools and fairness metrics.

The exact tools are the independent ground truth the solver is checked
against: enumeration of every valid ranking, the best achievable total
value of a set, the exact ceiling on the worst expected satisfaction, and
the block decomposition showing which individuals are pinned at which
satisfaction level.  Enumeration is limited to ``n <= 10``; the
decomposition scans per-group count vectors, so its guard bounds
``prod(|group k| + 1)`` rather than ``n``.  The metric helpers at the
bottom scale to any size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from operator import add
from typing import Iterable, Sequence

import numpy as np

from .core import ConstraintSet, Instance, Ranking, ValueModel
from .errors import InstanceTooLarge
from .oracle import best_response

__all__ = [
    "enumerate_valid_rankings",
    "max_total_value",
    "min_satisfaction_bound",
    "FairDecomposition",
    "fair_decomposition",
    "gini",
    "spread",
    "dcg",
    "distribution_dcg",
    "lorenz_dominates",
    "MetricsReport",
    "metrics_for_distribution",
    "metrics_for_ranking",
]

ENUMERATION_GUARD = 10
COUNT_SCAN_GUARD = 4096
_FLOAT_TIE_TOL = 1e-9


def enumerate_valid_rankings(
    instance: Instance, constraints: ConstraintSet
) -> list[Ranking]:
    """All valid rankings, in lexicographic order of their index tuples.

    Honors lower bounds directly, so it also serves as the independent
    check for the lower-to-upper constraint rewrite.  Guarded to
    ``n <= 10``.
    """
    n = instance.n
    if n > ENUMERATION_GUARD:
        raise InstanceTooLarge(
            f"enumeration is limited to n <= {ENUMERATION_GUARD}, got n = {n}"
        )
    upper = constraints.upper
    lower = constraints.lower
    t = instance.n_groups
    group_of = instance.group_of
    out: list[Ranking] = []
    used = [False] * n
    counts = [0] * t
    prefix: list[int] = []

    def extend(i: int) -> None:
        if i == n:
            out.append(Ranking(tuple(prefix)))
            return
        for u in range(n):
            if used[u]:
                continue
            g = group_of[u]
            if counts[g] + 1 > upper[g][i]:
                continue
            counts[g] += 1
            if all(counts[k] >= lower[k][i] for k in range(t)):
                used[u] = True
                prefix.append(u)
                extend(i + 1)
                prefix.pop()
                used[u] = False
            counts[g] -= 1

    extend(0)
    return out


def max_total_value(
    instance: Instance,
    constraints: ConstraintSet,
    value_model: ValueModel,
    members: Iterable[int],
) -> float:
    """Largest total value the given individuals can attain simultaneously
    in any valid ranking: their total in the greedy oracle's ranking under
    0/1 weights, exact in floats for integer value models."""
    weights = np.zeros(instance.n)
    for i in members:
        i = int(i)
        if not 0 <= i < instance.n:
            raise ValueError(f"individual index {i} out of range")
        weights[i] = 1.0
    res = best_response(instance, constraints, value_model, weights)
    return float(res.values[weights > 0].sum())


def min_satisfaction_bound(
    instance: Instance, constraints: ConstraintSet, value_model: ValueModel
) -> float:
    """Exact ceiling on the worst expected satisfaction any distribution
    over valid rankings can guarantee: the level of the first block of
    :func:`fair_decomposition`, under the same guard.

    Whatever the distribution, the members of a set X share at most the
    best achievable total of X, so someone in X sits at or below that
    total divided by |X|; the binding set gives the tight bound.
    """
    return fair_decomposition(instance, constraints, value_model).blocks[0][1]


@dataclass(frozen=True)
class FairDecomposition:
    """Partition of the individuals into blocks with strictly increasing
    guaranteed satisfaction levels.

    ``blocks[j]`` is ``(member indices, level)``; ``targets[i]`` repeats the
    level of individual ``i``'s block.  The sorted target vector is the
    lexicographically optimal satisfaction profile.
    """

    blocks: tuple[tuple[tuple[int, ...], float], ...]
    targets: np.ndarray

    def targets_by_id(self, instance: Instance) -> dict[str, float]:
        return {instance.ids[i]: float(self.targets[i]) for i in range(instance.n)}


def fair_decomposition(
    instance: Instance, constraints: ConstraintSet, value_model: ValueModel
) -> FairDecomposition:
    """Exact block decomposition by repeated minimization of the marginal
    per-member gain.

    Starting from the empty set, each step finds all sets of the remaining
    individuals minimizing ``(gain in best achievable total) / |set|`` and
    freezes their union as the next block; the minimum is that block's
    satisfaction level.  Levels are strictly increasing and the per-block
    totals are conserved.

    Every value is ``position_scores[pos] - merit_scores[u]``, and swapping
    two members of one group keeps a ranking valid, so the best total of a
    set S is ``F(c) - merit total of S``, where ``c`` counts S's members per
    group and ``F(c)`` is the best position-score total of such a set.  For
    fixed counts the minimizers take each group's highest merit scores, so
    each step scans count vectors instead of subsets, with ``F`` evaluated
    once per vector by the greedy oracle.  Guarded to
    ``prod(|group k| + 1) <= 4096`` count vectors.
    """
    n = instance.n
    vectors = math.prod(int(size) + 1 for size in instance.group_sizes)
    if vectors > COUNT_SCAN_GUARD:
        raise InstanceTooLarge(
            f"the count-vector scan is limited to {COUNT_SCAN_GUARD} group "
            f"count vectors, got {vectors}"
        )
    f = value_model.position_scores
    g = value_model.merit_scores
    integer = value_model.integer_valued
    # Each group's members by descending merit score, merit order breaking ties.
    by_group: list[list[int]] = [[] for _ in range(instance.n_groups)]
    for u in sorted(range(n), key=lambda u: (-g[u], instance.merit_position[u])):
        by_group[instance.group_of[u]].append(u)
    memo: dict[tuple[int, ...], float] = {}

    def position_total(counts: tuple[int, ...]) -> float:
        if counts not in memo:
            weights = np.zeros(n)
            for members, c in zip(by_group, counts):
                weights[members[:c]] = 1.0
            res = best_response(instance, constraints, value_model, weights)
            position = res.ranking.position
            memo[counts] = sum(f[position[u] - 1] for u in np.flatnonzero(weights))
        return memo[counts]

    frozen = [0] * instance.n_groups
    blocks: list[tuple[tuple[int, ...], float]] = []
    targets = np.empty(n, dtype=float)
    while sum(frozen) < n:
        rest = [members[c:] for members, c in zip(by_group, frozen)]
        base = position_total(tuple(frozen))
        merit_totals = [list(accumulate((g[u] for u in m), initial=0.0)) for m in rest]
        best, tol, ties = None, 0, []
        for d in product(*(range(len(m) + 1) for m in rest)):
            size = sum(d)
            if not size:
                continue
            gain = position_total(tuple(map(add, frozen, d))) - base - sum(
                totals[c] for totals, c in zip(merit_totals, d)
            )
            ratio = Fraction(round(gain), size) if integer else gain / size
            if best is None or ratio < best - tol:
                best, ties = ratio, [d]
                tol = 0 if integer else _FLOAT_TIE_TOL * max(1.0, abs(best))
            elif ratio <= best + tol:
                ties.append(d)
        # The minimizing sets are closed under union and under swapping
        # members of one group tied in merit score, so the largest is a
        # scanned prefix that already holds every such tie, and the union
        # of the minimizing prefixes takes the largest count per group.
        taken = [max(column) for column in zip(*ties)]
        block = tuple(sorted(u for m, c in zip(rest, taken) for u in m[:c]))
        blocks.append((block, float(best)))
        targets[list(block)] = float(best)
        frozen = list(map(add, frozen, taken))
    return FairDecomposition(tuple(blocks), targets)


def gini(values: Sequence[float]) -> float:
    """Gini coefficient of a min-max normalized value vector.

    Values are first rescaled to [0, 1]; a constant vector (including
    ``n = 1``) is perfectly equal by convention and scores 0.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("need a nonempty 1-d value vector")
    lo, hi = float(v.min()), float(v.max())
    if hi == lo:
        return 0.0
    x = np.sort((v - lo) / (hi - lo))
    n = x.size
    total = float(x.sum())
    ranks = np.arange(1, n + 1)
    return float(2.0 * (ranks @ x) / (n * total) - (n + 1) / n)


def spread(values: Sequence[float]) -> float:
    """Gap between the best- and worst-off values."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("need a nonempty 1-d value vector")
    return float(v.max() - v.min())


def dcg(instance: Instance, ranking: Ranking) -> float:
    """Discounted cumulative gain of the relevance scores under the
    standard ``1 / log2(position + 1)`` discount."""
    positions = np.fromiter(ranking.position, dtype=float, count=instance.n)
    return float((instance.relevance / np.log2(positions + 1.0)).sum())


def distribution_dcg(instance: Instance, distribution) -> tuple[float, float]:
    """Mean and standard deviation of the DCG over a distribution's
    support."""
    probs = np.array([p for _, p in distribution.support])
    gains = np.array([dcg(instance, r) for r, _ in distribution.support])
    mean = float(probs @ gains)
    var = float(probs @ (gains - mean) ** 2)
    return mean, math.sqrt(max(0.0, var))


def lorenz_dominates(a: Sequence[float], b: Sequence[float], tol: float = 0.0) -> bool:
    """Generalized Lorenz dominance: every ascending prefix sum of ``a``
    covers the matching prefix sum of ``b``, up to ``tol``."""
    xa = np.sort(np.asarray(a, dtype=float))
    xb = np.sort(np.asarray(b, dtype=float))
    if xa.shape != xb.shape:
        raise ValueError("vectors must have equal length")
    return bool(np.all(np.cumsum(xa) >= np.cumsum(xb) - tol))


@dataclass(frozen=True)
class MetricsReport:
    """Summary fairness and quality metrics for one ranking policy."""

    min_value: float
    spread: float
    gini: float
    dcg_mean: float
    dcg_std: float

    def to_dict(self) -> dict[str, float]:
        return {
            "min_value": self.min_value,
            "spread": self.spread,
            "gini": self.gini,
            "dcg_mean": self.dcg_mean,
            "dcg_std": self.dcg_std,
        }


def metrics_for_distribution(instance: Instance, distribution) -> MetricsReport:
    """Metrics of a randomized policy: satisfaction statistics are taken on
    the expected per-individual values, DCG on the support."""
    expected = distribution.expected
    dcg_mean, dcg_std = distribution_dcg(instance, distribution)
    return MetricsReport(
        min_value=float(expected.min()),
        spread=spread(expected),
        gini=gini(expected),
        dcg_mean=dcg_mean,
        dcg_std=dcg_std,
    )


def metrics_for_ranking(
    instance: Instance, value_model: ValueModel, ranking: Ranking
) -> MetricsReport:
    """Metrics of a single deterministic ranking."""
    values = value_model.values(ranking)
    return MetricsReport(
        min_value=float(values.min()),
        spread=spread(values),
        gini=gini(values),
        dcg_mean=dcg(instance, ranking),
        dcg_std=0.0,
    )
