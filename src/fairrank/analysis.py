"""Exact analysis tools and fairness metrics.

The exact tools are the independent ground truth the solver is checked
against: enumeration of every valid ranking (each permutation, kept when
:func:`fairrank.core.is_valid` accepts it), the best achievable total
value of a set, the exact ceiling on the worst expected satisfaction, and
the block decomposition showing which individuals are pinned at which
satisfaction level.  Enumeration is limited to ``n <= 10``; the
decomposition, built in :mod:`fairrank.core` beside the greedy fill it
reads, is one table over per-group count vectors, so its guard bounds the
table's ``prod(|group k| + 1)`` cells rather than ``n``.  The solver
reads the same levels to end a stall, so enumeration is the check of a
stalled solve that does not share its code.  The metric helpers at the
bottom scale to any size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (
    ConstraintSet, FairDecomposition, Instance, Ranking, ValueModel, _vertex,
    fair_decomposition, is_valid,
)
from .errors import InstanceTooLarge

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
    "MetricsReport",
    "metrics_for_distribution",
    "metrics_for_ranking",
]

ENUMERATION_GUARD = 10


def enumerate_valid_rankings(
    instance: Instance, constraints: ConstraintSet
) -> list[Ranking]:
    """All valid rankings, in lexicographic order of their index tuples:
    the permutations of ``0..n-1`` that :func:`fairrank.core.is_valid`
    accepts, so the raw bounds, floors included, are read by that one check
    and a set of another shape raises its ``ValueError``.  Guarded to
    ``n <= 10``.
    """
    n = instance.n
    if n > ENUMERATION_GUARD:
        raise InstanceTooLarge(
            f"enumeration is limited to n <= {ENUMERATION_GUARD}, got n = {n}"
        )
    rankings = map(Ranking, itertools.permutations(range(n)))
    return [r for r in rankings if is_valid(r, instance, constraints)]


def max_total_value(
    instance: Instance,
    constraints: ConstraintSet,
    value_model: ValueModel,
    members: Iterable[int],
) -> float:
    """Largest total value the given individuals can attain simultaneously
    in any valid ranking: their total in the greedy fill of the members in
    merit order, then everyone else in merit order (the order 0/1 weights
    sort to), exact in floats for integer value models.  ``ValueError``
    when ``n`` values of the model's largest magnitude overflow."""
    if value_model.n != instance.n:
        raise ValueError("value model does not match the instance size")
    if not math.isfinite(instance.n * value_model._magnitude):
        raise ValueError("values this large overflow a total of n of them")
    chosen = np.zeros(instance.n, dtype=bool)
    for i in members:
        i = int(i)
        if not 0 <= i < instance.n:
            raise ValueError(f"individual index {i} out of range")
        chosen[i] = True
    order = sorted(instance.merit_order, key=lambda u: not chosen[u])
    _, values = _vertex(instance, constraints, value_model, order)
    return float(values[chosen].sum())


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
    standard ``1 / log2(position + 1)`` discount.  ``ValueError`` for a
    ranking of another length."""
    if len(ranking.position) != instance.n:
        raise ValueError(
            f"ranking has {len(ranking.position)} positions, the instance {instance.n}"
        )
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


@dataclass(frozen=True)
class MetricsReport:
    """Summary fairness and quality metrics for one ranking policy."""

    min_value: float
    spread: float
    gini: float
    dcg_mean: float
    dcg_std: float

    def to_dict(self) -> dict[str, float]:
        return asdict(self)


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
    """Metrics of a single deterministic ranking: those of the distribution
    that serves it with probability one, whose DCG has no spread."""
    if value_model.n != instance.n:
        raise ValueError("value model does not match the instance size")
    values = value_model.values(ranking)
    return MetricsReport(
        float(values.min()), spread(values), gini(values), dcg(instance, ranking), 0.0
    )
