"""Exact analysis tools and fairness metrics.

The exponential-time routines here are desk-scale oracles: full enumeration
of valid rankings, the best achievable total value of a subset, the exact
ceiling on the worst expected satisfaction, and the block decomposition
showing which individuals are pinned at which satisfaction level.  They are
meant for small instances (guards enforce this) and for validating the
polynomial-time solver; the metric helpers at the bottom scale to any size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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
SUBSET_SCAN_GUARD = 12
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


def _indicator_best_total(
    instance: Instance,
    constraints: ConstraintSet,
    value_model: ValueModel,
    mask: int,
    cache: dict[int, float] | None = None,
) -> float:
    """Best achievable total value of the individuals in ``mask``.

    Running the greedy oracle with 0/1 weights places the masked
    individuals as favourably as the caps allow (ties resolved by the
    global merit tie-break), so the masked total of the returned ranking is
    the exact optimum.  Integer value models keep this exact in floats.
    """
    if cache is not None and mask in cache:
        return cache[mask]
    n = instance.n
    weights = np.fromiter(
        ((mask >> i) & 1 for i in range(n)), dtype=float, count=n
    )
    res = best_response(instance, constraints, value_model, weights)
    total = float(res.values[weights > 0].sum()) if mask else 0.0
    if cache is not None:
        cache[mask] = total
    return total


def max_total_value(
    instance: Instance,
    constraints: ConstraintSet,
    value_model: ValueModel,
    members: Iterable[int],
) -> float:
    """Largest total value the given individuals can attain simultaneously
    in any valid ranking."""
    mask = 0
    for i in members:
        i = int(i)
        if not 0 <= i < instance.n:
            raise ValueError(f"individual index {i} out of range")
        mask |= 1 << i
    return _indicator_best_total(instance, constraints, value_model, mask)


def _ratio(total: float, size: int, integer: bool) -> Fraction | float:
    if integer:
        return Fraction(int(round(total)), size)
    return total / size


def _scan_min_ratio(
    instance: Instance,
    constraints: ConstraintSet,
    value_model: ValueModel,
    base_mask: int,
    base_total: float,
    rest_mask: int,
    cache: dict[int, float],
) -> tuple[Fraction | float, int]:
    """Minimize the marginal per-member gain over nonempty subsets of
    ``rest_mask``, returning the minimum and the union of its minimizers."""
    integer = value_model.integer_valued
    best: Fraction | float | None = None
    union = 0
    sub = rest_mask
    while sub:
        size = sub.bit_count()
        gain = _indicator_best_total(
            instance, constraints, value_model, base_mask | sub, cache
        )
        ratio = _ratio(gain - base_total, size, integer)
        if best is None:
            best, union = ratio, sub
        elif integer:
            if ratio < best:
                best, union = ratio, sub
            elif ratio == best:
                union |= sub
        else:
            tol = _FLOAT_TIE_TOL * max(1.0, abs(float(best)))
            if ratio < float(best) - tol:
                best, union = ratio, sub
            elif ratio <= float(best) + tol:
                union |= sub
        sub = (sub - 1) & rest_mask
    assert best is not None
    return best, union


def min_satisfaction_bound(
    instance: Instance, constraints: ConstraintSet, value_model: ValueModel
) -> float:
    """Exact ceiling on the worst expected satisfaction any distribution
    over valid rankings can guarantee.

    Whatever the distribution, the members of a set X share at most the
    best achievable total of X, so someone in X sits at or below that
    total divided by |X|; the binding set gives the tight bound.  Guarded
    to ``n <= 12``.
    """
    n = instance.n
    if n > SUBSET_SCAN_GUARD:
        raise InstanceTooLarge(
            f"the subset scan is limited to n <= {SUBSET_SCAN_GUARD}, got n = {n}"
        )
    cache: dict[int, float] = {}
    best, _ = _scan_min_ratio(
        instance, constraints, value_model, 0, 0.0, (1 << n) - 1, cache
    )
    return float(best)


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

    Starting from the empty set, each step finds all subsets of the
    remaining individuals minimizing ``(gain in best achievable total) /
    |subset|`` and freezes their union as the next block; the minimum is
    that block's satisfaction level.  Levels are strictly increasing and
    the per-block totals are conserved.  Guarded to ``n <= 12``.
    """
    n = instance.n
    if n > SUBSET_SCAN_GUARD:
        raise InstanceTooLarge(
            f"the subset scan is limited to n <= {SUBSET_SCAN_GUARD}, got n = {n}"
        )
    cache: dict[int, float] = {}
    full = (1 << n) - 1
    s_mask = 0
    s_total = 0.0
    blocks: list[tuple[tuple[int, ...], float]] = []
    targets = np.empty(n, dtype=float)
    while s_mask != full:
        best, union = _scan_min_ratio(
            instance, constraints, value_model, s_mask, s_total, full ^ s_mask, cache
        )
        members = tuple(i for i in range(n) if (union >> i) & 1)
        level = float(best)
        blocks.append((members, level))
        targets[list(members)] = level
        s_mask |= union
        s_total = _indicator_best_total(instance, constraints, value_model, s_mask, cache)
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
    if total <= 0.0:
        return 0.0
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
