"""Exact analysis tools and fairness metrics.

The exact tools are the independent ground truth the solver is checked
against: enumeration of every valid ranking (each permutation, kept when
:func:`fairrank.core.is_valid` accepts it), the best achievable total
value of a set, the exact ceiling on the worst expected satisfaction, and
the block decomposition showing which individuals are pinned at which
satisfaction level.  Enumeration is limited to ``n <= 10``; the
decomposition builds one table over per-group count vectors, so its guard
bounds the table's ``prod(|group k| + 1)`` cells rather than ``n``.  The
metric helpers at the bottom scale to any size.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (
    ConstraintSet, Instance, Ranking, ValueModel, _fill, _greedy_fill, _vertex, is_valid,
)
from .errors import InstanceTooLarge
from .solver import FairDistribution

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
TABLE_CELL_BUDGET = 2**20
_FLOAT_TIE_TOL = 1e-9


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
    sort to), exact in floats for integer value models."""
    if value_model.n != instance.n:
        raise ValueError("value model does not match the instance size")
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
    each step scans count vectors instead of subsets.  A set leading the
    greedy fill's order takes positions that depend only on its counts, so
    one fill per count vector of the other groups, then the largest group,
    yields ``F`` along that group's whole axis: ``F`` is one table over the
    count lattice, each step one array scan of it past the frozen counts.
    Guarded, before any fill, to ``TABLE_CELL_BUDGET`` table cells.
    """
    n = instance.n
    if value_model.n != n:
        raise ValueError("value model does not match the instance size")
    shape = tuple(int(size) + 1 for size in instance.group_sizes)
    cells = math.prod(shape)
    if cells > TABLE_CELL_BUDGET:
        raise InstanceTooLarge(
            f"the count-lattice table is limited to {TABLE_CELL_BUDGET} cells, got {cells}"
        )
    g = np.asarray(value_model.merit_scores)
    # Each group's members by descending merit score, merit order breaking ties.
    by_group: list[list[int]] = [[] for _ in shape]
    for u in np.lexsort((instance.merit_position, -g)).tolist():
        by_group[instance.group_of[u]].append(u)
    # Row axis: the largest group, so the fewest fills.
    row = int(np.argmax(shape))
    table = np.empty(shape)
    rows = np.moveaxis(table, row, -1)
    lead = by_group[row]
    others = by_group[:row] + by_group[row + 1:]
    # One whole fill checks the caps; each table fill then walks only the
    # leading set, whose positions do not depend on who follows it.
    _greedy_fill(instance, constraints, instance.merit_order)
    # scores[p] is the score of 1-based position p.  A value is a difference
    # of scores, so taking the last position score off both score vectors
    # changes no value, and a constant shared by every score cannot swamp
    # the table's sums.
    low = value_model.position_scores[-1]
    scores = [0.0, *(f - low for f in value_model.position_scores)]
    prefixes = [[m[:k] for k in range(len(m) + 1)] for m in others]
    flat = array("d")
    for picked in itertools.product(*prefixes):
        chosen = list(itertools.chain.from_iterable(picked))
        position = _fill(instance, constraints, chosen + lead)[1]
        total = sum([scores[position[u]] for u in chosen])
        flat.append(total)
        for u in lead:
            total += scores[position[u]]
            flat.append(total)
    rows[...] = np.frombuffer(flat).reshape(rows.shape)
    integer = value_model.integer_valued
    frozen = (0,) * len(shape)
    blocks: list[tuple[tuple[int, ...], float]] = []
    targets = np.empty(n, dtype=float)
    while sum(frozen) < n:
        rest = [m[c:] for m, c in zip(by_group, frozen)]
        corner = tuple(len(m) + 1 for m in rest)
        merit = [np.concatenate(([0.0], np.cumsum(g[m] - low))) for m in rest]
        gain = table[tuple(slice(c, None) for c in frozen)] - table[frozen]
        # Flat index 0, the empty set at the frozen corner, is left out.
        gain = (gain - sum(np.ix_(*merit))).ravel()[1:]
        size = sum(np.ix_(*map(np.arange, corner))).ravel()[1:]
        ratio = gain / size
        best = int(ratio.argmin())
        if integer:
            # Division rounds monotonically, so while |gain| * n < 2**52 the
            # argmin is an exact minimizer; cross-multiplying finds every tie.
            ties = gain * size[best] == gain[best] * size
        else:
            ties = ratio <= ratio[best] + _FLOAT_TIE_TOL * max(1.0, abs(ratio[best]))
        # The minimizing sets are closed under union and under swapping
        # members of one group tied in merit score, so the largest is a
        # scanned prefix that already holds every such tie, and the union
        # of the minimizing prefixes takes the largest count per group.
        tied = np.unravel_index(np.flatnonzero(ties) + 1, corner)
        taken = [int(axis.max()) for axis in tied]
        block = tuple(sorted(u for m, d in zip(rest, taken) for u in m[:d]))
        level = float(ratio[best])
        blocks.append((block, level))
        targets[list(block)] = level
        frozen = tuple(c + d for c, d in zip(frozen, taken))
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
    that serves it with probability one."""
    values = value_model.values(ranking)
    return metrics_for_distribution(
        instance, FairDistribution(instance, [ranking], [1.0], values[None, :])
    )
