"""Maxmin-fair randomized ranking solver.

The solver outputs a distribution over valid rankings whose sorted vector of
per-individual expected values is lexicographically maximal: the worst
expected value is as high as possible, then, holding everyone already tight
at their level, the next worst, and so on.

Every valid ranking hands out the same total value, and the greedy answer
for a weight order is optimal for every top segment of that order.  So each
oracle answer is the greedy (Edmonds) vertex of the submodular set function
"best total value a set can get", and the expected-value vectors of all
mixtures of valid rankings form that function's base polytope.  By
Fujishige's theorem the lexicographically maxmin point of a base polytope
is its minimum-norm point, and Wolfe's algorithm finds that point with a
linear minimizer and affine steps over a small active set.  Minimizing
``x . q`` over the polytope is the greedy oracle with weights
``max(x) - x``: the shift by ``max(x)`` adds the same amount to every
vertex's objective and keeps the weights nonnegative.

The first oracle call, with zero weights, is also the feasibility check:
its fill leaves a position empty exactly when no ranking meets the bounds,
and its :class:`InfeasibleConstraints` passes through the solve unchanged.

Each major cycle asks the oracle for the vertex ``q`` minimizing ``x . q``.
The minimum-norm point ``x*`` satisfies ``x* . (x - x*) >= 0``, hence
``|x - x*|^2 <= x . x - x . q``, and the square root of that gap bounds the
error of every entry of the sorted vector.  Before the first gap, the
width ``f_1 - f_n`` of everyone's range ``[f_n - g_u, f_1 - g_u]``
(position scores ``f``, merit scores ``g``) bounds it instead, so a solve
whose ``epsilon`` is at least the width ends at its first vertex.  Every
vertex has the same sum as ``x``, so at a flat ``x`` the gap is 0 for
every ``q``, and the solve ends without the call.  The solve stops as soon
as a bound is at most ``epsilon``.  Every numerical stall short of that
leaves the loop with its reason, and one check after the loop handles
them all (only the oracle-call cap raises at once): it builds the count
table of the exact levels, within its budget, and ends the solve if the
stalled point lies within ``epsilon`` of them.  A solve that does not
stall never builds it.
After each oracle call, minor cycles inside the same loop move ``x`` to
the affine minimizer of the active vertices, dropping vertices whose
weight reaches zero; one mask cuts a drop's rows, rankings and weights.
The active set stays affinely independent, so the support never exceeds
``n``.

The affine steps read the inverse of ``P P^T + 1 1^T`` for the active rows
``P``, kept up to date as Wolfe kept his factor: bordered in O(k^2) when a
vertex joins and downdated in O(k^2) when one leaves, so a minor cycle
neither rebuilds the Gram matrix nor solves a linear system.  A vertex that
is affinely dependent on the active set to float resolution stops the
solve.  The active set is a map from ranking order to ranking, in the row
order of ``P``.  Its arrays start when the second vertex joins: ``P`` then
lives in one ``(n + 1) x n`` buffer per solve, so a join copies one row,
not ``P``, and a solve that ends at its first vertex builds no matrix.
Products use ``ndarray.dot``: the same BLAS call as ``@``, with less
dispatch per call.  The returned distribution takes the final active set
as it stands, in the order its vertices joined, with the weights of the
last affine step, which already sum to one.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ConstraintSet, Instance, Ranking, ValueModel, _exact_error, _vertex
from .errors import IterationCapExceeded

logger = logging.getLogger(__name__)

# Affine weights at or below this count as zero: such a vertex moves x by
# less than float dust, and keeping it would make the active set nearly
# affinely dependent.
_WEIGHT_DUST = 1e-12

# Support probabilities must sum to one within this.  Stored distributions
# round each probability to 12 significant digits, a relative error of at
# most 5e-12, so the rounded probabilities sum to within 5e-12 of the true
# sum (plus float summation error) whatever the support size.
_MASS_TOLERANCE = 1e-9

# Oracle calls one solve may make before it stalls with
# IterationCapExceeded; read at each call.
_ORACLE_CALL_CAP = 50_000_000

__all__ = [
    "SolverConfig",
    "FairDistribution",
    "solve_maxmin",
    "sample",
]


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings: only ``epsilon``, positive and finite, the certified
    additive accuracy of every entry of the sorted expected-value vector, in
    the same units as the value model.
    """

    epsilon: float = 0.01

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")


@dataclass(frozen=True, eq=False)
class RankedAtom:
    """One support point: a ranking, its probability, and its raw
    per-individual values."""

    ranking: Ranking
    probability: float
    values: np.ndarray


class FairDistribution:
    """A distribution over valid rankings with its expected satisfactions.

    Built from parallel atoms: ``rankings``, each of the instance's length,
    their ``probabilities`` and ``rows``, a 2-D array whose row ``k`` holds
    the per-individual values of ``rankings[k]``.  The probabilities must
    each be at least zero and sum to one within 1e-9; they are kept as
    given, not renormalized, and ``expected`` is their dot product with
    the rows.  Rankings are neither merged nor checked for repeats: the
    solver's active rankings are distinct, and
    :func:`fairrank.cli.distribution_from_dict` merges those of a stored
    file.  Atoms are sorted by decreasing probability, ties kept in input
    order (for the solver, the order in which vertices joined), so the
    order needs no roster and :func:`sample` draws the same atom for the
    same input and seed; rebuilding a distribution from its own atoms gives
    the same bits.  ``lambda_phases`` records the distinct satisfaction
    levels in raw value units; ``oracle_calls`` counts every greedy-oracle
    consultation made while producing the distribution.
    """

    __slots__ = (
        "instance",
        "atoms",
        "expected",
        "lambda_phases",
        "oracle_calls",
        "epsilon",
    )

    def __init__(
        self,
        instance: Instance,
        rankings: Sequence[Ranking],
        probabilities: Sequence[float],
        rows: np.ndarray,
        lambda_phases: Sequence[float] = (),
        oracle_calls: int = 0,
        epsilon: float | None = None,
    ):
        _check_mass(probabilities)
        if rows.shape != (len(rankings), instance.n):
            raise ValueError(
                f"support values have shape {rows.shape}, expected "
                f"{(len(rankings), instance.n)}"
            )
        if any(len(r.position) != instance.n for r in rankings):
            raise ValueError(f"support rankings must each have {instance.n} positions")
        # Stable: equal probabilities keep their input order.
        ranked = sorted(
            range(len(rankings)), key=probabilities.__getitem__, reverse=True
        )
        probabilities = [probabilities[i] for i in ranked]
        rankings = [rankings[i] for i in ranked]
        rows = rows.take(ranked, axis=0)
        rows.setflags(write=False)
        self.instance = instance
        self.atoms = tuple(map(RankedAtom, rankings, probabilities, rows))
        expected = np.array(probabilities).dot(rows)
        expected.setflags(write=False)
        self.expected = expected
        self.lambda_phases = tuple(map(float, lambda_phases))
        self.oracle_calls = int(oracle_calls)
        self.epsilon = epsilon

    @property
    def support(self) -> list[tuple[Ranking, float]]:
        return [(a.ranking, a.probability) for a in self.atoms]

    @property
    def support_size(self) -> int:
        return len(self.atoms)

    def expected_by_id(self) -> dict[str, float]:
        return {
            self.instance.ids[i]: float(self.expected[i])
            for i in range(self.instance.n)
        }

    def __repr__(self) -> str:
        return (
            f"FairDistribution(support={self.support_size}, "
            f"min={float(self.expected.min()):.6g})"
        )


def _check_mass(probabilities: Sequence[float]) -> None:
    """Refuse support probabilities unless each is at least zero and they
    sum to one within ``_MASS_TOLERANCE`` (so each is also finite); the
    first negative one is named by its index."""
    for k, prob in enumerate(probabilities):
        if not prob >= 0:
            raise ValueError(f"support atom {k} has probability {prob}, expected >= 0")
    total = sum(probabilities)
    if not math.isclose(total, 1.0, rel_tol=0, abs_tol=_MASS_TOLERANCE):
        raise ValueError(f"support probabilities sum to {total}, expected 1")


def _bordered(inverse: np.ndarray, points: np.ndarray, q: np.ndarray):
    """``(P P^T + 1 1^T)^-1`` for the rows ``P = points`` with ``q``
    appended, bordered from ``inverse``, the same matrix without ``q``.

    Adding ``1 1^T`` keeps the matrix positive definite exactly while the
    rows stay affinely independent, so the Schur complement ``s`` of the
    new row measures how far ``q`` sits from the affine hull of ``P``.
    Returns ``None`` when ``s`` is not above float resolution of
    ``q . q + 1``: ``q`` is then affinely dependent on the active rows.
    """
    b = points.dot(q)
    b += 1.0
    t = inverse.dot(b)
    diag = float(q.dot(q)) + 1.0
    s = diag - float(b.dot(t))
    if not s > 1e-13 * diag:
        return None
    k = len(t)
    grown = np.empty((k + 1, k + 1))
    ts = t / s
    np.multiply.outer(t, ts, out=grown[:k, :k])
    grown[:k, :k] += inverse
    grown[k, :k] = grown[:k, k] = -ts
    grown[k, k] = 1.0 / s
    return grown


def _without(inverse: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``(P P^T + 1 1^T)^-1`` for the rows of ``P`` that ``keep`` marks,
    downdated from ``inverse``, the same matrix for all of ``P``.

    Removing row ``j`` maps the inverse to ``H - h_j h_j^T / H_jj`` on the
    other rows and columns; that update also zeroes row and column ``j``,
    so the dropped rows are downdated one after another on the full-size
    matrix and cut out at the end.
    """
    for j in np.flatnonzero(~keep):
        h = inverse[j]
        inverse = inverse - h[:, None] * (h / h[j])
    return inverse[keep][:, keep]


def _affine_weights(inverse: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Affine weights (summing to one) of the minimum-norm point in the
    affine hull of the rows of ``points``, given ``inverse`` for them.

    The minimizer's weights ``alpha`` satisfy ``P P^T alpha = -mu 1`` and
    ``1^T alpha = 1``, so ``(P P^T + 1 1^T) alpha`` is a multiple of ``1``
    and ``alpha`` is ``inverse @ 1`` scaled to sum to one.  The maintained
    inverse carries the rounding of the Gram matrix, which squares the
    active set's condition number, so one refinement step follows whose
    residual is taken from ``P`` itself (corrected semi-normal equations);
    that brings the weights back to least-squares accuracy.
    """
    u = np.add.reduce(inverse, axis=1)
    r = points.dot(u.dot(points))
    np.subtract(1.0, r, out=r)
    r -= np.add.reduce(u)
    u += inverse.dot(r)
    u /= np.add.reduce(u)
    return u


def _levels(x: np.ndarray, bound: float) -> list[float]:
    """Distinct satisfaction levels of ``x``: sorted entries no further
    apart than two error bounds may share a level of the optimum, so runs
    of such neighbours merge and report their mean."""
    xs = sorted(x.tolist())
    merge = 2.0 * bound + 1e-9 * max(1.0, -xs[0], xs[-1])
    levels = []
    total = 0.0
    count = 0
    prev = xs[0]
    for v in xs:
        if v - prev > merge:
            levels.append(total / count)
            total = 0.0
            count = 0
        total += v
        count += 1
        prev = v
    levels.append(total / count)
    return levels


def solve_maxmin(
    instance: Instance,
    constraints: ConstraintSet,
    value_model: ValueModel,
    config: SolverConfig | None = None,
) -> FairDistribution:
    """Compute an epsilon-accurate maxmin-fair distribution over valid
    rankings.

    A value model whose values are too large for their sums of squares,
    with ``2 n m^2`` not finite for the largest value magnitude ``m``,
    raises ``ValueError`` before the first oracle call.  Infeasible
    constraints raise the first oracle fill's
    :class:`InfeasibleConstraints`, which names the first position no group
    may take; lower bounds over one or two groups are accepted as given,
    and over three or more groups raise ``ValueError``.  The
    result's sorted expected-satisfaction vector matches the lexicographic
    optimum to within ``config.epsilon`` per entry, and the run is
    deterministic for fixed inputs and configuration.  The support is
    Wolfe's final active set as it stands: at most ``n`` rankings, each
    with probability above ``1e-12``; no atom is dropped or reweighted
    after the certificate.

    A solve stalls when the oracle returns a vertex already in the active
    set, an affine step meets a singular active set, or a major cycle
    fails to shorten ``x``.  Each such stall leaves the loop, and one check
    after it handles every stall but the cap: the stalled point (``x``, or
    at the last site the shorter point the active set already averages
    to) is checked against the exact levels of
    :func:`fairrank.core.fair_decomposition`, when its table fits
    ``TABLE_CELL_BUDGET``; within ``epsilon`` of them, the solve ends
    there.  Otherwise, and always when the cap of 50,000,000 oracle calls
    (``_ORACLE_CALL_CAP``) is reached, it raises
    :class:`IterationCapExceeded` with the reason and the last certified
    bound (the width before the first gap).  When ``epsilon`` is below
    about ``m sqrt(n) 2**-26``, the float resolution of the gap, the
    message says so; such an epsilon is not refused up front, since a gap
    of exactly 0 still ends the solve.

    Each solve logs one INFO line with the keys ``oracle_calls``,
    ``iterations`` (affine solves, minor cycles included), ``support``,
    ``max_active`` (the largest active set of the solve), ``bound`` (the
    certified per-entry error) and ``stop``: ``gap`` when the last gap
    ended the solve (a flat ``x`` ends with ``bound=0 stop=gap``), ``box``
    when the range width was at most epsilon, at the first vertex, and
    ``exact`` when the exact levels certified a stall.
    """
    config = config or SolverConfig()
    if value_model.n != instance.n:
        raise ValueError("value model does not match the instance size")
    eps = config.epsilon
    n = instance.n
    # No |value| exceeds m, so no sum of n products of a value and a
    # difference of two values exceeds 2 n m^2.
    m = value_model._magnitude
    if not math.isfinite(2 * n * m * m):
        raise ValueError("values this large overflow the solver's sums of squares")
    merit = instance.merit_position
    scores = value_model.position_scores
    # Everyone's value, in x and in x* alike, lies in a range this wide, so
    # the width bounds every entry's error until the first gap.
    width = scores[0] - scores[-1]
    bound, stop = width, "box"
    reason = None

    def stalled(reason: str) -> IterationCapExceeded:
        message = (
            f"solver stalled: {reason} after {calls} oracle calls, "
            f"certified bound {bound:.6g} > epsilon {eps:g}"
        )
        # x . x - x . q sums n terms of size up to m^2, each rounded to
        # 2**-52 of itself, so a gap below this is float noise.
        resolution = m * math.sqrt(n) * 2**-26
        if eps < resolution:
            message += (
                f"; epsilon is below about {resolution:.3g}, the float "
                "resolution of the gap at these values"
            )
        return IterationCapExceeded(message)

    # Zero weights sort into the merit order.
    ranking, q = _vertex(instance, constraints, value_model, instance.merit_order)
    calls, solves = 1, 0
    active = {ranking.order: ranking}
    buffer = None
    max_active = 1
    x = q
    while bound > eps:
        # Weights max(x) - x, finite: x lies in the value model's range,
        # whose width is finite.
        shifted = x - np.maximum.reduce(x)
        if np.minimum.reduce(shifted) == 0:
            # Every vertex has the sum of a flat x, so x . (x - q) = 0.
            bound, stop = 0.0, "gap"
            break
        if calls >= _ORACLE_CALL_CAP:
            raise stalled(f"reached the cap of {_ORACLE_CALL_CAP} oracle calls")
        calls += 1
        # Descending weight, ties in merit order.
        order = np.lexsort((merit, shifted)).tolist()
        ranking, q = _vertex(instance, constraints, value_model, order)
        gap = math.sqrt(max(0.0, float(x.dot(x - q))))
        bound, stop = min(width, gap), "gap"
        if bound <= eps:
            break
        if ranking.order in active:
            reason = "the oracle returned an active vertex"
            break
        k = len(active)
        if buffer is None:
            # The active set so far is the first vertex, still x.  At most
            # n affinely independent rows, and one joining them.
            buffer = np.empty((n + 1, n))
            buffer[0] = x
            points = buffer[:1]
            weights = np.ones(1)
            norm = float(x.dot(x))
            inverse = np.array([[1.0 / (norm + 1.0)]])
        inverse = _bordered(inverse, points, q)
        if inverse is None:
            reason = "singular active set in an affine step"
            break
        points = buffer[: k + 1]
        points[k] = q
        active[ranking.order] = ranking
        max_active = max(max_active, k + 1)
        alpha = _affine_weights(inverse, points)
        solves += 1
        # Minor cycles: step from the convex weights toward the affine
        # minimizer until the first weight reaches zero, drop that vertex
        # and solve again, until the minimizer lies inside the hull.
        while not alpha.min() > _WEIGHT_DUST:
            if len(weights) < len(alpha):
                # The joining vertex enters the convex weights at zero.
                weights = np.append(weights, 0.0)
            falling = np.flatnonzero(alpha <= _WEIGHT_DUST)
            drop = weights[falling] - alpha[falling]
            ratios = np.divide(
                weights[falling], drop, out=np.zeros(len(falling)), where=drop > 0
            )
            first = int(ratios.argmin())
            theta = min(1.0, float(ratios[first]))
            weights = (1.0 - theta) * weights + theta * alpha
            keep = weights > _WEIGHT_DUST
            keep[falling[first]] = False
            inverse = _without(inverse, keep)
            # Deleting keeps the other keys' hashes: a rebuilt map would
            # rehash every active order, an n-tuple.
            for order in [*itertools.compress(active, (~keep).tolist())]:
                del active[order]
            points = np.compress(keep, points, axis=0, out=buffer[: len(active)])
            weights = weights[keep]
            weights /= weights.sum()
            alpha = _affine_weights(inverse, points)
            solves += 1
        weights = alpha
        shorter_x = weights.dot(points)
        shorter = float(shorter_x.dot(shorter_x))
        if not shorter < norm:
            # The active set already averages to the shorter point.
            x = shorter_x
            reason = "a major cycle did not shorten x"
            break
        x, norm = shorter_x, shorter

    if reason is not None:
        error = _exact_error(instance, constraints, value_model, x)
        if error is None or error > eps:
            raise stalled(reason)
        bound, stop = error, "exact"
    if buffer is None:
        probabilities, points = [1.0], x[None, :]
    else:
        probabilities = weights.tolist()
    distribution = FairDistribution(
        instance, list(active.values()), probabilities, points, _levels(x, bound),
        calls, eps,
    )
    logger.info(
        "solve_maxmin n=%d oracle_calls=%d iterations=%d support=%d "
        "max_active=%d bound=%.6g stop=%s",
        instance.n, calls, solves, distribution.support_size, max_active,
        bound, stop,
    )
    return distribution


def sample(distribution: FairDistribution, rng_seed) -> Ranking:
    """Draw one ranking from the distribution.

    ``rng_seed`` may be an integer seed or a ``numpy.random.Generator``;
    equal seeds give equal draws.  The draw picks an atom in the stored
    order (decreasing probability, ties in input order).
    """
    rng = np.random.default_rng(rng_seed)
    probs = np.array([a.probability for a in distribution.atoms])
    index = rng.choice(len(probs), p=probs / probs.sum())
    return distribution.atoms[int(index)].ranking
