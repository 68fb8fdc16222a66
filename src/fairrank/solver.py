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
error of every entry of the sorted vector.  Two cheaper bounds come before
each oracle call.  Both ``x`` and ``x*`` give each individual a value
between their worst and best attainable value, so the distance from ``x_u``
to the farther end of that interval bounds the error.  That distance is at
least half the interval, so this box bound is checked only when half the
narrowest interval is within ``epsilon``; otherwise it could never end the
solve.  And every vertex has the same sum as ``x``, so at a flat ``x`` the
gap is 0 for every ``q``, and the solve ends without the call.  The solve
stops as soon as a bound is at most ``epsilon``.  Between oracle calls,
minor cycles move ``x`` to the affine minimizer of the active vertices,
dropping vertices whose weight reaches zero; the active set stays affinely
independent, so the support never exceeds ``n``.

The affine steps read the inverse of ``P P^T + 1 1^T`` for the active rows
``P``, kept up to date as Wolfe kept his factor: bordered in O(k^2) when a
vertex joins and downdated in O(k^2) when one leaves, so a minor cycle
neither rebuilds the Gram matrix nor solves a linear system.  A vertex that
is affinely dependent on the active set to float resolution stops the
solve.  The active set's state starts when the second vertex joins: ``P``
then lives in one ``(n + 1) x n`` buffer per solve and the inverse in two
alternating ones, so a major cycle allocates no matrix unless a vertex
leaves, and a solve that ends at its first vertex builds none of them.
Products use ``ndarray.dot``: the same BLAS call as ``@``, with less
dispatch per call.  The returned distribution takes the final active set
as it stands: its rankings are distinct, so no merge is needed, and its
rows are gathered from the buffer in one ``take``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import ConstraintSet, Instance, Ranking, ValueModel
from .errors import IterationCapExceeded
from .oracle import _vertex

logger = logging.getLogger(__name__)

# Affine weights at or below this count as zero: such a vertex moves x by
# less than float dust, and keeping it would make the active set nearly
# affinely dependent.
_WEIGHT_DUST = 1e-12

# Support probabilities must sum to one within this.  Stored distributions
# round each probability to 12 significant digits, at most 5e-13 off, so a
# stored support of up to 2,000 atoms still loads.
_MASS_TOLERANCE = 1e-9

# Oracle calls one solve may make before it stalls with
# IterationCapExceeded; read at each call.
_ORACLE_CALL_CAP = 50_000_000

__all__ = [
    "SolverConfig",
    "RankedAtom",
    "FairDistribution",
    "solve_maxmin",
    "sample",
]


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings: only ``epsilon``, the certified additive accuracy
    of every entry of the sorted expected-value vector, in the same units
    as the value model.
    """

    epsilon: float = 0.01

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True, eq=False)
class RankedAtom:
    """One support point: a ranking, its probability, and its raw
    per-individual values."""

    ranking: Ranking
    probability: float
    values: np.ndarray


class FairDistribution:
    """A distribution over valid rankings with its expected satisfactions.

    Duplicate rankings are merged, atoms of probability zero skipped and
    probabilities renormalized at construction, so ``expected`` always
    matches the support exactly; a negative probability is refused.  Atoms
    are sorted by decreasing probability, ties by ranking order.
    ``lambda_phases`` records the distinct satisfaction levels in raw value
    units; ``oracle_calls`` counts every greedy-oracle consultation made
    while producing the distribution.

    The solver builds its result through :meth:`_from_active`, which skips
    the merge (its active rankings are distinct and carry positive weight)
    and gathers the rows from its own buffer in one ``take``.  Both entries
    sum the probabilities in input order, sort the same way and share the
    tail :meth:`_assemble`, so the constructor given the solver's rankings,
    weights and rows returns the same bits.
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
        weighted: Iterable[tuple[Ranking, float, np.ndarray]],
        lambda_phases: Sequence[float] = (),
        oracle_calls: int = 0,
        epsilon: float | None = None,
    ):
        weighted = list(weighted)
        _check_mass([prob for _, prob, _ in weighted])
        merged: dict[tuple[int, ...], list] = {}
        for ranking, prob, values in weighted:
            if prob == 0:
                continue
            entry = merged.get(ranking.order)
            if entry is None:
                merged[ranking.order] = [ranking, float(prob), values]
            else:
                entry[1] += float(prob)
        total = sum(entry[1] for entry in merged.values())
        entries = sorted(merged.values(), key=lambda e: (-e[1], e[0].order))
        rows = np.array([e[2] for e in entries], dtype=float)
        if rows.shape != (len(entries), instance.n):
            raise ValueError(
                f"support values have shape {rows.shape}, expected "
                f"{(len(entries), instance.n)}"
            )
        self._assemble(
            instance, [e[0] for e in entries], [e[1] / total for e in entries],
            rows, lambda_phases, oracle_calls, epsilon,
        )

    @classmethod
    def _from_active(
        cls,
        instance: Instance,
        rankings: list[Ranking],
        probabilities: list[float],
        rows: np.ndarray,
        lambda_phases: Sequence[float],
        oracle_calls: int,
        epsilon: float,
    ) -> "FairDistribution":
        """The solver's entry: distinct ``rankings`` with positive
        ``probabilities`` and their values as the rows of ``rows``, with the
        mass checked, the atoms ordered and the total taken in input order
        as the public constructor does."""
        self = cls.__new__(cls)
        total = _check_mass(probabilities)
        ranked = sorted(
            range(len(rankings)), key=lambda i: (-probabilities[i], rankings[i].order)
        )
        self._assemble(
            instance, [rankings[i] for i in ranked],
            [probabilities[i] / total for i in ranked], rows.take(ranked, axis=0),
            lambda_phases, oracle_calls, epsilon,
        )
        return self

    def _assemble(
        self,
        instance: Instance,
        rankings: list[Ranking],
        probabilities: list[float],
        rows: np.ndarray,
        lambda_phases: Sequence[float],
        oracle_calls: int,
        epsilon: float | None,
    ) -> None:
        """Store sorted, normalized atoms whose values are the rows of
        ``rows``, an array the distribution owns, and their expectation."""
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


def _check_mass(probabilities: Sequence[float]) -> float:
    """Refuse support probabilities unless each is at least zero and they
    sum to one within ``_MASS_TOLERANCE`` (so each is also finite); returns
    their sum, taken in the given order."""
    for k, prob in enumerate(probabilities):
        if not prob >= 0:
            raise ValueError(f"support atom {k} has probability {prob}, expected >= 0")
    total = sum(probabilities)
    if not math.isclose(total, 1.0, rel_tol=0, abs_tol=_MASS_TOLERANCE):
        raise ValueError(f"support probabilities sum to {total}, expected 1")
    return total


def _bordered(inverse: np.ndarray, points: np.ndarray, q: np.ndarray, out: np.ndarray):
    """``(P P^T + 1 1^T)^-1`` for the rows ``P = points`` with ``q``
    appended, bordered from ``inverse``, the same matrix without ``q``, and
    written to the front of the flat buffer ``out``, which must not hold
    ``inverse``.

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
    grown = out[: (k + 1) * (k + 1)].reshape(k + 1, k + 1)
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


def _minor_cycles(
    points: np.ndarray,
    weights: np.ndarray,
    alpha: np.ndarray,
    active: list[Ranking],
    members: set[tuple[int, ...]],
    inverse: np.ndarray,
):
    """Move the convex weights toward the active set's affine minimizer
    ``alpha``, which has a weight at or below dust.

    Step from the current weights toward it until the first weight reaches
    zero, drop that vertex, and solve again; when the minimizer lies inside
    the active set's convex hull, its weights are the answer.  ``inverse``
    is ``(P P^T + 1 1^T)^-1`` for ``P = points`` and is downdated as
    vertices leave; the surviving rows move to the front of ``points``,
    and the orders of dropped rankings leave ``members``.  Returns the
    surviving points, weights, rankings and inverse, and the number of
    affine solves made.
    """
    solves = 0
    while True:
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
        kept = points[keep]
        points = points[: len(kept)]
        points[...] = kept
        members.difference_update(r.order for r, k in zip(active, keep) if not k)
        active = [r for r, k in zip(active, keep) if k]
        weights = weights[keep] / weights[keep].sum()
        alpha = _affine_weights(inverse, points)
        solves += 1
        if alpha.min() > _WEIGHT_DUST:
            return points, alpha, active, inverse, solves


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

    Infeasible constraints raise the first oracle fill's
    :class:`InfeasibleConstraints`, which names the first position no group
    may take; lower bounds over one or two groups are accepted as given,
    and over three or more groups raise ``ValueError``.  The
    result's sorted expected-satisfaction vector matches the lexicographic
    optimum to within ``config.epsilon`` per entry, and the run is
    deterministic for fixed inputs and configuration.  The support is
    Wolfe's final active set as it stands: at most ``n`` rankings, each
    with probability above ``1e-12``; no atom is dropped or reweighted
    after the certificate.

    A solve that stalls raises :class:`IterationCapExceeded` with the
    reason and the last certified bound: the cap of 50,000,000 oracle calls
    (``_ORACLE_CALL_CAP``) is reached, the oracle returns a vertex already
    in the active set, an affine step meets a singular active set, or a
    major cycle fails to shorten ``x``.

    Each solve logs one INFO line with the keys ``oracle_calls``,
    ``iterations`` (affine solves of the minor cycles), ``support``,
    ``max_active`` (the largest active set of the solve), ``bound`` (the
    certified per-entry error) and ``stop`` (``gap`` or ``box``, the bound
    that ended the solve; a flat ``x`` ends with ``bound=0 stop=gap``).
    """
    config = config or SolverConfig()
    if value_model.n != instance.n:
        raise ValueError("value model does not match the instance size")
    eps = config.epsilon
    n = instance.n
    merit = instance.merit_position
    f, g = value_model._f, value_model._g
    lowest, highest = f[-1] - g, f[0] - g
    # The box bound is at least half of each individual's range, so it can
    # end the solve only when half the narrowest range is within epsilon;
    # the margin covers the rounding of the range and of the bound.
    box_can_stop = 0.5 * float((highest - lowest).min()) <= eps * (1.0 + 1e-9)
    calls = 0
    solves = 0
    # The last oracle call's gap and the x it was measured at.
    gap, gap_at = math.inf, None

    def box(x: np.ndarray) -> float:
        return float(np.maximum(x - lowest, highest - x).max())

    def stalled(reason: str) -> IterationCapExceeded:
        bound = gap if gap_at is None else min(box(gap_at), gap)
        return IterationCapExceeded(
            f"solver stalled: {reason} after {calls} oracle calls, "
            f"certified bound {bound:.6g} > epsilon {eps:g}"
        )

    def vertex(order: Sequence[int]) -> tuple[Ranking, np.ndarray]:
        nonlocal calls
        if calls >= _ORACLE_CALL_CAP:
            raise stalled(f"reached the cap of {_ORACLE_CALL_CAP} oracle calls")
        calls += 1
        return _vertex(instance, constraints, value_model, order)

    # Zero weights sort into the merit order.
    ranking, q = vertex(instance.merit_order)
    active = [ranking]
    members = {ranking.order}
    buffer = None
    max_active = 1
    x = q
    while True:
        if box_can_stop:
            bound = box(x)
            if bound <= eps:
                stop = "box"
                break
        # Weights max(x) - x: a NaN or infinite entry of x leaves a NaN or
        # -inf in ``shifted``, and both propagate to its minimum.
        shifted = x - np.maximum.reduce(x)
        heaviest = np.minimum.reduce(shifted)
        if not heaviest > -math.inf:
            raise ValueError("weights must be finite and nonnegative")
        if heaviest == 0:
            # Every vertex has the sum of a flat x, so x . (x - q) = 0.
            bound, stop = 0.0, "gap"
            break
        # Descending weight, ties in merit order.
        ranking, q = vertex(np.lexsort((merit, shifted)).tolist())
        gap, gap_at = math.sqrt(max(0.0, float(x.dot(x - q)))), x
        if gap <= eps:
            bound, stop = gap, "gap"
            break
        if ranking.order in members:
            raise stalled("the oracle returned an active vertex")
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
            spare, held = np.empty((n + 1) ** 2), np.empty((n + 1) ** 2)
        inverse = _bordered(inverse, points, q, spare)
        if inverse is None:
            raise stalled("singular active set in an affine step")
        spare, held = held, spare
        points = buffer[: k + 1]
        points[k] = q
        active.append(ranking)
        members.add(ranking.order)
        max_active = max(max_active, k + 1)
        alpha = _affine_weights(inverse, points)
        solves += 1
        if alpha.min() > _WEIGHT_DUST:
            weights = alpha
        else:
            points, weights, active, inverse, used = _minor_cycles(
                points, np.append(weights, 0.0), alpha, active, members, inverse
            )
            solves += used
        shorter_x = weights.dot(points)
        shorter = float(shorter_x.dot(shorter_x))
        if not shorter < norm:
            raise stalled("a major cycle did not shorten x")
        x, norm = shorter_x, shorter

    if buffer is None:
        probabilities, points = [1.0], x[None, :]
    else:
        probabilities = weights.tolist()
    distribution = FairDistribution._from_active(
        instance, active, probabilities, points, _levels(x, bound), calls, eps
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
    equal seeds give equal draws.
    """
    probabilities = [a.probability for a in distribution.atoms]
    return distribution.atoms[_draw_index(probabilities, rng_seed)].ranking


def _draw_index(probabilities: Sequence[float], rng_seed) -> int:
    """Index drawn in proportion to ``probabilities``, with ``rng_seed`` an
    integer seed or a ``numpy.random.Generator``."""
    rng = (
        rng_seed
        if isinstance(rng_seed, np.random.Generator)
        else np.random.default_rng(rng_seed)
    )
    probs = np.array(probabilities, dtype=float)
    return int(rng.choice(len(probs), p=probs / probs.sum()))
