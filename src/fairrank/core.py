"""Domain model for group-constrained ranking.

An instance is a fixed roster of individuals, each with a unique id, a group
label (stored as an index) and a nonnegative relevance score.  A ranking is
a bijection from individuals onto positions ``1..n``.  A constraint set
bounds, for every prefix length and every group, how many members of the
group may appear (upper bounds) or must appear (lower bounds) in that
prefix.  A value model scores how well a ranking treats each individual
relative to their merit position.  Then comes the greedy fill, the
best-response oracle over the valid rankings: the package's only reader of
a constraint set's release table.  The module ends with the one caller
that relies on the fill's leading-set property, the count table of the
exact block decomposition; :mod:`fairrank.analysis` exports it, and the
solver reads its levels when it stalls.

All objects here are immutable after construction and safe to share across
threads; the module-level operations are pure functions.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InfeasibleConstraints, InstanceTooLarge

__all__ = [
    "Instance",
    "Ranking",
    "ValueModel",
    "ConstraintSet",
    "merit_ranking",
    "is_valid",
    "ceil_alpha_constraints",
    "floor_balanced_constraints",
    "to_upper_only",
    "is_feasible",
]


class Instance:
    """An ordered roster of individuals partitioned into groups.

    Built from ``(id, group_label, score)`` rows: ids must be unique and
    scores finite and nonnegative, with a total whose square is finite.
    Group labels are mapped to indices ``0..n_groups-1`` in order of first
    appearance, so no group is empty.  The merit order sorts by descending
    relevance with ties broken by ascending id, so it is a strict total
    order even when scores coincide.  That same tie rule is reused
    everywhere an ordering of individuals is needed.
    """

    __slots__ = (
        "group_labels",
        "n",
        "n_groups",
        "ids",
        "relevance",
        "group_of",
        "group_sizes",
        "merit_order",
        "merit_position",
        "_index_of",
        "_groups",
    )

    def __init__(self, rows: Iterable[tuple[str, str, float]]):
        label_index: dict[str, int] = {}
        ids, groups, scores = [], [], []
        for id_, label, score in rows:
            ids.append(id_)
            groups.append(label_index.setdefault(label, len(label_index)))
            scores.append(score)
        if not ids:
            raise ValueError("an instance needs at least one individual")
        self._index_of = {u: i for i, u in enumerate(ids)}
        if len(self._index_of) != len(ids):
            raise ValueError("individual ids must be unique")
        relevance = np.array(scores, dtype=float)
        scores = relevance.tolist()
        if not all(0 <= x < math.inf for x in scores):
            raise ValueError("relevance scores must be finite and nonnegative")
        # A DCG is at most the relevance total, and its squared deviation
        # from a mean DCG at most the total's square: no metric overflows.
        total = sum(scores)
        if not total * total < math.inf:
            raise ValueError("relevance scores are too large: their total's square overflows")
        group_of = np.array(groups, dtype=int)
        # The greedy fill indexes groups from Python once per placement.
        self._groups = tuple(groups)
        # bincount, unlike np.unique, does not import numpy.ma on its first
        # call, an import of about 10 ms per CLI process on a 2-core VM.
        sizes = np.bincount(group_of)
        self.n_groups = len(label_index)
        self.group_labels = tuple(label_index)
        self.n = n = len(ids)
        self.ids = tuple(ids)
        order = sorted(range(n), key=lambda i: (-scores[i], ids[i]))
        self.merit_order = tuple(order)
        merit_position = np.empty(n, dtype=int)
        merit_position[order] = range(1, n + 1)
        for vector in (relevance, group_of, sizes, merit_position):
            vector.setflags(write=False)
        self.relevance = relevance
        self.group_of = group_of
        self.group_sizes = sizes
        self.merit_position = merit_position

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, str, float]]) -> "Instance":
        """``Instance(rows)``, kept only because ``perfbench/`` calls it."""
        return cls(rows)

    def group_index(self, label_or_index: str | int) -> int:
        """Resolve a group given either its label or its integer index."""
        if isinstance(label_or_index, str):
            try:
                return self.group_labels.index(label_or_index)
            except ValueError:
                raise ValueError(f"unknown group label {label_or_index!r}") from None
        g = int(label_or_index)
        if not 0 <= g < self.n_groups:
            raise ValueError(f"group index {g} out of range")
        return g

    def __repr__(self) -> str:
        return f"Instance(n={self.n}, groups={self.n_groups})"


class Ranking:
    """A bijection from individuals to positions ``1..n``.

    Stored as the tuple of individual indices in position order, so
    ``order[p-1]`` is the individual shown at position ``p``.
    """

    __slots__ = ("order", "position")

    def __init__(self, order: Iterable[int]):
        order = tuple(int(i) for i in order)
        n = len(order)
        position = [0] * n
        for p, i in enumerate(order, start=1):
            if not 0 <= i < n or position[i]:
                raise ValueError("ranking must be a permutation of 0..n-1")
            position[i] = p
        self.order = order
        self.position = tuple(position)

    @classmethod
    def _trusted(cls, order: tuple[int, ...], position: tuple[int, ...]) -> "Ranking":
        """A ranking from a permutation and its 1-based inverse that the
        caller has just built, skipping the checks of ``__init__``."""
        ranking = object.__new__(cls)
        ranking.order = order
        ranking.position = position
        return ranking

    @classmethod
    def from_ids(cls, instance: Instance, ids: Sequence[str]) -> "Ranking":
        """The ranking listing ``ids`` top to bottom; ``ValueError`` unless
        they are a permutation of the instance's ids."""
        try:
            order = [instance._index_of[u] for u in ids]
        except KeyError as exc:
            raise ValueError(f"unknown id {exc.args[0]!r} in a ranking") from None
        if len(order) != instance.n:
            raise ValueError(f"a ranking lists all {instance.n} ids, got {len(order)}")
        return cls(order)

    def ids(self, instance: Instance) -> tuple[str, ...]:
        return tuple(instance.ids[i] for i in self.order)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ranking) and self.order == other.order

    def __hash__(self) -> int:
        return hash(self.order)

    def __repr__(self) -> str:
        return f"Ranking({list(self.order)})"


class ValueModel:
    """Scores ``value(r, u) = position_scores[r(u)] - merit_scores[u]``.

    Scores must be finite and ``position_scores`` nonincreasing in the
    position; that monotonicity is what makes the weighted assignment
    problem greedy-solvable.  Every value lies in ``[f_n - max g, f_1 -
    min g]`` (position scores ``f``, merit scores ``g``), and that range's
    width must be finite too, so no value and no gap between two values
    overflows.  The solver further needs ``2 n m^2`` finite, where ``m =
    max(|f_1 - min g|, |f_n - max g|)`` bounds every value's magnitude; a
    model without it still builds.  ``merit_scores`` is an individual-specific
    offset, normally the position score the individual would earn in the
    pure merit ranking, so the value measures gain or loss relative to merit.

    Presets, each taking every merit score from its own position scores
    (``g[u] = f[merit_position[u] - 1]``):

    * ``position_diff``: score ``n - i`` at position ``i``; the value is the
      (signed) number of positions the individual moved up from merit.
    * ``log_ratio``: score ``ln(n / i)``; the value is the log of the ratio
      of merit position to assigned position.
    * ``top_k_selection``: score 1 inside the top ``k`` and 0 outside; the
      value is -1, 0 or +1 depending on crossing the top-``k`` boundary.
    """

    __slots__ = ("position_scores", "merit_scores", "_g", "_scores", "_magnitude")

    def __init__(self, position_scores: Sequence[float], merit_scores: Sequence[float]):
        position_scores = [float(x) for x in position_scores]
        merit_scores = [float(x) for x in merit_scores]
        if len(position_scores) != len(merit_scores):
            raise ValueError("position and merit score vectors must have equal length n")
        # _scores[p] is the score of 1-based position p; 0 is never read.
        scores = np.array([0.0, *position_scores])
        g = np.array(merit_scores)
        if not (np.isfinite(scores).all() and np.isfinite(g).all()):
            raise ValueError("position and merit scores must be finite")
        if (scores[2:] > scores[1:-1]).any():
            raise ValueError("position scores must be nonincreasing")
        # Python floats: an overflow gives inf or nan without a numpy warning.
        self._magnitude = 0.0
        if position_scores:
            top = position_scores[0] - min(merit_scores)
            bottom = position_scores[-1] - max(merit_scores)
            if not math.isfinite(top - bottom):
                raise ValueError("the range of values must have a finite width")
            # No |value| exceeds m; the solver reads it for its float bounds.
            self._magnitude = max(abs(top), abs(bottom))
        self.position_scores = tuple(position_scores)
        self.merit_scores = tuple(merit_scores)
        g.setflags(write=False)
        self._g = g
        self._scores = scores

    @classmethod
    def _preset(cls, instance: Instance, f: list[float]) -> "ValueModel":
        return cls(f, [f[p - 1] for p in instance.merit_position.tolist()])

    @classmethod
    def position_diff(cls, instance: Instance) -> "ValueModel":
        n = instance.n
        return cls._preset(instance, [n - i for i in range(1, n + 1)])

    @classmethod
    def log_ratio(cls, instance: Instance) -> "ValueModel":
        n = instance.n
        return cls._preset(instance, [math.log(n / i) for i in range(1, n + 1)])

    @classmethod
    def top_k_selection(cls, instance: Instance, k: int) -> "ValueModel":
        n = instance.n
        if not 1 <= k <= n:
            raise ValueError("k must be between 1 and n")
        return cls._preset(instance, [1.0 if i <= k else 0.0 for i in range(1, n + 1)])

    @classmethod
    def custom(
        cls, position_scores: Sequence[float], merit_scores: Sequence[float]
    ) -> "ValueModel":
        """``ValueModel(position_scores, merit_scores)``, kept only because
        ``perfbench/`` calls it."""
        return cls(position_scores, merit_scores)

    @property
    def n(self) -> int:
        return len(self.position_scores)

    @property
    def integer_valued(self) -> bool:
        return all(x.is_integer() for x in self.position_scores) and all(
            x.is_integer() for x in self.merit_scores
        )

    def values(self, ranking: Ranking) -> np.ndarray:
        """Per-individual values under ``ranking``, indexed by individual:
        each one's position score, read through ``ranking.position``, less
        their merit score.  ``ValueError`` for a ranking of another length."""
        if len(ranking.position) != self.n:
            raise ValueError(
                f"ranking has {len(ranking.position)} positions, the value model {self.n}"
            )
        return self._scores.take(ranking.position) - self._g

    def __repr__(self) -> str:
        return f"ValueModel(n={self.n})"


def _vacuous_upper(instance: Instance) -> list[list[int]]:
    """``min(i, |group k|)`` for group ``k`` and prefix length ``i``."""
    n = instance.n
    return [[*range(1, s + 1), *[s] * (n - s)] for s in instance.group_sizes.tolist()]


def _bound_table(rows: Sequence[Sequence[int]], name: str) -> np.ndarray:
    try:
        return np.array(rows, dtype=int)
    except OverflowError:
        raise ValueError(f"{name} bounds must fit in 64-bit integers") from None


def _clamped(rows: np.ndarray, n: int) -> np.ndarray:
    # np.clip's Python wrapper costs about three times this pair of ufuncs.
    return np.minimum(np.maximum(rows, 0), np.arange(1, n + 1))


def _normalize_upper(rows: np.ndarray, n: int) -> np.ndarray:
    """Tighten raw upper bounds to their monotone closure.

    A prefix count never decreases and grows by at most one per position, so
    ``u[i] ≤ min(u[i+1], u[i-1] + 1)`` is implied.  Applying the closure
    leaves the set of satisfying rankings unchanged.  The first rule is a
    running minimum from the right; the second is a running minimum of
    ``u[i] - i`` from the left.
    """
    rows = _clamped(rows, n)
    rows = np.minimum.accumulate(rows[:, ::-1], axis=1)[:, ::-1]
    index = np.arange(n)
    return np.minimum.accumulate(rows - index, axis=1) + index


def _normalize_lower(rows: np.ndarray, n: int) -> np.ndarray:
    """Tighten raw lower bounds to their monotone closure: the complement of
    the caps' closure.  A group meets floor ``l`` in a prefix of length
    ``i`` exactly when the rest of the prefix meets cap ``i - l``, and
    clamping to ``[0, i]`` commutes with ``x -> i - x``; clamping first
    keeps ``i - x`` within int64."""
    prefix = np.arange(1, n + 1)
    return prefix - _normalize_upper(prefix - _clamped(rows, n), n)


class ConstraintSet:
    """Per-prefix, per-group occupancy bounds.

    ``upper[k][i-1]`` caps and ``lower[k][i-1]`` floors how many members of
    group ``k`` may appear in the first ``i`` positions.  Raw bounds are
    repaired at construction into the tightest equivalent monotone form,
    which preserves the satisfying set exactly and is what the greedy fill
    (:func:`_greedy_fill`, below) relies on.  Construction fails with
    :class:`InfeasibleConstraints` when some repaired floor exceeds the
    matching cap.

    ``release[k][j]`` is the first 0-based position whose equivalent cap
    admits a ``(j+1)``-th member of group ``k``, or ``n`` when no prefix
    does.  The equivalent caps admit exactly the satisfying rankings: the
    upper bounds, each tightened with two groups by the other group's floor
    (``l`` members of one group in a prefix of length ``i`` cap the other
    at ``i - l``) and repaired again.  They are nondecreasing, so once a
    member is admitted it stays admitted.  The table is built once per set
    and read by :func:`_fill` alone, which places each individual at the
    first free position at or after their group's next release.  Three or
    more groups with active lower bounds have no such rewrite, and
    ``release`` is ``None``.
    """

    __slots__ = ("upper", "lower", "release", "upper_only", "n", "n_groups", "_caps")

    def __init__(
        self,
        upper: Sequence[Sequence[int]],
        lower: Sequence[Sequence[int]] | None = None,
    ):
        urows = _bound_table(upper, "upper")
        if urows.ndim != 2:
            raise ValueError("upper bounds must be a groups x positions table")
        t, n = urows.shape
        if lower is not None:
            lrows = _bound_table(lower, "lower")
            if lrows.shape != (t, n):
                raise ValueError("lower bounds must match the upper-bound shape")
        urows = _normalize_upper(urows, n)
        urows.setflags(write=False)
        self.n = n
        self.n_groups = t
        self.upper = tuple(tuple(row) for row in urows.tolist())
        # A table without a positive entry repairs to all zeros.
        self.upper_only = lower is None or not (lrows > 0).any()
        if self.upper_only:
            self.lower = ((0,) * n,) * t
        else:
            lrows = _normalize_lower(lrows, n)
            bad = lrows > urows
            if bad.any():
                k, i = np.argwhere(bad)[0]
                raise InfeasibleConstraints(
                    f"group {k} needs at least {lrows[k, i]} of the first {i + 1} "
                    f"positions but is capped at {urows[k, i]}"
                )
            self.lower = tuple(tuple(row) for row in lrows.tolist())
        prefix = np.arange(1, n + 1)
        if self.upper_only or t == 1:
            caps = urows
        elif t == 2:
            caps = _normalize_upper(np.minimum(urows, prefix - lrows[::-1]), n)
        else:
            caps = None
        self._caps = caps
        self.release = None if caps is None else tuple(
            tuple(np.searchsorted(row, prefix).tolist()) for row in caps
        )

    @classmethod
    def vacuous(cls, instance: Instance) -> "ConstraintSet":
        """Bounds every ranking satisfies: caps ``min(i, |group|)`` on the
        first ``i`` positions, no floors.  A rule or a bound file builds one
        set from these caps, not this set as well."""
        return cls(_vacuous_upper(instance))

    def __repr__(self) -> str:
        return f"ConstraintSet(groups={self.n_groups}, positions={self.n})"


def merit_ranking(instance: Instance) -> Ranking:
    """The strict merit order: descending relevance, ties by ascending id."""
    return Ranking(instance.merit_order)


def is_valid(ranking: Ranking, instance: Instance, constraints: ConstraintSet) -> bool:
    """Whether every prefix of ``ranking`` meets all group bounds."""
    if constraints.n != instance.n or constraints.n_groups != instance.n_groups:
        raise ValueError("constraints do not match the instance shape")
    if len(ranking.order) != instance.n:
        raise ValueError(
            f"ranking has {len(ranking.order)} positions, the instance {instance.n}"
        )
    upper = constraints.upper
    lower = constraints.lower
    counts = [0] * instance.n_groups
    group_of = instance._groups
    for i, u in enumerate(ranking.order):
        g = group_of[u]
        counts[g] += 1
        if counts[g] > upper[g][i]:
            return False
        for k in range(instance.n_groups):
            if counts[k] < lower[k][i]:
                return False
    return True


def ceil_alpha_constraints(
    instance: Instance,
    alpha: float,
    protected_group: str | int,
    start_k: int = 1,
) -> ConstraintSet:
    """Floor the protected group's share of every prefix.

    For each prefix length ``i >= start_k`` the protected group must fill at
    least ``max(0, ceil(alpha * i - 1))`` positions.  ``alpha`` is read as a
    decimal (``0.3`` means exactly 3/10) so the ceiling never flips on float
    noise.  Upper bounds stay vacuous.
    """
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    frac = Fraction(str(alpha))
    g = instance.group_index(protected_group)
    n = instance.n
    lower = [[0] * n for _ in range(instance.n_groups)]
    for i in range(max(1, start_k), n + 1):
        bound = -((-(frac.numerator * i - frac.denominator)) // frac.denominator)
        lower[g][i - 1] = max(0, bound)
    return ConstraintSet(_vacuous_upper(instance), lower)


def floor_balanced_constraints(instance: Instance, start_k: int = 3) -> ConstraintSet:
    """Require every prefix of length ``i >= start_k`` to contain at least
    ``floor(i / 2)`` members of each of two groups."""
    if instance.n_groups != 2:
        raise ValueError("the balanced rule needs exactly two groups")
    row = [i // 2 if i >= start_k else 0 for i in range(1, instance.n + 1)]
    return ConstraintSet(_vacuous_upper(instance), [row, row])


def _equivalent_caps(constraints: ConstraintSet, instance: Instance) -> np.ndarray:
    """The upper bounds admitting exactly the rankings ``constraints``
    admits (see :class:`ConstraintSet`), after checking that the set
    matches ``instance`` and that such bounds exist."""
    if constraints.n != instance.n or constraints.n_groups != instance.n_groups:
        raise ValueError("constraints do not match the instance shape")
    if constraints._caps is None:
        raise ValueError(
            "lower bounds with three or more groups cannot be rewritten as "
            "upper bounds; supply upper-only constraints instead"
        )
    return constraints._caps


def to_upper_only(constraints: ConstraintSet, instance: Instance) -> ConstraintSet:
    """The upper-only set of the equivalent caps: same valid rankings.

    Every entry point accepts one- and two-group lower bounds as given, so
    this only exposes the rewritten caps.  Three or more groups with active
    lower bounds raise ``ValueError``.
    """
    caps = _equivalent_caps(constraints, instance)
    return constraints if constraints.upper_only else ConstraintSet(caps)


def is_feasible(instance: Instance, constraints: ConstraintSet) -> bool:
    """Whether some ranking satisfies the bounds: whether the greedy fill
    of the merit order places everyone (see :func:`_greedy_fill`).
    ``ValueError`` when the constraints have no equivalent caps."""
    _equivalent_caps(constraints, instance)
    return -1 not in _fill(instance, constraints, instance.merit_order)[0]


def _greedy_fill(
    instance: Instance, constraints: ConstraintSet, order: Sequence[int]
) -> Ranking:
    """The ranking that fills positions 1..n, each time with the earliest
    individual in ``order`` whose equivalent cap at that prefix still has
    room: the best-response oracle.

    For nonnegative weights ``w`` sorted into ``order`` (descending, ties
    in merit order), this ranking maximizes ``sum_u w[u] * value(r, u)``
    over the valid rankings.  Position scores are nonincreasing, so the
    weighted score matrix ``w[u] * f(i)`` has the exchange (Monge) property
    once individuals are sorted by descending weight: swapping an inverted
    pair never helps, and filling top to bottom with the earliest
    still-placeable individual is optimal.  The equivalent caps are in the
    normalized monotone form, so a placement that respects the cap at its
    own prefix never violates a later one.  So the fill takes the order,
    not the weights: the solver sorts its weights, and
    :func:`fairrank.analysis.max_total_value` puts a set's members first.

    A position is left empty exactly when no ranking meets the bounds; this
    is every entry point's infeasibility check, and raises
    :class:`InfeasibleConstraints` naming the first empty position.  Raises
    ``ValueError`` when the constraints have no equivalent caps.
    """
    _equivalent_caps(constraints, instance)
    out, position = _fill(instance, constraints, order)
    if -1 in out:
        raise InfeasibleConstraints(
            "no valid ranking satisfies the bounds: no group may take position "
            f"{out.index(-1) + 1} without exceeding its cap"
        )
    return Ranking._trusted(tuple(out), tuple(position))


def _fill(
    instance: Instance, constraints: ConstraintSet, order: Sequence[int]
) -> tuple[list[int], list[int]]:
    """List scheduling of ``order`` over the release positions of checked
    caps: each individual goes to the first free position at or after the
    release of their group's next slot.

    The top-to-bottom fill gives the first individual in ``order`` that
    same position, because no one it would yield to is left; the rest then
    fill the remaining positions by the same rule.  Releases only move later
    within a group, so a group's members keep their order, and a prefix of
    ``order`` takes the positions it takes in the whole walk.  The free
    positions are the nonzero bytes of a ``bytearray``: a free release is
    read directly, and a taken one costs one ``find`` in C however many
    taken positions it crosses.  Returns the individual at each 0-based
    position (``-1`` where none is) and each individual's 1-based position
    (``0`` for one not placed).
    """
    release = constraints.release
    groups = instance._groups
    n = len(groups)
    taken = [0] * len(release)
    # free[n] stays set, so a search that finds no free position ends at n.
    free = bytearray(b"\x01") * (n + 1)
    find = free.find
    out = [-1] * n
    position = [0] * n
    for u in order:
        g = groups[u]
        slot = release[g][taken[g]]
        taken[g] += 1
        if not free[slot]:
            slot = find(1, slot)
        if slot < n:
            free[slot] = 0
            out[slot] = u
            position[u] = slot + 1
    return out, position


def _vertex(
    instance: Instance,
    constraints: ConstraintSet,
    value_model: ValueModel,
    order: Sequence[int],
) -> tuple[Ranking, np.ndarray]:
    """The greedy ranking for an order of the individuals and its
    per-individual values: the oracle for callers that build and check
    their own order.  Raises as :func:`_greedy_fill` does."""
    ranking = _greedy_fill(instance, constraints, order)
    return ranking, value_model.values(ranking)


TABLE_CELL_BUDGET = 2**20
_FLOAT_TIE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
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
    Guarded, before any fill, to ``TABLE_CELL_BUDGET`` table cells, and to
    values whose ``3 n^2 m`` (``m`` bounds every value's magnitude) is
    finite, and below 2**53 for an integer-valued model; past either guard
    it raises :class:`InstanceTooLarge`.
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
    # A gain reaches 3 n m (m bounds every |value|), and the integer tie test
    # multiplies it by a set size up to n: finite, and exact below 2**53.
    integer = value_model.integer_valued
    reach = 3 * n * n * value_model._magnitude
    if not reach < (2.0**53 if integer else math.inf):
        raise InstanceTooLarge(
            f"values this large overflow the count table's exact sums: 3 n^2 m = {reach:.3g}"
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
            # Division rounds monotonically, so with every |gain| * n below
            # 2**53 the argmin is an exact minimizer; cross-multiplying finds
            # every tie.
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


def _exact_error(
    instance: Instance, constraints: ConstraintSet, value_model: ValueModel, point: np.ndarray
) -> float | None:
    """The largest entry of ``|point - targets|`` for the exact levels of
    :func:`fair_decomposition`, or ``None`` past one of its guards.

    For an integer-valued model each level is one rounded division of
    exact integer sums.  Otherwise the scan merges ratios within
    ``_FLOAT_TIE_TOL`` relative, so that much of the largest level is added.
    """
    try:
        targets = fair_decomposition(instance, constraints, value_model).targets
    except InstanceTooLarge:
        return None
    error = float(np.abs(point - targets).max())
    if not value_model.integer_valued:
        error += _FLOAT_TIE_TOL * max(1.0, float(np.abs(targets).max()))
    return error
