"""Greedy fill of a weight order: the best-response oracle under prefix caps.

Given nonnegative per-individual weights ``w``, a valid ranking maximizing
``sum_u w[u] * value(r, u)`` comes from the individuals' order alone.
Because position scores are nonincreasing, the weighted score matrix
``w[u] * f(i)`` has the exchange (Monge) property once individuals are
sorted by descending weight: swapping any inverted pair never helps.
Filling positions top to bottom with the earliest still-placeable
individual of that order is therefore optimal.  So the fill takes the
order, not the weights: the solver sorts its weights (ties in merit
order), and :func:`fairrank.analysis.max_total_value` puts a set's members
first.  The module exports no name.

The fill reads the constraint set's equivalent caps: its upper bounds with
any one- or two-group lower bounds rewritten into them (see
:class:`fairrank.core.ConstraintSet`), in the normalized monotone form, so a
placement that respects the cap at its own prefix can never violate a later
prefix.  The constraint set turns those caps into release positions once:
the first position where each group may take its next member.  The fill
then walks the order once and puts each individual at the first free
position at or after that release, found by one C-level byte search over
the free positions instead of a scan over every group at every position.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import ConstraintSet, Instance, Ranking, ValueModel, _equivalent_caps
from .errors import InfeasibleConstraints

__all__: list[str] = []


def _greedy_fill(
    instance: Instance, constraints: ConstraintSet, order: Sequence[int]
) -> Ranking:
    """The ranking that fills positions 1..n, each time with the earliest
    individual in ``order`` whose group cap at that prefix still has room.

    A position is left empty exactly when no ranking meets the bounds; this
    is every entry point's infeasibility check, and raises
    :class:`InfeasibleConstraints` naming the first empty position.  Raises
    ``ValueError`` when the constraints have no equivalent caps.
    """
    _equivalent_caps(constraints, instance)
    out, position = _fill(constraints.release, instance._groups, order)
    if -1 in out:
        raise InfeasibleConstraints(
            "no valid ranking satisfies the bounds: no group may take position "
            f"{out.index(-1) + 1} without exceeding its cap"
        )
    return Ranking._trusted(tuple(out), tuple(position))


def _fill(
    release: Sequence[Sequence[int]], groups: Sequence[int], order: Sequence[int]
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
