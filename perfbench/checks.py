"""Output checks.  Each returns a list of failure messages (empty when the
output passes), so one corrupted field shows up as one named failure and
every failed check counts the operation as failed."""

from __future__ import annotations

import numpy as np

MASS_TOL = 1e-9
CONSERVATION_TOL = 1e-9
GAP_SLACK = 1e-9  # float dust on top of an epsilon budget


def atoms_valid(fr, instance, original, rankings) -> list[str]:
    """Every support ranking meets the constraints as loaded, lower bounds
    included (not their upper-only rewrite)."""
    bad = [i for i, r in enumerate(rankings) if not fr.is_valid(r, instance, original)]
    return [f"atoms {bad} violate the constraints"] if bad else []


def mass(probabilities) -> list[str]:
    total = float(np.sum(probabilities))
    ok = abs(total - 1.0) <= MASS_TOL and min(probabilities) > 0
    return [] if ok else [f"probabilities sum to {total!r}"]


def conservation(fr, instance, model, expected) -> list[str]:
    """Every ranking hands out the same total value, so the mean expected
    value must equal the merit ranking's mean value."""
    want = float(np.mean(model.values(fr.merit_ranking(instance))))
    got = float(np.mean(expected))
    ok = abs(got - want) <= CONSERVATION_TOL
    return [] if ok else [f"mean expected value {got!r} != merit mean {want!r}"]


def sorted_gap(expected, reference) -> float:
    a = np.sort(np.asarray(expected, dtype=float))
    b = np.sort(np.asarray(reference, dtype=float))
    if a.shape != b.shape:
        return float("inf")
    return float(np.abs(a - b).max())


def gap_within(expected, reference, tolerance: float, what: str) -> list[str]:
    gap = sorted_gap(expected, reference)
    ok = gap <= tolerance + GAP_SLACK
    return [] if ok else [f"sorted gap {gap:.3g} to {what} exceeds {tolerance}"]


def floor_at_least(expected, floor: float, epsilon: float, what: str) -> list[str]:
    low = float(np.min(expected))
    ok = low >= floor - epsilon - GAP_SLACK
    return [] if ok else [f"minimum {low:.6g} below {what} {floor:.6g} - {epsilon}"]


def floor_near(expected, floor: float, epsilon: float) -> list[str]:
    low = float(np.min(expected))
    ok = abs(low - floor) <= epsilon + GAP_SLACK
    return [] if ok else [f"minimum {low:.6g} not within {epsilon} of {floor}"]


def same_vector(got, want, what: str, tol: float = 1e-9) -> list[str]:
    a = np.asarray(got, dtype=float)
    b = np.asarray(want, dtype=float)
    ok = a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))
    return [] if ok else [f"{what} differs from the reference"]


def distribution(fr, instance, original, model, rankings, probabilities, expected):
    """The checks every emitted or loaded distribution must pass."""
    return (
        atoms_valid(fr, instance, original, rankings)
        + mass(probabilities)
        + conservation(fr, instance, model, expected)
    )
