"""Shared fixtures: the eight-person worked example and random generators.

The worked example is the two-group instance used throughout the package
docs: four group-M members with scores .97, .93, .81, .73 and four
group-F members with .89, .72, .64, .62.  With prefix-balance bounds it
has hand-checkable golden values (baseline minimum -2, maxmin floor
-0.75) and a small enough ranking space to enumerate.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest

from fairrank import (
    ConstraintSet,
    Instance,
    ValueModel,
    ceil_alpha_constraints,
    floor_balanced_constraints,
    is_feasible,
    to_upper_only,
)

EIGHT_ROWS = [
    ("u1", "M", 0.97),
    ("u2", "M", 0.93),
    ("u3", "F", 0.89),
    ("u4", "M", 0.81),
    ("u5", "M", 0.73),
    ("u6", "F", 0.72),
    ("u7", "F", 0.64),
    ("u8", "F", 0.62),
]


@pytest.fixture(scope="session")
def eight() -> Instance:
    return Instance(EIGHT_ROWS)


@pytest.fixture(scope="session")
def eight_lower(eight) -> ConstraintSet:
    return floor_balanced_constraints(eight)


@pytest.fixture(scope="session")
def eight_upper(eight, eight_lower) -> ConstraintSet:
    return to_upper_only(eight_lower, eight)


@pytest.fixture(scope="session")
def eight_model(eight) -> ValueModel:
    return ValueModel.position_diff(eight)


def random_instance(rng, n=None, groups=2, max_n=7):
    if n is None:
        n = int(rng.integers(2, max_n + 1))
    labels = [chr(ord("A") + g) for g in range(groups)]
    while True:
        assignment = rng.integers(0, groups, n)
        if len(set(assignment.tolist())) == groups or n < groups:
            break
    scores = np.round(rng.uniform(0.01, 1.0, n), 3)
    rows = [
        (f"u{i + 1}", labels[assignment[i] % groups], float(scores[i]))
        for i in range(n)
    ]
    return Instance(rows)


def random_upper_constraints(rng, instance):
    """Feasible upper-only bounds made by tightening from vacuous."""
    n = instance.n
    uppers = np.array(ConstraintSet.vacuous(instance).upper)
    for _ in range(int(rng.integers(0, 2 * n))):
        g = int(rng.integers(0, instance.n_groups))
        i = int(rng.integers(0, n))
        trial = uppers.copy()
        trial[g, i] = max(0, trial[g, i] - 1)
        candidate = ConstraintSet(trial)
        if is_feasible(instance, candidate):
            uppers = np.array(candidate.upper)
    return ConstraintSet(uppers)


def random_two_group_instance(rng, n_lo=4, n_hi=6):
    """Instance plus feasible upper-only prefix-share bounds."""
    while True:
        n = int(rng.integers(n_lo, n_hi + 1))
        inst = random_instance(rng, n=n, groups=2)
        alpha = float(rng.choice([0.2, 0.25, 0.3, 0.4]))
        label = str(rng.choice(inst.group_labels))
        try:
            lower = ceil_alpha_constraints(inst, alpha, label)
            cons = to_upper_only(lower, inst)
        except Exception:
            continue
        if is_feasible(inst, cons):
            return inst, cons


def random_weights(rng, n):
    kind = rng.integers(0, 3)
    if kind == 0:
        return rng.uniform(0.0, 1.0, n)
    if kind == 1:
        return rng.integers(0, 4, n).astype(float)
    w = np.zeros(n)
    w[rng.integers(0, n)] = 1.0
    return w


@st.composite
def ranking_cases(draw, min_n=1, max_n=7, floors=False):
    """n in ``min_n..max_n`` with 1-3 groups all present, scores that may
    all be equal, upper caps that a random witness ranking meets plus 0-2
    slack per prefix, and one of the four value models (top-k and custom
    bring ties in the position and merit scores).  With ``floors``, one-
    and two-group rosters may also get floors that the witness meets less
    0-2 slack per prefix."""
    n = draw(st.integers(min_n, max_n))
    t = draw(st.integers(1, min(3, n)))
    rest = draw(st.lists(st.integers(0, t - 1), min_size=n - t, max_size=n - t))
    groups = draw(st.permutations(list(range(t)) + rest))
    if draw(st.booleans()):
        scores = [0.5] * n
    else:
        scores = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
        scores = [s / 10 for s in scores]
    inst = Instance(
        (f"u{i + 1}", "ABC"[g], s) for i, (g, s) in enumerate(zip(groups, scores))
    )
    witness = draw(st.permutations(range(n)))
    counts = np.zeros((t, n), dtype=int)
    for i, u in enumerate(witness):
        counts[:, i] = counts[:, i - 1] if i else 0
        counts[inst.group_of[u], i] += 1
    slack = draw(st.lists(st.integers(0, 2), min_size=t * n, max_size=t * n))
    lower = None
    if floors and t <= 2 and draw(st.booleans()):
        less = draw(st.lists(st.integers(0, 2), min_size=t * n, max_size=t * n))
        lower = np.maximum(counts - np.reshape(less, (t, n)), 0)
    cons = ConstraintSet(counts + np.reshape(slack, (t, n)), lower)
    kind = draw(st.sampled_from(["position-diff", "log-ratio", "top-k", "custom"]))
    if kind == "position-diff":
        model = ValueModel.position_diff(inst)
    elif kind == "log-ratio":
        model = ValueModel.log_ratio(inst)
    elif kind == "top-k":
        model = ValueModel.top_k_selection(inst, draw(st.integers(1, n)))
    else:
        f = draw(st.lists(st.integers(0, 2 * n), min_size=n, max_size=n))
        f.sort(reverse=True)
        model = ValueModel(f, [f[p - 1] for p in inst.merit_position])
    return inst, cons, model
