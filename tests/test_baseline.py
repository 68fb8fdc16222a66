"""Deterministic merit-greedy baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from fairrank import (
    ConstraintSet,
    InfeasibleConstraints,
    ValueModel,
    baseline_min_value,
    deterministic_baseline,
    enumerate_valid_rankings,
    is_valid,
    merit_ranking,
)

from conftest import random_instance, random_upper_constraints


def test_running_example_order(eight, eight_upper):
    r = deterministic_baseline(eight, eight_upper)
    assert r.ids(eight) == ("u1", "u2", "u3", "u6", "u4", "u7", "u5", "u8")


def test_running_example_values(eight, eight_upper, eight_model):
    r = deterministic_baseline(eight, eight_upper)
    values = eight_model.values(r)
    expected = [0, 0, 0, -1, -2, 2, 1, 0]
    assert values.tolist() == expected
    assert baseline_min_value(eight, eight_upper, eight_model) == -2


def test_baseline_is_valid(eight, eight_upper):
    r = deterministic_baseline(eight, eight_upper)
    assert is_valid(r, eight, eight_upper)


def test_vacuous_constraints_give_merit_order(eight):
    r = deterministic_baseline(eight, ConstraintSet.vacuous(eight))
    assert r == merit_ranking(eight)


def test_baseline_accepts_lower_bounds_as_given(eight, eight_lower, eight_upper):
    r = deterministic_baseline(eight, eight_lower)
    assert r == deterministic_baseline(eight, eight_upper)
    assert is_valid(r, eight, eight_lower)


def test_baseline_propagates_infeasibility(eight):
    cons = ConstraintSet(np.zeros((2, 8), dtype=int))
    with pytest.raises(InfeasibleConstraints):
        deterministic_baseline(eight, cons)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_baseline_maximizes_worst_value_among_rankings(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, groups=2, max_n=5)
    cons = random_upper_constraints(rng, inst)
    model = ValueModel.position_diff(inst)
    best = max(
        model.values(r).min() for r in enumerate_valid_rankings(inst, cons)
    )
    assert baseline_min_value(inst, cons, model) == pytest.approx(float(best))
