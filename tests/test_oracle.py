"""Greedy weighted oracle against brute force.

The oracle's answer must match exhaustive search for every weight
vector; the greedy argument needs nonincreasing position scores and the
merit tie-break, both of which the property tests exercise.
"""

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
import hypothesis.strategies as st

from fairrank import (
    ConstraintSet,
    InfeasibleConstraints,
    Instance,
    ValueModel,
    deterministic_baseline,
    enumerate_valid_rankings,
    is_feasible,
    max_total_value,
    merit_ranking,
)

from fairrank.core import _greedy_fill

from conftest import (
    random_instance, random_upper_constraints, random_weights, ranking_cases,
)
from spot_checks import (
    best_response, greedy_fill_scan, has_monge_property, weight_order_key,
)

RELATIVE_TOL = 1e-9


def brute_force_best(instance, constraints, model, weights):
    best = -np.inf
    for r in enumerate_valid_rankings(instance, constraints):
        total = float(np.asarray(weights) @ model.values(r))
        best = max(best, total)
    return best


def test_oracle_matches_enumeration_on_eight(eight, eight_upper, eight_model):
    rng = np.random.default_rng(7)
    for _ in range(25):
        w = random_weights(rng, eight.n)
        res = best_response(eight, eight_upper, eight_model, w)
        expected = brute_force_best(eight, eight_upper, eight_model, w)
        assert res.objective == pytest.approx(expected, rel=RELATIVE_TOL, abs=1e-12)


def test_indicator_weights_give_group_best_total(eight, eight_upper, eight_model):
    males = [eight.ids.index(u) for u in ("u1", "u2", "u4", "u5")]
    w = np.zeros(8)
    w[males] = 1.0
    res = best_response(eight, eight_upper, eight_model, w)
    assert res.objective == -3


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_oracle_matches_enumeration_small(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, groups=2, max_n=5)
    cons = random_upper_constraints(rng, inst)
    model = [
        ValueModel.position_diff,
        ValueModel.log_ratio,
        lambda i: ValueModel.top_k_selection(i, k=max(1, i.n // 2)),
    ][int(rng.integers(0, 3))](inst)
    w = random_weights(rng, inst.n)
    res = best_response(inst, cons, model, w)
    expected = brute_force_best(inst, cons, model, w)
    assert res.objective == pytest.approx(expected, rel=RELATIVE_TOL, abs=1e-12)


def test_greedy_vertex_prefix_sums_are_best_totals():
    """The solver's polytope fact: along its weight order, every prefix of
    the greedy answer attains the best total that prefix can get in any
    valid ranking, so the answer is the Edmonds greedy vertex."""
    rng = np.random.default_rng(5)
    for k in range(30):
        inst = random_instance(rng, groups=int(rng.integers(1, 4)), max_n=6)
        cons = random_upper_constraints(rng, inst)
        model = (
            ValueModel.position_diff(inst)
            if k % 2 == 0
            else ValueModel.top_k_selection(inst, k=max(1, inst.n // 2))
        )
        matrix = np.stack(
            [model.values(r) for r in enumerate_valid_rankings(inst, cons)]
        )
        w = random_weights(rng, inst.n)
        order = list(weight_order_key(inst, w))
        values = best_response(inst, cons, model, w).values
        for size in range(1, inst.n + 1):
            top = order[:size]
            assert values[top].sum() == matrix[:, top].sum(axis=1).max()


def test_uniform_weights_tie_break_to_merit(eight, eight_model):
    res = best_response(
        eight, ConstraintSet.vacuous(eight), eight_model, np.ones(8)
    )
    assert res.ranking == merit_ranking(eight)


def test_order_key_ignores_scale(eight):
    rng = np.random.default_rng(3)
    w = rng.uniform(0.1, 1.0, 8)
    assert weight_order_key(eight, w) == weight_order_key(eight, 5.0 * w)
    assert weight_order_key(eight, w) != weight_order_key(eight, w[::-1].copy())


def test_oracle_rejects_negative_weights(eight, eight_upper, eight_model):
    with pytest.raises(ValueError):
        best_response(eight, eight_upper, eight_model, [-1.0] + [0.0] * 7)


@pytest.mark.parametrize("count", [7, 9])
def test_oracle_needs_one_weight_per_individual(eight, eight_upper, eight_model, count):
    with pytest.raises(ValueError, match="need one weight per individual"):
        best_response(eight, eight_upper, eight_model, [1.0] * count)


@pytest.mark.parametrize("bad", [-1.0, -np.inf, np.inf, np.nan])
@pytest.mark.parametrize("at", [0, 3, 7])
def test_order_key_rejects_a_bad_weight_anywhere(eight, bad, at):
    w = np.linspace(0.0, 1.0, 8)
    w[at] = bad
    with pytest.raises(ValueError, match="finite and nonnegative"):
        weight_order_key(eight, w)


def test_oracle_accepts_lower_bounds_as_given(
    eight, eight_lower, eight_upper, eight_model
):
    """The floor-balanced set and its upper-only form give the same answer
    for every weight vector."""
    rng = np.random.default_rng(5)
    for _ in range(50):
        w = random_weights(rng, 8)
        raw = best_response(eight, eight_lower, eight_model, w)
        converted = best_response(eight, eight_upper, eight_model, w)
        assert raw.ranking.order == converted.ranking.order
        assert raw.values.tolist() == converted.values.tolist()


def test_fill_refuses_constraints_of_another_shape(eight, eight_model):
    """The oracle, the baseline and the exact tools check the constraint
    set against the instance before filling or enumerating."""
    shorter, longer = (
        ConstraintSet.vacuous(Instance.from_rows(
            (f"u{i}", "MF"[i % 2], 1.0 - i / 10) for i in range(n)
        ))
        for n in (7, 9)
    )
    for cons in (shorter, longer, ConstraintSet([[1] * 8])):
        with pytest.raises(ValueError, match="shape"):
            best_response(eight, cons, eight_model, np.ones(8))
        with pytest.raises(ValueError, match="shape"):
            deterministic_baseline(eight, cons)
        with pytest.raises(ValueError, match="shape"):
            max_total_value(eight, cons, eight_model, [0])
        with pytest.raises(ValueError, match="shape"):
            enumerate_valid_rankings(eight, cons)


def test_oracle_raises_when_caps_block_every_fill(eight, eight_model):
    uppers = np.zeros((2, 8), dtype=int)
    cons = ConstraintSet(uppers)
    with pytest.raises(InfeasibleConstraints):
        best_response(eight, cons, eight_model, np.ones(8))


def test_monge_property_on_running_weights(eight, eight_upper, eight_model):
    rng = np.random.default_rng(0)
    for _ in range(100):
        w = random_weights(rng, eight.n)
        assert has_monge_property(eight, eight_model, w)


def test_release_fill_matches_the_position_scan():
    """The release-position fill gives the per-position scan's ranking, and
    raises the same error naming the same empty position when the caps
    cannot be met."""
    rng = np.random.default_rng(17)

    def raises_as_the_scan(inst, cons, weights):
        order = weight_order_key(inst, weights)
        try:
            want = greedy_fill_scan(inst, cons, order)
        except InfeasibleConstraints as exc:
            with pytest.raises(InfeasibleConstraints) as got:
                _greedy_fill(inst, cons, order)
            assert str(got.value) == str(exc)
            return True
        got = _greedy_fill(inst, cons, order)
        assert got.order == want.order
        assert sorted(got.order) == list(range(inst.n))
        assert all(got.position[u] == p for p, u in enumerate(got.order, start=1))
        return False

    def cut_caps(inst, share):
        vacuous = np.array(ConstraintSet.vacuous(inst).upper)
        cuts = rng.integers(0, 3, size=vacuous.shape) * (rng.random(vacuous.shape) < share)
        return ConstraintSet(vacuous - cuts)

    raised = 0
    for k in range(600):
        n = int(rng.integers(1, 41))
        inst = random_instance(rng, n=n, groups=int(rng.integers(1, 4)))
        cons = cut_caps(inst, 0.1)
        weights = [
            rng.uniform(0.0, 1.0, n),
            rng.integers(0, 3, n).astype(float),
            np.zeros(n),
        ][k % 3]
        raised += raises_as_the_scan(inst, cons, weights)
    assert 100 < raised < 500
    # Weights that put whole groups first fill long runs of positions, so
    # each later group's search crosses many taken ones.
    placed = 0
    for _ in range(20):
        n = int(rng.integers(100, 301))
        inst = random_instance(rng, n=n, groups=int(rng.integers(2, 4)))
        weights = inst.group_of + rng.uniform(0.0, 0.5, n)
        placed += not raises_as_the_scan(inst, cut_caps(inst, 0.01), weights)
    assert placed >= 5


@given(ranking_cases(floors=True), st.data())
@settings(max_examples=300, deadline=None)
def test_leading_set_positions_depend_only_on_its_counts(case, data):
    """Each member goes to the first free position at or after the release
    of their group's next slot, so a set put first in the order takes the
    same positions whichever members and order it has, given its group
    counts.  The exact decomposition's count-lattice table rests on this."""
    inst, cons, _ = case
    counts = [data.draw(st.integers(0, int(size))) for size in inst.group_sizes]
    slots = []
    for _ in range(2):
        left = list(counts)
        picked = []
        for u in data.draw(st.permutations(range(inst.n))):
            g = inst.group_of[u]
            if left[g]:
                left[g] -= 1
                picked.append(u)
        rest = [u for u in inst.merit_order if u not in picked]
        position = _greedy_fill(inst, cons, picked + rest).position
        slots.append(sorted(position[u] for u in picked))
    assert slots[0] == slots[1]


@st.composite
def capped_rosters(draw, max_n=8):
    """1-3 groups under vacuous caps less 0-2 per prefix, and for one or two
    groups floors of 0-2 per prefix (after the monotone repair, up to 2 in
    every later prefix), feasible or not; sets whose floors exceed their
    own caps fail at construction and are skipped."""
    n = draw(st.integers(1, max_n))
    t = draw(st.integers(1, min(3, n)))
    rest = draw(st.lists(st.integers(0, t - 1), min_size=n - t, max_size=n - t))
    groups = draw(st.permutations(list(range(t)) + rest))
    inst = Instance.from_rows(
        (f"u{i + 1}", "ABC"[g], 1.0 - i / (2 * n)) for i, g in enumerate(groups)
    )
    small = st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=t * n, max_size=t * n)
    caps = np.array(ConstraintSet.vacuous(inst).upper) - np.reshape(draw(small), (t, n))
    lower = None
    if t <= 2 and draw(st.booleans()):
        lower = np.reshape(draw(small), (t, n))
    try:
        cons = ConstraintSet(caps, lower)
    except InfeasibleConstraints:
        assume(False)
    return inst, cons


@given(capped_rosters(), st.data())
@settings(max_examples=500, deadline=None)
def test_fill_fails_exactly_when_no_ranking_fits(case, data):
    """The solver's feasibility check is its first fill, in merit order:
    a position is left empty exactly when ``is_feasible`` is False, and the
    same holds for any other order."""
    inst, cons = case
    feasible = is_feasible(inst, cons)
    event(f"feasible: {feasible}")
    for order in (inst.merit_order, data.draw(st.permutations(range(inst.n)))):
        try:
            _greedy_fill(inst, cons, order)
        except InfeasibleConstraints:
            filled = False
        else:
            filled = True
        assert filled == feasible
