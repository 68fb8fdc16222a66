"""Instance, ranking, value-model, and constraint behavior.

Constraint normalization is checked against brute-force enumeration:
whatever the repair does to the bound tables, the set of satisfying
rankings must not change.
"""

from fractions import Fraction
from itertools import permutations
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
import hypothesis.strategies as st

from fairrank import (
    ConstraintSet,
    InfeasibleConstraints,
    Instance,
    Ranking,
    ValueModel,
    ceil_alpha_constraints,
    deterministic_baseline,
    enumerate_valid_rankings,
    fair_decomposition,
    floor_balanced_constraints,
    is_feasible,
    is_valid,
    max_total_value,
    merit_ranking,
    solve_maxmin,
    to_upper_only,
)

from fairrank.cli import load_constraints
from fairrank.core import _normalize_lower, _normalize_upper

from conftest import EIGHT_ROWS, random_instance, random_upper_constraints
from spot_checks import normalize_lower_loops, normalize_upper_loops


def test_instance_merit_order(eight):
    assert eight.ids == ("u1", "u2", "u3", "u4", "u5", "u6", "u7", "u8")
    assert [eight.ids[i] for i in eight.merit_order] == [
        "u1", "u2", "u3", "u4", "u5", "u6", "u7", "u8",
    ]
    assert list(eight.merit_position) == [1, 2, 3, 4, 5, 6, 7, 8]


def test_instance_merit_ties_break_by_id():
    inst = Instance.from_rows([("b", "X", 0.5), ("a", "X", 0.5), ("c", "X", 0.9)])
    assert [inst.ids[i] for i in inst.merit_order] == ["c", "a", "b"]


def test_instance_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        Instance.from_rows([("u1", "A", 0.5), ("u1", "B", 0.4)])


def test_instance_rejects_an_empty_roster():
    with pytest.raises(ValueError, match="at least one individual"):
        Instance([])


def test_instance_rejects_bad_scores():
    valid = [("u1", "A", 0.9), ("u2", "B", 0.0)]
    for bad in (-0.1, math.inf, -math.inf, math.nan):
        for rows in ([("u3", "A", bad)], valid + [("u3", "A", bad)]):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                Instance(rows)


def test_instance_refuses_a_relevance_total_whose_square_overflows():
    """Every DCG is at most the relevance total, and its squared deviation
    from a mean DCG at most the total's square, which must be finite; a
    score of 1e154 still fits."""
    for rows in ([("u1", "A", 1e200)], [("u1", "A", 1.7e308), ("u2", "B", 1.7e308)]):
        with pytest.raises(ValueError, match="too large"):
            Instance(rows)
    assert Instance([("u1", "A", 1e154), ("u2", "B", 0.0)]).n == 2


def test_instance_indexes_groups_by_first_appearance():
    """Group labels become indices 0..t-1 in order of first appearance, so
    every index names a nonempty group."""
    inst = Instance([("u1", "B", 0.5), ("u2", "A", 0.4), ("u3", "B", 0.3)])
    assert inst.group_labels == ("B", "A")
    assert inst.group_of.tolist() == [0, 1, 0]
    assert inst.group_sizes.tolist() == [2, 1]
    assert (inst.group_index("B"), inst.group_index("A")) == (0, 1)


def test_ranking_round_trip(eight):
    r = Ranking.from_ids(eight, ["u2", "u1", "u3", "u6", "u4", "u8", "u5", "u7"])
    assert r.ids(eight) == ("u2", "u1", "u3", "u6", "u4", "u8", "u5", "u7")
    for idx in range(eight.n):
        assert r.order[r.position[idx] - 1] == idx
    assert repr(Ranking([1, 0])) == "Ranking([1, 0])"


def test_ranking_from_ids_needs_a_permutation_of_the_roster():
    inst = Instance.from_rows(
        [("a", "M", 0.9), ("b", "F", 0.8), ("c", "M", 0.7), ("d", "F", 0.6)]
    )
    cases = [
        (["a", "b", "c"], "lists all 4 ids, got 3"),
        (["a", "b", "c", "d", "a"], "lists all 4 ids, got 5"),
        (["a", "b", "zz", "d"], "unknown id 'zz'"),
        (["a", "b", "a", "d"], "permutation"),
    ]
    for ids, message in cases:
        with pytest.raises(ValueError, match=message):
            Ranking.from_ids(inst, ids)
    assert Ranking.from_ids(inst, ["d", "c", "b", "a"]).order == (3, 2, 1, 0)


def test_is_valid_refuses_a_ranking_of_another_length(eight, eight_lower):
    vacuous = ConstraintSet.vacuous(eight)
    for order in ([0, 1, 2], list(range(9))):
        for cons in (vacuous, eight_lower):
            with pytest.raises(ValueError, match="positions, the instance 8"):
                is_valid(Ranking(order), eight, cons)


def test_position_diff_zero_on_merit(eight, eight_model):
    assert np.array_equal(eight_model.values(merit_ranking(eight)), np.zeros(8))
    assert eight_model.integer_valued


def test_position_diff_single_swap(eight, eight_model):
    r = Ranking.from_ids(eight, ["u2", "u1", "u3", "u4", "u5", "u6", "u7", "u8"])
    vals = eight_model.values(r)
    assert vals[eight.ids.index("u1")] == -1
    assert vals[eight.ids.index("u2")] == 1
    assert vals.sum() == 0


def test_log_ratio_values(eight):
    model = ValueModel.log_ratio(eight)
    r = merit_ranking(eight)
    assert np.allclose(model.values(r), 0.0)
    swapped = Ranking.from_ids(
        eight, ["u2", "u1", "u3", "u4", "u5", "u6", "u7", "u8"]
    )
    vals = model.values(swapped)
    assert vals[eight.ids.index("u1")] == pytest.approx(-np.log(2))
    assert vals[eight.ids.index("u2")] == pytest.approx(np.log(2))
    assert not model.integer_valued


def test_top_k_values(eight):
    model = ValueModel.top_k_selection(eight, k=4)
    r = Ranking.from_ids(eight, ["u1", "u2", "u3", "u6", "u4", "u7", "u5", "u8"])
    vals = model.values(r)
    assert vals[eight.ids.index("u6")] == 1
    assert vals[eight.ids.index("u4")] == -1
    assert vals[eight.ids.index("u1")] == 0
    assert set(np.unique(vals)) <= {-1.0, 0.0, 1.0}


def test_custom_model_requires_nonincreasing_positions(eight):
    with pytest.raises(ValueError):
        ValueModel.custom(
            position_scores=[1.0, 2.0] + [0.0] * 6,
            merit_scores=[0.0] * 8,
        )


def test_value_model_refuses_non_finite_scores():
    """A NaN or infinite score is refused at construction, not reported by
    the solve as a bad weight; an empty model still builds."""
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="must be finite"):
            ValueModel.custom([bad, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="must be finite"):
            ValueModel.custom([1.0, 0.0], [0.0, bad])
    assert ValueModel.custom([], []).n == 0


@pytest.mark.parametrize("position_scores, merit_scores", [
    ([1e308, -1e308], [-1e308, 1e308]),
    ([1e308, -1e308], [0.0, 0.0]),
    ([0.0, 0.0], [-1e308, 1e308]),
])
def test_value_model_refuses_a_range_of_infinite_width(position_scores, merit_scores):
    """Finite scores whose values, or the gaps between them, overflow are
    refused at construction, without a numpy overflow warning, instead of
    reaching the metrics as inf and nan or the solve as bad weights."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite width"):
            ValueModel.custom(position_scores, merit_scores)
    edge = ValueModel.custom([1e308, 0.0], [0.0, 0.0])
    assert edge.values(Ranking([1, 0])).tolist() == [0.0, 1e308]


@pytest.mark.parametrize("build", [
    lambda inst: ValueModel.custom([2.0, 1.0, 0.0], [0.0, 0.0]),
    lambda inst: ValueModel.top_k_selection(inst, 0),
    lambda inst: ValueModel.top_k_selection(inst, 9),
])
def test_value_model_refuses_scores_that_do_not_fit(eight, build):
    with pytest.raises(ValueError, match="equal length n|between 1 and n"):
        build(eight)


def test_values_matches_value_pointwise(eight):
    model = ValueModel.log_ratio(eight)
    r = Ranking.from_ids(eight, ["u3", "u1", "u2", "u6", "u4", "u7", "u5", "u8"])
    vals = model.values(r)
    for idx in range(eight.n):
        pos = r.position[idx]
        assert vals[idx] == pytest.approx(
            model.position_scores[pos - 1] - model.merit_scores[idx]
        )


def test_values_refuse_a_ranking_of_another_length(eight, eight_model):
    for order in ([0], [0, 1, 2], list(range(9))):
        with pytest.raises(ValueError, match="positions, the value model 8"):
            eight_model.values(Ranking(order))


def test_floor_balanced_lower_bounds(eight, eight_lower):
    for g in range(2):
        assert list(np.array(eight_lower.lower)[g]) == [0, 0, 1, 2, 2, 3, 3, 4]
    assert not eight_lower.upper_only


def test_floor_balanced_needs_two_groups():
    inst = Instance.from_rows([("a", "X", 0.9), ("b", "Y", 0.8), ("c", "Z", 0.7)])
    with pytest.raises(ValueError):
        floor_balanced_constraints(inst)


def test_conversion_uppers_golden(eight_upper):
    assert eight_upper.upper_only
    for g in range(2):
        assert list(np.array(eight_upper.upper)[g]) == [1, 2, 2, 2, 3, 3, 4, 4]


def test_conversion_preserves_valid_set(eight, eight_lower, eight_upper):
    before = {
        perm
        for perm in permutations(range(8))
        if is_valid(Ranking(perm), eight, eight_lower)
    }
    after = {
        perm
        for perm in permutations(range(8))
        if is_valid(Ranking(perm), eight, eight_upper)
    }
    assert before == after
    assert len(before) == 13824


def test_conversion_rejects_three_group_lowers():
    inst = Instance.from_rows(
        [("a", "X", 0.9), ("b", "Y", 0.8), ("c", "Z", 0.7)]
    )
    lower = np.zeros((3, 3), dtype=int)
    lower[0, 2] = 1
    cons = ConstraintSet(np.array(ConstraintSet.vacuous(inst).upper), lower)
    assert cons.release is None
    model = ValueModel.position_diff(inst)
    entry_points = [
        lambda: to_upper_only(cons, inst),
        lambda: is_feasible(inst, cons),
        lambda: max_total_value(inst, cons, model, [0, 1, 2]),
        lambda: deterministic_baseline(inst, cons),
        lambda: solve_maxmin(inst, cons, model),
        lambda: fair_decomposition(inst, cons, model),
    ]
    for call in entry_points:
        with pytest.raises(ValueError, match="three or more groups cannot"):
            call()


def test_conversion_drops_single_group_lowers():
    inst = Instance.from_rows([("a", "X", 0.9), ("b", "X", 0.8)])
    cons = ConstraintSet([[1, 2]], [[0, 2]])
    converted = to_upper_only(cons, inst)
    assert converted.upper_only
    assert is_feasible(inst, converted)


def test_ceil_alpha_exact_at_rational_boundaries():
    inst = Instance.from_rows(
        [(f"u{i}", "AB"[i % 2], 1.0 - i / 100) for i in range(10)]
    )
    cons = ceil_alpha_constraints(inst, 0.3, "B")
    g = inst.group_index("B")
    assert list(np.array(cons.lower)[g]) == [0, 0, 0, 1, 1, 1, 2, 2, 2, 2]


def test_rule_objects_build_like_the_rule_functions(eight):
    by_rule = load_constraints(eight, {"rule": "ceil-alpha", "alpha": 0.3, "protected": "F"})
    direct = ceil_alpha_constraints(eight, 0.3, "F")
    assert by_rule == direct
    balanced = load_constraints(eight, {"rule": "floor-balanced"})
    assert balanced == floor_balanced_constraints(eight)
    with pytest.raises(ValueError):
        load_constraints(eight, {"rule": "no-such-rule"})


@pytest.mark.parametrize("fields, message", [
    ({"protected": "F"}, "the ceil-alpha rule needs alpha"),
    ({"alpha": 0.3}, "the ceil-alpha rule needs a protected group"),
    ({"alpha": -0.1, "protected": "F"}, r"alpha must lie in \[0, 1\]"),
    ({"alpha": 1.5, "protected": "F"}, r"alpha must lie in \[0, 1\]"),
    ({"alpha": 0.3, "protected": "X"}, "unknown group label 'X'"),
    ({"alpha": 0.3, "protected": 2}, "group index 2 out of range"),
    ({"alpha": 0.3, "protected": -1}, "group index -1 out of range"),
])
def test_ceil_alpha_rule_refuses_bad_fields(eight, fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_constraints(eight, {"rule": "ceil-alpha", **fields})


def _assert_same_set(built, want):
    assert (built.upper, built.lower, built.release, built.upper_only) == (
        want.upper, want.lower, want.release, want.upper_only,
    )
    assert hash(built) == hash(want)


def _two_step(inst, lower):
    """The construction the builders replace: a whole vacuous set, then a
    second set from its caps and the raw floors."""
    return ConstraintSet(ConstraintSet.vacuous(inst).upper, lower)


def test_builders_match_the_two_step_construction(eight):
    three = Instance.from_rows((f"u{i}", "ABC"[i % 3], 1.0 - i / 10) for i in range(9))
    for inst, label, alpha, start_k in (
        (eight, "F", 0.3, 1), (eight, "M", 0.5, 4), (three, "B", 0.25, 2),
    ):
        floors = [[0] * inst.n for _ in range(inst.n_groups)]
        floors[inst.group_index(label)] = [
            max(0, math.ceil(Fraction(str(alpha)) * i - 1)) if i >= start_k else 0
            for i in range(1, inst.n + 1)
        ]
        built = ceil_alpha_constraints(inst, alpha, label, start_k)
        _assert_same_set(built, _two_step(inst, floors))
        assert not built.upper_only
    for start_k in (0, 3, 6):
        row = [i // 2 if i >= start_k else 0 for i in range(1, 9)]
        _assert_same_set(
            floor_balanced_constraints(eight, start_k), _two_step(eight, [row, row])
        )
    cap_m, floor_f = [1, 1, 2, 2, 2, 3, 3, 4], [0, 1, 1, 2, 2, 3, 3, 4]
    loaded = load_constraints(eight, {"upper": {"M": cap_m}, "lower": {"F": floor_f}})
    caps = [list(row) for row in ConstraintSet.vacuous(eight).upper]
    caps[eight.group_index("M")] = cap_m
    floors = [[0] * 8, [0] * 8]
    floors[eight.group_index("F")] = floor_f
    _assert_same_set(loaded, ConstraintSet(caps, floors))
    assert not loaded.upper_only and loaded.release is not None


def test_floors_without_a_positive_entry_build_an_upper_only_set(eight, eight_upper):
    caps = eight_upper.upper
    sets = [
        ConstraintSet(caps, lower)
        for lower in (None, [[0] * 8] * 2, [[-1] * 8, [-(2**40)] * 8])
    ]
    for built in sets:
        assert built.upper_only and built.lower == ((0,) * 8,) * 2
        _assert_same_set(built, sets[0])
    assert sets[0].release == eight_upper.release


def test_bounds_past_int64_raise_value_error():
    """Like every other bad bound, and unlike numpy's ``OverflowError``."""
    tables = [
        ([[10**30, 1]], None, "upper"),
        ([[1, 1]], [[-(10**30), 0]], "lower"),
    ]
    for upper, lower, name in tables:
        with pytest.raises(ValueError, match=f"^{name} bounds must fit in 64-bit integers$"):
            ConstraintSet(upper, lower)


@pytest.mark.parametrize("upper, lower, message", [
    ([1, 2, 3], None, "upper bounds must be a groups x positions table"),
    ([[1, 2, 3]], [[0, 1]], "lower bounds must match the upper-bound shape"),
    ([[1, 2, 3]], [[0, 1, 1], [0, 0, 1]], "lower bounds must match the upper-bound shape"),
])
def test_bound_tables_of_the_wrong_shape_are_refused(upper, lower, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ConstraintSet(upper, lower)


def test_infeasible_lower_exceeds_upper():
    inst = Instance.from_rows([("a", "X", 0.9), ("b", "Y", 0.8)])
    upper = [[0, 1], [1, 1]]
    lower = [[1, 1], [0, 0]]
    with pytest.raises(InfeasibleConstraints):
        ConstraintSet(upper, lower)


@given(
    st.lists(st.sampled_from("FM"), min_size=1, max_size=8),
    st.integers(0, 1000),
    st.integers(1, 5),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_ceil_alpha_sets_that_build_are_feasible(groups, permille, start_k, data):
    """A ceil-alpha set with a decimal alpha is either refused when it is
    built or admits a ranking, so callers need no feasibility check of
    their own."""
    inst = Instance.from_rows(
        (f"u{i}", g, 1.0 - i / 10) for i, g in enumerate(groups)
    )
    protected = data.draw(st.sampled_from(groups))
    try:
        cons = ceil_alpha_constraints(inst, permille / 1000, protected, start_k)
    except InfeasibleConstraints:
        return
    assert is_feasible(inst, cons)


def test_is_feasible_counts_group_capacity(eight):
    uppers = np.array(ConstraintSet.vacuous(eight).upper)
    uppers[0, :] = 0
    uppers[1, :] = np.minimum(np.arange(1, 9), 4)
    assert not is_feasible(eight, ConstraintSet(uppers))
    assert is_feasible(eight, ConstraintSet.vacuous(eight))


@st.composite
def raw_bound_tables(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    inst = random_instance(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n=n, groups=2
    )
    t = inst.n_groups
    rows = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=n), min_size=n, max_size=n),
            min_size=t,
            max_size=t,
        )
    )
    return inst, rows


@given(raw_bound_tables())
@settings(max_examples=60, deadline=None)
def test_normalization_preserves_satisfying_set(data):
    inst, rows = data
    n = inst.n
    cleaned = ConstraintSet(rows)
    raw = np.array(rows)
    for g in range(inst.n_groups):
        normalized = np.array(cleaned.upper)[g]
        assert all(0 <= normalized[i] <= i + 1 for i in range(n))
        assert all(normalized[i] <= normalized[i + 1] for i in range(n - 1))
        assert all(normalized[i + 1] - normalized[i] <= 1 for i in range(n - 1))
    for perm in permutations(range(n)):
        counts = np.zeros(inst.n_groups, dtype=int)
        ok_raw = True
        for i, u in enumerate(perm):
            counts[inst.group_of[u]] += 1
            if (counts > np.minimum(raw[:, i], i + 1)).any():
                ok_raw = False
                break
        assert ok_raw == is_valid(Ranking(perm), inst, cleaned)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_random_upper_constraints_stay_feasible(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, groups=2, max_n=6)
    cons = random_upper_constraints(rng, inst)
    assert cons.upper_only
    assert is_feasible(inst, cons)
    assert any(
        is_valid(Ranking(perm), inst, cons) for perm in permutations(range(inst.n))
    )


def test_vectorized_repair_matches_the_loops():
    """The running-extremum bound repair equals the prefix-by-prefix loops,
    with entries below zero and above the prefix length included."""
    rng = np.random.default_rng(11)
    for _ in range(2000):
        n = int(rng.integers(1, 31))
        t = int(rng.integers(1, 4))
        rows = rng.integers(-3, n + 4, size=(t, n))
        assert np.array_equal(_normalize_upper(rows, n), normalize_upper_loops(rows, n))
        assert np.array_equal(_normalize_lower(rows, n), normalize_lower_loops(rows, n))


def test_floor_repair_takes_int64_extremes():
    """A floor near the int64 minimum clamps to zero; taken from the prefix
    length before the clamp, it would wrap to a floor of the whole prefix."""
    low, high = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    rows = [[1, low, high, 0], [0, 0, 0, low + 2]]
    cons = ConstraintSet([[4] * 4] * 2, rows)
    assert cons.lower == ((1, 2, 3, 3), (0, 0, 0, 0))
    assert np.array_equal(np.array(cons.lower), normalize_lower_loops(np.array(rows), 4))


@st.composite
def lower_bounded_sets(draw):
    """A one- or two-group roster of n <= 7 with raw upper and lower tables,
    or with a ``ceil-alpha`` or ``floor-balanced`` rule's bounds."""
    n = draw(st.integers(1, 7))
    two = n > 1 and draw(st.integers(0, 3)) > 0
    split = draw(st.integers(1, n - 1)) if two else n
    groups = draw(st.permutations([0] * split + [1] * (n - split)))
    scores = draw(st.lists(st.sampled_from([0.1, 0.4, 0.7, 1.0]), min_size=n, max_size=n))
    inst = Instance((f"u{i}", str(g), s) for i, (g, s) in enumerate(zip(groups, scores)))
    kind = draw(st.sampled_from(["tables", "ceil-alpha", "floor-balanced"]))
    start_k = draw(st.integers(1, 4))
    alpha = draw(st.sampled_from([0.2, 0.25, 0.3, 0.5, 0.6]))
    group = draw(st.integers(0, inst.n_groups - 1))
    t = inst.n_groups
    upper = [[i + 1 - draw(st.integers(0, 2)) for i in range(n)] for _ in range(t)]
    lower = [[draw(st.integers(0, (i + 1) // 2 + 1)) for i in range(n)] for _ in range(t)]
    try:
        if kind == "ceil-alpha":
            return inst, ceil_alpha_constraints(inst, alpha, group, start_k)
        if kind == "floor-balanced" and two:
            return inst, floor_balanced_constraints(inst, start_k)
        return inst, ConstraintSet(upper, lower)
    except InfeasibleConstraints:
        reject()


@given(lower_bounded_sets())
@settings(max_examples=150, deadline=None)
def test_lower_bounds_match_their_upper_only_form(data):
    """A set with one- or two-group floors fills, tests feasibility and
    admits rankings exactly as its upper-only rewrite does, and
    ``enumerate_valid_rankings``, which reads the floors directly, is the
    independent reference."""
    inst, raw = data
    converted = to_upper_only(raw, inst)
    assert converted.upper_only
    assert raw.release == converted.release
    feasible = is_feasible(inst, raw)
    assert feasible == is_feasible(inst, converted)
    valid = enumerate_valid_rankings(inst, raw)
    assert valid == enumerate_valid_rankings(inst, converted)
    assert feasible == bool(valid)


def test_release_is_the_first_admitting_position():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 21))
        cons = ConstraintSet(rng.integers(-1, n + 2, size=(int(rng.integers(1, 4)), n)))
        for row, release in zip(cons.upper, cons.release):
            want = [
                next((i for i in range(n) if row[i] >= j + 1), n) for j in range(n)
            ]
            assert list(release) == want


def test_eight_rows_fixture_matches_module_doc(eight):
    assert [row[0] for row in EIGHT_ROWS] == list(eight.ids)
