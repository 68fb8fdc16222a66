"""Minimum-norm-point solver: answers, certificates, stalls, sampling."""

import dataclasses
import logging

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import fairrank.core
import fairrank.solver
from fairrank.core import _FLOAT_TIE_TOL
from fairrank import (
    ConstraintSet,
    FairDistribution,
    Instance,
    InfeasibleConstraints,
    IterationCapExceeded,
    Ranking,
    SolverConfig,
    ValueModel,
    ceil_alpha_constraints,
    deterministic_baseline,
    enumerate_valid_rankings,
    fair_decomposition,
    is_valid,
    max_total_value,
    sample,
    solve_maxmin,
)
from fairrank.cli import load_constraints
from fairrank.solver import _affine_weights, _bordered, _without

from conftest import random_instance, random_upper_constraints, ranking_cases
from spot_checks import best_response


def test_config_validation():
    for epsilon in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="positive and finite"):
            SolverConfig(epsilon=epsilon)
    fields = [f.name for f in dataclasses.fields(SolverConfig)]
    assert fields == ["epsilon"]


@pytest.fixture(scope="module")
def eight_solution(eight, eight_upper, eight_model):
    return solve_maxmin(eight, eight_upper, eight_model)


def test_solution_matches_known_targets(eight, eight_solution):
    expected = eight_solution.expected_by_id()
    targets = {
        "u1": -0.75, "u2": -0.75, "u4": -0.75, "u5": -0.75,
        "u3": 0.0, "u6": 1.0, "u7": 1.0, "u8": 1.0,
    }
    for u, target in targets.items():
        assert expected[u] == pytest.approx(target, abs=0.01), u


def test_solution_phases_and_support(eight, eight_upper, eight_solution):
    phases = eight_solution.lambda_phases
    assert [round(l, 2) for l in phases] == [-0.75, 0.0, 1.0]
    assert sum(p for _, p in eight_solution.support) == pytest.approx(1.0)
    assert all(is_valid(r, eight, eight_upper) for r, _ in eight_solution.support)
    assert eight_solution.oracle_calls > 0
    assert eight_solution.epsilon == 0.01
    assert repr(eight_solution).startswith("FairDistribution(support=")


def test_solution_conserves_mean_satisfaction(eight_solution):
    assert float(eight_solution.expected.mean()) == pytest.approx(0.0, abs=1e-9)


def test_solver_is_deterministic(eight, eight_upper, eight_model):
    config = SolverConfig(epsilon=0.05)
    a = solve_maxmin(eight, eight_upper, eight_model, config)
    b = solve_maxmin(eight, eight_upper, eight_model, config)
    assert [r.order for r, _ in a.support] == [r.order for r, _ in b.support]
    assert [p for _, p in a.support] == [p for _, p in b.support]


def test_log_ratio_solve_matches_decomposition():
    rng = np.random.default_rng(41)
    inst = random_instance(rng, n=5, groups=2)
    cons = random_upper_constraints(rng, inst)
    model = ValueModel.log_ratio(inst)
    dist = solve_maxmin(inst, cons, model, SolverConfig(epsilon=0.01))
    dec = fair_decomposition(inst, cons, model)
    gap = np.sort(dist.expected) - np.sort(dec.targets)
    assert np.abs(gap).max() <= 0.01


def test_custom_ties_reach_the_optimum_quickly():
    """Tied position scores once made the solver spend 2.4M oracle calls
    and return a sorted vector 1.43 from the optimum."""
    rows = [
        ("u1", "C", 0.5011), ("u2", "C", 0.0996), ("u3", "C", 0.2221),
        ("u4", "C", 0.5935), ("u5", "C", 0.649), ("u6", "A", 0.9119),
        ("u7", "A", 0.6485), ("u8", "A", 0.8972), ("u9", "B", 0.0534),
    ]
    inst = Instance.from_rows(rows)
    cons = load_constraints(inst, {"upper": {
        "A": [1, 0, 3, 1, 1, 3, 3, 4, 5],
        "B": [2, 1, 2, 1, 1, 1, 3, 3, 3],
        "C": [0, 3, 1, 4, 5, 4, 6, 6, 5],
    }})
    f = [15, 14, 11, 10, 10, 9, 7, 0, 0]
    model = ValueModel.custom(f, [f[p - 1] for p in inst.merit_position])
    dist = solve_maxmin(inst, cons, model, SolverConfig(epsilon=0.01))
    dec = fair_decomposition(inst, cons, model)
    gap = np.sort(dist.expected) - np.sort(dec.targets)
    assert np.abs(gap).max() <= 0.01
    assert dist.oracle_calls < 1000


def _width(model):
    return model.position_scores[0] - model.position_scores[-1]


def _matches_exact_decomposition(inst, cons, model, eps=0.01):
    dist = solve_maxmin(inst, cons, model, SolverConfig(epsilon=eps))
    dec = fair_decomposition(inst, cons, model)
    assert np.abs(np.sort(dist.expected) - np.sort(dec.targets)).max() <= eps
    if _width(model) <= eps:
        assert dist.oracle_calls == 1
    probs = [p for _, p in dist.support]
    assert len(probs) <= inst.n
    assert min(probs) > 1e-12
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)
    assert all(is_valid(r, inst, cons) for r, _ in dist.support)


@given(ranking_cases(), st.sampled_from([None, 0.5, 0.75, 0.999, 1.0, 2.0]))
@settings(max_examples=300, deadline=None)
def test_solve_matches_exact_decomposition(case, scale):
    """Sorted vector within epsilon of the exact decomposition, and the
    support is the final active set: at most n atoms, none below the
    affine-weight dust, mass one.  Epsilon is 0.01 or a multiple of the
    model's range width (1e-3 for a zero width), so some solves end on the
    width at their first vertex and some on a gap between half the width
    and the width."""
    inst, cons, model = case
    eps = 0.01 if scale is None else scale * max(_width(model), 1e-3)
    _matches_exact_decomposition(inst, cons, model, eps)


@given(ranking_cases(min_n=8, max_n=30, floors=True))
@settings(max_examples=150, deadline=None)
def test_solve_matches_exact_decomposition_in_the_tens(case):
    """The same contract at n 8-30, with floors on one- and two-group
    rosters, against the count-vector decomposition."""
    _matches_exact_decomposition(*case)


def _solve_logged(caplog, inst, cons, model, eps):
    """One solve and the ``stop`` and ``bound`` of its INFO line, the bound
    unrounded: the float the line prints to six digits."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="fairrank.solver"):
        dist = solve_maxmin(inst, cons, model, SolverConfig(epsilon=eps))
    (record,) = [r for r in caplog.records if r.name == "fairrank.solver"]
    fields = dict(item.split("=") for item in record.getMessage().split()[1:])
    bound = record.args[-2]
    assert f"{bound:.6g}" == fields["bound"]
    return dist, fields["stop"], bound


def _rescued_bound(dist, cons, model):
    """What a stall rescued by the exact levels reports as its bound: the
    returned distribution's largest distance from them, plus the tie margin
    of a model that is not integer-valued.  It is read off the atoms'
    average, so a rescue that certified another point misses it."""
    targets = fair_decomposition(dist.instance, cons, model).targets
    error = float(np.abs(dist.expected - targets).max())
    if not model.integer_valued:
        error += _FLOAT_TIE_TOL * max(1.0, float(np.abs(targets).max()))
    return error


def _ceil_roster(n):
    """n people, 30% of them protected (B) and drawn lower: majority scores
    U(0.3, 1), protected U(0, 0.7), under ceil-0.3 floors."""
    rng = np.random.default_rng(0)
    p = round(0.3 * n)
    majority = rng.uniform(0.3, 1.0, n - p)
    protected = rng.uniform(0.0, 0.7, p)
    rows = [(f"a{i + 1}", "A", float(s)) for i, s in enumerate(majority)]
    rows += [(f"b{i + 1}", "B", float(s)) for i, s in enumerate(protected)]
    inst = Instance.from_rows(rows)
    return inst, ceil_alpha_constraints(inst, 0.3, "B")


@pytest.mark.parametrize("n, kind, eps", [
    (80, "position-diff", 0.01),
    (160, "position-diff", 0.5),
    (160, "log-ratio", 0.01),
    (160, "position-diff", 0.01),
    (320, "position-diff", 0.01),
    (640, "position-diff", 0.01),
])
def test_solve_matches_exact_levels_at_bench_scale(n, kind, eps, caplog):
    """Sorted vector within epsilon of the exact levels on ceil-0.3 rosters
    past the reach of the subset scan.  Position-diff at 0.01 stalls from
    n=160 on, at a major cycle that does not shorten ``x``, within far less
    than epsilon of the exact levels; the exact levels certify the point
    the atoms average to, and the INFO line's bound is its error."""
    inst, cons = _ceil_roster(n)
    if kind == "position-diff":
        model = ValueModel.position_diff(inst)
    else:
        model = ValueModel.log_ratio(inst)
    dist, stop, bound = _solve_logged(caplog, inst, cons, model, eps)
    targets = fair_decomposition(inst, cons, model).targets
    assert np.abs(np.sort(dist.expected) - np.sort(targets)).max() <= eps
    assert (stop == "exact") == (n >= 160 and kind == "position-diff" and eps == 0.01)
    if stop == "exact":
        assert bound == pytest.approx(_rescued_bound(dist, cons, model), rel=0, abs=1e-9)


def test_degenerate_model_solves_at_once():
    inst = Instance.from_rows([("a", "g", 0.9), ("b", "h", 0.5), ("c", "g", 0.1)])
    model = ValueModel.custom([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    dist = solve_maxmin(inst, ConstraintSet.vacuous(inst), model)
    assert dist.expected.tolist() == [0.0, 0.0, 0.0]
    assert dist.oracle_calls == 1
    assert dist.lambda_phases == (0.0,)


def test_infeasible_caps_raise_the_solver_message(eight, eight_model):
    """Caps of one M and two F in every prefix pass construction but cover
    only three positions.  Every library entry point's first fill, and the
    test helpers' weighted oracle, leaves position 4 empty and reports it
    in the same words, with no chained cause."""
    message = (
        "no valid ranking satisfies the bounds: "
        "no group may take position 4 without exceeding its cap"
    )
    tight = ConstraintSet([[1] * 8, [2] * 8])
    calls = [
        lambda: solve_maxmin(eight, tight, eight_model),
        lambda: best_response(eight, tight, eight_model, np.arange(8.0)),
        lambda: deterministic_baseline(eight, tight),
        lambda: fair_decomposition(eight, tight, eight_model),
        lambda: max_total_value(eight, tight, eight_model, [0]),
    ]
    for call in calls:
        with pytest.raises(InfeasibleConstraints) as raised:
            call()
        assert str(raised.value) == message
        assert raised.value.__cause__ is None


def test_flat_first_vertex_ends_without_a_second_call(eight, caplog):
    """Under vacuous caps the first vertex is the merit ranking, which gives
    everyone value 0.  Every vertex has the same sum, so the gap at a flat
    ``x`` is 0 and the solve stops after one oracle call."""
    cons = ConstraintSet.vacuous(eight)
    for model in (
        ValueModel.position_diff(eight),
        ValueModel.log_ratio(eight),
        ValueModel.top_k_selection(eight, 3),
    ):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="fairrank.solver"):
            dist = solve_maxmin(eight, cons, model)
        assert dist.oracle_calls == 1
        assert dist.expected.tolist() == [0.0] * 8
        assert dist.lambda_phases == (0.0,)
        (line,) = [r.getMessage() for r in caplog.records if r.name == "fairrank.solver"]
        assert "oracle_calls=1 " in line
        assert line.endswith(" bound=0 stop=gap")


def test_worked_example_oracle_calls_by_epsilon(eight, eight_upper, eight_model):
    """A solve makes a further oracle call unless ``x`` is flat or, at the
    first vertex, the range width (7 here) is within epsilon, as at 10.
    Stopping on the oracle-free bound ``|x - mean(x)|`` as well would also
    be valid, but cuts these counts to ``[6, 4, 3, 1, 1]``, so they no
    longer shrink strictly with epsilon."""
    calls = [
        solve_maxmin(eight, eight_upper, eight_model, SolverConfig(epsilon=eps)).oracle_calls
        for eps in (0.5, 1.0, 2.0, 5.0, 10.0)
    ]
    assert calls == [6, 4, 3, 2, 1]


def test_box_bound_ends_a_loose_worked_example(eight, eight_upper, eight_model, caplog):
    """Every position-diff range of the eight is 7 wide.  At epsilon 10
    that width ends the solve at the first vertex; at 5 it does not, and
    the second call's gap does."""
    for eps, calls, tail in ((10.0, 1, " bound=7 stop=box"), (5.0, 2, " stop=gap")):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="fairrank.solver"):
            solve_maxmin(eight, eight_upper, eight_model, SolverConfig(epsilon=eps))
        (line,) = [r.getMessage() for r in caplog.records if r.name == "fairrank.solver"]
        assert f" oracle_calls={calls} " in line
        assert line.endswith(tail)


def test_half_width_epsilon_ends_on_the_gap(caplog):
    """Two people, position scores 2 and 0, equal merit offsets: every
    range is 2 wide, so at epsilon 1, half the width, the first vertex does
    not end the solve.  The second call's gap is 2; the second vertex
    mirrors the first, the affine step lands on the midpoint (1, 1) less
    the offset, and that flat ``x`` ends the solve with a gap of 0.
    Offsets of 2**20, about 1e6 above the range (a power of two, so every
    value stays exact), and an epsilon just below 1 end the same way.  An
    empty model still constructs."""
    inst = Instance.from_rows([("a", "A", 0.9), ("b", "B", 0.1)])
    cons = ConstraintSet.vacuous(inst)
    for offset, eps in ((0.0, 1.0), (2.0**20, 1.0), (0.0, 1.0 - 1e-12)):
        model = ValueModel.custom([2.0, 0.0], [offset, offset])
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="fairrank.solver"):
            dist = solve_maxmin(inst, cons, model, SolverConfig(epsilon=eps))
        (line,) = [r.getMessage() for r in caplog.records if r.name == "fairrank.solver"]
        assert " oracle_calls=2 " in line
        assert line.endswith(" bound=0 stop=gap")
        assert dist.expected.tolist() == [1.0 - offset] * 2
    empty = ValueModel.custom([], [])
    assert empty.n == 0


def test_iteration_cap_raises(eight, eight_upper, eight_model, monkeypatch):
    assert fairrank.solver._ORACLE_CALL_CAP == 50_000_000
    monkeypatch.setattr(fairrank.solver, "_ORACLE_CALL_CAP", 1)
    # The cap stops the second call, before any gap: the bound is the width.
    with pytest.raises(
        IterationCapExceeded,
        match=r"cap of 1 oracle calls after 1 oracle calls, "
        r"certified bound 7 > epsilon 0\.01$",
    ):
        solve_maxmin(eight, eight_upper, eight_model)


def _lstsq_affine_minimizer(points):
    """Reference: the minimum-norm point of the affine hull as
    ``points[0] + sum_i beta_i (points[i] - points[0])`` by least squares."""
    base = points[0]
    beta = np.linalg.lstsq((points[1:] - base).T, -base, rcond=None)[0]
    return np.concatenate(([1.0 - beta.sum()], beta))


def _grown(points):
    """The maintained inverse for ``points``, bordered one row at a time."""
    inverse = np.array([[1.0 / (points[0] @ points[0] + 1.0)]])
    for k in range(1, len(points)):
        inverse = _bordered(inverse, points[:k], points[k])
    return inverse


def test_maintained_inverse_matches_least_squares():
    """Random add/drop sequences with at most n rows in n dimensions, as in
    a solve, whose vertices share one total and so span at most n - 1
    affine dimensions.  A downdated inverse keeps the rounding of the
    larger matrix it came from, so the residual is judged against the
    worst condition number met so far in the sequence."""
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(2, 25))
        scale = rng.uniform(0.1, 40.0)
        points = rng.normal(size=(1, n)) * scale
        inverse = _grown(points)
        worst_cond = 1.0
        for _ in range(12):
            if len(points) < n and rng.random() < 0.6:
                q = rng.normal(size=n) * scale
                inverse = _bordered(inverse, points, q)
                points = np.concatenate((points, q[None, :]))
            elif len(points) > 1:
                keep = rng.random(len(points)) < 0.7
                keep[rng.integers(len(points))] = True
                inverse = _without(inverse, keep)
                points = points[keep]
            gram = points @ points.T + 1.0
            worst_cond = max(worst_cond, np.linalg.cond(gram))
            residual = np.abs(inverse @ gram - np.eye(len(points))).max()
            assert residual <= 1e3 * np.finfo(float).eps * worst_cond
            alpha = _affine_weights(inverse, points)
            assert alpha.sum() == pytest.approx(1.0, abs=1e-12)
            if len(points) > 1:
                reference = _lstsq_affine_minimizer(points)
                assert np.abs(alpha - reference).max() <= 1e-9
    one = rng.normal(size=(1, 6))
    assert _affine_weights(_grown(one), one) == pytest.approx([1.0], abs=1e-12)
    # A row within 1e-3 of the midpoint of two others: the weights are
    # ill-determined along the near dependency, the point is not.
    points = rng.normal(size=(5, 12))
    near = 0.5 * (points[0] + points[1]) + 1e-3 * rng.normal(size=12)
    points = np.vstack((points, near))
    alpha = _affine_weights(_grown(points), points)
    assert alpha.sum() == pytest.approx(1.0, abs=1e-12)
    reference = _lstsq_affine_minimizer(points) @ points
    assert np.abs(alpha @ points - reference).max() <= 1e-9
    # The midpoint itself is affinely dependent: bordering refuses it.
    mid = 0.5 * (points[0] + points[1])
    assert _bordered(_grown(points[:5]), points[:5], mid) is None


def _count_calls(monkeypatch, module, name):
    seen = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        seen.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return seen


def test_one_weight_sort_per_oracle_call(eight, eight_upper, eight_model, monkeypatch):
    """The solver sorts its weights once per oracle call and hands the
    order to ``_vertex``; the package has no weighted oracle to sort
    again through."""
    rng = np.random.default_rng(21)
    inst = random_instance(rng, n=9, groups=3)
    cons = random_upper_constraints(rng, inst)
    cases = [
        (eight, eight_upper, eight_model),
        (inst, cons, ValueModel.log_ratio(inst)),
    ]
    for module in (fairrank.core, fairrank.solver):
        assert not hasattr(module, "weight_order_key")
    for instance, constraints, model in cases:
        vertices = _count_calls(monkeypatch, fairrank.solver, "_vertex")
        dist = solve_maxmin(instance, constraints, model)
        assert dist.oracle_calls > 1
        assert len(vertices) == dist.oracle_calls


def test_singular_active_set_raises(eight, eight_upper, eight_model, monkeypatch):
    """The second vertex is moved to within 1e-9 of the first, along the
    direction the oracle found: the gap stays positive, so the solve goes
    on, but the new vertex is affinely dependent on the active set to
    float resolution."""
    calls = []
    real = fairrank.solver._vertex

    def dependent(instance, constraints, model, order):
        ranking, values = real(instance, constraints, model, order)
        calls.append(values)
        if len(calls) == 2:
            first = calls[0]
            return ranking, first + 1e-9 * (values - first)
        return ranking, values

    monkeypatch.setattr(fairrank.solver, "_vertex", dependent)
    with pytest.raises(IterationCapExceeded, match="singular active set"):
        solve_maxmin(eight, eight_upper, eight_model, SolverConfig(epsilon=1e-8))
    assert len(calls) == 2


def test_returned_active_vertex_raises(eight, eight_upper, eight_model, monkeypatch):
    """The second call hands back the first ranking's order with the new
    values: the gap stays positive, so the solve goes on, but the vertex
    is already active."""
    calls = []
    real = fairrank.solver._vertex

    def repeated(instance, constraints, model, order):
        ranking, values = real(instance, constraints, model, order)
        calls.append(ranking)
        return calls[0], values

    monkeypatch.setattr(fairrank.solver, "_vertex", repeated)
    with pytest.raises(
        IterationCapExceeded,
        match=r"the oracle returned an active vertex after 2 oracle calls, "
        r"certified bound \S+ > epsilon 1e-08",
    ):
        solve_maxmin(eight, eight_upper, eight_model, SolverConfig(epsilon=1e-8))
    assert len(calls) == 2


def test_unshortened_major_cycle_raises(eight, eight_upper, eight_model, monkeypatch):
    """Affine weights that all clear the dust, so the drop path never runs,
    but that put nearly all the mass on the active vertex farthest from
    the origin leave ``x`` no shorter than it was."""

    def farthest(inverse, points):
        alpha = np.full(len(points), 1e-9)
        alpha[np.argmax(np.einsum("ij,ij->i", points, points))] += 1.0 - alpha.sum()
        return alpha

    def no_drops(*args):
        raise AssertionError("the drop path ran")

    monkeypatch.setattr(fairrank.solver, "_affine_weights", farthest)
    monkeypatch.setattr(fairrank.solver, "_without", no_drops)
    with pytest.raises(
        IterationCapExceeded,
        match=r"a major cycle did not shorten x after 2 oracle calls, "
        r"certified bound \S+ > epsilon 1e-08",
    ):
        solve_maxmin(eight, eight_upper, eight_model, SolverConfig(epsilon=1e-8))


def test_box_guard_reads_one_width_where_the_ranges_sit_apart(eight, eight_upper, caplog):
    """Individual u's values lie in ``[f_n - g_u, f_1 - g_u]``, so every
    range has the width ``f_1 - f_n`` however far apart the merit offsets
    ``g`` set them.  With u2's offset 2**20 above the merit offsets, the
    gap ends the solve at epsilon half the width and just below it; at the
    full width the width itself ends the solve at the first vertex."""
    f = [1 / i for i in range(1, 9)]
    g = [f[p - 1] for p in eight.merit_position]
    g[eight.ids.index("u2")] += 2**20
    model = ValueModel.custom(f, g)
    half = 0.5 * (f[0] - f[-1])
    pinned = {
        half: ("4", "0.206207", "gap"),
        half * (1 - 1e-6): ("4", "0.206207", "gap"),
        2 * half: ("1", "0.875", "box"),
    }
    for eps, (calls, bound, stop) in pinned.items():
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="fairrank.solver"):
            solve_maxmin(eight, eight_upper, model, SolverConfig(epsilon=eps))
        (line,) = [r.getMessage() for r in caplog.records if r.name == "fairrank.solver"]
        fields = dict(item.split("=") for item in line.split()[1:])
        assert (fields["oracle_calls"], fields["bound"], fields["stop"]) == (calls, bound, stop)


@pytest.mark.parametrize("person", [f"u{i}" for i in range(1, 9)])
def test_large_offset_on_one_individual_solves(eight, eight_upper, person, caplog):
    """Position scores ``1/i`` (width 0.875), merit offsets taken from them,
    and one person's offset raised by 2**20: at half and three quarters of
    the width the solve lands within epsilon of the exact levels.  With the
    offset on u8 the 2**20 enters the Gram matrix squared, and ``_bordered``
    refuses a vertex that is not affinely dependent, so that solve stalls
    at a singular step and the exact levels certify it; the INFO line's
    bound is the returned vector's error plus the tie margin of a
    non-integer model."""
    f = [1 / i for i in range(1, 9)]
    g = [f[p - 1] for p in eight.merit_position]
    g[eight.ids.index(person)] += 2**20
    model = ValueModel.custom(f, g)
    targets = fair_decomposition(eight, eight_upper, model).targets
    for eps in (0.4375, 0.65625):
        dist, stop, bound = _solve_logged(caplog, eight, eight_upper, model, eps)
        assert np.abs(np.sort(dist.expected) - np.sort(targets)).max() <= eps
        assert (stop == "exact") == (person == "u8")
        if stop == "exact":
            assert bound == pytest.approx(
                _rescued_bound(dist, eight_upper, model), rel=0, abs=1e-9
            )


@pytest.mark.parametrize("top, refused", [(1e200, True), (1e154, True), (1e150, False)])
def test_values_whose_squares_overflow_are_refused_before_the_first_call(
    top, refused, monkeypatch
):
    """Position scores ``[top, 0, 0, 0]`` with merit offsets taken from them,
    and a cap that keeps the merit leader off position 1, give values of
    magnitude ``top``.  Where ``2 n top^2`` overflows, the solve refuses the
    model before its first oracle call instead of meeting inf in ``x . x``
    (a RuntimeWarning, an error under the test suite's filter).  At 1e150
    the check passes: an epsilon of the range width ends that solve at its
    first vertex."""
    inst = Instance.from_rows([("a", "M", 0.9), ("b", "F", 0.8), ("c", "M", 0.7), ("d", "F", 0.6)])
    cons = ConstraintSet([[0, 1, 2, 2], [1, 2, 2, 2]])
    f = [top, 0.0, 0.0, 0.0]
    model = ValueModel.custom(f, [f[p - 1] for p in inst.merit_position])
    calls = _count_calls(monkeypatch, fairrank.solver, "_vertex")
    if refused:
        with pytest.raises(ValueError, match="overflow the solver's sums of squares"):
            solve_maxmin(inst, cons, model)
        assert calls == []
    else:
        solve_maxmin(inst, cons, model, SolverConfig(epsilon=top))
        assert len(calls) == 1


def test_a_stall_names_an_epsilon_below_the_gap_resolution(monkeypatch, caplog):
    """The gap of values of magnitude ``m`` is float noise below about
    ``m sqrt(n) 2**-26``.  On the roster above, scores ``[1e150, 0, 0, 0]``
    at epsilon 0.01 stall, and the message names that resolution.
    ``[1e12, 0, 0, 0]`` at epsilon 1 stalls at such an epsilon too, on an
    active vertex, but its ``x`` is the exact levels bit for bit, and they
    certify it with bound 0, the returned vector's error;
    ``[1e20, 0, 0, 0]`` at 0.01 is below it too, yet its gap ends the solve,
    so such an epsilon is not refused up front.  The ceil-0.3 n=160 stall
    at 0.01 sits far above its resolution of about 3e-5: with the count
    table over its budget, nothing certifies it, and it keeps its message."""
    inst = Instance.from_rows([("a", "M", 0.9), ("b", "F", 0.8), ("c", "M", 0.7), ("d", "F", 0.6)])
    cons = ConstraintSet([[0, 1, 2, 2], [1, 2, 2, 2]])

    def model(top):
        f = [top, 0.0, 0.0, 0.0]
        return ValueModel.custom(f, [f[p - 1] for p in inst.merit_position])

    with pytest.raises(IterationCapExceeded) as stall:
        solve_maxmin(inst, cons, model(1e150), SolverConfig(epsilon=0.01))
    assert str(stall.value).endswith(
        "; epsilon is below about 2.98e+142, the float resolution "
        "of the gap at these values"
    )
    dist, stop, bound = _solve_logged(caplog, inst, cons, model(1e12), 1.0)
    assert dist.expected.tolist() == [-1e12, 5e11, 0.0, 5e11]
    assert (stop, bound) == ("exact", 0.0)
    assert bound == pytest.approx(_rescued_bound(dist, cons, model(1e12)), rel=0, abs=1e-9)
    assert solve_maxmin(inst, cons, model(1e20), SolverConfig(epsilon=0.01)).oracle_calls == 3
    inst, cons = _ceil_roster(160)
    cells = int(np.prod(inst.group_sizes + 1))
    monkeypatch.setattr(fairrank.core, "TABLE_CELL_BUDGET", cells - 1)
    with pytest.raises(IterationCapExceeded) as stall:
        solve_maxmin(inst, cons, ValueModel.position_diff(inst), SolverConfig(epsilon=0.01))
    assert str(stall.value) == (
        "solver stalled: a major cycle did not shorten x after 28 oracle calls, "
        "certified bound 0.013846 > epsilon 0.01"
    )


def test_solve_logs_one_info_line(eight, eight_upper, eight_model, caplog):
    with caplog.at_level(logging.INFO, logger="fairrank.solver"):
        dist = solve_maxmin(eight, eight_upper, eight_model)
    lines = [r.getMessage() for r in caplog.records if r.name == "fairrank.solver"]
    assert len(lines) == 1
    fields = dict(item.split("=") for item in lines[0].split()[1:])
    assert set(fields) == {
        "n", "oracle_calls", "iterations", "support", "max_active", "bound",
        "stop",
    }
    assert int(fields["oracle_calls"]) == dist.oracle_calls
    assert int(fields["support"]) == dist.support_size
    assert dist.support_size <= int(fields["max_active"]) <= eight.n + 1
    assert float(fields["bound"]) <= 0.01
    assert fields["stop"] in {"gap", "box"}


def test_single_individual_instance():
    from fairrank import Instance

    inst = Instance.from_rows([("only", "g", 1.0)])
    model = ValueModel.position_diff(inst)
    dist = solve_maxmin(inst, ConstraintSet.vacuous(inst), model)
    assert dist.support_size == 1
    assert dist.expected.tolist() == [0.0]
    assert len(dist.lambda_phases) == 1
    assert dist.lambda_phases[0] == pytest.approx(0.0, abs=0.01)


def test_solver_accepts_lower_bounds_as_given(
    eight, eight_lower, eight_upper, eight_model
):
    """Solving the floor-balanced set takes the same path as solving its
    upper-only form: same atoms, expected vector and oracle calls."""
    for model in (eight_model, ValueModel.log_ratio(eight)):
        raw = solve_maxmin(eight, eight_lower, model)
        converted = solve_maxmin(eight, eight_upper, model)
        assert [(a.ranking.order, a.probability) for a in raw.atoms] == [
            (a.ranking.order, a.probability) for a in converted.atoms
        ]
        assert raw.expected.tolist() == converted.expected.tolist()
        assert raw.oracle_calls == converted.oracle_calls


def test_solver_input_validation(eight, eight_upper, eight_model):
    blocked = ConstraintSet(np.zeros((2, 8), dtype=int))
    with pytest.raises(InfeasibleConstraints):
        solve_maxmin(eight, blocked, eight_model)
    small = ValueModel.custom([1.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        solve_maxmin(eight, eight_upper, small)


@pytest.fixture()
def hand_mixture(eight, eight_upper, eight_model):
    rankings = enumerate_valid_rankings(
        eight, eight_upper
    )[:3]
    rows = np.array([eight_model.values(r) for r in rankings])
    return FairDistribution(eight, rankings, [0.1, 0.6, 0.3], rows)


def test_sample_is_seed_deterministic(hand_mixture):
    assert sample(hand_mixture, 42) == sample(hand_mixture, 42)
    gen = np.random.default_rng(7)
    first = sample(hand_mixture, gen)
    assert first in {r for r, _ in hand_mixture.support}


def test_sample_frequencies_track_probabilities(hand_mixture):
    rng = np.random.default_rng(3)
    counts: dict[tuple[int, ...], int] = {}
    draws = 4000
    for _ in range(draws):
        r = sample(hand_mixture, rng)
        counts[r.order] = counts.get(r.order, 0) + 1
    for r, p in hand_mixture.support:
        assert counts.get(r.order, 0) / draws == pytest.approx(p, abs=0.05)


def test_distribution_validates_probabilities(eight, eight_model):
    from fairrank import merit_ranking

    r = merit_ranking(eight)
    rows = eight_model.values(r)[None, :]
    with pytest.raises(ValueError):
        FairDistribution(eight, [r], [0.5], rows)
    with pytest.raises(ValueError, match="sum to"):
        FairDistribution(eight, [r], [1.0 + 1e-7], rows)
    assert FairDistribution(eight, [r], [1.0 + 5e-10], rows).support_size == 1
    with pytest.raises(ValueError, match="shape"):
        FairDistribution(eight, [r], [1.0], rows[:, :-1])
    with pytest.raises(ValueError):
        FairDistribution(eight, [], [], np.empty((0, 8)))


@pytest.mark.parametrize("order", [[0, 1, 2, 3], [0, 1]])
def test_distribution_refuses_a_ranking_of_another_length(order):
    """Rows of the right shape do not make a ranking of another length an
    atom: ``[0, 1, 2, 3]`` on a three-person roster once built, and
    ``distribution_dcg`` gave 1.315 from its first three positions."""
    inst = Instance.from_rows([("a", "M", 0.9), ("b", "F", 0.5), ("c", "M", 0.2)])
    with pytest.raises(ValueError, match="support rankings must each have 3 positions"):
        FairDistribution(inst, [Ranking(order)], [1.0], np.zeros((1, 3)))


def test_distribution_keeps_repeated_rankings(eight, eight_model):
    """The constructor neither merges nor refuses a repeated ranking; only
    the stored-file reader merges."""
    from fairrank import merit_ranking

    r = merit_ranking(eight)
    values = eight_model.values(r)
    dist = FairDistribution(eight, [r, r], [0.5, 0.5], np.array([values, values]))
    assert dist.support == [(r, 0.5), (r, 0.5)]
    assert dist.expected.tolist() == values.tolist()


def test_distribution_sorts_atoms_stably_by_probability(
    eight, eight_upper, eight_model
):
    """Atoms are sorted by decreasing probability with ties in input order,
    each row follows its ranking, and the probabilities keep their bits."""
    rankings = enumerate_valid_rankings(eight, eight_upper)[:4]
    rows = np.array([eight_model.values(r) for r in rankings])
    probabilities = [0.1, 0.3, 0.1 + 1e-10, 0.5 - 1e-10]
    dist = FairDistribution(eight, rankings, probabilities, rows)
    order = [3, 1, 2, 0]
    assert [a.ranking for a in dist.atoms] == [rankings[i] for i in order]
    assert [a.probability.hex() for a in dist.atoms] == [
        probabilities[i].hex() for i in order
    ]
    assert [a.values.tobytes() for a in dist.atoms] == [
        rows[i].tobytes() for i in order
    ]
    ties = FairDistribution(eight, rankings[:2], [0.5, 0.5], rows[:2])
    assert [a.ranking for a in ties.atoms] == rankings[:2]


@given(ranking_cases(floors=True))
@settings(max_examples=200, deadline=None)
def test_solver_and_public_entries_assemble_the_same_bits(case):
    """The solver builds its result with the public constructor, which
    keeps the probabilities as given, so rebuilding a solved distribution
    from its own atoms returns the same atom orders, probability bits,
    value rows and ``expected`` bytes."""
    inst, cons, model = case
    dist = solve_maxmin(inst, cons, model, SolverConfig(epsilon=1e-3))
    rebuilt = FairDistribution(
        inst,
        [a.ranking for a in dist.atoms],
        [a.probability for a in dist.atoms],
        np.array([a.values for a in dist.atoms]),
        dist.lambda_phases,
        dist.oracle_calls,
        dist.epsilon,
    )
    assert [a.ranking.order for a in rebuilt.atoms] == [
        a.ranking.order for a in dist.atoms
    ]
    assert [a.probability.hex() for a in rebuilt.atoms] == [
        a.probability.hex() for a in dist.atoms
    ]
    assert [a.values.tobytes() for a in rebuilt.atoms] == [
        a.values.tobytes() for a in dist.atoms
    ]
    assert rebuilt.expected.tobytes() == dist.expected.tobytes()
    assert (rebuilt.lambda_phases, rebuilt.oracle_calls, rebuilt.epsilon) == (
        dist.lambda_phases, dist.oracle_calls, dist.epsilon,
    )
    assert not dist.expected.flags.writeable
    assert not any(a.values.flags.writeable for a in dist.atoms)


def test_solver_entry_checks_the_mass(eight, eight_model):
    """The constructor the solver calls refuses weights that sum to one only
    within 1e-6, or a negative one, and keeps weights that sum to one within
    1e-9 as given."""
    from fairrank import merit_ranking

    r = merit_ranking(eight)
    rows = eight_model.values(r)[None, :]
    with pytest.raises(ValueError, match="sum to"):
        FairDistribution(eight, [r], [1.0 + 1e-6], rows, (), 1, 0.01)
    with pytest.raises(ValueError, match="sum to"):
        FairDistribution(eight, [r], [1.0 - 1e-6], rows, (), 1, 0.01)
    with pytest.raises(ValueError, match="support atom 0 .* probability -1"):
        FairDistribution(eight, [r], [-1.0], rows, (), 1, 0.01)
    dist = FairDistribution(eight, [r], [1.0 + 5e-10], rows, (), 1, 0.01)
    assert dist.atoms[0].probability == 1.0 + 5e-10
