"""Minimum-norm-point solver: answers, certificates, stalls, sampling."""

import dataclasses
import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

import fairrank.oracle
import fairrank.solver
from fairrank import (
    ConstraintSet,
    FairDistribution,
    Instance,
    InfeasibleConstraints,
    IterationCapExceeded,
    SolverConfig,
    ValueModel,
    best_response,
    ceil_alpha_constraints,
    deterministic_baseline,
    enumerate_valid_rankings,
    fair_decomposition,
    is_valid,
    sample,
    solve_maxmin,
)
from fairrank.cli import load_constraints
from fairrank.solver import _affine_weights, _bordered, _without

from conftest import random_instance, random_upper_constraints, ranking_cases


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
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


def _matches_exact_decomposition(inst, cons, model):
    dist = solve_maxmin(inst, cons, model, SolverConfig(epsilon=0.01))
    dec = fair_decomposition(inst, cons, model)
    assert np.abs(np.sort(dist.expected) - np.sort(dec.targets)).max() <= 0.01
    probs = [p for _, p in dist.support]
    assert len(probs) <= inst.n
    assert min(probs) > 1e-12
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)
    assert all(is_valid(r, inst, cons) for r, _ in dist.support)


@given(ranking_cases())
@settings(max_examples=300, deadline=None)
def test_solve_matches_exact_decomposition(case):
    """Sorted vector within epsilon of the exact decomposition, and the
    support is the final active set: at most n atoms, none below the
    affine-weight dust, mass one."""
    _matches_exact_decomposition(*case)


@given(ranking_cases(min_n=8, max_n=30, floors=True))
@settings(max_examples=150, deadline=None)
def test_solve_matches_exact_decomposition_in_the_tens(case):
    """The same contract at n 8-30, with floors on one- and two-group
    rosters, against the count-vector decomposition."""
    _matches_exact_decomposition(*case)


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
    pytest.param(160, "position-diff", 0.01, marks=pytest.mark.xfail(
        strict=True, raises=IterationCapExceeded,
        reason="stalls at certified bound 0.0138 > 0.01 after 28 oracle calls, "
        "when the sorted vector is already within 3e-7 of the exact levels: "
        "the Frank-Wolfe certificate, not the solve, falls short",
    )),
])
def test_solve_matches_exact_levels_at_bench_scale(n, kind, eps):
    """Sorted vector within epsilon of the exact levels on ceil-0.3 rosters
    past the reach of the subset scan."""
    inst, cons = _ceil_roster(n)
    if kind == "position-diff":
        model = ValueModel.position_diff(inst)
    else:
        model = ValueModel.log_ratio(inst)
    dist = solve_maxmin(inst, cons, model, SolverConfig(epsilon=eps))
    targets = fair_decomposition(inst, cons, model).targets
    assert np.abs(np.sort(dist.expected) - np.sort(targets)).max() <= eps


def test_degenerate_model_solves_at_once():
    inst = Instance.from_rows([("a", "g", 0.9), ("b", "h", 0.5), ("c", "g", 0.1)])
    model = ValueModel.custom([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    dist = solve_maxmin(inst, ConstraintSet.vacuous(inst), model)
    assert dist.expected.tolist() == [0.0, 0.0, 0.0]
    assert dist.oracle_calls == 1
    assert dist.lambda_phases == (0.0,)


def test_infeasible_caps_raise_the_solver_message(eight, eight_model):
    """Caps of one M and two F in every prefix pass construction but cover
    only three positions.  Every library entry point's first fill leaves
    position 4 empty and reports it in the same words, with no chained
    cause."""
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
    """Only a flat ``x`` ends a solve without an oracle call.  Stopping on
    the oracle-free bound ``|x - mean(x)|`` as well would also be valid, but
    cuts these counts to ``[6, 4, 3, 1, 1]``, so they no longer shrink
    strictly with epsilon."""
    calls = [
        solve_maxmin(eight, eight_upper, eight_model, SolverConfig(epsilon=eps)).oracle_calls
        for eps in (0.5, 1.0, 2.0, 5.0, 10.0)
    ]
    assert calls == [6, 4, 3, 2, 1]


def test_box_bound_ends_a_loose_worked_example(eight, eight_upper, eight_model, caplog):
    """Every position-diff value of the eight spans 7, so the box bound is
    at least 3.5 and is checked only from epsilon 3.5 up.  At epsilon 10
    the first vertex's box bound of 7 ends the solve; at 5 it does not,
    and the second call's gap does."""
    for eps, calls, tail in ((10.0, 1, " bound=7 stop=box"), (5.0, 2, " stop=gap")):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="fairrank.solver"):
            solve_maxmin(eight, eight_upper, eight_model, SolverConfig(epsilon=eps))
        (line,) = [r.getMessage() for r in caplog.records if r.name == "fairrank.solver"]
        assert f" oracle_calls={calls} " in line
        assert line.endswith(tail)


def test_box_bound_ends_a_solve_at_half_the_range(caplog):
    """Two people, position scores 2 and 0, equal merit offsets: every
    range is 2, so half the narrowest range is 1, and at epsilon 1 the box
    bound is checked.  The second vertex mirrors the first, the affine
    step lands on the midpoint (1, 1) less the offset, and the box bound
    there is exactly 1 = epsilon.  Offsets of 2**20, about 1e6 above the
    range (a power of two, so every value stays exact), give the same
    guard, stop and bound; an epsilon just below ends at the flat midpoint
    on the gap instead.  An empty model still constructs."""
    inst = Instance.from_rows([("a", "A", 0.9), ("b", "B", 0.1)])
    cons = ConstraintSet.vacuous(inst)
    runs = ((0.0, 1.0, " bound=1 stop=box"), (2.0**20, 1.0, " bound=1 stop=box"),
            (0.0, 1.0 - 1e-12, " bound=0 stop=gap"))
    for offset, eps, tail in runs:
        model = ValueModel.custom([2.0, 0.0], [offset, offset])
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="fairrank.solver"):
            dist = solve_maxmin(inst, cons, model, SolverConfig(epsilon=eps))
        (line,) = [r.getMessage() for r in caplog.records if r.name == "fairrank.solver"]
        assert " oracle_calls=2 " in line
        assert line.endswith(tail)
        assert dist.expected.tolist() == [1.0 - offset] * 2
    empty = ValueModel.custom([], [])
    assert empty.n == 0


def test_iteration_cap_raises(eight, eight_upper, eight_model, monkeypatch):
    assert fairrank.solver._ORACLE_CALL_CAP == 50_000_000
    monkeypatch.setattr(fairrank.solver, "_ORACLE_CALL_CAP", 1)
    with pytest.raises(IterationCapExceeded, match="cap of 1 oracle calls"):
        solve_maxmin(eight, eight_upper, eight_model)


def _lstsq_affine_minimizer(points):
    """Reference: the minimum-norm point of the affine hull as
    ``points[0] + sum_i beta_i (points[i] - points[0])`` by least squares."""
    base = points[0]
    beta = np.linalg.lstsq((points[1:] - base).T, -base, rcond=None)[0]
    return np.concatenate(([1.0 - beta.sum()], beta))


def _border(inverse, points, q):
    """``_bordered`` into a fresh buffer, so no two inverses share memory."""
    return _bordered(inverse, points, q, np.empty((len(points) + 1) ** 2))


def _grown(points):
    """The maintained inverse for ``points``, bordered one row at a time."""
    inverse = np.array([[1.0 / (points[0] @ points[0] + 1.0)]])
    for k in range(1, len(points)):
        inverse = _border(inverse, points[:k], points[k])
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
                inverse = _border(inverse, points, q)
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
    assert _border(_grown(points[:5]), points[:5], mid) is None


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
    order to ``_vertex``; it never sorts again through the public oracle."""
    rng = np.random.default_rng(21)
    inst = random_instance(rng, n=9, groups=3)
    cons = random_upper_constraints(rng, inst)
    cases = [
        (eight, eight_upper, eight_model),
        (inst, cons, ValueModel.log_ratio(inst)),
    ]
    for instance, constraints, model in cases:
        vertices = _count_calls(monkeypatch, fairrank.solver, "_vertex")
        keys = _count_calls(monkeypatch, fairrank.oracle, "weight_order_key")
        dist = solve_maxmin(instance, constraints, model)
        assert dist.oracle_calls > 1
        assert len(vertices) == dist.oracle_calls
        assert keys == []


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
    monkeypatch.setattr(fairrank.solver, "_minor_cycles", no_drops)
    with pytest.raises(
        IterationCapExceeded,
        match=r"a major cycle did not shorten x after 2 oracle calls, "
        r"certified bound \S+ > epsilon 1e-08",
    ):
        solve_maxmin(eight, eight_upper, eight_model, SolverConfig(epsilon=1e-8))


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
    probs = [0.1, 0.6, 0.3]
    return FairDistribution(
        eight,
        [
            (r, p, eight_model.values(r))
            for r, p in zip(rankings, probs)
        ],
    )


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


def test_distribution_merges_duplicate_support(eight, eight_model):
    from fairrank import merit_ranking

    r = merit_ranking(eight)
    values = eight_model.values(r)
    dist = FairDistribution(eight, [(r, 0.5, values), (r, 0.5, values)])
    assert dist.support_size == 1
    assert dist.support[0][1] == pytest.approx(1.0)
    assert dist.expected.tolist() == values.tolist()
    assert not dist.atoms[0].values.flags.writeable


def test_distribution_validates_probabilities(eight, eight_model):
    from fairrank import merit_ranking

    r = merit_ranking(eight)
    values = eight_model.values(r)
    with pytest.raises(ValueError):
        FairDistribution(eight, [(r, 0.5, values)])
    with pytest.raises(ValueError, match="sum to"):
        FairDistribution(eight, [(r, 1.0 + 1e-7, values)])
    assert FairDistribution(eight, [(r, 1.0 + 5e-10, values)]).support_size == 1
    with pytest.raises(ValueError, match="shape"):
        FairDistribution(eight, [(r, 1.0, values[:-1])])
    # Positive atoms summing to one do not excuse a negative one.
    with pytest.raises(ValueError, match="support atom 1 .* probability -0.3"):
        FairDistribution(eight, [(r, 1.0, values), (r, -0.3, values)])
    zero = FairDistribution(eight, [(r, 1.0, values), (r, 0.0, values)])
    assert zero.support_size == 1
    with pytest.raises(ValueError):
        FairDistribution(eight, [])


@given(ranking_cases(floors=True))
@settings(max_examples=200, deadline=None)
def test_solver_and_public_entries_assemble_the_same_bits(case):
    """The solver's private entry and the public constructor share one
    assembly tail, so given the solver's own rankings, weights and rows the
    public constructor returns the same atom orders, probability bits,
    value rows and ``expected`` bytes.  Rebuilding from the stored atoms
    renormalizes probabilities whose float sum may sit an ulp off one, so
    that round trip keeps the orders and moves a probability by at most a
    few ulps."""
    inst, cons, model = case
    entries = []
    solver_entry = FairDistribution._from_active.__func__

    def recorded(cls, *args):
        entries.append(args)
        return solver_entry(cls, *args)

    with mock.patch.object(FairDistribution, "_from_active", classmethod(recorded)):
        dist = solve_maxmin(inst, cons, model, SolverConfig(epsilon=1e-3))
    ((instance, rankings, probabilities, rows, phases, calls, eps),) = entries
    public = FairDistribution(instance, zip(rankings, probabilities, rows), phases, calls, eps)
    rebuilt = FairDistribution(
        inst, [(a.ranking, a.probability, a.values) for a in dist.atoms]
    )
    for other in (public, rebuilt):
        assert [a.ranking.order for a in other.atoms] == [a.ranking.order for a in dist.atoms]
    assert [a.probability.hex() for a in public.atoms] == [
        a.probability.hex() for a in dist.atoms
    ]
    assert [a.values.tobytes() for a in public.atoms] == [
        a.values.tobytes() for a in dist.atoms
    ]
    assert public.expected.tobytes() == dist.expected.tobytes()
    assert (public.lambda_phases, public.oracle_calls, public.epsilon) == (
        dist.lambda_phases, dist.oracle_calls, dist.epsilon,
    )
    assert [a.probability for a in rebuilt.atoms] == pytest.approx(
        [a.probability for a in dist.atoms], rel=1e-15, abs=0
    )
    assert not dist.expected.flags.writeable
    assert not any(a.values.flags.writeable for a in dist.atoms)


def test_solver_entry_checks_the_mass(eight, eight_model):
    """The solver's private entry refuses what the public constructor
    refuses: weights that sum to one only within 1e-6, or a negative one."""
    from fairrank import merit_ranking

    r = merit_ranking(eight)
    rows = eight_model.values(r)[None, :]
    with pytest.raises(ValueError, match="sum to"):
        FairDistribution._from_active(eight, [r], [1.0 + 1e-6], rows, (), 1, 0.01)
    with pytest.raises(ValueError, match="sum to"):
        FairDistribution._from_active(eight, [r], [1.0 - 1e-6], rows, (), 1, 0.01)
    with pytest.raises(ValueError, match="support atom 0 .* probability -1"):
        FairDistribution._from_active(eight, [r], [-1.0], rows, (), 1, 0.01)
    dist = FairDistribution._from_active(eight, [r], [1.0 + 5e-10], rows, (), 1, 0.01)
    assert dist.atoms[0].probability == 1.0
