"""Exact small-instance analysis: enumeration, bounds, decomposition,
and the fairness metrics."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import fairrank
import fairrank.cli

from fairrank import (
    ConstraintSet,
    Instance,
    InstanceTooLarge,
    Ranking,
    ValueModel,
    dcg,
    distribution_dcg,
    enumerate_valid_rankings,
    fair_decomposition,
    gini,
    max_total_value,
    merit_ranking,
    metrics_for_distribution,
    metrics_for_ranking,
    min_satisfaction_bound,
    spread,
    FairDistribution,
)

from conftest import random_instance, random_upper_constraints, ranking_cases
from spot_checks import check_submodularity, lorenz_dominates, subset_scan_decomposition

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

MALES = ("u1", "u2", "u4", "u5")


@pytest.fixture(scope="module")
def eight_table(eight, eight_lower, eight_model):
    """All valid rankings of the running instance with their value rows."""
    rankings = enumerate_valid_rankings(eight, eight_lower)
    matrix = np.stack([eight_model.values(r) for r in rankings])
    return rankings, matrix


def test_enumeration_count_and_validity(eight, eight_table):
    rankings, _ = eight_table
    assert len(rankings) == 13824
    assert len({r.order for r in rankings}) == len(rankings)


def _flat_instance(n: int) -> Instance:
    scores = np.linspace(1.0, 0.5, n)
    return Instance((f"x{i:02d}", "a", scores[i]) for i in range(n))


def test_enumeration_guard():
    inst = _flat_instance(11)
    with pytest.raises(InstanceTooLarge):
        enumerate_valid_rankings(inst, ConstraintSet.vacuous(inst))


def test_max_total_value_goldens(eight, eight_lower, eight_model):
    assert max_total_value(eight, eight_lower, eight_model, []) == 0.0
    assert max_total_value(eight, eight_lower, eight_model, range(8)) == 0.0
    males = [eight.ids.index(u) for u in MALES]
    assert max_total_value(eight, eight_lower, eight_model, males) == -3.0


def test_max_total_value_matches_enumeration(eight, eight_lower, eight_model, eight_table):
    """The best masked total over every valid ranking, on the worked example
    and on random rosters of up to seven with 1-3 groups, random caps and,
    for one or two groups, floors, under each of the four value models:
    exact for integer models, within 1e-9 otherwise."""
    _, matrix = eight_table
    rng = np.random.default_rng(5)
    for _ in range(30):
        members = np.flatnonzero(rng.integers(0, 2, 8))
        if members.size == 0:
            continue
        expected = matrix[:, members].sum(axis=1).max()
        got = max_total_value(eight, eight_lower, eight_model, members)
        assert got == pytest.approx(float(expected), abs=1e-9)
    for k in range(40):
        inst = random_instance(rng, groups=int(rng.integers(1, 4)), max_n=7)
        cons = random_upper_constraints(rng, inst)
        rankings = enumerate_valid_rankings(inst, cons)
        if inst.n_groups <= 2:
            # Floors a random valid ranking meets, less 0-2 per prefix.
            witness = rankings[int(rng.integers(0, len(rankings)))]
            picks = np.equal.outer(
                np.arange(inst.n_groups), inst.group_of[list(witness.order)]
            )
            less = rng.integers(0, 3, picks.shape)
            lower = np.maximum(picks.cumsum(axis=1) - less, 0)
            cons = ConstraintSet(np.array(cons.upper), lower)
            rankings = enumerate_valid_rankings(inst, cons)
        f = sorted(rng.integers(0, 2 * inst.n, inst.n).tolist(), reverse=True)
        model = [
            ValueModel.position_diff(inst),
            ValueModel.log_ratio(inst),
            ValueModel.top_k_selection(inst, k=int(rng.integers(1, inst.n + 1))),
            ValueModel(f, [f[p - 1] for p in inst.merit_position]),
        ][k % 4]
        matrix = np.stack([model.values(r) for r in rankings])
        for _ in range(5):
            members = np.flatnonzero(rng.integers(0, 2, inst.n))
            expected = float(matrix[:, members].sum(axis=1).max())
            got = max_total_value(inst, cons, model, members)
            if model.integer_valued:
                assert got == expected
            else:
                assert got == pytest.approx(expected, abs=1e-9)


def test_max_total_value_rejects_bad_index(eight, eight_lower, eight_model):
    with pytest.raises(ValueError):
        max_total_value(eight, eight_lower, eight_model, [8])


def test_min_satisfaction_bound_golden(eight, eight_lower, eight_model):
    assert min_satisfaction_bound(eight, eight_lower, eight_model) == -0.75


def test_min_satisfaction_bound_vacuous(eight, eight_model):
    cons = ConstraintSet.vacuous(eight)
    assert min_satisfaction_bound(eight, cons, eight_model) == 0.0


@pytest.mark.parametrize("size", [2, 4])
def test_exact_tools_reject_a_value_model_of_another_size(size):
    inst = Instance([("a", "g", 0.9), ("b", "h", 0.5), ("c", "g", 0.1)])
    cons = ConstraintSet.vacuous(inst)
    model = ValueModel(range(size, 0, -1), range(size))
    match = "value model does not match the instance size"
    with pytest.raises(ValueError, match=match):
        fair_decomposition(inst, cons, model)
    with pytest.raises(ValueError, match=match):
        min_satisfaction_bound(inst, cons, model)
    with pytest.raises(ValueError, match=match):
        max_total_value(inst, cons, model, [0, 2])
    with pytest.raises(ValueError, match=match):
        metrics_for_ranking(inst, model, Ranking(range(size)))


def _two_group_instance(size: int) -> Instance:
    return Instance(
        (f"x{i:03d}", "ab"[i % 2], 1.0 - i / (4 * size)) for i in range(2 * size)
    )


def test_count_scan_guard():
    """Two groups of 1024 need a 1025 * 1025 = 1050625-cell count-lattice
    table, past the budget of 2**20, and are refused before any fill; one
    group of 4095, once a 4096-fill scan, now decomposes from one fill."""
    inst = _two_group_instance(1024)
    model = ValueModel.position_diff(inst)
    cons = ConstraintSet.vacuous(inst)
    with pytest.raises(InstanceTooLarge, match="1050625"):
        min_satisfaction_bound(inst, cons, model)
    with pytest.raises(InstanceTooLarge, match="1050625"):
        fair_decomposition(inst, cons, model)
    flat = _flat_instance(4095)
    dec = fair_decomposition(
        flat, ConstraintSet.vacuous(flat), ValueModel.position_diff(flat)
    )
    assert dec.blocks == ((tuple(range(4095)), 0.0),)


def test_exact_tools_refuse_values_they_cannot_sum():
    """Scores of 1.7e308 overflowed the count table's products, which gave
    one block at 1.7e308 though the common level is 8.5e307, and
    ``max_total_value``'s sum, which gave ``inf``.  A model of 1e308 on two
    people has a finite value range, yet its integer tie test overflowed.
    Each now refuses before any arithmetic, so no warning is raised (the
    suite turns every warning into an error)."""
    inst = Instance([("a", "M", 0.9), ("b", "F", 0.5), ("c", "M", 0.2), ("d", "F", 0.1)])
    cons = ConstraintSet.vacuous(inst)
    model = ValueModel([1.7e308, 1.7e308, 0.0, 0.0], [0.0] * 4)
    for tool in (fair_decomposition, min_satisfaction_bound):
        with pytest.raises(InstanceTooLarge, match=r"exact sums: 3 n\^2 m = inf$"):
            tool(inst, cons, model)
    with pytest.raises(ValueError, match="^values this large overflow a total of n of them$"):
        max_total_value(inst, cons, model, [0, 1, 2, 3])
    pair = Instance([("a", "M", 0.9), ("b", "F", 0.5)])
    edge = ValueModel([1e308, 0.0], [0.0, 0.0])
    with pytest.raises(InstanceTooLarge, match=r"exact sums: 3 n\^2 m = inf$"):
        fair_decomposition(pair, ConstraintSet.vacuous(pair), edge)


def test_integer_table_refuses_sums_past_two_to_the_53():
    """Integer scores are summed and cross-multiplied exactly only below
    2**53.  Scaled by 2**55 + 8, this roster's levels came out -12.8,
    -16.0 and 0.0, not increasing, with targets summing to -80 where every
    ranking's total is 0; at scale 1 it is one block at 0."""
    inst = Instance([
        ("u0", "B", 3), ("u1", "A", 4), ("u2", "A", 2), ("u3", "A", 4),
        ("u4", "B", 0), ("u5", "A", 0), ("u6", "B", 4),
    ])
    cons = ConstraintSet([[0, 1, 3, 3, 3, 3, 3], [1, 2, 3, 4, 4, 4, 4]])

    def model(scale):
        f = [x * scale for x in (5, 5, 5, 5, 4, 3, 2)]
        return ValueModel(f, [f[p - 1] for p in inst.merit_position])

    with pytest.raises(InstanceTooLarge, match=r"exact sums: 3 n\^2 m = 1.59e[+]19$"):
        fair_decomposition(inst, cons, model(2**55 + 8))
    assert fair_decomposition(inst, cons, model(1)).blocks == ((tuple(range(7)), 0.0),)


def test_decompositions_compare_and_hash_by_identity(eight, eight_lower, eight_model):
    """A generated ``==`` compared the ``targets`` arrays, which raised
    numpy's ambiguous truth value, and ``hash`` raised ``TypeError``."""
    one, two = (fair_decomposition(eight, eight_lower, eight_model) for _ in range(2))
    assert one == one and one != two
    assert len({one, two}) == 2


def test_decomposition_golden(eight, eight_lower, eight_model):
    dec = fair_decomposition(eight, eight_lower, eight_model)
    by_members = {
        frozenset(eight.ids[i] for i in members): level
        for members, level in dec.blocks
    }
    assert by_members == {
        frozenset(MALES): -0.75,
        frozenset({"u3"}): 0.0,
        frozenset({"u6", "u7", "u8"}): 1.0,
    }
    targets = dec.targets_by_id(eight)
    assert targets["u1"] == -0.75
    assert targets["u6"] == 1.0


def test_decomposition_ignores_a_constant_offset(eight, eight_lower):
    """Adding 2**52 to every position and merit score changes no value, and
    every score stays an exact float, so the blocks are the offset-0 ones;
    a table of position totals that kept the offset would round away their
    low bits."""
    f = [2.0**52 + (8 - i) for i in range(1, 9)]
    model = ValueModel(f, [f[p - 1] for p in eight.merit_position])
    dec = fair_decomposition(eight, eight_lower, model)
    assert dec.blocks == (((0, 1, 3, 4), -0.75), ((2,), 0.0), ((5, 6, 7), 1.0))
    assert min_satisfaction_bound(eight, eight_lower, model) == -0.75


def test_decomposition_invariants(eight, eight_lower, eight_model):
    rng = np.random.default_rng(17)
    cases = [(eight, eight_lower, eight_model)]
    for _ in range(8):
        inst = random_instance(rng, groups=2, max_n=5)
        cons = random_upper_constraints(rng, inst)
        cases.append((inst, cons, ValueModel.position_diff(inst)))
    for inst, cons, model in cases:
        dec = fair_decomposition(inst, cons, model)
        covered = [i for members, _ in dec.blocks for i in members]
        assert sorted(covered) == list(range(inst.n))
        levels = [level for _, level in dec.blocks]
        assert all(b > a for a, b in zip(levels, levels[1:]))
        assert dec.blocks[0][1] == pytest.approx(
            min_satisfaction_bound(inst, cons, model), abs=1e-9
        )
        total = sum(level * len(members) for members, level in dec.blocks)
        assert total == pytest.approx(
            max_total_value(inst, cons, model, range(inst.n)), abs=1e-9
        )


def test_decomposition_targets_are_achievable_per_subset(eight):
    rng = np.random.default_rng(23)
    for _ in range(6):
        inst = random_instance(rng, groups=2, max_n=5)
        cons = random_upper_constraints(rng, inst)
        model = ValueModel.position_diff(inst)
        dec = fair_decomposition(inst, cons, model)
        n = inst.n
        for mask in range(1, 1 << n):
            members = [i for i in range(n) if (mask >> i) & 1]
            share = float(dec.targets[members].sum())
            cap = max_total_value(inst, cons, model, members)
            assert share <= cap + 1e-9


def test_decomposition_lorenz_dominates_mixtures(eight, eight_lower, eight_model, eight_table):
    _, matrix = eight_table
    dec = fair_decomposition(eight, eight_lower, eight_model)
    rng = np.random.default_rng(31)
    for _ in range(100):
        k = int(rng.integers(1, 6))
        rows = rng.integers(0, matrix.shape[0], k)
        probs = rng.dirichlet(np.ones(k))
        mixture = probs @ matrix[rows]
        assert lorenz_dominates(dec.targets, mixture, tol=1e-9)


@given(ranking_cases(max_n=10, floors=True))
@settings(max_examples=300, deadline=None)
def test_decomposition_matches_subset_scan(case):
    """The count-vector scan finds the blocks that scanning every subset
    finds, at levels within 1e-12."""
    inst, cons, model = case
    blocks = fair_decomposition(inst, cons, model).blocks
    reference = subset_scan_decomposition(inst, cons, model)
    assert [members for members, _ in blocks] == [members for members, _ in reference]
    for (_, level), (_, want) in zip(blocks, reference):
        assert abs(level - want) <= 1e-12


def test_decomposition_matches_ceil_mid_references(monkeypatch):
    """The four n=40 benchmark rosters, built as the benchmark builds them,
    decompose to within each case's stored epsilon of its committed
    reference vector."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import NullTracer
    from workloads import build, ceil_mid_cases

    references = json.loads((PERFBENCH / "reference.json").read_text())
    cases = {case["reference"]: case for case in ceil_mid_cases(7)}
    assert sorted(cases) == sorted(references)
    for name, case in cases.items():
        b = build(fairrank, fairrank.cli, case, NullTracer())
        targets = fair_decomposition(b.instance, b.original, b.model).targets
        want = references[name]
        gap = np.abs(np.sort(targets) - np.array(want["sorted"])).max()
        assert gap <= want["epsilon"], name


def test_submodularity_running_instance(eight, eight_lower, eight_model):
    assert check_submodularity(eight, eight_lower, eight_model)


def test_gini_goldens():
    assert gini([3.0, 3.0, 3.0]) == 0.0
    assert gini([7.5]) == 0.0
    assert gini([0.0, 1.0]) == pytest.approx(0.5)
    assert gini([0.0, 0.0, 1.0, 1.0]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        gini([])


def test_gini_affine_invariance_and_range():
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.normal(size=int(rng.integers(2, 12)))
        g = gini(x)
        assert 0.0 <= g <= 1.0
        a = float(rng.uniform(0.5, 4.0))
        b = float(rng.normal())
        assert gini(a * x + b) == pytest.approx(g, abs=1e-9)


def test_spread_goldens():
    assert spread([-2.0, 3.0]) == 5.0
    assert spread([0, 0, 0, -1, -2, 2, 1, 0]) == 4.0
    with pytest.raises(ValueError):
        spread([])


def test_dcg_maximal_at_merit(eight, eight_table):
    rankings, _ = eight_table
    best = dcg(eight, merit_ranking(eight))
    assert all(dcg(eight, r) <= best + 1e-12 for r in rankings)


def test_dcg_single_position():
    inst = Instance([("a", "g", 0.8)])
    assert dcg(inst, merit_ranking(inst)) == pytest.approx(0.8)


@pytest.mark.parametrize("order", [[3, 2, 1, 0], [1, 0]])
def test_dcg_refuses_a_ranking_of_another_length(order):
    """A ranking longer than the three-person roster once gave a number,
    0.764 for ``[3, 2, 1, 0]``, from its first three positions."""
    inst = Instance([("a", "M", 0.9), ("b", "F", 0.5), ("c", "M", 0.2)])
    with pytest.raises(ValueError, match=f"ranking has {len(order)} positions, the instance 3"):
        dcg(inst, Ranking(order))


def test_distribution_dcg_point_mass(eight, eight_model):
    r = merit_ranking(eight)
    dist = FairDistribution(eight, [r], [1.0], eight_model.values(r)[None, :])
    mean, std = distribution_dcg(eight, dist)
    assert mean == pytest.approx(dcg(eight, r))
    assert std == 0.0


def test_distribution_dcg_two_atoms(eight, eight_model, eight_table):
    rankings, matrix = eight_table
    a, b = rankings[0], rankings[-1]
    dist = FairDistribution(eight, [a, b], [0.25, 0.75], matrix[[0, -1]])
    da, db = dcg(eight, a), dcg(eight, b)
    mean, std = distribution_dcg(eight, dist)
    assert mean == pytest.approx(0.25 * da + 0.75 * db)
    assert std == pytest.approx(
        np.sqrt(0.25 * (da - mean) ** 2 + 0.75 * (db - mean) ** 2)
    )


def test_lorenz_dominates_basics():
    assert lorenz_dominates([0.0, 0.0], [-1.0, 1.0])
    assert not lorenz_dominates([-1.0, 1.0], [0.0, 0.0])
    assert lorenz_dominates([0.0, -1e-12], [0.0, 0.0], tol=1e-9)
    with pytest.raises(ValueError):
        lorenz_dominates([0.0], [0.0, 1.0])


def test_metrics_reports(eight, eight_model, eight_table):
    rankings, matrix = eight_table
    for r in rankings[::1000]:
        rep = metrics_for_ranking(eight, eight_model, r)
        values = eight_model.values(r)
        assert rep.min_value == values.min()
        assert rep.spread == spread(values)
        assert rep.gini == gini(values)
        assert rep.dcg_mean == dcg(eight, r)
        assert rep.dcg_std == 0.0
    dist = FairDistribution(eight, rankings[:2], [0.5, 0.5], matrix[:2])
    drep = metrics_for_distribution(eight, dist)
    assert drep.min_value == pytest.approx(float(dist.expected.min()))
    assert set(drep.to_dict()) == {
        "min_value", "spread", "gini", "dcg_mean", "dcg_std",
    }
