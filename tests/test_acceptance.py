"""End-to-end acceptance checks.

One test per shipped guarantee; each prints a single PASS/FAIL verdict
line (run with ``pytest -s`` to see them).  Criteria 4-6 share one batch
of solved random two-group instances.
"""

import math
import time

import numpy as np
import pytest

from fairrank import (
    Instance,
    SolverConfig,
    ValueModel,
    baseline_min_value,
    ceil_alpha_constraints,
    deterministic_baseline,
    enumerate_valid_rankings,
    fair_decomposition,
    is_valid,
    lorenz_dominates,
    merit_ranking,
    metrics_for_distribution,
    metrics_for_ranking,
    min_satisfaction_bound,
    solve_maxmin,
    to_upper_only,
)
from fairrank.cli import distribution_from_dict, distribution_to_dict

from conftest import (
    random_instance,
    random_two_group_instance,
    random_upper_constraints,
    random_weights,
)
from spot_checks import best_response, check_submodularity, has_monge_property

EPSILON = 0.01
BATCH_SIZE = 100
ORACLE_PAIRS = 500


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def batch(eight, eight_upper, eight_model):
    """Solved random two-group instances (n <= 6) plus the worked example,
    each with its exact decomposition."""
    rng = np.random.default_rng(2024)
    cases = []
    for k in range(BATCH_SIZE):
        inst, cons = random_two_group_instance(rng, 4, 6)
        model = (
            ValueModel.position_diff(inst)
            if k % 2 == 0
            else ValueModel.log_ratio(inst)
        )
        dist = solve_maxmin(inst, cons, model, SolverConfig(epsilon=EPSILON))
        dec = fair_decomposition(inst, cons, model)
        cases.append((inst, cons, model, dist, dec))
    dist = solve_maxmin(eight, eight_upper, eight_model, SolverConfig(epsilon=EPSILON))
    dec = fair_decomposition(eight, eight_upper, eight_model)
    cases.append((eight, eight_upper, eight_model, dist, dec))
    return cases


def test_criterion_1_worked_example_floor(eight, eight_upper, eight_model):
    start = time.perf_counter()
    dist = solve_maxmin(eight, eight_upper, eight_model, SolverConfig(epsilon=EPSILON))
    elapsed = time.perf_counter() - start
    worst = float(dist.expected.min())
    ok = abs(worst - (-0.75)) <= EPSILON and elapsed < 60.0
    verdict(1, "worked example floor", ok,
            f"min={worst:.4f} target=-0.75+/-0.01 in {elapsed:.2f}s")


def test_criterion_2_deterministic_optimum(eight, eight_lower, eight_upper, eight_model):
    ranking = deterministic_baseline(eight, eight_upper)
    got = baseline_min_value(eight, eight_upper, eight_model)
    best_single = max(
        float(eight_model.values(r).min())
        for r in enumerate_valid_rankings(eight, eight_lower)
    )
    ok = (
        got == -2.0
        and float(eight_model.values(ranking).min()) == -2.0
        and is_valid(ranking, eight, eight_upper)
        and best_single == -2.0
    )
    verdict(2, "deterministic optimum", ok,
            f"baseline min={got} enumeration max-min={best_single}")


def test_criterion_3_oracle_exactness():
    rng = np.random.default_rng(99)
    checked = 0
    worst_rel = 0.0
    ok = True
    while checked < ORACLE_PAIRS:
        inst = random_instance(rng, groups=2, max_n=7)
        cons = random_upper_constraints(rng, inst)
        kind = checked % 3
        if kind == 0:
            model = ValueModel.position_diff(inst)
        elif kind == 1:
            model = ValueModel.top_k_selection(inst, k=max(1, inst.n // 2))
        else:
            model = ValueModel.log_ratio(inst)
        matrix = np.stack(
            [model.values(r) for r in enumerate_valid_rankings(inst, cons)]
        )
        for _ in range(5):
            if model.integer_valued:
                # integer weights keep every float operation exact
                w = rng.integers(0, 5, inst.n).astype(float)
            else:
                w = random_weights(rng, inst.n)
            res = best_response(inst, cons, model, w)
            exact = float((matrix @ w).max())
            if model.integer_valued:
                ok = ok and res.objective == exact
            else:
                rel = abs(res.objective - exact) / max(1.0, abs(exact))
                worst_rel = max(worst_rel, rel)
                ok = ok and rel <= 1e-9
            checked += 1
    verdict(3, "oracle exactness", ok,
            f"{checked} pairs, worst relative error {worst_rel:.2e}")


def test_criterion_4_lexicographic_optimality(batch):
    worst = max(
        float(np.abs(np.sort(dist.expected) - np.sort(dec.targets)).max())
        for _, _, _, dist, dec in batch
    )
    ok = worst <= EPSILON
    verdict(4, "lexicographic optimality", ok,
            f"{len(batch)} instances, worst sorted-vector gap {worst:.2e}")


def test_criterion_5_characterization_consistency(batch):
    worst_level = 0.0
    worst_min = 0.0
    for inst, cons, model, dist, dec in batch:
        bound = min_satisfaction_bound(inst, cons, model)
        worst_level = max(worst_level, abs(bound - dec.blocks[0][1]))
        worst_min = max(worst_min, abs(bound - float(dist.expected.min())))
    ok = worst_level <= 1e-9 and worst_min <= EPSILON
    verdict(5, "characterization consistency", ok,
            f"bound vs first level {worst_level:.2e}, vs solver min {worst_min:.2e}")


def _expected_position_scores(model: ValueModel, dist) -> np.ndarray:
    f = np.asarray(model.position_scores)
    out = np.zeros(dist.instance.n)
    for atom in dist.atoms:
        pos = np.fromiter(atom.ranking.position, dtype=int, count=dist.instance.n)
        out += atom.probability * f[pos - 1]
    return out


def test_criterion_6_property_suites(batch, eight, eight_lower, eight_upper, eight_model):
    # higher relevance in the same group never means a worse expected
    # position score
    meritocracy = True
    for inst, _, model, dist, _ in batch:
        scores = _expected_position_scores(model, dist)
        for g in range(inst.n_groups):
            members = sorted(
                np.flatnonzero(inst.group_of == g),
                key=lambda i: inst.merit_position[i],
            )
            sats = scores[members]
            meritocracy = meritocracy and bool(
                np.all(sats[:-1] >= sats[1:] - EPSILON)
            )

    lorenz = True
    rankings = enumerate_valid_rankings(eight, eight_lower)
    matrix = np.stack([eight_model.values(r) for r in rankings])
    eight_dist = batch[-1][3]
    tol = eight.n * EPSILON
    rng = np.random.default_rng(7)
    for _ in range(100):
        k = int(rng.integers(1, 6))
        rows = rng.integers(0, len(rankings), k)
        mixture = rng.dirichlet(np.ones(k)) @ matrix[rows]
        lorenz = lorenz and lorenz_dominates(eight_dist.expected, mixture, tol=tol)
    for inst, cons, model, dist, _ in batch:
        det = model.values(deterministic_baseline(inst, cons))
        lorenz = lorenz and lorenz_dominates(
            dist.expected, det, tol=inst.n * EPSILON
        )

    submodular = all(
        check_submodularity(inst, cons, model, trials=200)
        for inst, cons, model, _, _ in batch[:10]
    )

    rng = np.random.default_rng(13)
    monge = all(
        has_monge_property(eight, eight_model, random_weights(rng, eight.n))
        for _ in range(100)
    )

    conservation = True
    for inst, _, model, dist, _ in batch:
        merit_mean = float(model.values(merit_ranking(inst)).mean())
        conservation = conservation and abs(
            float(dist.expected.mean()) - merit_mean
        ) <= 1e-9

    ok = meritocracy and lorenz and submodular and monge and conservation
    verdict(6, "property suites", ok,
            f"meritocracy={meritocracy} lorenz={lorenz} submodular={submodular} "
            f"monge={monge} conservation={conservation}")


def _skewed_sixty() -> Instance:
    """Sixty people, two balanced groups; group A holds the whole top-3 and
    about three quarters of every early prefix, group B the entire bottom.
    The B prefix counts sit exactly on the ceil-0.3 floor profile, so every
    alpha in the acceptance grid is tight but satisfiable by merit."""
    forced = {10 * k // 3 + 1 for k in range(1, 13)}
    counts = {"a": 0, "b": 0}
    rows = []
    for pos in range(1, 61):
        label = "B" if (pos in forced or pos > 42) else "A"
        key = label.lower()
        counts[key] += 1
        rows.append(
            (f"{key}{counts[key]:02d}", label, round(0.99 - 0.012 * (pos - 1), 3))
        )
    return Instance.from_rows(rows)


def test_criterion_7_alpha_grid_orderings():
    inst = _skewed_sixty()
    model = ValueModel.position_diff(inst)
    merit = merit_ranking(inst)
    top20 = [inst.group_of[i] for i in merit.order[:20]]
    assert top20[:3] == [0, 0, 0] and top20.count(0) >= 14

    ok = True
    details = []
    for alpha in (0.1, 0.2, 0.3):
        lower = ceil_alpha_constraints(inst, alpha, "B")
        assert is_valid(merit, inst, lower)
        cons = to_upper_only(lower, inst)
        dist = solve_maxmin(inst, cons, model, SolverConfig(epsilon=0.1))
        mf = metrics_for_distribution(inst, dist)
        det = metrics_for_ranking(
            inst, model, deterministic_baseline(inst, cons)
        )
        ok = ok and (
            mf.min_value >= det.min_value - 1e-9
            and mf.spread <= det.spread + 1e-9
            and mf.gini <= det.gini + 1e-9
            and abs(mf.dcg_mean - det.dcg_mean) <= 0.02 * det.dcg_mean
        )
        details.append(
            f"a={alpha}: min {mf.min_value:+.2f}/{det.min_value:+.2f} "
            f"gini {mf.gini:.2f}/{det.gini:.2f}"
        )
    verdict(7, "alpha grid orderings", ok, "; ".join(details))


def test_criterion_8_oracle_calls_shrink_with_epsilon(eight, eight_upper, eight_model):
    grid = [0.5, 1.0, 2.0, 5.0, 10.0]
    calls = [
        solve_maxmin(
            eight, eight_upper, eight_model, SolverConfig(epsilon=eps)
        ).oracle_calls
        for eps in grid
    ]
    ok = all(b < a for a, b in zip(calls, calls[1:]))
    verdict(8, "oracle calls shrink with epsilon", ok,
            f"epsilon {grid} -> calls {calls}")


def test_criterion_9_sampling_fidelity(eight, eight_upper, eight_model):
    from fairrank import sample

    solved = solve_maxmin(eight, eight_upper, eight_model, SolverConfig(epsilon=EPSILON))
    stored = distribution_to_dict(solved)
    dist = distribution_from_dict(eight, eight_model, stored)
    rng = np.random.default_rng(123)
    draws = 100_000
    counts: dict[tuple[int, ...], int] = {}
    for _ in range(draws):
        r = sample(dist, rng)
        counts[r.order] = counts.get(r.order, 0) + 1
    tv = 0.5 * sum(
        abs(counts.get(r.order, 0) / draws - p) for r, p in dist.support
    )
    ok = tv <= 0.01
    verdict(9, "sampling fidelity", ok,
            f"{draws} draws, total variation {tv:.4f}")
