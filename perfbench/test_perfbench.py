"""Tests of the benchmark's own code: seeded generators, output checks and
the tracer.  Run with ``python -m pytest perfbench`` from the repository
root."""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import fairrank as fr  # noqa: E402
import fairrank.cli as cli  # noqa: E402

import checks  # noqa: E402
from tracer import NullTracer, Tracer, layer_totals  # noqa: E402
from workloads import (  # noqa: E402
    CEIL_MID_PROTECTED,
    GENERATORS,
    WORKED_FLOOR,
    build,
    cli_cases,
    value_model,
)


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_same_seed_gives_byte_identical_cases(workload):
    first = json.dumps(GENERATORS[workload](11), sort_keys=True)
    again = json.dumps(GENERATORS[workload](11), sort_keys=True)
    other = json.dumps(GENERATORS[workload](12), sort_keys=True)
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_every_case_builds_feasible(workload):
    for case in GENERATORS[workload](3):
        b = build(fr, cli, case, NullTracer())
        assert fr.is_feasible(b.instance, b.constraints)
        assert b.model.n == b.instance.n


def test_ceil_mid_seeds_rename_one_fixed_family():
    def profile(seed):
        out = {}
        for case in GENERATORS["ceil-mid"](seed):
            rows = [line.split(",") for line in case["csv"].splitlines()[1:]]
            out.setdefault(case["reference"], set()).add(
                tuple(sorted((g, s) for _, g, s in rows))
            )
        return out

    a, b = profile(1), profile(2)
    assert a == b and all(len(v) == 1 for v in a.values())
    ceil = GENERATORS["ceil-mid"](1)[0]["csv"]
    assert ceil.count(",B,") == CEIL_MID_PROTECTED


@pytest.fixture(scope="module")
def worked():
    b = build(fr, cli, cli_cases(0)[0], NullTracer())
    dist = fr.solve_maxmin(b.instance, b.constraints, b.model, fr.SolverConfig(epsilon=b.epsilon))
    targets = fr.fair_decomposition(b.instance, b.original, b.model).targets
    return b, dist, targets


def _all_checks(b, rankings, probs, expected, targets):
    base = fr.baseline_min_value(b.instance, b.constraints, b.model)
    return (
        checks.distribution(fr, b.instance, b.original, b.model, rankings, probs, expected)
        + checks.gap_within(expected, targets, b.epsilon, "fair_decomposition")
        + checks.floor_at_least(expected, base, b.epsilon, "baseline minimum")
        + checks.floor_near(expected, WORKED_FLOOR, b.epsilon)
    )


def test_solver_output_passes_every_check(worked):
    b, dist, targets = worked
    rankings = [a.ranking for a in dist.atoms]
    probs = [a.probability for a in dist.atoms]
    assert _all_checks(b, rankings, probs, dist.expected, targets) == []


def test_reversed_first_atom_breaks_floor_balanced(worked):
    b, dist, _ = worked
    rankings = [a.ranking for a in dist.atoms]
    rankings[0] = fr.Ranking(reversed(rankings[0].order))
    # judged against the floor-balanced lower bounds as loaded
    assert fr.is_valid(rankings[0], b.instance, b.original) is False
    assert checks.atoms_valid(fr, b.instance, b.original, rankings)


def test_mass_rejects_lost_probability(worked):
    _, dist, _ = worked
    probs = [a.probability for a in dist.atoms]
    assert checks.mass(probs) == []
    assert checks.mass([0.9 * p for p in probs])
    assert checks.mass(probs + [0.0])


def test_conservation_rejects_moved_value(worked):
    b, dist, _ = worked
    moved = dist.expected.copy()
    moved[0] += 1e-6
    assert checks.conservation(fr, b.instance, b.model, moved)


def test_gap_and_floors_reject_a_worse_vector(worked):
    b, dist, targets = worked
    worse = dist.expected.copy()
    worse[int(np.argmin(worse))] -= 3 * b.epsilon
    assert checks.gap_within(worse, targets, b.epsilon, "fair_decomposition")
    assert checks.floor_near(worse, WORKED_FLOOR, b.epsilon)
    base = fr.baseline_min_value(b.instance, b.constraints, b.model)
    assert checks.floor_at_least(worse - 2.0, base, b.epsilon, "baseline minimum")
    assert checks.gap_within(worse[:-1], targets, b.epsilon, "short vector")


def test_reloaded_distribution_matches(worked):
    b, dist, _ = worked
    data = json.loads(json.dumps(cli.distribution_to_dict(dist)))
    back = cli.distribution_from_dict(b.instance, b.model, data)
    assert checks.same_vector(back.expected, dist.expected, "reloaded") == []
    assert checks.same_vector(back.expected + 1e-6, dist.expected, "reloaded")


def test_custom_model_offsets_follow_merit():
    inst = fr.Instance.from_rows([("a", "A", 0.2), ("b", "A", 0.9), ("c", "A", 0.5)])
    model = value_model(fr, inst, {"kind": "custom", "position_scores": [5, 3, 3]})
    assert model.values(fr.merit_ranking(inst)).tolist() == [0.0, 0.0, 0.0]


def test_tracer_spans_self_time_and_missing_names():
    module = types.ModuleType("perfbench_fake")
    module.work = lambda: sum(range(1000))
    sys.modules["perfbench_fake"] = module
    try:
        tracer = Tracer()
        original = module.work
        assert tracer.wrap("perfbench_fake", "work", "inner")
        assert not tracer.wrap("perfbench_fake", "gone", "missing")
        with tracer.span("outer"):
            module.work()
            module.work()
        tracer.unwrap()
        assert module.work is original
    finally:
        del sys.modules["perfbench_fake"]
    totals = layer_totals(tracer.spans)
    assert totals["inner"]["calls"] == 2 and "missing" not in totals
    outer = totals["outer"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - totals["inner"]["total_s"])
