"""The package surface: which names ``fairrank`` exports, and from where,
and the README's python blocks."""

import re
from pathlib import Path

import fairrank
from fairrank import analysis, baseline, cli, core, errors, solver

PUBLIC = [
    "ConstraintSet", "DuplicateId", "FairDecomposition", "FairDistribution",
    "FairRankingError", "InfeasibleConstraints", "Instance", "InstanceTooLarge",
    "IterationCapExceeded", "MetricsReport", "ParseError", "Ranking",
    "SolverConfig", "ValueModel", "baseline_min_value",
    "ceil_alpha_constraints", "dcg",
    "deterministic_baseline", "distribution_dcg", "enumerate_valid_rankings",
    "fair_decomposition", "floor_balanced_constraints", "gini", "is_feasible",
    "is_valid", "lorenz_dominates", "max_total_value", "merit_ranking",
    "metrics_for_distribution", "metrics_for_ranking", "min_satisfaction_bound",
    "sample", "solve_maxmin", "spread", "to_upper_only",
]


def test_package_exports_each_public_name_once():
    """The 35 exported names all resolve, and each is listed by exactly one
    module."""
    assert sorted(fairrank.__all__) == PUBLIC
    for name in fairrank.__all__:
        assert getattr(fairrank, name) is not None
    listed = [
        name
        for module in (analysis, baseline, cli, core, errors, solver)
        for name in module.__all__
    ]
    assert len(listed) == len(set(listed))


def test_readme_python_blocks_run():
    """Every python block of README.md, in order in one namespace: a
    quickstart that imports a deleted module or a renamed public name
    fails here."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(block, namespace)
