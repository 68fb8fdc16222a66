"""The package surface: which names ``fairrank`` exports, and from where,
which sibling modules each library module imports, and the README's python
blocks."""

import ast
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


def test_library_modules_import_only_core_and_errors():
    """``core`` and ``errors`` are the layer every other module builds on:
    ``analysis``, ``baseline`` and ``solver`` import no sibling but those
    two, so any of them may call any other's core code; only ``cli`` and
    the package itself import the rest.  The count table is core's, and
    ``analysis`` exports that one object."""
    allowed = {"errors": set(), "core": {"errors"}}
    allowed.update(dict.fromkeys(["analysis", "baseline", "solver"], {"core", "errors"}))
    for name, siblings in allowed.items():
        module = getattr(fairrank, name)
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    imported.add(node.module.split(".")[0])
                else:
                    imported.update(alias.name for alias in node.names)
        assert imported <= siblings, (name, imported - siblings)
    assert fairrank.fair_decomposition is analysis.fair_decomposition is core.fair_decomposition


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
