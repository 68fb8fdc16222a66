"""Maxmin-fair ranking under prefix group-fairness constraints.

Build an :class:`Instance`, pick a :class:`ValueModel` preset, state prefix
group bounds as a :class:`ConstraintSet` (caps and, for one or two groups,
floors), then call :func:`solve_maxmin` for a randomized
ranking policy that lexicographically maximizes the sorted vector of
expected per-individual satisfactions.  The :mod:`fairrank.analysis` module
holds exact small-instance oracles and fairness metrics; the
:mod:`fairrank.cli` module exposes everything as a command line tool.
"""

from .core import (
    ConstraintSet,
    Individual,
    Instance,
    Ranking,
    ValueModel,
    build_rule_constraints,
    ceil_alpha_constraints,
    floor_balanced_constraints,
    is_feasible,
    is_valid,
    merit_ranking,
    to_upper_only,
)
from .errors import (
    DuplicateId,
    FairRankingError,
    InfeasibleConstraints,
    InstanceTooLarge,
    IterationCapExceeded,
    ParseError,
)
from .oracle import best_response
from .baseline import baseline_min_value, deterministic_baseline
from .analysis import (
    FairDecomposition,
    MetricsReport,
    dcg,
    distribution_dcg,
    enumerate_valid_rankings,
    fair_decomposition,
    gini,
    lorenz_dominates,
    max_total_value,
    metrics_for_distribution,
    metrics_for_ranking,
    min_satisfaction_bound,
    spread,
)
from .solver import (
    FairDistribution,
    SolverConfig,
    sample,
    solve_maxmin,
)

__version__ = "0.1.0"

__all__ = [
    "Individual",
    "Instance",
    "Ranking",
    "ValueModel",
    "ConstraintSet",
    "merit_ranking",
    "is_valid",
    "ceil_alpha_constraints",
    "floor_balanced_constraints",
    "build_rule_constraints",
    "to_upper_only",
    "is_feasible",
    "best_response",
    "deterministic_baseline",
    "baseline_min_value",
    "enumerate_valid_rankings",
    "max_total_value",
    "min_satisfaction_bound",
    "FairDecomposition",
    "fair_decomposition",
    "gini",
    "spread",
    "dcg",
    "distribution_dcg",
    "lorenz_dominates",
    "MetricsReport",
    "metrics_for_distribution",
    "metrics_for_ranking",
    "SolverConfig",
    "FairDistribution",
    "solve_maxmin",
    "sample",
    "FairRankingError",
    "InfeasibleConstraints",
    "InstanceTooLarge",
    "IterationCapExceeded",
    "ParseError",
    "DuplicateId",
]
