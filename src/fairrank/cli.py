"""Command-line interface.

Subcommands::

    solve       compute a maxmin-fair distribution over valid rankings
    baseline    compute the deterministic merit-greedy ranking
    sample      draw one ranking from a stored distribution, first checking
                its probabilities, and every stored ranking against the
                constraints when ``--input`` is given
    metrics     re-evaluate a stored distribution against its instance and
                constraints
    decompose   exact satisfaction-block decomposition (from a table over
                group count vectors of at most 2**20 cells)
    experiment  compare fair and deterministic rankings over an alpha grid

Instances are CSV files with header ``id,group,score``; groups are indexed
by first appearance.  Constraints come either from a JSON file (explicit
bound tables or a named rule) or inline via ``--rule``/``--alpha``.  All
results are emitted as JSON, to stdout or ``--output``; a failure prints
``{"error": ...}`` as JSON to stderr instead.  Exit codes: 0 success, 2
malformed input, 3 infeasible constraints, 4 size or iteration guard
exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Sequence

from . import analysis, baseline as baseline_mod
from .core import (
    ConstraintSet,
    Instance,
    Ranking,
    ValueModel,
    build_rule_constraints,
    is_valid,
)
from .errors import (
    DuplicateId,
    FairRankingError,
    InfeasibleConstraints,
    InstanceTooLarge,
    IterationCapExceeded,
    ParseError,
)
from .solver import FairDistribution, SolverConfig, _check_mass, _draw_index, solve_maxmin

__all__ = [
    "parse_instance",
    "load_constraints",
    "distribution_to_dict",
    "distribution_from_dict",
    "run",
    "main",
]

_HEADER = ["id", "group", "score"]


def parse_instance(text: str) -> Instance:
    """Parse ``id,group,score`` CSV text into an instance.

    Raises :class:`ParseError` (with the offending 1-based row number) on a
    bad header, malformed row or score, and :class:`DuplicateId` on a
    repeated id.
    """
    reader = csv.reader(text.splitlines())
    rows = [row for row in reader]
    if not rows:
        raise ParseError("empty input")
    header = [c.strip() for c in rows[0]]
    if header != _HEADER:
        raise ParseError(f"expected header {','.join(_HEADER)!r}", row=1)
    seen: set[str] = set()
    triples: list[tuple[str, str, float]] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, got {len(row)}", row=lineno)
        id_, group, score_text = (c.strip() for c in row)
        if not id_:
            raise ParseError("empty id", row=lineno)
        if id_ in seen:
            raise DuplicateId(f"duplicate id {id_!r}", row=lineno)
        seen.add(id_)
        try:
            score = float(score_text)
        except ValueError:
            raise ParseError(f"bad score {score_text!r}", row=lineno) from None
        if score < 0:
            raise ParseError(f"negative score {score_text!r}", row=lineno)
        triples.append((id_, group, score))
    if not triples:
        raise ParseError("no data rows")
    return Instance.from_rows(triples)


def load_constraints(instance: Instance, spec: dict) -> ConstraintSet:
    """Build constraints from a JSON object.

    Either ``{"rule": "ceil-alpha", "alpha": .., "protected": ..}`` /
    ``{"rule": "floor-balanced", "start_k": ..}`` or explicit bound tables
    ``{"upper": {label: [..n integers..]}, "lower": {...}}``; groups
    missing from a table get vacuous bounds.  A field of the wrong JSON type
    raises ``ValueError``.
    """
    if not isinstance(spec, dict):
        raise ValueError("constraint JSON must be an object")
    if "rule" in spec:
        for key, kinds, what in (
            ("alpha", (int, float), "a number"),
            ("protected", (str, int), "a group label or index"),
            ("start_k", (int,), "an integer"),
        ):
            if spec.get(key) is not None and type(spec[key]) not in kinds:
                raise ValueError(f"constraint rule field {key!r} must be {what}")
        return build_rule_constraints(
            instance,
            spec["rule"],
            alpha=spec.get("alpha"),
            protected_group=spec.get("protected"),
            start_k=spec.get("start_k"),
        )
    if "upper" not in spec and "lower" not in spec:
        raise ValueError("constraint JSON needs a rule or bound tables")
    vac = ConstraintSet.vacuous(instance)
    upper = [list(row) for row in vac.upper]
    lower = [[0] * instance.n for _ in range(instance.n_groups)]
    for key, table in (("upper", upper), ("lower", lower)):
        tables = spec.get(key)
        if tables is None:
            continue
        if not isinstance(tables, dict):
            raise ValueError(f"{key} bounds must map group labels to lists")
        for label, bounds in tables.items():
            g = instance.group_index(label)
            if not (
                isinstance(bounds, list)
                and len(bounds) == instance.n
                and all(type(x) is int for x in bounds)
            ):
                raise ValueError(
                    f"{key} bounds for group {label!r} must list "
                    f"{instance.n} integers, one per prefix"
                )
            # ConstraintSet clips every bound to 0..n anyway; clipping here
            # keeps integers past int64 out of its array.
            table[g] = [min(max(x, 0), instance.n) for x in bounds]
    return ConstraintSet(upper, lower)


def _value_model(instance: Instance, name: str, k: int | None) -> ValueModel:
    if name == "position-diff":
        return ValueModel.position_diff(instance)
    if name == "log-ratio":
        return ValueModel.log_ratio(instance)
    if name == "top-k":
        if k is None:
            raise ValueError("--value-fn top-k needs --k")
        return ValueModel.top_k_selection(instance, k)
    raise ValueError(f"unknown value function {name!r}")


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def distribution_to_dict(distribution: FairDistribution) -> dict:
    """JSON-ready view of a distribution (probabilities at 12 significant
    digits)."""
    instance = distribution.instance
    return {
        "support": [
            {"probability": _sig12(p), "ranking": list(r.ids(instance))}
            for r, p in distribution.support
        ],
        "expected_satisfaction": distribution.expected_by_id(),
        "lambda_phases": list(distribution.lambda_phases),
        "oracle_calls": distribution.oracle_calls,
        "epsilon": distribution.epsilon,
    }


def distribution_from_dict(
    instance: Instance,
    value_model: ValueModel,
    data: dict,
    constraints: ConstraintSet | None = None,
) -> FairDistribution:
    """Rebuild a distribution emitted by :func:`distribution_to_dict`,
    re-evaluating satisfactions against the given instance and model.

    With ``constraints``, every stored ranking must satisfy them; the first
    that does not raises ``ValueError`` naming its support atom.
    """
    weighted = []
    for k, entry in enumerate(data["support"]):
        ranking = Ranking.from_ids(instance, entry["ranking"])
        if constraints is not None and not is_valid(ranking, instance, constraints):
            raise ValueError(
                f"support atom {k} (ranking {list(entry['ranking'])}) "
                "violates the constraints"
            )
        weighted.append(
            (ranking, float(entry["probability"]), value_model.values(ranking))
        )
    return FairDistribution(
        instance,
        weighted,
        lambda_phases=data.get("lambda_phases", ()),
        oracle_calls=data.get("oracle_calls", 0),
        epsilon=data.get("epsilon"),
    )


def _read(path: str) -> str:
    """A text input file; a leading UTF-8 byte-order mark is dropped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return fh.read()


def _read_distribution(path: str) -> dict:
    """A stored distribution, refused with ``ValueError`` unless its JSON
    has the shape and types :func:`distribution_to_dict` writes."""
    data = json.loads(_read(path))
    number = (int, float)
    if not (isinstance(data, dict) and isinstance(data.get("support"), list)):
        raise ValueError("a stored distribution is a JSON object with a support list")
    for k, entry in enumerate(data["support"]):
        if not (
            isinstance(entry, dict)
            and type(entry.get("probability")) in number
            and isinstance(entry.get("ranking"), list)
            and all(isinstance(u, str) for u in entry["ranking"])
        ):
            raise ValueError(
                f"support atom {k} needs a numeric probability and a ranking list of ids"
            )
    phases = data.get("lambda_phases", [])
    if not (
        isinstance(phases, list)
        and all(type(x) in number for x in phases)
        and type(data.get("oracle_calls", 0)) is int
        and type(data.get("epsilon")) in (*number, type(None))
    ):
        raise ValueError(
            "lambda_phases must list numbers, oracle_calls must be an integer "
            "and epsilon a number or null"
        )
    return data


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _instance_from_args(args) -> Instance:
    return parse_instance(_read(args.input))


def _constraints_from_args(args, instance: Instance) -> ConstraintSet:
    if args.constraints:
        spec = json.loads(_read(args.constraints))
        constraints = load_constraints(instance, spec)
    elif args.rule:
        protected = args.protected
        if args.rule == "ceil-alpha" and protected is None:
            protected = instance.group_labels[0]
        constraints = build_rule_constraints(
            instance,
            args.rule,
            alpha=args.alpha,
            protected_group=protected,
            start_k=args.start_k,
        )
    else:
        constraints = ConstraintSet.vacuous(instance)
    return constraints


def _solver_config(args) -> SolverConfig:
    return SolverConfig(epsilon=args.epsilon)


def _cmd_solve(args) -> dict:
    instance = _instance_from_args(args)
    constraints = _constraints_from_args(args, instance)
    value_model = _value_model(instance, args.value_fn, args.k)
    distribution = solve_maxmin(instance, constraints, value_model, _solver_config(args))
    payload = distribution_to_dict(distribution)
    payload["metrics"] = analysis.metrics_for_distribution(instance, distribution).to_dict()
    return payload


def _cmd_baseline(args) -> dict:
    instance = _instance_from_args(args)
    constraints = _constraints_from_args(args, instance)
    ranking = baseline_mod.deterministic_baseline(instance, constraints)
    value_model = _value_model(instance, args.value_fn, args.k)
    values = value_model.values(ranking)
    return {
        "ranking": list(ranking.ids(instance)),
        "values": {instance.ids[i]: float(values[i]) for i in range(instance.n)},
        "min_value": float(values.min()),
        "metrics": analysis.metrics_for_ranking(instance, value_model, ranking).to_dict(),
    }


def _cmd_sample(args) -> dict:
    data = _read_distribution(args.distribution)
    if args.input:
        instance = _instance_from_args(args)
        constraints = _constraints_from_args(args, instance)
        # Only the atoms' validity matters here; any value model will do.
        distribution_from_dict(
            instance, ValueModel.position_diff(instance), data, constraints
        )
    elif any(
        getattr(args, name) is not None
        for name in ("constraints", "rule", "alpha", "protected", "start_k")
    ):
        raise ValueError("checking against constraints needs --input")
    support = data["support"]
    probabilities = [float(e["probability"]) for e in support]
    _check_mass(probabilities)
    idx = _draw_index(probabilities, args.seed)
    return {"ranking": list(support[idx]["ranking"]), "seed": args.seed}


def _cmd_metrics(args) -> dict:
    instance = _instance_from_args(args)
    value_model = _value_model(instance, args.value_fn, args.k)
    data = _read_distribution(args.distribution)
    constraints = _constraints_from_args(args, instance)
    distribution = distribution_from_dict(instance, value_model, data, constraints)
    payload = analysis.metrics_for_distribution(instance, distribution).to_dict()
    payload["expected_satisfaction"] = distribution.expected_by_id()
    return payload


def _cmd_decompose(args) -> dict:
    instance = _instance_from_args(args)
    constraints = _constraints_from_args(args, instance)
    value_model = _value_model(instance, args.value_fn, args.k)
    decomposition = analysis.fair_decomposition(instance, constraints, value_model)
    return {
        "blocks": [
            {
                "individuals": [instance.ids[i] for i in members],
                "lambda": level,
            }
            for members, level in decomposition.blocks
        ],
        "targets": decomposition.targets_by_id(instance),
    }


def _cmd_experiment(args) -> dict:
    instance = _instance_from_args(args)
    value_model = _value_model(instance, args.value_fn, args.k)
    alphas = (
        [float(a) for a in str(args.alpha).split(",")]
        if args.alpha is not None
        else [0.1, 0.2, 0.3]
    )
    protected = args.protected if args.protected is not None else instance.group_labels[0]
    rows = []
    config = _solver_config(args)
    for alpha in alphas:
        constraints = build_rule_constraints(
            instance, "ceil-alpha", alpha=alpha,
            protected_group=protected, start_k=args.start_k,
        )
        distribution = solve_maxmin(instance, constraints, value_model, config)
        det = baseline_mod.deterministic_baseline(instance, constraints)
        fair_metrics = analysis.metrics_for_distribution(instance, distribution).to_dict()
        fair_metrics["support_size"] = distribution.support_size
        fair_metrics["oracle_calls"] = distribution.oracle_calls
        rows.append(
            {
                "alpha": alpha,
                "maxmin": fair_metrics,
                "deterministic": analysis.metrics_for_ranking(
                    instance, value_model, det
                ).to_dict(),
            }
        )
    return {
        "value_fn": args.value_fn,
        "epsilon": args.epsilon,
        "protected": protected,
        "alphas": alphas,
        "rows": rows,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairrank",
        description="Maxmin-fair ranking under prefix group-fairness constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance(p, input_required=True):
        p.add_argument("--input", required=input_required,
                       help="instance CSV path")
        p.add_argument("--constraints", help="constraint JSON path")
        p.add_argument("--rule", choices=["ceil-alpha", "floor-balanced"],
                       help="inline constraint rule")
        p.add_argument("--alpha", type=float, default=None,
                       help="protected share for the ceil-alpha rule")
        p.add_argument("--protected", default=None,
                       help="protected group label (default: first group)")
        p.add_argument("--start-k", type=int, default=None, dest="start_k",
                       help="first prefix length the rule applies to")

    def add_common(p, solver=False):
        add_instance(p)
        p.add_argument("--value-fn", default="position-diff", dest="value_fn",
                       choices=["position-diff", "log-ratio", "top-k"])
        p.add_argument("--k", type=int, default=None,
                       help="cutoff for the top-k value function")
        if solver:
            p.add_argument("--epsilon", type=float, default=0.01,
                           help="additive accuracy in value units")
        p.add_argument("--output", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("solve", help="maxmin-fair distribution")
    add_common(p, solver=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("baseline", help="deterministic merit-greedy ranking")
    add_common(p)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("sample", help="draw one ranking from a stored distribution")
    add_instance(p, input_required=False)
    p.add_argument("--distribution", required=True, help="distribution JSON path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("metrics", help="re-evaluate a stored distribution")
    add_common(p)
    p.add_argument("--distribution", required=True, help="distribution JSON path")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("decompose", help="exact satisfaction-block decomposition")
    add_common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("experiment", help="fair vs deterministic over an alpha grid")
    p.add_argument("--input", required=True)
    p.add_argument("--alpha", default=None,
                   help="comma-separated alpha grid (default 0.1,0.2,0.3)")
    p.add_argument("--protected", default=None)
    p.add_argument("--start-k", type=int, default=None, dest="start_k")
    p.add_argument("--value-fn", default="position-diff", dest="value_fn",
                   choices=["position-diff", "log-ratio", "top-k"])
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_experiment)

    return parser


_EXIT_PARSE = 2
_EXIT_INFEASIBLE = 3
_EXIT_GUARD = 4


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, execute the chosen command, print JSON.

    Failures print ``{"error": ...}`` to stderr and return the
    class-specific exit code instead of raising.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.func(args)
    except (InstanceTooLarge, IterationCapExceeded) as exc:
        _emit_error(exc)
        return _EXIT_GUARD
    except InfeasibleConstraints as exc:
        _emit_error(exc)
        return _EXIT_INFEASIBLE
    except (ParseError, DuplicateId, ValueError, KeyError,
            json.JSONDecodeError, OSError, FairRankingError) as exc:
        _emit_error(exc)
        return _EXIT_PARSE
    _emit(payload, args.output)
    return 0


def _emit_error(exc: Exception) -> None:
    info: dict = {"type": type(exc).__name__, "message": str(exc)}
    row = getattr(exc, "row", None)
    if row is not None:
        info["row"] = row
    print(json.dumps({"error": info}, indent=2), file=sys.stderr)


def main() -> None:
    sys.exit(run())
