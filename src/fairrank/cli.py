"""Command-line interface.

Subcommands::

    solve       compute a maxmin-fair distribution over valid rankings
    baseline    compute the deterministic merit-greedy ranking
    sample      draw one ranking from a stored distribution, the one
                ``fairrank.sample`` draws for the same file and seed; the
                roster is ``--input`` (whose constraints every stored
                ranking must meet) or else the first stored ranking's ids
    metrics     re-evaluate a stored distribution against its instance and
                constraints
    decompose   exact satisfaction-block decomposition (from a table over
                group count vectors of at most 2**20 cells)
    experiment  compare fair and deterministic rankings over an alpha grid

Instances are CSV files with header ``id,group,score``; groups are indexed
by first appearance.  Constraints come either from a JSON file (explicit
bound tables or a named rule) or inline via ``--rule``/``--alpha``, not
both; the flags spell the rule object a file would hold, and
:func:`load_constraints` reads either.  A constraint flag or JSON key the
chosen source does not read is refused, and so is ``--k`` without
``--value-fn top-k``.  All results are emitted as JSON, to stdout or
``--output``; a failure prints ``{"error": ...}`` as JSON to stderr
instead.  Exit codes: 0 success, 2 malformed input, 3 infeasible
constraints, 4 size or iteration guard exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Sequence

import numpy as np

from . import analysis, baseline as baseline_mod
from .core import (
    ConstraintSet,
    Instance,
    Ranking,
    ValueModel,
    _vacuous_upper,
    ceil_alpha_constraints,
    floor_balanced_constraints,
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
from .solver import FairDistribution, SolverConfig, _check_mass, sample, solve_maxmin

__all__ = [
    "parse_instance",
    "load_constraints",
    "distribution_to_dict",
    "distribution_from_dict",
    "run",
    "main",
]

_HEADER = ["id", "group", "score"]

# The fields each constraint rule reads besides its name; the JSON form
# refuses any other key, and ``--rule`` takes its choices from here.
_RULE_FIELDS = {
    "ceil-alpha": ("alpha", "protected", "start_k"),
    "floor-balanced": ("start_k",),
}


def parse_instance(text: str) -> Instance:
    """Parse ``id,group,score`` CSV text into an instance.

    Records end where CSV ends them: at a line break outside quotes, so a
    quoted field may hold a line break, and other characters that
    ``str.splitlines`` breaks at (U+2028, a form feed) are field text.
    Raises :class:`ParseError` (with the 1-based line on which the offending
    record ends) on text the ``csv`` module refuses, such as a field over
    its size limit, on a bad header, a malformed row, an empty id or group,
    or a score that is not a finite nonnegative number, and
    :class:`DuplicateId` on a repeated id.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:
        raise ParseError(str(exc), row=reader.line_num) from None
    if not rows:
        raise ParseError("empty input")
    header = [c.strip() for c in rows[0][1]]
    if header != _HEADER:
        raise ParseError(f"expected header {','.join(_HEADER)!r}", row=1)
    seen: set[str] = set()
    triples: list[tuple[str, str, float]] = []
    for lineno, row in rows[1:]:
        if not "".join(row).strip():
            continue
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, got {len(row)}", row=lineno)
        id_, group, score_text = map(str.strip, row)
        if not id_:
            raise ParseError("empty id", row=lineno)
        if not group:
            raise ParseError("empty group", row=lineno)
        if id_ in seen:
            raise DuplicateId(f"duplicate id {id_!r}", row=lineno)
        seen.add(id_)
        try:
            score = float(score_text)
        except ValueError:
            raise ParseError(f"bad score {score_text!r}", row=lineno) from None
        if not 0 <= score < math.inf:
            raise ParseError(f"score {score_text!r} is negative or not finite", row=lineno)
        triples.append((id_, group, score))
    if not triples:
        raise ParseError("no data rows")
    return Instance.from_rows(triples)


def load_constraints(instance: Instance, spec: dict) -> ConstraintSet:
    """Build constraints from a JSON object: the one reader of rule objects,
    whether they come from a file, the rule flags or ``experiment``.

    Either ``{"rule": "ceil-alpha", "alpha": .., "protected": ..,
    "start_k": ..}`` / ``{"rule": "floor-balanced", "start_k": ..}`` or
    explicit bound tables ``{"upper": {label: [..n integers..]}, "lower":
    {...}}``; groups missing from a table get vacuous bounds: cap
    ``min(i, |group|)`` on the first ``i`` positions, floor 0.  Either form
    builds one constraint set.  A key the chosen form does not read, an
    unknown rule, a field of the wrong JSON type and a ceil-alpha rule
    without ``alpha`` or ``protected`` raise ``ValueError``; an absent or
    null ``start_k`` leaves the rule's own default.
    """
    if not isinstance(spec, dict):
        raise ValueError("constraint JSON must be an object")
    if "rule" in spec:
        rule = spec["rule"]
        if not (isinstance(rule, str) and rule in _RULE_FIELDS):
            raise ValueError(f"unknown constraint rule {rule!r}")
        _refuse_unread(spec, ("rule", *_RULE_FIELDS[rule]))
        for key, kinds, what in (
            ("alpha", (int, float), "a number"),
            ("protected", (str, int), "a group label or index"),
            ("start_k", (int,), "an integer"),
        ):
            if spec.get(key) is not None and type(spec[key]) not in kinds:
                raise ValueError(f"constraint rule field {key!r} must be {what}")
        start = {} if spec.get("start_k") is None else {"start_k": spec["start_k"]}
        if rule == "floor-balanced":
            return floor_balanced_constraints(instance, **start)
        for key, what in (("alpha", "alpha"), ("protected", "a protected group")):
            if spec.get(key) is None:
                raise ValueError(f"the ceil-alpha rule needs {what}")
        return ceil_alpha_constraints(instance, spec["alpha"], spec["protected"], **start)
    _refuse_unread(spec, ("upper", "lower"))
    if not spec:
        raise ValueError("constraint JSON needs a rule or bound tables")
    n = instance.n
    upper = _vacuous_upper(instance)
    lower = [[0] * n for _ in range(instance.n_groups)]
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
                and len(bounds) == n
                and all(type(x) is int for x in bounds)
            ):
                raise ValueError(
                    f"{key} bounds for group {label!r} must list "
                    f"{n} integers, one per prefix"
                )
            # Clipping keeps integers past int64 out of ConstraintSet's
            # array; testing the range first spares most bounds min/max.
            table[g] = [x if 0 <= x <= n else min(max(x, 0), n) for x in bounds]
    return ConstraintSet(upper, lower)


def _refuse_unread(spec: dict, read: tuple[str, ...]) -> None:
    """``ValueError`` naming the first key of ``spec`` not in ``read``."""
    for key in spec:
        if key not in read:
            raise ValueError(
                f"constraint JSON key {key!r} is not read; this form reads "
                + ", ".join(map(repr, read))
            )


# Every ``--value-fn`` name, with the model it builds from the roster (and
# ``--k`` for top-k); both parsers take their choices from here.
_VALUE_FNS = {
    "position-diff": ValueModel.position_diff,
    "log-ratio": ValueModel.log_ratio,
    "top-k": ValueModel.top_k_selection,
}


def _value_model(args, instance: Instance) -> ValueModel:
    """The ``--value-fn`` model of the roster; ``ValueError`` unless ``--k``
    is given exactly when the top-k model reads it."""
    if args.value_fn == "top-k" and args.k is None:
        raise ValueError("--value-fn top-k needs --k")
    if args.value_fn != "top-k" and args.k is not None:
        raise ValueError("--k needs --value-fn top-k")
    k = () if args.k is None else (args.k,)
    return _VALUE_FNS[args.value_fn](instance, *k)


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

    ``data`` is refused with ``ValueError`` unless it has the shape and JSON
    types :func:`distribution_to_dict` writes, with every probability, phase
    and epsilon a finite number within float range, and so is a stored
    ranking that does not list every roster id once.  With ``constraints``, every
    stored ranking must satisfy them; the first that does not raises
    ``ValueError`` naming its support atom.  The stored probabilities must
    each be at least zero, the first negative one named by its support
    atom, and sum to one within 1e-9.  This reader is where a stored file
    is normalized: a ranking listed more than once becomes one atom with the
    summed probability, at its first appearance, and atoms of probability
    zero are dropped.
    """
    _check_stored(data)
    merged: dict[Ranking, float] = {}
    for k, entry in enumerate(data["support"]):
        ranking = Ranking.from_ids(instance, entry["ranking"])
        if constraints is not None and not is_valid(ranking, instance, constraints):
            raise ValueError(
                f"support atom {k} (ranking {list(entry['ranking'])}) "
                "violates the constraints"
            )
        if entry["probability"] != 0:
            merged[ranking] = merged.get(ranking, 0.0) + entry["probability"]
    rows = np.array([value_model.values(r) for r in merged])
    _check_mass([entry["probability"] for entry in data["support"]])
    return FairDistribution(
        instance,
        list(merged),
        list(merged.values()),
        rows,
        lambda_phases=data.get("lambda_phases", ()),
        oracle_calls=data.get("oracle_calls", 0),
        epsilon=data.get("epsilon"),
    )


def _read(path: str) -> str:
    """A text input file; a leading UTF-8 byte-order mark is dropped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return fh.read()


def _read_json(path: str):
    """A JSON input file; nesting too deep for the parser is a
    ``ValueError``, like any other malformed JSON."""
    try:
        return json.loads(_read(path))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _finite(x) -> bool:
    """Whether ``x`` is a JSON number within float range: an integer of 400
    digits would overflow where the reader sums or stores it."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def _check_stored(data) -> None:
    """``ValueError`` unless ``data`` has the shape and JSON types of a
    stored distribution, every number finite and within float range."""
    if not (isinstance(data, dict) and isinstance(data.get("support"), list)):
        raise ValueError("a stored distribution is a JSON object with a support list")
    for k, entry in enumerate(data["support"]):
        if not (
            isinstance(entry, dict)
            and _finite(entry.get("probability"))
            and isinstance(entry.get("ranking"), list)
            and all(isinstance(u, str) for u in entry["ranking"])
        ):
            raise ValueError(
                f"support atom {k} needs a finite probability and a ranking list of ids"
            )
    phases = data.get("lambda_phases", [])
    if not (
        isinstance(phases, list)
        and all(map(_finite, phases))
        and type(data.get("oracle_calls", 0)) is int
        and (data.get("epsilon") is None or _finite(data["epsilon"]))
    ):
        raise ValueError(
            "lambda_phases must list finite numbers, oracle_calls must be an "
            "integer and epsilon a finite number or null"
        )


def _stored_roster(data) -> Instance:
    """The roster of a stored distribution read without ``--input``: the
    ids of its first ranking, in one group with zero scores.  An empty
    support names no ids; one blank id stands in, and the mass check then
    refuses the file."""
    _check_stored(data)
    support = data["support"]
    ids = support[0]["ranking"] if support else [""]
    return Instance.from_rows((u, "", 0.0) for u in ids)


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _rule_object(args, instance: Instance, alpha) -> dict:
    """The rule object that ``args.rule``, ``alpha``, ``--protected`` and
    ``--start-k`` spell, unset flags dropped; ceil-alpha protects the first
    group unless ``--protected`` names one."""
    protected = args.protected
    if args.rule == "ceil-alpha" and protected is None:
        protected = instance.group_labels[0]
    spec = {"rule": args.rule, "alpha": alpha, "protected": protected, "start_k": args.start_k}
    return {key: value for key, value in spec.items() if value is not None}


def _constraints_from_args(args, instance: Instance) -> ConstraintSet:
    """The constraint set the flags name; ``ValueError`` for a flag that
    would otherwise be ignored."""
    if args.rule and args.constraints:
        raise ValueError("--rule and --constraints cannot be combined")
    for flag, value in (("--alpha", args.alpha), ("--protected", args.protected)):
        if value is not None and args.rule != "ceil-alpha":
            raise ValueError(f"{flag} needs --rule ceil-alpha")
    if args.start_k is not None and not args.rule:
        raise ValueError("--start-k needs --rule")
    if args.constraints:
        return load_constraints(instance, _read_json(args.constraints))
    if not args.rule:
        return ConstraintSet.vacuous(instance)
    return load_constraints(instance, _rule_object(args, instance, args.alpha))


def _cmd_solve(args) -> dict:
    instance = parse_instance(_read(args.input))
    constraints = _constraints_from_args(args, instance)
    value_model = _value_model(args, instance)
    config = SolverConfig(args.epsilon)
    distribution = solve_maxmin(instance, constraints, value_model, config)
    payload = distribution_to_dict(distribution)
    payload["metrics"] = analysis.metrics_for_distribution(instance, distribution).to_dict()
    return payload


def _cmd_baseline(args) -> dict:
    instance = parse_instance(_read(args.input))
    constraints = _constraints_from_args(args, instance)
    ranking = baseline_mod.deterministic_baseline(instance, constraints)
    value_model = _value_model(args, instance)
    values = value_model.values(ranking)
    return {
        "ranking": list(ranking.ids(instance)),
        "values": {instance.ids[i]: float(values[i]) for i in range(instance.n)},
        "min_value": float(values.min()),
        "metrics": analysis.metrics_for_ranking(instance, value_model, ranking).to_dict(),
    }


def _cmd_sample(args) -> dict:
    data = _read_json(args.distribution)
    if args.input:
        instance = parse_instance(_read(args.input))
        constraints = _constraints_from_args(args, instance)
    elif any(
        getattr(args, name) is not None
        for name in ("constraints", "rule", "alpha", "protected", "start_k")
    ):
        raise ValueError("checking against constraints needs --input")
    else:
        instance, constraints = _stored_roster(data), None
    # A draw reads no values, so a zero value model will do.
    zero = ValueModel.custom([0.0] * instance.n, [0.0] * instance.n)
    distribution = distribution_from_dict(instance, zero, data, constraints)
    ranking = sample(distribution, args.seed)
    return {"ranking": list(ranking.ids(instance)), "seed": args.seed}


def _cmd_metrics(args) -> dict:
    instance = parse_instance(_read(args.input))
    value_model = _value_model(args, instance)
    data = _read_json(args.distribution)
    constraints = _constraints_from_args(args, instance)
    distribution = distribution_from_dict(instance, value_model, data, constraints)
    payload = analysis.metrics_for_distribution(instance, distribution).to_dict()
    payload["expected_satisfaction"] = distribution.expected_by_id()
    return payload


def _cmd_decompose(args) -> dict:
    instance = parse_instance(_read(args.input))
    constraints = _constraints_from_args(args, instance)
    value_model = _value_model(args, instance)
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
    instance = parse_instance(_read(args.input))
    value_model = _value_model(args, instance)
    alphas = (
        [float(a) for a in str(args.alpha).split(",")]
        if args.alpha is not None
        else [0.1, 0.2, 0.3]
    )
    rules = [_rule_object(args, instance, alpha) for alpha in alphas]
    rows = []
    config = SolverConfig(args.epsilon)
    for rule in rules:
        constraints = load_constraints(instance, rule)
        distribution = solve_maxmin(instance, constraints, value_model, config)
        det = baseline_mod.deterministic_baseline(instance, constraints)
        fair_metrics = analysis.metrics_for_distribution(instance, distribution).to_dict()
        fair_metrics["support_size"] = distribution.support_size
        fair_metrics["oracle_calls"] = distribution.oracle_calls
        rows.append(
            {
                "alpha": rule["alpha"],
                "maxmin": fair_metrics,
                "deterministic": analysis.metrics_for_ranking(
                    instance, value_model, det
                ).to_dict(),
            }
        )
    return {
        "value_fn": args.value_fn,
        "epsilon": args.epsilon,
        "protected": rules[0]["protected"],
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
        p.add_argument("--rule", choices=list(_RULE_FIELDS),
                       help="inline constraint rule")
        p.add_argument("--alpha", type=float, default=None,
                       help="protected share for the ceil-alpha rule")
        p.add_argument("--protected", default=None,
                       help="protected group label (default: first group)")
        p.add_argument("--start-k", type=int, default=None, dest="start_k",
                       help="first prefix length the rule applies to")

    def add_value_model(p, epsilon=None):
        p.add_argument("--value-fn", default="position-diff", dest="value_fn",
                       choices=list(_VALUE_FNS))
        p.add_argument("--k", type=int, default=None,
                       help="cutoff for the top-k value function")
        if epsilon is not None:
            p.add_argument("--epsilon", type=float, default=epsilon,
                           help="additive accuracy in value units")
        p.add_argument("--output", default=None, help="write JSON here instead of stdout")

    def add_common(p, epsilon=None):
        add_instance(p)
        add_value_model(p, epsilon)

    p = sub.add_parser("solve", help="maxmin-fair distribution")
    add_common(p, epsilon=0.01)
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
    add_value_model(p, epsilon=1.0)
    p.set_defaults(func=_cmd_experiment, rule="ceil-alpha")

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
        _emit(args.func(args), args.output)
    except (InstanceTooLarge, IterationCapExceeded) as exc:
        _emit_error(exc)
        return _EXIT_GUARD
    except InfeasibleConstraints as exc:
        _emit_error(exc)
        return _EXIT_INFEASIBLE
    except (ValueError, KeyError, OSError, FairRankingError) as exc:
        _emit_error(exc)
        return _EXIT_PARSE
    return 0


def _emit_error(exc: Exception) -> None:
    info: dict = {"type": type(exc).__name__, "message": str(exc)}
    row = getattr(exc, "row", None)
    if row is not None:
        info["row"] = row
    print(json.dumps({"error": info}, indent=2), file=sys.stderr)


def main() -> None:
    sys.exit(run())
