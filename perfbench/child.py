"""Fresh-interpreter helper for the benchmark.

    child.py setup <workload> <seed>
        Time ``import fairrank`` and the build of the workload's cases; print
        ``{"import_s": .., "build_s": ..}``.
    child.py cli <trace file> <fairrank arguments...>
        Run one ``fairrank`` command in process with layer spans recorded,
        write the spans to the trace file and exit with the command's code.

Nothing heavy is imported before the clock starts, so ``import_s`` is the
package's own import cost.  ``PYTHONPATH`` must point at ``src``.
"""

import json
import sys
from time import perf_counter

# Names ``fairrank.cli`` resolves through module globals on every call.
CLI_HOOKS = (
    ("fairrank.cli", "parse_instance", "cli.parse_instance"),
    ("fairrank.cli", "build_rule_constraints", "core.constraints"),
    ("fairrank.cli", "load_constraints", "core.constraints"),
    ("fairrank.cli", "to_upper_only", "core.constraints"),
    ("fairrank.cli", "is_feasible", "core.constraints"),
    ("fairrank.cli", "solve_maxmin", "solver.solve"),
    ("fairrank.cli", "distribution_to_dict", "cli.emit"),
    ("json", "dumps", "cli.emit"),
    ("fairrank.cli", "distribution_from_dict", "cli.load_distribution"),
    ("fairrank.baseline", "deterministic_baseline", "baseline.deterministic"),
    ("fairrank.analysis", "fair_decomposition", "analysis.decompose"),
    ("fairrank.analysis", "metrics_for_distribution", "analysis.metrics"),
    ("fairrank.analysis", "metrics_for_ranking", "analysis.metrics"),
)


def setup(workload: str, seed: int) -> None:
    t0 = perf_counter()
    import fairrank
    import fairrank.cli

    t1 = perf_counter()
    from tracer import NullTracer
    from workloads import GENERATORS, build

    cases = GENERATORS[workload](seed)
    t2 = perf_counter()
    for case in cases:
        build(fairrank, fairrank.cli, case, NullTracer())
    t3 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t3 - t2}))


def cli(trace_path: str, argv: list[str]) -> int:
    from tracer import SOLVER_HOOKS, Tracer

    tracer = Tracer()
    with tracer.span("import.fairrank"):
        import fairrank.cli
    for module, attr, name in SOLVER_HOOKS + CLI_HOOKS:
        tracer.wrap(module, attr, name)
    try:
        code = fairrank.cli.run(argv)
    finally:
        tracer.unwrap()
    tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2], int(sys.argv[3]))
    elif mode == "cli":
        sys.exit(cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {mode!r}")
