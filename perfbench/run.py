"""fairrank benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact-small --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports ``fairrank`` from ``src/`` and
writes scratch files only under ``perfbench/.work/``.  One client drives each
workload in a closed loop: the next operation starts when the previous one
has been checked.  There are no threads and at most one child process at a
time.

A run repeats whole passes over the workload's cases while the last pass
still fits in ``--seconds`` (always at least one pass), so every run sees the
same mix of cases.  Every operation's output is checked; an operation whose
output fails a check counts as failed, and a failed solve does not count as
a verified one.  An in-process solve still running after 30 s is stopped
and fails its operation, so that a stalled solve cannot hold the run past
its time limit.

``--trace 0`` reports the end-to-end metrics (``BENCHMARK.json`` lists them):

* ``setup_s``: median over fresh interpreters of ``import fairrank`` plus
  building the workload's instances, constraints and value models.
* ``solves_per_s``: verified solves per second of solve wall time.  On
  ``cli`` a solve is a ``fairrank solve`` call, interpreter start included.
* ``solve_p50_ms`` / ``solve_p95_ms``: per-solve latency (linear
  interpolation; the sample counts are printed on the line before the
  result).

The three solve metrics are taken within each balanced group of cases (one
rotation of exact-small's 84 combinations, one row order of ceil-mid's four
cases, one pass of cli) and reported as the median over groups: one rare
stalled solve then moves one group, not the run, and ceil-mid's median does
not sit on the edge between two cases' times.
* ``cli_p50_s``: median wall time of a ``fairrank`` call.  On ``cli`` that is
  every call of the loop; the in-process workloads make a few
  ``fairrank baseline`` calls on their first case, spread over the first
  pass like the set-up samples.
* ``peak_rss_mb``: peak resident set of this process plus its largest child.

Failed operations over attempted ones is the result line's ``failed`` and
``attempted``; it is not a metric, because metrics must never read 0.

``--trace 1`` makes exactly one pass and runs each operation twice,
untraced and then traced, so per-layer counts repeat exactly for a seed.  It
reports span counts and times of the traced copies (set-up spans included),
``trace.overhead`` as traced over untraced solve time minus one, and
``import.fairrank_s`` as a median over fresh interpreters.  Spans are kept
in memory and written to ``perfbench/.work/`` at the end.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"

SIDE_SAMPLES = 7  # fresh-interpreter set-ups, and CLI probes on in-process workloads
CALL_TIMEOUT_S = 60  # one CLI call
SOLVE_TIMEOUT_S = 30  # one in-process solve; the slowest case normally takes under 10 s

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from tracer import SOLVER_HOOKS, NullTracer, Tracer, layer_totals  # noqa: E402
from workloads import (  # noqa: E402
    CEIL_MID_SHUFFLES,
    GENERATORS,
    ROTATION_PERIOD,
    WORKLOADS,
    build,
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, float]:
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=child_env(),
        capture_output=True, text=True, timeout=CALL_TIMEOUT_S,
    )
    return proc, perf_counter() - t0


def p95(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment(args, fr_versions: dict) -> dict:
    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    commit = "unknown"  # a checkout without .git, or inside another repository
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    threads = "unknown"
    for line in _read("/proc/self/status").splitlines():
        if line.startswith("Threads:"):
            threads = int(line.split()[1])
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **fr_versions,
        "blas_threads": blas_threads(),
        "process_threads_after_import": threads,
        "thread_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def blas_threads():
    """OpenBLAS's own thread count, asked through its C API."""
    paths = {
        line.split()[-1] for line in _read("/proc/self/maps").splitlines()
        if "openblas" in line.lower()
    }
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def library_versions(np) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": blas.get("name", "unknown"),
        "blas_config": blas.get("openblas configuration", ""),
    }


class Workload:
    """Shared loop, counters and reporting; subclasses run one operation."""

    def __init__(self, fr, cli, args, tracer, cases):
        self.fr = fr
        self.cli = cli
        self.args = args
        self.tracer = tracer
        self.cases = cases
        self.attempted = 0
        self.failures: list[str] = []
        self.solve_s: list[float] = []        # every solve, untraced timing
        self.traced_solve_s: list[float] = []
        self.group = (0, 0)  # (pass, balanced group) of the running operation
        self.solve_group: list[tuple] = []     # the group of each solve
        self.verified_group: list[tuple] = []
        self.oracle_calls: list[int] = []
        self.support: list[int] = []
        self.phases: list[int] = []
        self.gaps: list[float] = []
        self.call_s: list[float] = []
        self.setup: list[dict] = []
        self.passes = 0
        self.tmp = Path(tempfile.mkdtemp(dir=WORK))

    def ops(self) -> int:
        return len(self.cases)

    def group_size(self) -> int:
        return self.ops()

    def side_work(self) -> list:
        """Fresh-interpreter samples, run between operations of the first
        pass: spread over the run, a burst of machine noise lands on a few
        of them instead of all."""
        return [self.setup_sample] * SIDE_SAMPLES

    def setup_sample(self) -> None:
        args = self.args
        proc, _ = run_child([str(HERE / "child.py"), "setup", args.workload, str(args.seed)])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        self.setup.append(json.loads(proc.stdout))

    def run(self, seconds: float) -> None:
        side = self.side_work()
        n = self.ops()
        due = [int((i + 0.5) * n / len(side)) for i in range(len(side))]
        start = perf_counter()
        last = 0.0
        while self.passes == 0 or (
            not self.tracer.enabled and perf_counter() - start + last <= seconds
        ):
            t = perf_counter()
            for k in range(n):
                self.tracer.op = self.attempted
                self.attempted += 1
                self.group = (self.passes, k // self.group_size())
                before = len(self.solve_s)
                try:
                    failures = self.op(k)
                except Exception as exc:  # one failed operation must not end the run
                    failures = [f"{type(exc).__name__}: {exc}"]
                self.solve_group += [self.group] * (len(self.solve_s) - before)
                if failures:
                    self.failures.append(f"op {k}: " + "; ".join(failures))
                while side and self.passes == 0 and due[0] == k:
                    due.pop(0)
                    side.pop(0)()
            self.passes += 1
            last = perf_counter() - t

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def end_to_end(self) -> dict:
        rss_kb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
        return {
            "setup_s": (statistics.median(s["import_s"] + s["build_s"] for s in self.setup), "s"),
            "solves_per_s": (self.by_group(lambda g, t: self.verified_group.count(g) / sum(t)), "1/s"),
            "solve_p50_ms": (1e3 * self.by_group(lambda g, t: statistics.median(t)), "ms"),
            "solve_p95_ms": (1e3 * self.by_group(lambda g, t: p95(t)), "ms"),
            "cli_p50_s": (statistics.median(self.call_s), "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }

    def by_group(self, stat) -> float:
        """``stat(group, solve times)`` of each balanced group, as the
        median over groups."""
        times: dict[tuple, list[float]] = {}
        for group, s in zip(self.solve_group, self.solve_s):
            times.setdefault(group, []).append(s)
        return statistics.median(stat(g, t) for g, t in times.items())

    def per_layer(self) -> dict:
        t = layer_totals(self.tracer.spans)

        def calls(name):
            return t.get(name, {}).get("calls", 0)

        def total(name):
            return t.get(name, {}).get("total_s", 0.0)

        def self_s(name):
            return t.get(name, {}).get("self_s", 0.0)

        oracle = self_s("oracle.weight_order_key") + self_s("oracle.best_response")
        solve = total("solver.solve")
        return {
            "import.fairrank_s": (self.import_s(), "s"),
            "cli.parse_instance_s": (total("cli.parse_instance"), "s"),
            "cli.emit_s": (total("cli.emit"), "s"),
            "cli.load_distribution_s": (total("cli.load_distribution"), "s"),
            "core.constraints_s": (total("core.constraints"), "s"),
            "oracle.calls": (calls("oracle.weight_order_key"), "count"),
            "oracle.best_response_calls": (calls("oracle.best_response"), "count"),
            "oracle.self_s": (oracle, "s"),
            "oracle.share": (oracle / solve if solve else 0.0, "share"),
            "solver.solve_s": (solve, "s"),
            "solver.lp_calls": (calls("solver.linprog"), "count"),
            "solver.lp_s": (total("solver.linprog"), "s"),
            "solver.prune_s": (total("solver.prune"), "s"),
            "solver.self_s": (self_s("solver.solve"), "s"),
            "solver.support_size": (statistics.mean(self.support), "count"),
            "solver.phases": (statistics.mean(self.phases), "count"),
            "solver.max_sorted_gap": (max(self.gaps), "value"),
            "solver.max_oracle_calls": (max(self.oracle_calls), "count"),
            "baseline.deterministic_s": (total("baseline.deterministic"), "s"),
            "analysis.decompose_s": (total("analysis.decompose"), "s"),
            "analysis.metrics_s": (total("analysis.metrics"), "s"),
            "trace.overhead": (sum(self.traced_solve_s) / sum(self.solve_s) - 1.0, "share"),
        }

    def import_s(self) -> float:
        return statistics.median(s["import_s"] for s in self.setup)

    def samples(self) -> dict:
        return {
            "passes": self.passes,
            "solves": len(self.solve_s),
            "verified_solves": len(self.verified_group),
            "solve_groups": len(set(self.solve_group)),
            "cli_calls": len(self.call_s),
        }


def _solve_timed_out(signum, frame):
    raise TimeoutError(f"solve exceeded {SOLVE_TIMEOUT_S} s")


class InProcess(Workload):
    """exact-small and ceil-mid: ``solve_maxmin`` called in this process."""

    def __init__(self, fr, cli, args, tracer, cases):
        super().__init__(fr, cli, args, tracer, cases)
        self.built = [build(fr, cli, case, tracer) for case in cases]
        self.references: dict[int, tuple] = {}
        signal.signal(signal.SIGALRM, _solve_timed_out)

    def solve(self, b, times: list[float]):
        """One solve under a time budget, so a stalled solve fails the
        operation instead of the run's time limit.  Its time counts even
        when it fails: the caller waited for it."""
        config = self.fr.SolverConfig(epsilon=b.epsilon)
        t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SOLVE_TIMEOUT_S)
        try:
            return self.fr.solve_maxmin(b.instance, b.constraints, b.model, config)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            times.append(perf_counter() - t0)

    def op(self, k: int) -> list[str]:
        b = self.built[k]
        dist = self.solve(b, self.solve_s)
        if self.tracer.enabled:
            for module, attr, name in SOLVER_HOOKS:
                self.tracer.wrap(module, attr, name)
            try:
                with self.tracer.span("solver.solve"):
                    dist = self.solve(b, self.traced_solve_s)
            finally:
                self.tracer.unwrap()
        failures = self.check(k, b, dist)
        if not failures:
            self.verified_group.append(self.group)
        return failures

    def check(self, k: int, b, dist) -> list[str]:
        fr, cli, tr = self.fr, self.cli, self.tracer
        inst, expected = b.instance, dist.expected
        failures = checks.distribution(
            fr, inst, b.original, b.model,
            [a.ranking for a in dist.atoms], [a.probability for a in dist.atoms],
            expected,
        )
        with tr.span("baseline.deterministic"):
            base = fr.baseline_min_value(inst, b.constraints, b.model)
        failures += checks.floor_at_least(expected, base, b.epsilon, "baseline minimum")
        with tr.span("cli.emit"):
            text = json.dumps(cli.distribution_to_dict(dist))
        data = json.loads(text)
        with tr.span("cli.load_distribution"):
            back = cli.distribution_from_dict(inst, b.model, data)
        failures += checks.same_vector(back.expected, expected, "reloaded expected vector")
        with tr.span("analysis.metrics"):
            report = fr.metrics_for_distribution(inst, dist)
        failures += checks.same_vector([report.min_value], [expected.min()], "metrics min_value")
        reference, tolerance, what = self.reference(k, b)
        failures += checks.gap_within(expected, reference, tolerance, what)
        self.gaps.append(checks.sorted_gap(expected, reference))
        self.support.append(dist.support_size)
        self.phases.append(len(dist.lambda_phases))
        self.oracle_calls.append(dist.oracle_calls)
        return failures

    def side_work(self) -> list:
        """Untraced runs add ``fairrank baseline`` calls on the first case,
        so that ``cli_p50_s`` reads this workload's roster size."""
        work = super().side_work()
        if self.tracer.enabled:
            return work
        return [w for pair in zip(work, [self.cli_probe] * SIDE_SAMPLES) for w in pair]

    def cli_probe(self) -> None:
        b = self.built[0]
        if b.case["model"]["kind"] != "position-diff":
            raise ValueError("the CLI probe needs a position-diff first case")
        csv = self.tmp / "probe.csv"
        spec = self.tmp / "probe.json"
        csv.write_text(b.case["csv"], encoding="utf-8")
        spec.write_text(json.dumps(b.case["constraints"]), encoding="utf-8")
        self.attempted += 1
        proc, wall = run_child(
            ["-m", "fairrank", "baseline", "--input", str(csv), "--constraints", str(spec)]
        )
        self.call_s.append(wall)
        failures = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
        if not failures:
            want = self.fr.baseline_min_value(b.instance, b.constraints, b.model)
            failures = check_baseline(self.fr, b, json.loads(proc.stdout), want)
        if failures:
            self.failures.append("cli probe: " + "; ".join(failures))


class ExactSmall(InProcess):
    def group_size(self) -> int:
        return ROTATION_PERIOD

    def reference(self, k: int, b):
        if k not in self.references:
            with self.tracer.span("analysis.decompose"):
                dec = self.fr.fair_decomposition(b.instance, b.original, b.model)
            self.references[k] = dec.targets
        return self.references[k], b.epsilon, "fair_decomposition"


class CeilMid(InProcess):
    def group_size(self) -> int:
        return self.ops() // CEIL_MID_SHUFFLES

    def __init__(self, fr, cli, args, tracer, cases):
        super().__init__(fr, cli, args, tracer, cases)
        with open(REFERENCE, encoding="utf-8") as fh:
            self.committed = json.load(fh)

    def reference(self, k: int, b):
        ref = self.committed[b.case["reference"]]
        return ref["sorted"], b.epsilon + ref["epsilon"], "committed reference"


def check_baseline(fr, b, payload: dict, want: float) -> list[str]:
    ranking = fr.Ranking.from_ids(b.instance, payload["ranking"])
    failures = checks.atoms_valid(fr, b.instance, b.original, [ranking])
    if payload["min_value"] != want:
        failures.append(f"baseline min_value {payload['min_value']} != {want}")
    return failures


class Cli(Workload):
    """The five subcommands, one after another, on each roster; every call
    is a fresh ``python -m fairrank`` process."""

    COMMANDS = ("solve", "baseline", "metrics", "sample", "decompose")

    def __init__(self, fr, cli, args, tracer, cases):
        super().__init__(fr, cli, args, tracer, cases)
        self.built = [build(fr, cli, case, NullTracer()) for case in cases]
        self.paths = []
        for b in self.built:
            csv = self.tmp / f"{b.case['name']}.csv"
            csv.write_text(b.case["csv"], encoding="utf-8")
            self.paths.append((csv, self.tmp / f"{b.case['name']}.dist.json"))
        self.exact: dict[int, tuple] = {}
        self.import_samples: list[float] = []
        self.stored: dict[int, dict] = {}

    def ops(self) -> int:
        return len(self.built) * len(self.COMMANDS)

    def argv(self, r: int, command: str) -> list[str]:
        b = self.built[r]
        csv, dist = self.paths[r]
        if command == "solve":
            return ["solve", "--input", str(csv), *b.case["rule_args"],
                    "--epsilon", str(b.epsilon), "--output", str(dist)]
        if command in ("baseline", "decompose"):
            return [command, "--input", str(csv), *b.case["rule_args"]]
        if command == "metrics":
            return ["metrics", "--input", str(csv), "--distribution", str(dist)]
        return ["sample", "--distribution", str(dist),
                "--seed", str(b.case["sample_seed"])]

    def exact_for(self, r: int):
        """Decomposition targets and baseline minimum, computed here untraced."""
        if r not in self.exact:
            b = self.built[r]
            dec = self.fr.fair_decomposition(b.instance, b.original, b.model)
            base = self.fr.baseline_min_value(b.instance, b.constraints, b.model)
            self.exact[r] = (dec.targets_by_id(b.instance), base)
        return self.exact[r]

    def op(self, k: int) -> list[str]:
        r, c = divmod(k, len(self.COMMANDS))
        command = self.COMMANDS[c]
        argv = self.argv(r, command)
        proc, wall = run_child(["-m", "fairrank", *argv])
        self.call_s.append(wall)
        if command == "solve":
            self.solve_s.append(wall)
        if self.tracer.enabled:
            trace_file = self.tmp / "spans.json"
            proc, wall = run_child([str(HERE / "child.py"), "cli", str(trace_file), *argv])
            if command == "solve":
                self.traced_solve_s.append(wall)
            self.merge_spans(trace_file)
        if proc.returncode != 0:
            return [f"{command} exit code {proc.returncode}: {proc.stdout.strip()[:200]}"]
        try:
            failures = self.check(r, command, proc.stdout)
        except (ValueError, KeyError) as exc:
            failures = [f"{command} output unreadable: {exc}"]
        if command == "solve" and not failures:
            self.verified_group.append(self.group)
        return failures

    def merge_spans(self, path: Path) -> None:
        with open(path, encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        offset = len(self.tracer.spans)
        for name, parent, _op, start, end in spans:
            if name == "import.fairrank":
                self.import_samples.append(end - start)
            parent = parent + offset if parent >= 0 else -1
            self.tracer.spans.append([name, parent, self.tracer.op, start, end])

    def check(self, r: int, command: str, stdout: str) -> list[str]:
        fr, b = self.fr, self.built[r]
        targets, base = self.exact_for(r)
        if command == "solve":
            data = json.loads(self.paths[r][1].read_text(encoding="utf-8"))
            self.stored[r] = data
            rankings = [fr.Ranking.from_ids(b.instance, e["ranking"]) for e in data["support"]]
            probs = [e["probability"] for e in data["support"]]
            expected = [data["expected_satisfaction"][i] for i in b.instance.ids]
            failures = checks.distribution(fr, b.instance, b.original, b.model,
                                           rankings, probs, expected)
            if "floor" in b.case:
                failures += checks.floor_near(expected, b.case["floor"], b.epsilon)
            failures += checks.floor_at_least(expected, base, b.epsilon, "baseline minimum")
            reference = [targets[i] for i in b.instance.ids]
            failures += checks.gap_within(expected, reference, b.epsilon, "fair_decomposition")
            self.gaps.append(checks.sorted_gap(expected, reference))
            self.support.append(len(data["support"]))
            self.phases.append(len(data["lambda_phases"]))
            self.oracle_calls.append(data["oracle_calls"])
            return failures
        payload = json.loads(stdout)
        stored = self.stored.get(r)
        if command == "baseline":
            return check_baseline(fr, b, payload, base)
        if command == "decompose":
            got = payload["targets"]
            return checks.same_vector([got[i] for i in b.instance.ids],
                                      [targets[i] for i in b.instance.ids],
                                      "decompose targets")
        if stored is None:
            return [f"{command} ran before a stored distribution existed"]
        if command == "metrics":
            want = min(stored["expected_satisfaction"].values())
            return checks.same_vector([payload["min_value"]], [want], "metrics min_value")
        support = [e["ranking"] for e in stored["support"]]
        return [] if payload["ranking"] in support else ["sampled ranking not in the stored support"]

    def import_s(self) -> float:
        return statistics.median(self.import_samples)


RUNNERS = {"exact-small": ExactSmall, "ceil-mid": CeilMid, "cli": Cli}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fairrank" / "__init__.py").is_file():
        print(f"perfbench: no fairrank package under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    load_start = _read("/proc/loadavg")

    sys.path.insert(0, str(SRC))
    import numpy as np

    import fairrank as fr
    import fairrank.cli as cli

    if not Path(fr.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: fairrank imported from {fr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment(args, library_versions(np))
    tracer = Tracer() if args.trace else NullTracer()
    cases = GENERATORS[args.workload](args.seed)
    workload = RUNNERS[args.workload](fr, cli, args, tracer, cases)
    try:
        workload.run(args.seconds)
    finally:
        workload.close()

    if args.trace:
        metrics = workload.per_layer()
        tracer.dump(WORK / f"spans-{args.workload}-{args.seed}.json")
    else:
        metrics = workload.end_to_end()
    env["loadavg_start"] = load_start
    env["loadavg_end"] = _read("/proc/loadavg")
    print(json.dumps({"environment": env}))
    print(json.dumps({"samples": workload.samples(), "failures": workload.failures[:20]}))
    print(json.dumps({
        "correct": not workload.failures,
        "attempted": workload.attempted,
        "failed": len(workload.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
