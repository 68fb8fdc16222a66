"""Regenerate ``reference.json``: the sorted expected-value vector of each
ceil-mid case, solved at a fifth of its epsilon.

    python3 perfbench/make_reference.py

The cases are one fixed family whatever the seed (the seed only renames and
reorders rows), so one solve per case serves every seed.  A run accepts a
solve whose sorted vector is within its own epsilon plus the reference's
epsilon of the stored vector, since each is within its epsilon of the
optimum.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import fairrank as fr  # noqa: E402
import fairrank.cli as cli  # noqa: E402
from tracer import NullTracer  # noqa: E402
from workloads import build, ceil_mid_cases  # noqa: E402

TIGHTEN = 5


def main() -> None:
    out = {}
    for case in ceil_mid_cases(0):
        if case["reference"] in out:
            continue
        b = build(fr, cli, case, NullTracer())
        eps = b.epsilon / TIGHTEN
        dist = fr.solve_maxmin(b.instance, b.constraints, b.model, fr.SolverConfig(epsilon=eps))
        out[case["reference"]] = {"epsilon": eps, "sorted": sorted(dist.expected.tolist())}
        print(case["reference"], f"min={float(dist.expected.min()):.6f}", flush=True)
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
