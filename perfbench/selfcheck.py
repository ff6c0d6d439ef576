"""Self-check of the benchmark's inputs and expected values.

Usage: python3 perfbench/selfcheck.py

Checks that two seeds give different inputs but the same expected-value
tables, that every pass of a run gets inputs of its own, and that the rows
whose values come from a closed formula agree with it:

* T_{p,q,r}: mu = p+q+r-1, tau = p+q+r-2;
* Milnor-Orlik: mu = prod(d/w_i - 1) for weights w and degree d, and
  Saito: tau = mu.

Exits 1 and lists the problems when a check fails.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from germcalc import find_weights, parse_poly  # noqa: E402

import workloads  # noqa: E402


def expected_table(workload: str, seed: int, pass_index: int) -> list[tuple[str, str]]:
    """Label and expected values of each job, in a form that compares by value."""
    return [(job.label, json.dumps(job.expected, sort_keys=True))
            for job in workloads.make_pass(workload, seed, pass_index)]


def describe_inputs(workload: str, seed: int, pass_index: int) -> list[str]:
    out = []
    for job in workloads.make_pass(workload, seed, pass_index):
        if job.kind == "scan":
            out.append(" ".join(job.payload))
        elif job.kind == "goldens":
            out.extend(" ".join(argv) for _, argv, _ in job.payload)
        else:
            out.append(", ".join(str(f) for f in job.payload))
    return out


def formula_problems() -> list[str]:
    problems = []
    for rungs in workloads.WORKLOADS.values():
        for rung in rungs:
            want = rung.expected
            if rung.provenance.startswith("tpqr"):
                p, q, r = (int(e) for e in re.findall(r"\^(\d+)", rung.equations[0])[:3])
                got = {"mu": p + q + r - 1, "tau": p + q + r - 2}
            elif rung.provenance.startswith("milnor-orlik"):
                w = find_weights(parse_poly(rung.equations[0], rung.ring))
                mu = 1
                for wi in w.weights:
                    mu *= Fraction(w.degree, wi) - 1
                got = {"mu": mu, "tau": mu}
            else:
                continue
            if any(want[k] != v for k, v in got.items()):
                problems.append(f"{rung.label}: table {want}, {rung.provenance} gives {got}")
    return problems


def seed_problems() -> list[str]:
    problems = []
    for name in (*workloads.WORKLOADS, "cli-scan"):
        if expected_table(name, 1, 0) != expected_table(name, 2, 0):
            problems.append(f"{name}: expected values depend on the seed")
        if describe_inputs(name, 1, 0) == describe_inputs(name, 2, 0):
            problems.append(f"{name}: seeds 1 and 2 give the same inputs")
        if describe_inputs(name, 1, 0) != describe_inputs(name, 1, 0):
            problems.append(f"{name}: one seed gives two different inputs")
        passes = [describe_inputs(name, 1, k) for k in range(3)]
        if len({tuple(p) for p in passes}) != 3:
            problems.append(f"{name}: two of passes 0-2 of one run have the same inputs")
    return problems


def main() -> int:
    problems = formula_problems() + seed_problems()
    for line in problems:
        print(f"FAILED {line}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
