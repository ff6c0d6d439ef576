"""Smoke run of the benchmark: its self-check, then short runs of each workload.

Runs ``perfbench/selfcheck.py``, then ``perfbench/run.py --seconds 1`` twice
for every workload named in ``BENCHMARK.json``, once untraced and once with
``--trace 1``, which runs the tracer that gives the per-layer metrics (a
traced run takes about a second).  It reads the JSON line each run prints
last.  Exits 1 when the self-check fails, a run exits nonzero or prints no
result, or a result has ``correct`` false.  The times are not checked: one
short run on a shared runner says nothing about speed, only that every job
still runs, traced and untraced, and gives the expected values.

Every run uses seed 1.  Usage, from anywhere: ``python tools/bench_smoke.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_workload(name: str, trace: int) -> str | None:
    """One short run of workload ``name``, traced when ``trace`` is 1; a
    description of what went wrong, or None."""
    command = [sys.executable, "perfbench/run.py", "--workload", name,
               "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return f"exited with code {proc.returncode}"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return "printed no JSON result"
    if result.get("correct") is not True:
        return f"correct is {result.get('correct')!r}: {result.get('failed')} failed jobs"
    return None


def main() -> int:
    problems = []
    if subprocess.run([sys.executable, "perfbench/selfcheck.py"], cwd=ROOT).returncode != 0:
        problems.append("perfbench/selfcheck.py failed")
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    for name in workloads:
        for trace in (0, 1):
            problem = run_workload(name, trace)
            if problem:
                problems.append(f"workload {name} --trace {trace}: {problem}")
    for problem in problems:
        print(f"bench smoke: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"bench smoke: self-check passed; {len(workloads)} workloads ran correct, traced and untraced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
