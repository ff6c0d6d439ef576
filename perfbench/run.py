"""germcalc benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: passes run one after another, each in a
fresh interpreter (perfbench/worker.py) that runs every job of the pass
back to back.  A new pass starts only if it is expected to end within
1.25 x ``--seconds``, so a run takes about ``--seconds`` whatever the pass
length; at least one pass always runs.  Every job's output is
checked.  The last line of standard output is one JSON object; the lines
before it are a readable table.

Every time is in reference seconds (perfbench/speed.py): raw time scaled
by the host's speed, sampled through the run, relative to a fixed
reference speed, so that the shared host's speed changes cancel.

With ``--trace 0`` the metrics are the end-to-end ones, as medians over
the run's passes.  With ``--trace 1`` each pass runs twice, untraced and
then traced with the same inputs, and the metrics are the per-layer
numbers of the traced runs plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import REFERENCE_PROBE_S, probe_seconds  # noqa: E402

WORKLOADS = ("std-ideal", "std-module", "modular", "cli-scan")
SETUP_SAMPLES = 11

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def run_worker(workload: str, seed: int, pass_index: int, mode: str) -> tuple[dict, float]:
    """Start a worker; return its result and the raw seconds until it was ready."""
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(pass_index), mode]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    with proc.stdout:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read()
    code = proc.wait()
    if first.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker for {workload} pass {pass_index} exited with code {code}")
    return (json.loads(rest.splitlines()[-1]) if mode != "setup" else {}), ready - start


def setup_seconds(workload: str, seed: int, pass_index: int) -> float:
    """Set-up time of one worker, in reference seconds.

    The host speed is probed just before the worker starts and just after it
    has exited, while nothing else of the benchmark runs.
    """
    before = reference_rate()
    _, raw = run_worker(workload, seed, pass_index, "setup")
    return raw * (before + reference_rate()) / 2


def reference_rate() -> float:
    """Reference seconds per raw second now: the median of five speed probes."""
    return REFERENCE_PROBE_S / statistics.median(probe_seconds() for _ in range(5))


def quantile(values: list[float], q: int) -> float:
    """Nearest-rank q-th percentile."""
    return sorted(values)[math.ceil(q / 100 * len(values)) - 1]


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """Medians over passes.

    A job's latency is its median over the passes (every pass runs the same
    ladder), and the job percentiles are taken over those medians: a single
    sample of a half-second job moves by several percent even in reference
    seconds, since only a few speed probes fall inside it.
    """
    per_job: dict[str, list[float]] = {}
    for p in passes:
        for label, seconds, _ in p["jobs"]:
            per_job.setdefault(label, []).append(seconds)
    jobs = [statistics.median(times) for times in per_job.values()]
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "job_p50_s": quantile(jobs, 50),
        "job_p90_s": quantile(jobs, 90),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setups),
    }
    samples = {name: len(passes) for name in values}
    n_jobs = sum(len(p["jobs"]) for p in passes)
    samples.update(job_p50_s=n_jobs, job_p90_s=n_jobs, setup_s=len(setups))
    return values, samples


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """Times as medians over the traced passes; counts from the first pass.

    Each pass has inputs of its own, so counts differ between passes; taking
    them from pass 0 makes them repeat exactly from run to run of a seed.
    """
    layers = [p["layers"] for p in traced]
    values, samples = {}, {}
    for name in layers[0]:
        timed = name.endswith("_s") or name == "trace.coverage_frac"
        values[name] = statistics.median(lay[name] for lay in layers) if timed else layers[0][name]
        samples[name] = len(layers) if timed else 1
    values["trace.overhead_frac"] = statistics.median(
        t["wall_s"] / p["wall_s"] - 1 for p, t in zip(plain, traced))
    samples["trace.overhead_frac"] = len(traced)
    return values, samples


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "fraction" if name.endswith("_frac") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "germcalc" / "__init__.py").is_file():
        print(f"error: germcalc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    setups = [] if args.trace else [
        setup_seconds(args.workload, args.seed, k) for k in range(SETUP_SAMPLES)]
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        plain.append(run_worker(args.workload, args.seed, len(plain), "0")[0])
        if args.trace:
            traced.append(run_worker(args.workload, args.seed, len(traced), "1")[0])
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > 1.25 * args.seconds:
            break

    passes = plain + traced
    problems = [(label, problem) for p in passes for label, _, problem in p["jobs"] if problem]
    if args.trace:
        metrics, samples = per_layer(plain, traced)
        units_of = {name: _layer_unit(name) for name in metrics}
    else:
        metrics, samples = end_to_end(plain, setups)
        units_of = END_TO_END_UNITS
    attempted = sum(len(p["jobs"]) for p in passes)

    for label, problem in problems:
        print(f"FAILED {label}: {problem.strip()}")
    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)}  "
          f"failed_frac {len(problems) / attempted:.4f} ({len(problems)}/{attempted})  "
          f"raw wall_s {statistics.median(p['raw_wall_s'] for p in plain):.3f}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6g} {units_of[name]:8s} n={samples[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": units_of[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
