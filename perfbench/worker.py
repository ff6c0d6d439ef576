"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED PASS MODE

Prints ``ready`` once germcalc is imported and the inputs are generated and
parsed.  MODE ``setup`` stops there.  MODE ``0`` then runs every job of the
pass back to back and prints one JSON line: per-job seconds and check
results, the pass's wall and CPU seconds and peak RSS.  MODE ``1`` does the
same with every public germcalc function traced, and adds the per-layer
numbers.  Every time is in reference seconds of a ``speed.SpeedClock`` that
runs through the pass; the pass's raw wall seconds are reported beside them.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from germcalc import GermInput, cli, singularity  # noqa: E402

import workloads  # noqa: E402
from speed import SpeedClock  # noqa: E402


def run_job(job) -> str | None:
    """Run one job; return a description of what is wrong, or None."""
    if job.kind == "ideal":
        germ = GermInput(job.payload)
        got = {"mu": singularity.milnor_number(germ),
               "tau": singularity.tjurina_number(germ)[0]}
    elif job.kind == "module":
        got = {"tau": singularity.icis_tjurina(GermInput(job.payload))}
    elif job.kind == "modular":
        report = cli.invariants_report(job.payload[0])
        json.dumps(report)
        got = {"mu": report["milnor_number"], "tau": report["tjurina_number"],
               "modular": report.get("modular_tangent_dimension")}
    elif job.kind == "scan":
        return _check_scan(job)
    else:
        return _check_goldens(job)
    return None if got == job.expected else f"got {got}, expected {job.expected}"


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _check_goldens(job) -> str | None:
    problems = []
    for name, argv, exit_code in job.payload:
        code, out = _cli(argv)
        if code != exit_code:
            problems.append(f"{name}: exit code {code}, expected {exit_code}")
        elif json.loads(out) != json.loads((workloads.GOLDEN / name).read_text()):
            problems.append(f"{name}: differs from golden")
    return "; ".join(problems) or None


def _check_scan(job) -> str | None:
    code, out = _cli(job.payload)
    if code != 0:
        return f"exit code {code}"
    want = job.expected
    payload = json.loads(out)
    if payload["jump_indices"] != want["jumps"]:
        return f"jumps {payload['jump_indices']}, planted {want['jumps']}"
    taus = [row.get("tjurina_number") for i, row in enumerate(payload["rows"])
            if i not in want["jumps"]]
    if payload.get("modal_tjurina") != want["modal"] or set(taus) != {want["modal"]}:
        return f"generic rows tau {sorted(set(map(str, taus)))}, expected {want['modal']}"
    return None


def main(argv: list[str]) -> int:
    workload, seed, pass_index, mode = argv[0], int(argv[1]), int(argv[2]), argv[3]
    jobs = workloads.make_pass(workload, seed, pass_index)
    tracer = None
    if mode == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)
    if mode == "setup":
        return 0

    clock = SpeedClock()
    clock.start()
    spans = []  # raw start and end of each job
    problems = []
    for i, job in enumerate(jobs):
        if tracer:
            tracer.job = i
        start = time.perf_counter()
        try:
            problem = run_job(job)
        except Exception:  # a raising job is a failed job, not a crashed pass
            problem = traceback.format_exc(limit=3)
        spans.append((start, time.perf_counter()))
        problems.append(problem)
        clock.mark()
    if tracer:
        tracer.rerun_unverified()
    clock.stop()

    wall = clock.at(spans[-1][1]) - clock.at(spans[0][0])
    out = {
        "jobs": [[job.label, clock.at(end) - clock.at(start), problem]
                 for job, (start, end), problem in zip(jobs, spans, problems)],
        "wall_s": wall,
        "raw_wall_s": spans[-1][1] - spans[0][0],
        "cpu_s": clock.cpu_seconds(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        out["layers"] = tracer.layer_metrics(wall, clock.at)
        tracer.write(HERE.parent / ".perfbench_out" / f"spans-{workload}-{seed}-{pass_index}.jsonl")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
