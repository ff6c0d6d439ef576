"""Run every workload and print its metrics side by side.

Usage:
    python3 perfbench/report.py [--seeds 1,2,3] [--seconds S] [--trace 0|1]
                                [--workloads std-ideal,modular]

Runs perfbench/run.py once per workload and seed, in turn, for ``run_seconds``
of BENCHMARK.json unless --seconds says otherwise.  Prints each
metric with its unit and, per workload, the median over the seeds; with
four or more seeds also the spread, the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  The ``failed_frac`` row counts failed jobs over attempted ones.
With ``--trace 1`` each self time is also shown as a share of the traced
wall time of its workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds",
                        default=str(json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]))
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    seeds = args.seeds.split(",")
    names = args.workloads.split(",")

    values: dict[str, dict[str, list[float]]] = {}
    units: dict[str, str] = {}
    failed = {name: [0, 0] for name in names}
    for name in names:
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", seed,
                   "--seconds", args.seconds, "--trace", args.trace]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(out.stdout.splitlines()[-1])
            failed[name][0] += result["failed"]
            failed[name][1] += result["attempted"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, {}).setdefault(name, []).append(entry["value"])
                units[metric] = entry["unit"]
            print(f"# {name} seed {seed}: "
                  + " ".join(f"{m}={e['value']:.6g}" for m, e in result["metrics"].items()
                             if args.trace == "0"), flush=True)

    print(f"{'metric':46s} {'unit':8s}" + "".join(f"{n:>24s}" for n in names))
    for metric, per in values.items():
        cells = "".join(f"{_cell(per[n]):>24s}" for n in names)
        print(f"{metric:46s} {units[metric]:8s}{cells}")
    print(f"{'failed_frac':46s} {'fraction':8s}"
          + "".join(f"{f'{failed[n][0] / failed[n][1]:.4f}':>24s}" for n in names))
    if args.trace == "1":
        print("\nself time as a share of traced wall time")
        walls = values["trace.wall_s"]
        for metric, per in values.items():
            if metric.endswith(".self_s"):
                shares = [statistics.median(per[n]) / statistics.median(walls[n]) for n in names]
                print(f"{metric:46s} {'':8s}" + "".join(f"{s:>24.1%}" for s in shares))
    return 0 if not any(f for f, _ in failed.values()) else 1


def _cell(vals: list[float]) -> str:
    med = statistics.median(vals)
    if len(vals) < 4 or med == 0:
        return f"{med:.6g}"
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return f"{med:.6g} ±{(q3 - q1) / med:.1%}"


if __name__ == "__main__":
    sys.exit(main())
