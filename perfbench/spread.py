"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads suite-full,series-deep --seeds 1-10

Runs perfbench/run.py once per (workload, seed), one run at a time, for
BENCHMARK.json's run_seconds, the length the bounds are set for, and prints one JSON object: per workload and metric the median, the quartiles
from statistics.quantiles(values, n=4), the spread (q3 - q1) / median,
plus each seed's failed/attempted counts and environment stamp.  A
trajectory entry is this object plus the frontier probe's output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="suite-full,series-deep,core-requests")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=200)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
            runs.append({"seed": seed, "info": info, "result": result})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            ) + f" failed={result['failed']}/{result['attempted']} raw_wall_s={info['raw_wall_s']:.6g}",
                  file=sys.stderr)
        names = list(runs[0]["result"]["metrics"])
        report["workloads"][workload] = {
            "env": runs[0]["info"]["env"] | {"seed": None},
            "metrics": {
                name: summarize([r["result"]["metrics"][name]["value"] for r in runs])
                | {"unit": runs[0]["result"]["metrics"][name]["unit"]}
                for name in names
            },
            "raw_wall_s": summarize([r["info"]["raw_wall_s"] for r in runs]),
            "runs": [{"seed": r["seed"], "correct": r["result"]["correct"],
                      "failed": r["result"]["failed"], "attempted": r["result"]["attempted"],
                      "samples": r["info"]["samples"]} for r in runs],
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
