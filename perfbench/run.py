"""tcores benchmark: one workload, one seed, one line of JSON metrics.

    python3 perfbench/run.py --workload suite-full --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the benchmark imports tcores from its
`src/` tree.  Every pass runs in a fresh interpreter, one after another,
because a tcores user pays interpreter start, import and cold caches on
every invocation.  With --trace 0 the passes are untraced and the last
line carries the end-to-end metrics; with --trace 1 untraced and traced
passes alternate and it carries the per-layer metrics, including
trace.overhead_s.  Passes continue while the next one is expected to end
within --seconds, with at least MIN_PASSES untraced passes (one of each
kind when tracing).  The line before the last records the environment,
sample counts, failed_ratio and the first failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
DEADLINE_S = 170  # every run must end well inside 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "request_ms_p50": "ms",
    "request_ms_p99": "ms",
    "peak_rss_mb": "MB",
}


def child(args: list[str], stdin: str, started: float) -> tuple[dict, float]:
    """Run worker.py with `args`; return its JSON and its wall time."""
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--spawned", repr(spawned)]
    proc = subprocess.run(
        cmd, input=stdin, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, DEADLINE_S - (spawned - started)),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:3])} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.monotonic() - spawned


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def measure(workload: str, seed: int, seconds: float, traced: bool):
    """Alternate passes as the module docstring says; return them by kind."""
    started = time.monotonic()
    wl = WORKLOADS[workload]
    ref = child(["oracle", "--workload", workload], "", started)[0] if wl.reference else None
    stdin = json.dumps(ref)
    passes = {"untraced": [], "traced": []}
    took = {"untraced": [], "traced": []}
    while True:
        if traced:
            kind = "untraced" if len(passes["untraced"]) <= len(passes["traced"]) else "traced"
            needed = not passes[kind]
        else:
            kind = "untraced"
            needed = len(passes[kind]) < MIN_PASSES
        elapsed = time.monotonic() - started
        estimate = statistics.median(took[kind]) if took[kind] else 0.0
        if not needed and elapsed + estimate > seconds:
            break
        args = ["pass", "--workload", workload, "--seed", str(seed),
                "--trace", "1" if kind == "traced" else "0"]
        result, dt = child(args, stdin, started)
        passes[kind].append(result)
        took[kind].append(dt)
    return passes


def percentile(values, pct):
    # inclusive: never beyond the largest sample, which a pass of a few
    # long checks would otherwise extrapolate past
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tcores" / "__init__.py").is_file():
        print(f"error: no tcores source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        passes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    untraced, traced = passes["untraced"], passes["traced"]
    everything = untraced + traced
    attempted = sum(p["attempted"] for p in everything)
    failures = [f for p in everything for f in p["failures"]]
    median = statistics.median
    if args.trace:
        per_pass = [p["trace"] for p in traced]
        values = {name: median(m[name] for m in per_pass)
                  for name, _ in METRICS if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (
            median(p["wall_s"] for p in traced) - median(p["wall_s"] for p in untraced))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in METRICS}
        samples = {"traced_passes": len(traced), "untraced_passes": len(untraced)}
        extra = {"trace_missing": sorted({m for p in traced for m in p["trace_missing"]})}
    else:
        values = {
            "setup_s": median(p["setup_s"] for p in untraced),
            "wall_s": median(p["wall_s"] for p in untraced),
            "request_ms_p50": median(percentile(p["latencies_ms"], 50) for p in untraced),
            "request_ms_p99": median(percentile(p["latencies_ms"], 99) for p in untraced),
            "peak_rss_mb": median(p["peak_rss_mb"] for p in untraced),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        samples = {name: len(untraced) for name in END_TO_END}
        samples["requests_per_pass"] = len(untraced[0]["latencies_ms"])
        extra = {}
    print(json.dumps({
        "workload": args.workload,
        "env": environment(args.seed),
        "samples": samples,
        "failed_ratio": len(failures) / attempted,
        "raw_wall_s": median(p["raw_wall_s"] for p in untraced),
        "failures": failures[:10],
        **extra,
    }))
    print(json.dumps({
        "correct": not any(f.startswith("gate:") for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
