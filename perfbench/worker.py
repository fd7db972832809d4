"""One benchmark pass or oracle in a fresh interpreter.

    python3 perfbench/worker.py pass --workload W --seed N --trace 0|1 --spawned T
    python3 perfbench/worker.py oracle --workload W

`pass` reads the oracle's JSON on stdin, times one pass of the workload
and prints one JSON line; `oracle` prints the workload's reference data.
`--spawned` is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared between processes on Linux), so setup_s covers
interpreter start, import and input generation.  The meter starts before
tcores is imported, so only interpreter start is left unscaled.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from meter import Meter

ROOT = Path(__file__).resolve().parent.parent


def import_tcores():
    """The checkout's own tcores, never an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import tcores
    if Path(tcores.__file__).resolve().parent != ROOT / "src" / "tcores":
        sys.exit(f"imported tcores from {tcores.__file__}, not from {ROOT / 'src'}")


def run_pass(workload, seed: int, traced: bool, meter: Meter, startup_s: float,
             t_import: float, ref) -> dict:
    inputs = workload.setup(seed)
    t_ready = time.perf_counter()
    tracer = None
    if traced:  # after t_ready, so traced and untraced set-ups match
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    lat: list[tuple[float, float]] = []
    try:
        out = workload.run(inputs, lat)
    finally:
        if tracer:
            tracer.uninstall()
        meter.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = startup_s + meter.raw_and_scaled(t_import, t_ready)[1]
    # a pass's wall time is the sum of its requests: the client's own work
    # between requests (checking responses) is not the program's
    timed = [meter.raw_and_scaled(a, b) for a, b in lat]
    raw_wall_s = sum(raw for raw, _ in timed)
    wall_s = sum(scaled for _, scaled in timed)
    failures = workload.check(inputs, out, ref)
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "latencies_ms": [scaled * 1e3 for _, scaled in timed],
        "peak_rss_mb": peak_rss_mb,
        "attempted": workload.attempted(inputs),
        "failures": failures,
        "trace": tracer.metrics(raw_wall_s, (meter.starts, meter.ends)) if tracer else None,
        "trace_missing": tracer.missing if tracer else [],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("pass", "oracle"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, default=None)
    args = parser.parse_args(argv)
    if args.role == "oracle":
        import_tcores()
        from workloads import WORKLOADS
        workload = WORKLOADS[args.workload]
        print(json.dumps(workload.reference() if workload.reference else None))
        return 0

    startup_s = time.monotonic() - args.spawned if args.spawned is not None else 0.0
    meter = Meter()
    meter.start()
    t_import = time.perf_counter()
    import_tcores()
    from workloads import WORKLOADS
    ref = json.loads(sys.stdin.read() or "null")
    result = run_pass(WORKLOADS[args.workload], args.seed, bool(args.trace), meter,
                      startup_s, t_import, ref)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
