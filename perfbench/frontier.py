"""Frontier probe: the largest size each check finishes within a budget.

    python3 perfbench/frontier.py

Each size runs in a fresh interpreter and only the verifier call is timed.
The size steps up by one from a small start until a call takes longer than
BUDGET_S; the frontier is the last size that did not.  A timing
threshold flips between neighbouring sizes from run to run, so the result
is information beside the benchmark's metrics, never a gated metric.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# check -> (size parameter, start size, verifier call at that size)
CHECKS = {
    "nekrasov-okounkov": ("N", 10, lambda i, n: i.verify_nekrasov_okounkov(n)),
    "multiplication-r2": ("N", 10, lambda i, n: i.verify_multiplication(2, n)),
    "hook-content-n6": ("max_size", 5, lambda i, n: i.verify_hook_content(n, 6)),
    "macdonald-t4": ("N", 3, lambda i, n: i.verify_macdonald(4, n)),
    "exploded-relations-t7": ("max_size", 10, lambda i, n: i.verify_exploded_relations(7, n)),
}
MAX_STEPS = 40
BUDGET_S = 2.0  # fixed, so frontiers of different commits compare


def probe(check: str, size: int) -> dict:
    from tcores import identities
    t0 = time.perf_counter()
    report = CHECKS[check][2](identities, size)
    return {"seconds": time.perf_counter() - t0, "status": report.status}


def frontier(check: str) -> dict:
    param, size, _ = CHECKS[check]
    steps = []
    for _ in range(MAX_STEPS):
        proc = subprocess.run(
            [sys.executable, __file__, "--probe", check, str(size)],
            stdout=subprocess.PIPE, text=True, timeout=60.0,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{check} at {param}={size} exited with {proc.returncode}")
        step = json.loads(proc.stdout) | {param: size}
        steps.append(step)
        if step["seconds"] > BUDGET_S:
            break
        size += 1
    within = [s for s in steps if s["seconds"] <= BUDGET_S]
    return {"param": param, "size": within[-1][param] if within else None, "steps": steps}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", nargs=2, metavar=("CHECK", "SIZE"))
    args = parser.parse_args(argv)
    if args.probe:
        print(json.dumps(probe(args.probe[0], int(args.probe[1]))))
        return 0
    result = {"budget_s": BUDGET_S, "frontier": {check: frontier(check) for check in CHECKS}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
