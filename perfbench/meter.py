"""Machine-speed meter: short calibration slices taken on a timer.

The benchmark runs on small shared machines whose speed drifts by 10-20%
within seconds, far more than the regressions it has to catch.  While a
pass runs, a SIGALRM every INTERVAL_S seconds runs one slice: a fixed
stdlib-only kernel (a recursive partition generator allocating tuples,
dict stores and Fraction sums: the same kind of work as tcores, none of
its code), timed, with the garbage collector held off so the program's
own collections do not move.  Work between two slices is scaled by
REFERENCE_S / (median time of the slices around it), so the reported
times read as seconds at one fixed speed; slice time is left out of
every figure.
Needs setitimer, so POSIX only.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.2
SMOOTH = 3
REFERENCE_S = 0.030  # a typical slice on a 2-core Xeon VM


def kernel(n: int = 27) -> Fraction:
    def parts(m, cap):
        if m == 0:
            yield ()
            return
        for k in range(min(m, cap), 0, -1):
            for rest in parts(m - k, k):
                yield (k,) + rest

    acc, seen = Fraction(0), {}
    for p in parts(n, n):
        h = sum(i * x for i, x in enumerate(p))
        seen[p] = h
        acc += Fraction(h % 7 + 1, len(p) + 1)
    return acc


class Meter:
    """Slices on one timeline, from `start` to `stop`."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.factors: list[float] = []  # one per gap between slices, set by stop
        self._busy = False

    def _slice(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
            self._busy = False
        self.starts.append(t0)
        self.ends.append(t1)

    def start(self) -> None:
        self._slice()
        signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._slice()
        durations = [b - a for a, b in zip(self.starts, self.ends)]
        # one slice is noisy (+-20%); the median of the SMOOTH slices on
        # either side of a segment tracks drift over seconds without it
        self.factors = [
            REFERENCE_S / statistics.median(durations[max(0, i + 1 - SMOOTH):i + 1 + SMOOTH])
            for i in range(len(durations) - 1)
        ]

    def raw_and_scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """Time from t0 to t1 without the slices in it, raw and scaled."""
        raw = scaled = 0.0
        for i, factor in enumerate(self.factors):
            a, b = max(self.ends[i], t0), min(self.starts[i + 1], t1)
            if b > a:
                raw += b - a
                scaled += (b - a) * factor
        return raw, scaled
