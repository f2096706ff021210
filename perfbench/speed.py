"""Host-speed probe: puts every timing on one fixed reference speed.

On a VM that shares its host (measured: 2-core x86-64), the speed
drifts by up to 1.5x within a minute and CPU time drifts with wall
time, so a run of the same code can read 25 % slower than the run
before it.  While a
`SpeedProbe` is active, a timer signal runs a fixed piece of exact
rational arithmetic (`probe_work`: six determinants of one 7x7 matrix
over Q, the kind of work the engine does) every `PERIOD_S` seconds and
records how long it took.  The engine's own code and state never enter
it: it allocates only its own objects, with the garbage collector off.

`busy` is wall time minus the probes that ran inside an interval, and
`scale` turns it into seconds at the reference speed: busy time times
`NOMINAL_S` over the mean probe time within `WINDOW_S` of the interval.
A change in the engine's work moves the scaled time as it moves wall
time; a change in the host's speed moves the probes with it and
cancels.
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.1
WINDOW_S = 0.25
# A probe's time at the reference speed: about its median on a 2-core
# x86-64 VM with Python 3.11, so scaled times read close to seconds there.
NOMINAL_S = 0.005
_SIZE = 7
_MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 5, (i * j) % 7 + 1) for j in range(_SIZE)]
           for i in range(_SIZE)]
_ROUNDS = 6


def _det(matrix) -> Fraction:
    rows = [row[:] for row in matrix]
    det = Fraction(1)
    for c in range(len(rows)):
        p = next(r for r in range(c, len(rows)) if rows[r][c])
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            if f:
                for k in range(c, len(rows)):
                    rows[r][k] -= f * rows[c][k]
    return det


def probe_work() -> Fraction:
    """The same exact-arithmetic work on every call."""
    return sum((_det(_MATRIX) for _ in range(_ROUNDS)), Fraction(0))


class SpeedProbe:
    """Runs `probe_work` on SIGALRM every `PERIOD_S` seconds while active
    (a context manager), keeping each probe's start and duration."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.total = 0.0  # wall time spent in probes, handler included
        self._previous = None

    def _fire(self, signum=None, frame=None) -> None:
        entered = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            probe_work()
            self.times.append(perf_counter() - start)
            self.starts.append(start)
        finally:
            if enabled:
                gc.enable()
            self.total += perf_counter() - entered

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        self._fire()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._fire()

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per busy second over [start, end]: from the
        probes within `WINDOW_S` of it, or the nearest one."""
        lo = bisect_left(self.starts, start - WINDOW_S)
        hi = bisect_right(self.starts, end + WINDOW_S)
        times = self.times[lo:hi] or [self.times[min(lo, len(self.times) - 1)]]
        return NOMINAL_S / statistics.fmean(times)

    def mean_scale(self) -> float:
        """The same ratio over every probe so far."""
        return NOMINAL_S / statistics.fmean(self.times)


class Interval:
    """Wall time of one timed step, less the probes that ran inside it."""

    def __init__(self, probe: SpeedProbe | None):
        self._probe = probe
        self._before = self._probed()
        self.start = perf_counter()

    def _probed(self) -> float:
        return self._probe.total if self._probe is not None else 0.0

    def stop(self) -> "Interval":
        while True:  # a probe landing between the two reads is retried
            probed = self._probed()
            self.end = perf_counter()
            if self._probed() == probed:
                break
        self.busy = self.end - self.start - (probed - self._before)
        return self
