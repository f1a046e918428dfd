"""Host-speed calibration for the owfsim benchmark.

The benchmark runs on shared hosts whose single-thread speed changes by tens
of percent in regimes that last seconds to minutes (other tenants on the
sibling hardware threads); CPU time moves with wall time, so neither clock
alone is steady from one run to the next.  While a measured phase runs, an
interval timer (SIGALRM, no thread) interrupts it every INTERVAL_S seconds to
run one slice of a fixed pure-Python kernel that shares no code with owfsim.
Benchmark durations are read on a net clock that stands still during slices,
then scaled by REF_SLICE_S / (mean slice time over the phase): they are host
seconds at the speed at which one slice takes REF_SLICE_S.  The program's
outputs are unaffected; the slices cost about 5 % of the phase's wall time.
"""
from __future__ import annotations

import math
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

INTERVAL_S = 0.25
SLICE_STEPS = 1000
REF_SLICE_S = 0.0125  # one slice on the reference host (2-CPU x86 VM, Python 3.11)


def _kernel(n_steps: int) -> complex:
    """RK4 on a small driven complex network, written like the plant: lists,
    complex arithmetic and one function call per stage."""
    def f(t, y):
        rot = complex(math.cos(314.0 * t), math.sin(314.0 * t))
        return [314.0 * (rot - 0.01 * y[0] - y[1]) / 0.1,
                314.0 * (y[0] - y[2]) / 0.05,
                314.0 * (y[1] - 0.02 * y[2]) / 0.2,
                0.5 * abs(y[1]) - 0.1 * y[3].real]

    y = [0j, 0j, 0j, 0j]
    h = 2e-5
    t = 0.0
    for _ in range(n_steps):
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, [a + 0.5 * h * b for a, b in zip(y, k1)])
        k3 = f(t + 0.5 * h, [a + 0.5 * h * b for a, b in zip(y, k2)])
        k4 = f(t + h, [a + h * b for a, b in zip(y, k3)])
        y = [a + h / 6.0 * (p + 2.0 * (q + r) + s) for a, p, q, r, s in zip(y, k1, k2, k3, k4)]
        t += h
    return y[0]


class Segment:
    """Slices run during one measured segment, and its speed factor."""

    def __init__(self, first: int):
        self.first = first
        self.factor = math.nan


class Calibrator:
    def __init__(self):
        self.slices: list[float] = []
        self.spent = 0.0  # seconds spent in slices so far
        self._gen = 0

    def _slice(self, *_signal) -> None:
        t0 = perf_counter()
        _kernel(SLICE_STEPS)
        d = perf_counter() - t0
        self.slices.append(d)
        self.spent += d
        self._gen += 1

    def now(self) -> float:
        """Net clock: perf_counter minus the time spent in slices.  Retried
        when a slice ran between the two reads."""
        while True:
            gen = self._gen
            t = perf_counter() - self.spent
            if gen == self._gen:
                return t

    @contextmanager
    def segment(self, initial_slices: int = 1):
        """Run slices now and every INTERVAL_S until the block ends."""
        seg = Segment(len(self.slices))
        previous = signal.signal(signal.SIGALRM, self._slice)
        try:
            for _ in range(initial_slices):
                self._slice()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
            yield seg
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            seg.factor = REF_SLICE_S / statistics.mean(self.slices[seg.first:])
