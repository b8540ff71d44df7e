"""The machine's current speed, from a fixed reference loop.

On the 2-vCPU VM where the benchmark was defined, the CPU switches between a
fast and a slow level, about 1.5x apart, for 5-30 s at a time as other
tenants load the host, and it also wavers within milliseconds. Raw timings
of one op list therefore differed by 25-35% from run to run. While a pass
runs, a timer signal interrupts it every PERIOD_S and runs a fixed
pure-Python Fraction loop (the program's own hot path is Fraction
arithmetic) for BURST_S. Every reported time is divided by the slowdown
that loop shows over the same stretch of time. That brings the time back to
the loop's uncontended speed on the reference machine. The loop is benchmark
code, so a change to the program moves a normalized time exactly as it moves
the raw one.

The clock that times the ops stops while the loop runs, so the samples cost
the ops nothing but the signal itself.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# one reference() call at the fast level on the reference machine
# (Intel Xeon, 2 vCPU KVM guest, Python 3.11.7)
NOMINAL_S = 300e-6
PERIOD_S = 0.05
BURST_S = 0.003


def reference() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    return acc


def sample(min_s: float, min_calls: int = 3) -> tuple[float, int]:
    """Call reference() at least `min_calls` times and for at least `min_s`: (seconds, calls)."""
    calls = 0
    t0 = time.perf_counter()
    while True:
        reference()
        calls += 1
        elapsed = time.perf_counter() - t0
        if calls >= min_calls and elapsed >= min_s:
            return elapsed, calls


def slowdown(seconds: float, calls: int) -> float:
    """How much slower than nominal the reference ran (1.0 = reference machine, fast level)."""
    return seconds / (calls * NOMINAL_S)


class Sampler:
    """Samples the reference loop from a timer signal while installed.

    ``samples`` holds ``(clock_s, reference_s, calls)``; ``clock()`` is
    perf_counter in ns minus the time spent sampling, and timestamps the
    samples too.  One sample is also taken on entry and on exit, so that
    even a pass shorter than PERIOD_S has some.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, int]] = []
        self.spent_ns = 0
        self._old_handler = None

    def clock(self) -> int:
        return time.perf_counter_ns() - self.spent_ns

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter_ns()
        ref_s, calls = sample(BURST_S, 1)
        self.samples.append(((t0 - self.spent_ns) / 1e9, ref_s, calls))
        self.spent_ns += time.perf_counter_ns() - t0

    def __enter__(self):
        self._tick()
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._tick()
        return False
