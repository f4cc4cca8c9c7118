"""Speed probe: a fixed loop that uses the standard library only.

The benchmark runs on a few vCPUs of a shared host whose speed swings by up
to a factor of two within seconds (a fixed loop timed back to back on a
2 GHz Xeon vCPU ranged from 0.85 to 1.5 times its median over two minutes,
in process CPU time as in wall time). A wall-clock time then measures the
host as much as poiskit. The probe is timed before and after every input,
and an input's cost is its latency over the mean of the two probe times
beside it. Scaled by ``REFERENCE_S`` that ratio reads as seconds at a fixed
reference speed: the speed at which one probe round takes 10 ms, about the
typical speed of a shared 2 GHz Xeon vCPU. The probe runs no poiskit code,
so no change to poiskit moves it; the collector is off while it runs, so
the program's heap does not either.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

PROBE_ROUNDS = 1500
REFERENCE_S = 0.010


def probe() -> float:
    """Wall time of one fixed round of Fraction, tuple and dict work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        table: dict[tuple[int, int], Fraction] = {}
        for i in range(PROBE_ROUNDS):
            acc += Fraction(i % 7, 1 + i % 5)
            table[(i % 13, i % 17)] = acc * acc.denominator
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_seconds(samples) -> float:
    """Median over ``(latency, probe)`` samples of one input's latency in
    probe rounds, as seconds at the reference speed."""
    return REFERENCE_S * statistics.median(latency / probe_s for latency, probe_s in samples)


class Clock:
    """Times calls, with the probe run before the first call and after each
    one. A sample is a call's latency and the mean of the two probe times
    that bracket it."""

    def __init__(self):
        self.before = probe()
        self.samples: list[tuple[float, float]] = []

    def time(self, fn):
        start = time.perf_counter()
        try:
            return fn()
        finally:
            latency = time.perf_counter() - start
            after = probe()
            self.samples.append((latency, (self.before + after) / 2))
            self.before = after
