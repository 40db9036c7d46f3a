"""The machine's speed, sampled while a workload runs, and timings
reported at a fixed reference speed.

The benchmark runs on a few cores of a shared host.  There, a fixed piece
of Python can take 1.7 times as long in one second as in the next, and a
whole 20-second run can sit in a slow or a fast spell, so wall-clock
timings of unchanged code spread by a third from run to run.  The
benchmark therefore measures the machine alongside the program:

``Sampler`` sets an interval timer that interrupts the workload every
``INTERVAL_S`` and runs ``kernel``, a fixed piece of the benchmark's own
Python (tuple trees and frozensets; no splogic code), with the garbage
collector off so that the program's heap does not change its cost.  The kernel's time over ``REFERENCE_S`` is
the machine's slowdown at that moment.  ``Sampler.clock`` is
``time.perf_counter`` minus the time spent in the samples, so every
interval measured with it is net of them.  ``at_reference`` divides a
measured interval by the mean slowdown of the samples taken within it,
or within ``WINDOW_S`` of it for intervals too short to hold enough
samples.  A figure reported at reference speed is the time the interval
would have taken had the kernel run in ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

INTERVAL_S = 0.025  # one sample per 25 ms of wall time
REFERENCE_S = 0.001  # the kernel's time in a fast spell on a 2-vCPU Xeon guest
WINDOW_S = 0.1      # widen a short interval by this much on each side
MIN_SAMPLES = 8


def kernel() -> int:
    """Fixed interpreter work of the kinds splogic does, about 1 ms: tuple
    trees built and evaluated recursively, and frozenset algebra.  Of the
    kernels tried, this one's slowdown tracked the workloads' own best
    (their time grew as its power 0.9 to 1.1)."""

    def build(depth, k):
        if depth == 0:
            return ("atom", k)
        return ("xor", build(depth - 1, 2 * k), build(depth - 1, 2 * k + 1))

    def evaluate(node, env):
        if node[0] == "atom":
            return env.get(node[1] % 7, False)
        return evaluate(node[1], env) != evaluate(node[2], env)

    acc = 0
    for _ in range(2):
        tree = build(8, 1)
        for i in range(3):
            acc += evaluate(tree, {j: (i + j) % 3 == 0 for j in range(7)})
    sets = [frozenset(range(i, i + 6)) for i in range(60)]
    for a in sets:
        for b in sets[:20]:
            acc += len(a & b) + len(a | b)
    return acc


class Sampler:
    """Samples the slowdown every INTERVAL_S of wall time while started."""

    def __init__(self):
        self.times: list[float] = []     # sample start, on self.clock
        self.slowdowns: list[float] = []
        self.spent = 0.0                 # wall time spent inside samples

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            k0 = time.perf_counter()
            kernel()
            k1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append(t0 - self.spent)
        self.slowdowns.append((k1 - k0) / REFERENCE_S)
        self.spent += time.perf_counter() - t0

    def clock(self) -> float:
        """time.perf_counter without the time spent in samples."""
        return time.perf_counter() - self.spent

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown of the samples within [start, end] on self.clock,
        the interval widened by WINDOW_S at a time until it holds
        MIN_SAMPLES of them (or all there are)."""
        lo, hi = start, end
        while True:
            i = bisect.bisect_left(self.times, lo)
            j = bisect.bisect_right(self.times, hi)
            if j - i >= MIN_SAMPLES or (i == 0 and j == len(self.times)):
                break
            lo, hi = lo - WINDOW_S, hi + WINDOW_S
        picked = self.slowdowns[i:j]
        return sum(picked) / len(picked) if picked else 1.0

    def at_reference(self, start: float, end: float) -> float:
        """The interval [start, end] on self.clock, at reference speed."""
        return (end - start) / self.slowdown(start, end)
