"""The host's momentary speed, read from a fixed kernel.

The reference machine is a shared VM whose cores switch between a fast and
a slow mode for seconds to tens of seconds at a time; the workloads run
1.3-1.4x slower in the slow mode, far more than any bound the benchmark
could keep. So a fixed kernel is timed between operations at least every
``every_s``, and each timed interval is rescaled by ``ref_s / kernel
time`` around it: the times reported are those of the reference machine
in its fast mode. A kernel tracks a workload only if it slows as much as
the workload does, so each kernel below is shaped like the code it
stands for. Kernels are benchmark code: a change to the library cannot
move them.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from fractions import Fraction

_PAIRS = tuple((f"v{i}", f"v{i * 7 % 5000}") for i in range(5000))


def hash_kernel():
    """Hash a fresh tuple of 5000 string pairs five times: what a memo
    lookup on a frozen quiver does. About 0.45 ms on the reference machine,
    and it slows in the host's slow mode as much as the quiver workloads
    do (about 1.3x), where cache-resident arithmetic slows 1.7x."""
    for _ in range(5):
        hash(tuple(list(_PAIRS)))


def arithmetic_kernel(rounds: int = 80):
    """Fraction arithmetic with small dicts and frozensets."""
    acc = Fraction(0)
    table = {}
    for i in range(rounds):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        table[(f"v{i % 50}", i % 11)] = frozenset(range(i % 17))
    return acc, len(table)


def rational_kernel():
    """Arithmetic and hashing in the proportion that slows, in the slow
    mode, about as much as the workloads whose time goes largely into
    Fraction arithmetic (metric towers, and metric checks of E-sequence
    terminal data) do: about 1.5x."""
    arithmetic_kernel(280)
    hash_kernel()


class SpeedGauge:
    # Modes last seconds, so a window of a second around an interval
    # follows them while it smooths the noise of single samples.
    WINDOW_S = 0.5

    def __init__(self, kernel=hash_kernel, ref_s: float = 0.00046,
                 every_s: float = 0.05, repeats: int = 3) -> None:
        self.kernel = kernel
        self.ref_s = ref_s  # kernel seconds on the reference machine, fast mode
        self.every_s = every_s
        self.repeats = repeats  # a sample is the fastest of this many runs
        self.at: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self) -> None:
        best = math.inf
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            self.kernel()
            best = min(best, time.perf_counter() - t0)
        self.at.append(time.perf_counter())
        self.kernel_s.append(best)

    def maybe_sample(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= self.every_s:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """ref_s over the median kernel time of the samples within
        WINDOW_S of [t0, t1], and at least the samples bracketing it."""
        lo = max(min(bisect.bisect_left(self.at, t0 - self.WINDOW_S),
                     bisect.bisect_right(self.at, t0) - 1), 0)
        hi = min(max(bisect.bisect_right(self.at, t1 + self.WINDOW_S),
                     bisect.bisect_left(self.at, t1) + 1), len(self.at))
        return self.ref_s / statistics.median(self.kernel_s[lo:hi])
