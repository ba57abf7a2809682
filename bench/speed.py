"""Machine-speed probe for rescaling wall-clock metrics.

The CPU speed a shared 2-vCPU virtual machine gets drifts by about +-15%
over minutes, with other tenants' load; a 30-second run cannot average that
out, and seed-to-seed spreads of raw throughput reach 19%.  A fixed
pure-Python kernel, the same shape as the Bellman recursion that dominates
the package's hot loops, is timed in short slices between pairs.  Its speed
tracks the drift: over five runs, raw throughput ranged over 28% of its
median and throughput divided by probe speed over 9%.  So the time metrics
are rescaled to what they would read at ``REFERENCE_SPEED``: throughput by
the mean slowdown of the run, each pair's time by the slice taken just
before it, and the set-up time by slices taken right after the set-up.  The
speed also changes within a run: on one workload, a median over pairs
rescaled by the run's mean slowdown still spread 17%, and 3% rescaled pair
by pair.  The kernel uses none of the package's code, so a change to the
package cannot move it.
"""

from __future__ import annotations

import random
import time

# Probe kernel calls per second on the machine the first baseline was taken
# on (Intel Xeon, 2 vCPUs, Python 3.11); only the scale of the metrics
# depends on it.
REFERENCE_SPEED = 4500.0
PROBE_INTERVAL_S = 0.05
PROBE_CALLS = 5
# Slices taken right after the set-up, to rescale the set-up time.
SETUP_SLICES = 20
_SIZE = 40


def _kernel(cost: list[list[float]]) -> float:
    table = [[0.0] * _SIZE for _ in range(_SIZE)]
    table[0][0] = cost[0][0]
    for j in range(1, _SIZE):
        table[0][j] = table[0][j - 1] + cost[0][j]
    for i in range(1, _SIZE):
        row, prev, ci = table[i], table[i - 1], cost[i]
        row[0] = prev[0] + ci[0]
        for j in range(1, _SIZE):
            best = prev[j - 1]
            if prev[j] < best:
                best = prev[j]
            if row[j - 1] < best:
                best = row[j - 1]
            row[j] = ci[j] + best
    return table[-1][-1]


class SpeedProbe:
    """Times the kernel at most once per ``PROBE_INTERVAL_S`` of the run."""

    def __init__(self):
        rng = random.Random(7)
        self._cost = [[rng.random() for _ in range(_SIZE)] for _ in range(_SIZE)]
        self.calls = 0
        self.seconds = 0.0
        # slowdown measured by the most recent slice
        self.latest = 1.0
        self._due = 0.0

    def run_slice(self) -> float:
        """Time one probe slice; return the seconds it took."""
        start = time.perf_counter()
        for _ in range(PROBE_CALLS):
            _kernel(self._cost)
        took = time.perf_counter() - start
        self.calls += PROBE_CALLS
        self.seconds += took
        self.latest = REFERENCE_SPEED * took / PROBE_CALLS
        self._due = start + took + PROBE_INTERVAL_S
        return took

    def maybe_run(self) -> float:
        """Run one probe slice if one is due; return the seconds it took."""
        return self.run_slice() if time.perf_counter() >= self._due else 0.0

    @property
    def slowdown(self) -> float:
        """How much slower the machine was than the reference over all slices (>1 is slower)."""
        return REFERENCE_SPEED * self.seconds / self.calls
