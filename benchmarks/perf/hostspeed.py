"""Host-speed probes: express measured times at a reference host speed.

The reference host (2 vCPUs of an Intel Xeon at 2.1 GHz, one of them
doing the work) shares its CPU with other virtual machines, and its
speed drifts by 10-40% for seconds to minutes at a time.  A run cannot average that out, so every timed region is cut into
slices with a short fixed probe between them.  Probes run outside the
timed slices, so they cost the measurement nothing; their mean duration
against :data:`PROBE_REFERENCE_S`, raised to :data:`PROBE_ELASTICITY`,
says how much longer the workload took than on the reference host, and
reported times are divided by it.  Set-up time is scaled by the factor
of probes taken right after set-up.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: Loop iterations in one probe (about 2 ms on the reference host).
PROBE_ITERATIONS = 8000
#: Mean probe duration on the reference host (the one the baseline in
#: README.md was measured on) at its usual speed, seconds.
PROBE_REFERENCE_S = 0.0022
#: Wall time between probes inside a timed region, seconds.
PROBE_EVERY_S = 0.1
#: How much the workloads slow per unit the probe slows, on a log scale.
#: Fitted over 66 runs in slow spells of several kinds: slopes of log
#: speed against log probe time run from 0.73 to 1.0 (correlations
#: 0.92-0.98), and 0.9 keeps the medians of separate ten-seed passes
#: within 4% of each other.
PROBE_ELASTICITY = 0.9


def probe() -> float:
    """Duration of one fixed pure-Python probe, seconds.

    Dict updates, tuple keys and float arithmetic: interpreter work like
    the simulator's, so host contention slows both together.
    """
    start = time.perf_counter()
    table: dict = {}
    total = 0.0
    for i in range(PROBE_ITERATIONS):
        key = (i & 255, i & 7)
        table[key] = table.get(key, 0.0) + i * 0.5
        total += len(table)
    return time.perf_counter() - start


class HostSpeed:
    """Probes taken around and inside one instance's timed region."""

    def __init__(self) -> None:
        self.probes: List[float] = []
        self._last = time.perf_counter()

    def sample(self, count: int) -> None:
        """Probe *count* times now."""
        for _ in range(count):
            self.probes.append(probe())
        self._last = time.perf_counter()

    def between_slices(self) -> None:
        """Probe if :data:`PROBE_EVERY_S` has passed since the last one."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample(1)

    @property
    def probe_s(self) -> float:
        """Wall time spent probing so far (to subtract from a region)."""
        return sum(self.probes)

    @property
    def factor(self) -> float:
        """How much longer the workload took than on the reference host."""
        return (statistics.mean(self.probes)
                / PROBE_REFERENCE_S) ** PROBE_ELASTICITY
