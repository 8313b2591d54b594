"""A synthetic SPECjbb2013-like benchmark.

SPECjbb2013 is the memory-intensive Java business benchmark the paper uses
for its preliminary experiment (Figure 3).  This synthetic stand-in
reproduces the *shape* of its load over a run:

1. a ramp-up where the harness searches for the maximum injection rate,
2. a staircase of sustained load plateaus at increasing fractions of the
   maximum rate (the RT-curve phase),
3. short garbage-collection bursts — memory-heavy, full-utilisation spikes
   that recur throughout,
4. per-quantum jitter around each plateau.

All randomness is drawn at construction from a seeded generator, so a
given (seed, duration) pair always produces the same trace.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.os.process import Demand
from repro.simcpu.caches import MemoryProfile
from repro.simcpu.pipeline import InstructionMix
from repro.workloads.base import Workload

#: Default trace length, matching the x-axis of Figure 3 (seconds).
DEFAULT_DURATION_S = 2500.0

#: Java heap working set of the backend (bytes).
HEAP_WORKING_SET = 96 * 1024 * 1024

#: Fractions of max injection rate visited by the RT-curve staircase.
RT_CURVE_STEPS = (0.30, 0.45, 0.60, 0.70, 0.80, 0.90, 1.00, 0.85, 0.55)


class SpecJbbWorkload(Workload):
    """Synthetic SPECjbb2013: ramp, RT-curve staircase, GC spikes, jitter."""

    name = "specjbb2013"

    def __init__(self, duration_s: float = DEFAULT_DURATION_S,
                 threads: int = 4, seed: int = 42,
                 ramp_fraction: float = 0.12,
                 jitter: float = 0.06,
                 gc_interval_s: float = 47.0,
                 gc_duration_s: float = 3.0) -> None:
        if duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        if threads < 1:
            raise ConfigurationError("threads must be >= 1")
        if not 0.0 <= jitter < 0.5:
            raise ConfigurationError("jitter must be within [0, 0.5)")
        self.duration_s = duration_s
        self.threads = threads
        self.seed = seed
        self._ramp_s = ramp_fraction * duration_s
        self._gc_interval_s = gc_interval_s
        self._gc_duration_s = gc_duration_s

        rng = np.random.default_rng(seed)
        # One jitter factor per second of trace, precomputed for
        # determinism.  Held as Python floats (the same doubles), so
        # demands carry no numpy scalars into the per-quantum arithmetic.
        self._jitter = (1.0 + jitter * rng.standard_normal(
            int(math.ceil(duration_s)) + 1)).tolist()
        # GC bursts drift around the nominal interval.
        self._gc_offsets = rng.uniform(-5.0, 5.0, size=max(
            1, int(duration_s / gc_interval_s) + 2)).tolist()

        self._transaction_mix = InstructionMix(
            fp_fraction=0.05, simd_fraction=0.0,
            branch_fraction=0.20, branch_miss_rate=0.05)
        self._transaction_memory = MemoryProfile(
            mem_ops_per_instruction=0.35,
            working_set_bytes=HEAP_WORKING_SET,
            locality=0.93)
        self._gc_mix = InstructionMix(
            fp_fraction=0.0, simd_fraction=0.0,
            branch_fraction=0.12, branch_miss_rate=0.03)
        self._gc_memory = MemoryProfile(
            mem_ops_per_instruction=0.50,
            working_set_bytes=2 * HEAP_WORKING_SET,
            locality=0.60)

    def total_duration_s(self) -> Optional[float]:
        return self.duration_s

    # -- trace shape -----------------------------------------------------

    def base_utilization(self, time_s: float) -> float:
        """Plateau level before jitter and GC, in [0, 1]."""
        if time_s < self._ramp_s:
            # Harness searching for max rate: smooth ramp to full load.
            return 0.15 + 0.85 * (time_s / self._ramp_s)
        steady = self.duration_s - self._ramp_s
        step_length = steady / len(RT_CURVE_STEPS)
        index = min(int((time_s - self._ramp_s) / step_length),
                    len(RT_CURVE_STEPS) - 1)
        return RT_CURVE_STEPS[index]

    def in_gc(self, time_s: float) -> bool:
        """Whether a GC burst is active at *time_s*."""
        if time_s < self._gc_interval_s:
            return False
        cycle = int(time_s / self._gc_interval_s)
        offset = self._gc_offsets[min(cycle, len(self._gc_offsets) - 1)]
        burst_start = cycle * self._gc_interval_s + offset
        return burst_start <= time_s < burst_start + self._gc_duration_s

    # -- Program protocol ---------------------------------------------------

    def demand(self, local_time_s: float) -> Optional[Demand]:
        if local_time_s >= self.duration_s:
            return None
        if self.in_gc(local_time_s):
            return Demand(
                utilization=1.0,
                mix=self._gc_mix,
                memory=self._gc_memory,
                threads=self.threads,
            )
        base = self.base_utilization(local_time_s)
        jitter = self._jitter[min(int(local_time_s), len(self._jitter) - 1)]
        utilization = min(1.0, max(0.05, base * jitter))
        return Demand(
            utilization=utilization,
            mix=self._transaction_mix,
            memory=self._transaction_memory,
            threads=self.threads,
        )
