"""A diurnal web-server workload.

Servers are the machines where software energy efficiency pays off most,
and their load has structure: a day/night cycle, weekday request ramps,
short traffic spikes and a constant maintenance floor.  This synthetic
server reproduces those dynamics so long-horizon experiments (capacity
planning under a power budget, hotspot tracking over a "day") have a
realistic driver.

Time is compressed: one simulated "day" defaults to 240 s so a full
diurnal cycle fits in an experiment.
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


class WebServerWorkload(Workload):
    """Diurnal load with random spikes and a maintenance floor."""

    name = "webserver"

    def __init__(self, duration_s: float = 480.0,
                 day_length_s: float = 240.0,
                 peak_utilization: float = 0.9,
                 floor_utilization: float = 0.08,
                 threads: int = 2,
                 spike_rate_per_day: float = 6.0,
                 spike_duration_s: float = 4.0,
                 seed: int = 21) -> None:
        if duration_s <= 0 or day_length_s <= 0:
            raise ConfigurationError("durations must be positive")
        if not 0.0 <= floor_utilization < peak_utilization <= 1.0:
            raise ConfigurationError(
                "need 0 <= floor < peak <= 1 utilisation")
        if threads < 1:
            raise ConfigurationError("threads must be >= 1")
        self.duration_s = duration_s
        self.day_length_s = day_length_s
        self.peak_utilization = peak_utilization
        self.floor_utilization = floor_utilization
        self.threads = threads
        self.spike_duration_s = spike_duration_s

        rng = np.random.default_rng(seed)
        days = max(1.0, duration_s / day_length_s)
        n_spikes = int(round(spike_rate_per_day * days))
        self._spike_starts = sorted(
            float(rng.uniform(0, duration_s)) for _ in range(n_spikes))
        # Python floats, like SpecJbbWorkload's: no numpy scalars in demands.
        self._jitter = (1.0 + 0.05 * rng.standard_normal(
            int(math.ceil(duration_s)) + 1)).tolist()

        self._request_mix = InstructionMix(
            fp_fraction=0.02, branch_fraction=0.22, branch_miss_rate=0.05)
        self._request_memory = MemoryProfile(
            mem_ops_per_instruction=0.32,
            working_set_bytes=24 * 1024 ** 2, locality=0.92)

    def total_duration_s(self) -> Optional[float]:
        return self.duration_s

    # -- load shape --------------------------------------------------------

    def diurnal_level(self, time_s: float) -> float:
        """Base utilisation from the day/night sine, in [floor, peak]."""
        phase = 2.0 * math.pi * (time_s / self.day_length_s)
        # Shifted sine: minimum at "night" (t=0), maximum mid-"day".
        wave = 0.5 * (1.0 - math.cos(phase))
        return (self.floor_utilization
                + (self.peak_utilization - self.floor_utilization) * wave)

    def in_spike(self, time_s: float) -> bool:
        """Whether a traffic spike is in progress at *time_s*."""
        for start in self._spike_starts:
            if start <= time_s < start + self.spike_duration_s:
                return True
            if start > time_s:
                break
        return False

    def demand(self, local_time_s: float) -> Optional[Demand]:
        if local_time_s >= self.duration_s:
            return None
        level = self.diurnal_level(local_time_s)
        if self.in_spike(local_time_s):
            level = self.peak_utilization
        jitter = self._jitter[min(int(local_time_s),
                                  len(self._jitter) - 1)]
        utilization = min(1.0, max(self.floor_utilization, level * jitter))
        return Demand(utilization=utilization, mix=self._request_mix,
                      memory=self._request_memory, threads=self.threads)
