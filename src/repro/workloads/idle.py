"""Idle and near-idle workloads, used for idle-power calibration."""

from __future__ import annotations

import math
from typing import Optional

from repro.os.process import Demand
from repro.workloads.base import ConstantWorkload, Workload, cpu_demand


class IdleWorkload(Workload):
    """A process that sleeps forever (or for a fixed duration)."""

    name = "idle"

    def __init__(self, duration_s: Optional[float] = None) -> None:
        self.duration_s = duration_s

    def total_duration_s(self) -> Optional[float]:
        return self.duration_s

    def demand(self, local_time_s: float) -> Optional[Demand]:
        if self.duration_s is not None and local_time_s >= self.duration_s:
            return None
        return Demand(utilization=0.0)

    def demand_horizon(self, local_time_s: float, quantum_s: float,
                       limit: int) -> int:
        return self._stepped_horizon(local_time_s, quantum_s, limit,
                                     self._edge)

    def _edge(self, time_s: float) -> float:
        if self.duration_s is None or time_s >= self.duration_s:
            return math.inf
        return self.duration_s


class BackgroundNoise(ConstantWorkload):
    """A light daemon-like load (a few percent of one CPU)."""

    def __init__(self, utilization: float = 0.03,
                 duration_s: Optional[float] = None) -> None:
        super().__init__(
            demand=cpu_demand(utilization=utilization),
            duration_s=duration_s,
            name="background-noise",
        )
