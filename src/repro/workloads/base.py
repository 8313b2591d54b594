"""Workload base classes.

A workload is a :class:`~repro.os.process.Program`: the simulated kernel
polls ``demand(local_time_s)`` at the start of each steady run of quanta,
and :meth:`Workload.demand_horizon` tells it how long that run is.
:class:`PhasedWorkload` builds workloads from a list of timed
:class:`Phase` records, which covers everything from a constant stress
loop to a multi-phase benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.os.process import Demand
from repro.simcpu.caches import MemoryProfile
from repro.simcpu.pipeline import InstructionMix


@dataclass(frozen=True)
class Phase:
    """A constant demand sustained for a duration.

    ``region`` optionally names the code region (function, request
    handler, GC, ...) the phase models; the code-level energy profiler
    (:mod:`repro.core.codelevel`) attributes energy per region name.
    """

    duration_s: float
    demand: Demand
    region: str = ""

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError("phase duration must be positive")


class Workload:
    """Abstract workload; subclasses implement :meth:`demand`."""

    #: Human-readable name, used as the default process name.
    name = "workload"

    def demand(self, local_time_s: float) -> Optional[Demand]:
        """Demand at *local_time_s*, or None once finished."""
        raise NotImplementedError

    def total_duration_s(self) -> Optional[float]:
        """Known runtime in seconds, or None for open-ended workloads."""
        return None

    def region(self, local_time_s: float) -> str:
        """Name of the code region active at *local_time_s* ("" = none)."""
        return ""

    def demand_horizon(self, local_time_s: float, quantum_s: float,
                       limit: int) -> int:
        """How many polls from *local_time_s* on return its demand.

        Poll ``k`` happens at *local_time_s* plus *quantum_s* added ``k``
        times in turn, the way :meth:`~repro.os.process.SimProcess.account`
        steps ``wall_time_s``.  The answer counts poll 0, is at most
        *limit*, and never counts a poll whose demand differs from
        ``demand(local_time_s)``; it may stop short of the last equal
        one.  This base returns 1, so the kernel polls a workload that
        does not override it every quantum.  Overrides have no side
        effects.
        """
        return 1

    def _stepped_horizon(self, local_time_s: float, quantum_s: float,
                         limit: int,
                         edge: Callable[[float], float]) -> int:
        """:meth:`demand_horizon` from an *edge* function.

        ``edge(t)`` is a local time before which the demand cannot
        differ from ``demand(t)`` (``math.inf`` if it never can).  Polls
        before the edge are counted without asking :meth:`demand`; the
        first poll at or past it is tested with :meth:`demand` itself, so
        an edge estimated a little early costs one exact test, never a
        wrong count.
        """
        demand = self.demand(local_time_s)
        time, polls = local_time_s, 1
        while polls < limit:
            bound = edge(time)
            if bound == math.inf:
                return limit
            following = time + quantum_s
            while following < bound and polls < limit:
                time, following = following, following + quantum_s
                polls += 1
            if polls == limit or self.demand(following) != demand:
                break
            time = following
            polls += 1
        return polls


def edge_slack(*magnitudes: float) -> float:
    """How far below an estimated edge to start testing polls exactly.

    An edge a workload estimates by re-deriving ``demand()``'s arithmetic
    in closed form can miss the float edge by a few rounding errors of
    the largest magnitude involved; this keeps a margin many orders of
    magnitude wider.
    """
    return 1e-9 * sum(abs(magnitude) for magnitude in magnitudes)


class PhasedWorkload(Workload):
    """A workload defined by a fixed sequence of phases."""

    def __init__(self, phases: Sequence[Phase], name: str = "phased",
                 repeat: bool = False) -> None:
        if not phases:
            raise ConfigurationError("at least one phase required")
        self.name = name
        self.phases: List[Phase] = list(phases)
        self.repeat = repeat
        self._cycle_s = sum(phase.duration_s for phase in self.phases)
        self._uniform = all(phase.demand == self.phases[0].demand
                            for phase in self.phases)

    def total_duration_s(self) -> Optional[float]:
        return None if self.repeat else self._cycle_s

    def _phase_at(self, local_time_s: float) -> Optional[Phase]:
        time = local_time_s
        if self.repeat:
            time = time % self._cycle_s
        elif time >= self._cycle_s - 1e-12:
            return None
        for phase in self.phases:
            if time < phase.duration_s:
                return phase
            time -= phase.duration_s
        return self.phases[-1]

    def demand(self, local_time_s: float) -> Optional[Demand]:
        phase = self._phase_at(local_time_s)
        return phase.demand if phase is not None else None

    def region(self, local_time_s: float) -> str:
        phase = self._phase_at(local_time_s)
        return phase.region if phase is not None else ""

    def demand_horizon(self, local_time_s: float, quantum_s: float,
                       limit: int) -> int:
        if self.repeat and self._uniform:
            return limit
        return self._stepped_horizon(local_time_s, quantum_s, limit,
                                     self._phase_edge)

    def _phase_edge(self, local_time_s: float) -> float:
        """A local time before which :meth:`_phase_at` keeps its phase.

        Within one cycle the subtraction chain is monotone in time, so
        phase ``i`` holds while its residue stays below its duration;
        the edge is estimated from that residue, less
        :func:`edge_slack`.  The last phase holds until the ``- 1e-12``
        end test (exact) or, repeating, until the cycle wraps.
        """
        time = local_time_s
        end = math.inf
        if self.repeat:
            time = time % self._cycle_s
            wrap = local_time_s + (self._cycle_s - time)
        else:
            end = self._cycle_s - 1e-12
            if local_time_s >= end:
                return math.inf
        last = len(self.phases) - 1
        for index, phase in enumerate(self.phases):
            if time < phase.duration_s and index < last:
                estimate = local_time_s + (phase.duration_s - time)
                break
            time -= phase.duration_s
        else:
            if not self.repeat:
                return end
            estimate = wrap
        return min(end, estimate - edge_slack(local_time_s, self._cycle_s))


class ConstantWorkload(PhasedWorkload):
    """A single constant demand, optionally time-limited."""

    def __init__(self, demand: Demand, duration_s: Optional[float] = None,
                 name: str = "constant") -> None:
        open_ended = duration_s is None
        super().__init__(
            phases=[Phase(duration_s if duration_s else 1.0, demand)],
            name=name,
            repeat=open_ended,
        )


def cpu_demand(utilization: float = 1.0, threads: int = 1) -> Demand:
    """A CPU-bound demand: tiny working set, integer-dominated mix."""
    return Demand(
        utilization=utilization,
        mix=InstructionMix(fp_fraction=0.05, branch_fraction=0.15,
                           branch_miss_rate=0.02),
        memory=MemoryProfile(mem_ops_per_instruction=0.15,
                             working_set_bytes=8 * 1024, locality=0.99),
        threads=threads,
    )


def memory_demand(utilization: float = 1.0, working_set_bytes: int = 32 * 1024 * 1024,
                  locality: float = 0.75, threads: int = 1) -> Demand:
    """A memory-bound demand: large working set, load/store heavy mix."""
    return Demand(
        utilization=utilization,
        mix=InstructionMix(fp_fraction=0.0, branch_fraction=0.10,
                           branch_miss_rate=0.02),
        memory=MemoryProfile(mem_ops_per_instruction=0.40,
                             working_set_bytes=working_set_bytes,
                             locality=locality),
        threads=threads,
    )
