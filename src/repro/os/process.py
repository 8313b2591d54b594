"""Process model of the simulated operating system.

A :class:`SimProcess` wraps a *program*: any object implementing the
:class:`Program` protocol, i.e. a ``demand(local_time_s)`` method returning
the process's resource :class:`Demand` for the next scheduling quantum (or
``None`` when the program has finished).  Workloads
(:mod:`repro.workloads`) are programs; a program that also has
``demand_horizon`` (see :meth:`repro.workloads.base.Workload.demand_horizon`)
lets the kernel poll it once per steady run of quanta.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Protocol, Set, runtime_checkable

from repro.errors import ConfigurationError, ProcessError
from repro.simcpu.caches import MemoryProfile
from repro.simcpu.pipeline import InstructionMix


@dataclass(frozen=True)
class Demand:
    """Resource demand of a process for one scheduling quantum.

    ``utilization`` is the fraction of one logical CPU the process wants
    (1.0 = fully CPU-bound, 0.2 = mostly sleeping); ``threads`` lets a
    multi-threaded program demand several CPUs at once, each at
    ``utilization``.
    """

    utilization: float
    mix: InstructionMix = field(default_factory=InstructionMix)
    memory: MemoryProfile = field(default_factory=MemoryProfile)
    threads: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.utilization <= 1.0:
            raise ConfigurationError(
                f"utilization must be within [0, 1], got {self.utilization}")
        if self.threads < 1:
            raise ConfigurationError("threads must be >= 1")


@runtime_checkable
class Program(Protocol):
    """Anything a process can execute."""

    def demand(self, local_time_s: float) -> Optional[Demand]:
        """Demand for the quantum starting at *local_time_s*; None = exit."""


class ProcessState(enum.Enum):
    """Lifecycle states of a simulated process."""

    RUNNABLE = "runnable"
    SLEEPING = "sleeping"
    EXITED = "exited"


class SimProcess:
    """One schedulable entity with accounting."""

    def __init__(self, pid: int, name: str, program: Program,
                 affinity: Optional[Set[int]] = None, nice: int = 0) -> None:
        if pid < 0:
            raise ConfigurationError("pid must be >= 0")
        if not -20 <= nice <= 19:
            raise ConfigurationError("nice must be within [-20, 19]")
        self.pid = pid
        self.name = name
        self.program = program
        self.affinity = set(affinity) if affinity else None
        self.nice = nice
        self.state = ProcessState.RUNNABLE
        #: CPU seconds actually granted to the process.
        self.cpu_time_s = 0.0
        #: Wall seconds since the process was spawned.
        self.wall_time_s = 0.0
        self._pending: Optional[Demand] = None

    def __repr__(self) -> str:
        return (f"SimProcess(pid={self.pid}, name={self.name!r}, "
                f"state={self.state.value})")

    # -- lifecycle ----------------------------------------------------------

    def poll_demand(self) -> Optional[Demand]:
        """Demand for the next quantum, transitioning state as needed.

        A zero-utilization demand puts the process to sleep for the quantum;
        a ``None`` from the program exits it.
        """
        if self.state is ProcessState.EXITED:
            raise ProcessError(f"pid {self.pid} has exited")
        demand = self.program.demand(self.wall_time_s)
        if demand is None:
            self.state = ProcessState.EXITED
            self._pending = None
            return None
        self.state = (ProcessState.SLEEPING if demand.utilization == 0.0
                      else ProcessState.RUNNABLE)
        self._pending = demand
        return demand

    def demand_horizon(self, quantum_s: float, limit: int) -> int:
        """Polls from now on, this one included, that return its demand.

        Asks the program's ``demand_horizon`` at the current
        ``wall_time_s``; a program without one gets 1.
        """
        horizon = getattr(self.program, "demand_horizon", None)
        if horizon is None:
            return 1
        return horizon(self.wall_time_s, quantum_s, limit)

    def account(self, granted_cpu_s: float, dt_s: float,
                quanta: int = 1) -> None:
        """Record *quanta* quanta of wall time and granted CPU time.

        Each quantum adds its own share, so the totals are the ones that
        many one-quantum calls leave.
        """
        if granted_cpu_s < 0 or dt_s < 0:
            raise ConfigurationError("time accounting must be >= 0")
        cpu_time_s, wall_time_s = self.cpu_time_s, self.wall_time_s
        for _ in range(quanta):
            cpu_time_s += granted_cpu_s
            wall_time_s += dt_s
        self.cpu_time_s, self.wall_time_s = cpu_time_s, wall_time_s

    @property
    def alive(self) -> bool:
        """Whether the process can still be scheduled."""
        return self.state is not ProcessState.EXITED

    def allowed_on(self, cpu_id: int) -> bool:
        """Whether affinity permits running on *cpu_id*."""
        return self.affinity is None or cpu_id in self.affinity
