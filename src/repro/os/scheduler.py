"""CPU schedulers: mapping runnable processes onto logical CPUs.

Each scheduler implements one placement policy over a single quantum:

* :class:`SpreadScheduler` — the Linux-like default: spread load across
  physical cores before doubling up on SMT siblings (best throughput),
* :class:`PackScheduler` — consolidate load onto as few physical cores as
  possible so the rest can sink into deep C-states (best energy at low
  load; the kind of energy-aware decision the paper motivates),
* :class:`PinnedScheduler` — honour explicit affinities only, used by the
  sampling pipeline to pin stress workloads.

Schedulers are stateless policies; fairness inside one CPU is proportional
to demand (weighted by nice level) and capped so a CPU is never
oversubscribed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SchedulerError
from repro.os.process import Demand, ProcessState, SimProcess
from repro.simcpu.machine import ThreadAssignment
from repro.simcpu.topology import Topology
from repro.units import left_sum


def _nice_weight(nice: int) -> float:
    """Linux-style weight: every nice step is ~1.25x."""
    return 1.25 ** (-nice)


class Scheduler:
    """Base class: turns (process, demand) pairs into thread assignments."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        # cpu_preference() runs once per placed thread per quantum; resolve
        # the (immutable) core groups once instead of per call: each CPU's
        # siblings are its core's CPUs, so a core's busy is summed once.
        self._cpu_ids: Tuple[int, ...] = topology.cpu_ids
        self._core_groups: Tuple[Tuple[int, ...], ...] = tuple(
            topology.core_cpus(*core) for core in topology.cores())
        self._core_index: Tuple[int, ...] = tuple(
            self._core_groups.index(topology.siblings(cpu_id))
            for cpu_id in self._cpu_ids)
        # Placement is a pure function of the demand set, which is
        # constant for thousands of consecutive quanta under a steady
        # workload; memoise the last quantum's decision.
        self._last_signature: Optional[tuple] = None
        self._last_assignments: List[ThreadAssignment] = []

    # -- policy hook --------------------------------------------------------

    def cpu_preference(self, busy: Dict[int, float]) -> List[int]:
        """CPU ids in the order this policy prefers to fill them."""
        raise NotImplementedError

    # -- common machinery ---------------------------------------------------

    def assign(self, demands: Sequence[Tuple[SimProcess, Demand]]
               ) -> List[ThreadAssignment]:
        """Produce the quantum's assignments for all runnable processes.

        The decision depends only on the runnable demand set (pids,
        nice levels, affinities, per-thread demands), so when that set
        matches the previous quantum's the cached placement is replayed
        instead of re-running the bin-packing.
        """
        signature = tuple(
            (process.pid, process.nice, process.state, process.affinity,
             demand.utilization, demand.threads, demand.mix, demand.memory)
            for process, demand in demands)
        if signature == self._last_signature:
            return list(self._last_assignments)
        busy: Dict[int, float] = dict.fromkeys(self._cpu_ids, 0.0)
        assignments: List[ThreadAssignment] = []

        # Heaviest demands first gives better bin-packing.
        work: List[Tuple[SimProcess, Demand]] = sorted(
            (item for item in demands
             if item[0].state is ProcessState.RUNNABLE),
            key=lambda item: -item[1].utilization * item[1].threads)

        for process, demand in work:
            for _thread in range(demand.threads):
                placed = self._place(process, demand, busy)
                if placed is not None:
                    assignments.append(placed)
        self._last_signature = signature
        self._last_assignments = assignments
        return list(assignments)

    def _place(self, process: SimProcess, demand: Demand,
               busy: Dict[int, float]) -> Optional[ThreadAssignment]:
        """Place one thread of *process*, preferring this policy's order."""
        candidates = self.cpu_preference(busy)
        if process.affinity is not None:
            candidates = [cpu_id for cpu_id in candidates
                          if process.allowed_on(cpu_id)]
        if not candidates:
            raise SchedulerError(
                f"pid {process.pid} has an affinity excluding every CPU")
        # First CPU with enough headroom for the full demand, else the one
        # with most headroom (the thread runs slowed down).
        for cpu_id in candidates:
            if busy[cpu_id] + demand.utilization <= 1.0 + 1e-12:
                granted = demand.utilization
                break
        else:
            cpu_id = max(candidates, key=lambda c: 1.0 - busy[c])
            granted = max(0.0, 1.0 - busy[cpu_id])
            if granted <= 1e-12:
                return None  # machine saturated; thread starves this quantum
        weight = _nice_weight(process.nice)
        granted = min(1.0 - busy[cpu_id], granted * min(1.0, weight))
        if granted <= 0.0:
            return None
        busy[cpu_id] += granted
        return ThreadAssignment(
            pid=process.pid,
            cpu_id=cpu_id,
            busy_fraction=granted,
            mix=demand.mix,
            memory=demand.memory,
        )

    def _core_busy(self, busy: Dict[int, float]) -> List[float]:
        """Summed busy of each CPU's core, indexed like ``_cpu_ids``."""
        get = busy.__getitem__
        per_core = [left_sum(map(get, group)) for group in self._core_groups]
        return [per_core[index] for index in self._core_index]


class SpreadScheduler(Scheduler):
    """Spread across physical cores first, SMT siblings last."""

    def cpu_preference(self, busy: Dict[int, float]) -> List[int]:
        keys = sorted(zip(map(busy.__getitem__, self._cpu_ids),
                          self._core_busy(busy), self._cpu_ids))
        return [key[2] for key in keys]


class PackScheduler(Scheduler):
    """Fill one core (and its siblings) completely before waking the next."""

    def cpu_preference(self, busy: Dict[int, float]) -> List[int]:
        # Prefer cores already awake (negative busy sorts busiest first).
        keys = sorted(zip([-core_busy for core_busy in self._core_busy(busy)],
                          map(busy.__getitem__, self._cpu_ids),
                          self._cpu_ids))
        return [key[2] for key in keys]


class PinnedScheduler(Scheduler):
    """Place threads only on their affinity CPUs, lowest id first.

    Processes without affinity fall back to spread placement.
    """

    def cpu_preference(self, busy: Dict[int, float]) -> List[int]:
        keys = sorted(zip(map(busy.__getitem__, self._cpu_ids),
                          self._cpu_ids))
        return [key[1] for key in keys]


class EnergyAwareScheduler(Scheduler):
    """Adaptive policy: consolidate at low load, spread at high load.

    Packing lets idle cores sink into deep C-states (saving power) but
    costs SMT contention throughput; spreading does the opposite.  This
    scheduler measures the quantum's total demand up front and packs
    whenever it fits within ``pack_threshold`` of the machine's capacity,
    otherwise spreads — approximating the energy/performance sweet spot
    without a power model in the loop.
    """

    def __init__(self, topology: Topology,
                 pack_threshold: float = 0.5) -> None:
        super().__init__(topology)
        if not 0.0 < pack_threshold <= 1.0:
            raise SchedulerError("pack_threshold must be within (0, 1]")
        self.pack_threshold = pack_threshold
        self._spread = SpreadScheduler(topology)
        self._pack = PackScheduler(topology)
        self._delegate: Scheduler = self._spread

    def assign(self, demands):
        capacity = float(len(self.topology))
        wanted = left_sum(demand.utilization * demand.threads
                          for process, demand in demands
                          if process.state.value == "runnable")
        self._delegate = (self._pack
                          if wanted <= capacity * self.pack_threshold
                          else self._spread)
        return self._delegate.assign(demands)

    def cpu_preference(self, busy: Dict[int, float]) -> List[int]:
        return self._delegate.cpu_preference(busy)

    @property
    def mode(self) -> str:
        """The policy used for the most recent quantum."""
        return "pack" if self._delegate is self._pack else "spread"
