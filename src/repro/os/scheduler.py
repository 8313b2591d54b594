"""CPU schedulers: mapping runnable processes onto logical CPUs.

Each scheduler implements one placement policy over a single quantum:

* :class:`SpreadScheduler` — the Linux-like default: spread load across
  physical cores before doubling up on SMT siblings (best throughput),
* :class:`PackScheduler` — consolidate load onto as few physical cores as
  possible so the rest can sink into deep C-states (best energy at low
  load; the kind of energy-aware decision the paper motivates),
* :class:`PinnedScheduler` — least-busy CPU first, with no core term;
  the sampling pipeline runs its stress workloads, pinned by affinity,
  under it.

A policy is one sort key over the CPUs (:meth:`Scheduler.preference_key`);
the placement around it is common.  Heaviest demands go first, each
thread to the first CPU in the policy's order with headroom for its
whole demand, else to the one with most headroom.  Fairness inside one
CPU is proportional to demand (weighted by nice level) and capped so a
CPU is never oversubscribed.

A scheduler keeps the shape of its last full placement and re-checks
every decision of it when only the utilisations move (a SPECjbb ramp),
so such a quantum costs a few comparisons per thread and reaches the
engine as a row of floats (:class:`~repro.simcpu.occupancy.Placement`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SchedulerError
from repro.os.process import Demand, ProcessState, SimProcess
from repro.simcpu.occupancy import Placement
from repro.simcpu.topology import Topology
from repro.units import left_sum

#: A thread fits a CPU whose busy plus the thread's demand stays within
#: this.
_FITS = 1.0 + 1e-12
#: A fallback CPU with no more headroom than this starves the thread.
_STARVES = 1e-12


def _nice_weight(nice: int) -> float:
    """Linux-style weight: every nice step is ~1.25x."""
    return 1.25 ** (-nice)


class _Shape:
    """What one full placement decided, kept to re-check later quanta.

    ``signature`` holds each demand of the quantum placed last: its
    utilisation, then its shape (its process with the process's state,
    nice level and affinity, and its threads, mix and memory); ``shapes``
    holds those shapes alone.  ``work`` is each runnable demand's
    ``(index, threads)`` in work order.
    ``threads`` is each thread's decision in placement order,
    ``(index, cpu_id, allowed, scale, fits, placed)``: the CPUs its
    affinity allows, its nice weight capped at 1, whether its CPU was
    the first with headroom for the whole demand (else the one with most
    headroom) and whether it got a busy fraction (else it starved).
    ``rows`` are the placed threads' rows, one tuple shared by every
    placement of this shape, ``placement`` the placement returned last.
    """

    __slots__ = ("signature", "shapes", "work", "threads", "rows",
                 "placement")


class Scheduler:
    """Base class: turns (process, demand) pairs into a placement."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._cpu_ids: Tuple[int, ...] = topology.cpu_ids
        #: Each CPU's core, as the CPUs whose busy the core sums.
        self._core_of: Tuple[Tuple[int, ...], ...] = tuple(
            topology.siblings(cpu_id) for cpu_id in self._cpu_ids)
        self._held: Optional[_Shape] = None

    # -- policy hook --------------------------------------------------------

    def preference_key(self, busy: List[float], core_busy: List[float],
                       cpu_id: int) -> tuple:
        """This policy's sort key for *cpu_id*: CPUs fill lowest first.

        *busy* is each CPU's busy so far this quantum and *core_busy* the
        summed busy of each CPU's core, both indexed by CPU id.  A key
        reads only its own CPU's two values (a placement re-keys only the
        CPUs of the core it changed), and ends with the CPU id, so no two
        tie.
        """
        raise NotImplementedError

    # -- common machinery ---------------------------------------------------

    def assign(self, demands: Sequence[Tuple[SimProcess, Demand]]
               ) -> Placement:
        """Place this quantum's runnable *demands*.

        Placement is a pure function of the demands and their processes'
        states, nice levels and affinities.  The last full placement's
        shape is held: a quantum equal to the last one placed gets that
        placement again, and one whose demands move only their
        utilisations re-checks each of its decisions; the first that
        fails runs the full placement, whose shape is held from then on.
        """
        signature = tuple([
            (demand.utilization, process, process.state, process.nice,
             process.affinity, demand.threads, demand.mix, demand.memory)
            for process, demand in demands])
        held = self._held
        if held is not None:
            if signature == held.signature:
                held.placement = held.placement.copy()
                return held.placement
            if [entry[1:] for entry in signature] == held.shapes:
                placement = self._recheck(held, signature)
                if placement is not None:
                    return placement
        return self._place(demands, signature)

    def _place(self, demands: Sequence[Tuple[SimProcess, Demand]],
               signature: tuple) -> Placement:
        """The full placement, recorded as the held shape as it goes."""
        busy, core_busy, keys = self._idle()
        # Heaviest demands first gives better bin-packing.
        order = sorted(
            (index for index, (process, _demand) in enumerate(demands)
             if process.state is ProcessState.RUNNABLE),
            key=lambda index: (-demands[index][1].utilization
                               * demands[index][1].threads))
        shape = _Shape()
        work, threads, rows, fractions = [], [], [], []
        granted = [0.0] * len(demands)
        for index in order:
            process, demand = demands[index]
            work.append((index, demand.threads))
            allowed = self._cpu_ids
            if process.affinity is not None:
                allowed = tuple(cpu_id for cpu_id in allowed
                                if cpu_id in process.affinity)
                if not allowed:
                    raise SchedulerError(
                        f"pid {process.pid} has an affinity excluding "
                        "every CPU")
            scale = min(1.0, _nice_weight(process.nice))
            wanted = demand.utilization
            for _thread in range(demand.threads):
                candidates = sorted(allowed, key=keys.__getitem__)
                # First CPU with enough headroom for the full demand, else
                # the one with most headroom (the thread runs slowed down).
                for cpu_id in candidates:
                    if busy[cpu_id] + wanted <= _FITS:
                        fits, share = True, wanted
                        break
                else:
                    fits = False
                    cpu_id = max(candidates, key=lambda cpu: 1.0 - busy[cpu])
                    share = max(0.0, 1.0 - busy[cpu_id])
                # A saturated machine starves the thread this quantum.
                placed = fits or share > _STARVES
                if placed:
                    share = min(1.0 - busy[cpu_id], share * scale)
                    placed = share > 0.0
                threads.append((index, cpu_id, allowed, scale, fits, placed))
                if placed:
                    self._take(busy, core_busy, keys, cpu_id, share)
                    rows.append((process.pid, cpu_id, demand.mix,
                                 demand.memory))
                    fractions.append(share)
                    granted[index] += share
        shape.signature = signature
        shape.shapes = [entry[1:] for entry in signature]
        shape.work = work
        shape.threads = threads
        shape.rows = tuple(rows)
        shape.placement = Placement(shape.rows, fractions, granted,
                                    self._cpu_busy(busy))
        self._held = shape
        return shape.placement

    def _recheck(self, held: _Shape,
                 signature: tuple) -> Optional[Placement]:
        """The held shape's placement at *signature*'s utilisations, or
        None at the first decision the full placement would take
        otherwise."""
        utilization = [entry[0] for entry in signature]
        # The stable sort by -utilization * threads keeps the work order,
        # ties in demand order.
        last_key, last_index = -math.inf, -1
        for index, threads in held.work:
            key = -utilization[index] * threads
            if key < last_key or (key == last_key and index < last_index):
                return None
            last_key, last_index = key, index
        busy, core_busy, keys = self._idle()
        fractions: List[float] = []
        granted = [0.0] * len(utilization)
        for index, cpu_id, allowed, scale, fits, placed in held.threads:
            wanted = utilization[index]
            if fits:
                # Its CPU has headroom for the demand, and no CPU before
                # it in the policy's order has.
                if busy[cpu_id] + wanted > _FITS:
                    return None
                own = keys[cpu_id]
                for other in allowed:
                    if busy[other] + wanted <= _FITS and keys[other] < own:
                        return None
                share = wanted
            else:
                # No CPU has headroom, and its CPU has the most, first in
                # the policy's order among equals.
                share = 1.0 - busy[cpu_id]
                own = keys[cpu_id]
                for other in allowed:
                    if busy[other] + wanted <= _FITS:
                        return None
                    room = 1.0 - busy[other]
                    if room > share or (room == share and keys[other] < own):
                        return None
                share = max(0.0, share)
            now = fits or share > _STARVES
            if now:
                share = min(1.0 - busy[cpu_id], share * scale)
                now = share > 0.0
            if now is not placed:
                return None
            if placed:
                self._take(busy, core_busy, keys, cpu_id, share)
                fractions.append(share)
                granted[index] += share
        held.signature = signature
        held.placement = Placement(held.rows, fractions, granted,
                                   self._cpu_busy(busy))
        return held.placement

    def _cpu_busy(self, busy: List[float]) -> Dict[int, float]:
        """Each CPU's busy capped at 1, as the machine's validation gives
        it."""
        if max(busy) > 1.0:
            busy = [min(1.0, value) for value in busy]
        return dict(zip(self._cpu_ids, busy))

    def _idle(self) -> Tuple[List[float], List[float], List[tuple]]:
        """Each CPU's busy, its core's summed busy and its key, before
        anything is placed."""
        busy = [0.0] * len(self._cpu_ids)
        core_busy = list(busy)
        key = self.preference_key
        return busy, core_busy, [key(busy, core_busy, cpu_id)
                                 for cpu_id in self._cpu_ids]

    def _take(self, busy: List[float], core_busy: List[float],
              keys: List[tuple], cpu_id: int, share: float) -> None:
        """Add *share* to *cpu_id*'s busy; re-sum its core's busy, left to
        right, and re-key the core's CPUs."""
        busy[cpu_id] += share
        core = self._core_of[cpu_id]
        total = 0.0
        for member in core:
            total += busy[member]
        key = self.preference_key
        for member in core:
            core_busy[member] = total
            keys[member] = key(busy, core_busy, member)


class SpreadScheduler(Scheduler):
    """Spread across physical cores first, SMT siblings last."""

    def preference_key(self, busy, core_busy, cpu_id):
        return (busy[cpu_id], core_busy[cpu_id], cpu_id)


class PackScheduler(Scheduler):
    """Fill one core (and its siblings) completely before waking the next."""

    def preference_key(self, busy, core_busy, cpu_id):
        # Prefer cores already awake (negative busy sorts busiest first).
        return (-core_busy[cpu_id], busy[cpu_id], cpu_id)


class PinnedScheduler(Scheduler):
    """Least-busy CPU first, lowest id among equals.

    The key is ``(busy, cpu_id)``, with no core term.  A pinned process's
    threads go to its least-busy affinity CPU; a process without affinity
    is placed by the same key over every CPU.  That is not spread
    placement: among equally busy CPUs :class:`SpreadScheduler` takes the
    one on the less busy core, this policy the lowest id.
    """

    def preference_key(self, busy, core_busy, cpu_id):
        return (busy[cpu_id], cpu_id)


class EnergyAwareScheduler(Scheduler):
    """Adaptive policy: consolidate at low load, spread at high load.

    Packing lets idle cores sink into deep C-states (saving power) but
    costs SMT contention throughput; spreading does the opposite.  This
    scheduler measures the quantum's total demand up front and packs
    whenever it fits within ``pack_threshold`` of the machine's capacity,
    otherwise spreads — approximating the energy/performance sweet spot
    without a power model in the loop.  Each delegate holds its own last
    shape.
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

    @property
    def mode(self) -> str:
        """The policy used for the most recent quantum."""
        return "pack" if self._delegate is self._pack else "spread"
