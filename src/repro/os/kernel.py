"""The simulated kernel: process table, scheduling loop and time base.

:class:`SimKernel` glues the OS layer to the machine.  One quantum polls
every live process for its demand, lets the governor adjust P-states from
the previous quantum's utilisation, lets the scheduler produce
assignments, advances the machine and updates process accounting.

:meth:`run_span` is the one loop.  It polls processes, governor and
scheduler once per steady run of quanta: when every polled program's
demand holds for several quanta (its demand horizon) and the governor's
update is a fixed point, the run is accounted after that one poll.  It
compiles nothing itself: each poll's assignments go to the engine
(``BatchEngine.hold``), which repeats the quantum it holds while the
assignments and the frequency domain's generation repeat, and holds a
SPECjbb-like ramp (a new busy fraction every quantum, one layout) as
rows of floats, replaying each run once when it ends.  The span's last
run is replayed in a ``finally``, so a quantum that raises leaves
machine state as the quanta before it did.  :meth:`tick` is a span of
one quantum, :meth:`run` a span for a duration; :meth:`run_until_idle`
ticks until every process exits.
:class:`~repro.core.monitor.PowerAPI` cuts its runs into spans at the
quanta its actors must see.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError, ProcessError
from repro.os.governor import Governor, PerformanceGovernor
from repro.os.process import Demand, Program, ProcessState, SimProcess
from repro.os.procfs import ProcFs
from repro.os.scheduler import Scheduler, SpreadScheduler
from repro.simcpu.machine import Machine, ThreadAssignment, TickRecord
from repro.simcpu.spec import CpuSpec

#: Default scheduling quantum, seconds (10 ms, a typical kernel tick).
DEFAULT_QUANTUM_S = 0.01


def _granted(demands: List[Tuple[SimProcess, Demand]],
             assignments: Sequence[ThreadAssignment]) -> List[float]:
    """Each demand's process's summed busy fraction over *assignments*."""
    by_pid: Dict[int, float] = {}
    for assignment in assignments:
        by_pid[assignment.pid] = (by_pid.get(assignment.pid, 0.0)
                                  + assignment.busy_fraction)
    return [by_pid.get(process.pid, 0.0) for process, _demand in demands]


class SimKernel:
    """Owns the machine, the process table and the scheduling loop."""

    def __init__(self, spec: CpuSpec,
                 scheduler_factory: Callable[..., Scheduler] = SpreadScheduler,
                 governor_factory: Callable[..., Governor] = PerformanceGovernor,
                 quantum_s: float = DEFAULT_QUANTUM_S) -> None:
        if quantum_s <= 0:
            raise ConfigurationError("quantum must be positive")
        self.machine = Machine(spec)
        self.scheduler = scheduler_factory(self.machine.topology)
        self.governor = governor_factory(
            spec, self.machine.topology, self.machine.frequency)
        self.procfs = ProcFs(self.machine)
        self.quantum_s = quantum_s
        self._processes: Dict[int, SimProcess] = {}
        self._next_pid = itertools.count(1000)
        self._last_busy: Dict[int, float] = {
            cpu_id: 0.0 for cpu_id in self.machine.topology.cpu_ids}

    # -- process management ---------------------------------------------

    def spawn(self, program: Program, name: str = "task",
              affinity: Optional[Set[int]] = None, nice: int = 0) -> int:
        """Create a process executing *program*; returns its pid."""
        pid = next(self._next_pid)
        self._processes[pid] = SimProcess(
            pid=pid, name=name, program=program, affinity=affinity, nice=nice)
        return pid

    def process(self, pid: int) -> SimProcess:
        """Look up a process by pid."""
        try:
            return self._processes[pid]
        except KeyError:
            raise ProcessError(f"no such pid {pid}") from None

    def kill(self, pid: int) -> None:
        """Force a process to exit immediately."""
        self.process(pid).state = ProcessState.EXITED

    @property
    def live_pids(self) -> Tuple[int, ...]:
        """Pids of processes that have not exited, ascending."""
        return tuple(sorted(pid for pid, proc in self._processes.items()
                            if proc.alive))

    # -- time base --------------------------------------------------------

    @property
    def time_s(self) -> float:
        """Current simulated time."""
        return self.machine.time_s

    def run_span(self, n_quanta: int, until_idle: bool = False) -> int:
        """Run up to *n_quanta* quanta; returns how many ran.

        A poll covers the smallest demand horizon over the polled
        processes and the quanta left, or one quantum unless the
        governor's update is a fixed point: the quanta it covers would
        poll the same demands, move no governor state and get the same
        assignments (the scheduler is a pure function of the demands).
        Machine state (time, energy, counters) moves only when the
        engine replays what it holds, the last of it before this
        returns.  Each run froze the frequencies of its first quantum,
        even if the governor has moved a target since (a move ends the
        run).  With *until_idle* the span ends after the quantum in
        which the last live process exited.
        """
        engine = self.machine.engine
        governor = self.governor
        quantum = self.quantum_s
        processes = self._processes.values()
        ran = 0
        try:
            while ran < n_quanta:
                demands: List[Tuple[SimProcess, Demand]] = []
                for process in processes:
                    if process.alive:
                        demand = process.poll_demand()
                        if demand is not None:
                            demands.append((process, demand))

                governor.update(self._last_busy)
                assignments = self.scheduler.assign(demands)
                # The engine owns this busy map and nothing mutates it.
                cpu_busy = engine.hold(assignments, quantum)
                granted = getattr(assignments, "granted", None)
                if granted is None:  # not a placement, or changed in place
                    granted = _granted(demands, assignments)
                self._last_busy = cpu_busy

                idle = until_idle and not demands
                quanta = 1 if idle else n_quanta - ran
                for process, _demand in demands:
                    if quanta == 1:
                        break
                    quanta = process.demand_horizon(quantum, quanta)
                if quanta > 1 and not governor.is_fixed_point(cpu_busy):
                    quanta = 1
                engine.extend(quanta)
                for (process, _demand), share in zip(demands, granted):
                    process.account(share * quantum, quantum, quanta)
                ran += quanta
                if idle:
                    break
        finally:
            engine.flush()
        return ran

    def tick(self) -> TickRecord:
        """Run one scheduling quantum."""
        self.run_span(1)
        return self.machine.last_record

    def run(self, duration_s: float) -> Optional[TickRecord]:
        """Run for *duration_s* of simulated time.

        Returns the final quantum's record (None when *duration_s*
        rounds to no quantum).
        """
        if duration_s < 0:
            raise ConfigurationError("duration must be >= 0")
        steps = int(round(duration_s / self.quantum_s))
        return self.machine.last_record if self.run_span(steps) else None

    def run_until_idle(self, max_duration_s: float = 3600.0) -> List[TickRecord]:
        """Run until every process has exited (bounded by *max_duration_s*)."""
        records: List[TickRecord] = []
        deadline = self.time_s + max_duration_s
        while self.live_pids and self.time_s < deadline:
            records.append(self.tick())
        return records
