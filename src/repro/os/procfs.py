"""A ``/proc``-like statistics view over the simulated machine.

This is the interface the CPU-load baseline (Versick et al.) and the
PowerAPI ``ProcFsSensor`` read: cumulative per-process CPU time (as
``/proc/<pid>/stat`` utime) and per-CPU busy/idle time (as ``/proc/stat``).
It folds the machine's replays (one call per batch of identical ticks),
so it sees exactly what the simulated kernel sees — no access to the
hidden power model.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from repro.errors import ProcessError
from repro.simcpu.engine import addend_table, vector_fold
from repro.simcpu.machine import Machine, TickRecord
from repro.units import left_sum


class ProcFs:
    """Cumulative CPU accounting, per process and per logical CPU."""

    def __init__(self, machine: Machine) -> None:
        self._machine = machine
        self._pid_cpu_time_s: Dict[int, float] = defaultdict(float)
        self._cpu_busy_s: Dict[int, float] = defaultdict(float)
        self._total_time_s = 0.0
        # One tick's addends, derived from the last event map folded: a
        # held engine program hands every replay the same maps.
        self._events = None
        self._dt = 0.0
        self._busy_addends: List[Tuple[int, float]] = []
        self._pid_addends: List[Tuple[int, List[float]]] = []
        # The same addends as a table (uptime, then each CPU, then each
        # pid), built by the first multi-tick fold of a map.
        self._table = None
        machine.add_fold(self._fold)

    def _fold(self, record: TickRecord, n_ticks: int,
              leaks: Sequence[float], start_s: float) -> None:
        if record.events is not self._events:
            self._derive_addends(record)
        busy_s = self._cpu_busy_s
        cpu_time_s = self._pid_cpu_time_s
        if n_ticks == 1:
            # One tick: the additions themselves.
            self._total_time_s += self._dt
            for cpu_id, addend in self._busy_addends:
                busy_s[cpu_id] += addend
            for pid, addends in self._pid_addends:
                value = cpu_time_s[pid]
                for addend in addends:
                    value += addend
                cpu_time_s[pid] = value
            return
        if self._table is None:
            self._table = addend_table(
                [(self._dt,)]
                + [(addend,) for _cpu_id, addend in self._busy_addends]
                + [addends for _pid, addends in self._pid_addends])
        values = vector_fold(
            [self._total_time_s]
            + [busy_s[cpu_id] for cpu_id, _addend in self._busy_addends]
            + [cpu_time_s[pid] for pid, _addends in self._pid_addends],
            self._table, n_ticks)
        self._total_time_s = values[0]
        n_cpus = len(self._busy_addends)
        for (cpu_id, _addend), value in zip(self._busy_addends, values[1:]):
            busy_s[cpu_id] = value
        for (pid, _addends), value in zip(self._pid_addends,
                                          values[1 + n_cpus:]):
            cpu_time_s[pid] = value

    def _derive_addends(self, record: TickRecord) -> None:
        dt = record.dt_s
        self._events = record.events
        self._dt = dt
        self._table = None
        self._busy_addends = [(cpu_id, busy * dt)
                              for cpu_id, busy in record.cpu_busy.items()]
        # Per-pid CPU time is busy_fraction * dt; recover it from retired
        # cycles at the core's granted frequency.  A pid on several CPUs
        # gets one addend per CPU each tick, in event order.
        core_key = self._machine._cpu_core_key
        frequencies = record.core_frequencies_hz
        addends: Dict[int, List[float]] = {}
        for (pid, cpu_id), delta in record.events.items():
            frequency = frequencies[core_key[cpu_id]]
            if frequency > 0:
                addends.setdefault(pid, []).append(
                    delta.get("cycles", 0.0) / frequency)
        self._pid_addends = list(addends.items())

    # -- /proc/<pid>/stat ----------------------------------------------------

    def process_cpu_time_s(self, pid: int) -> float:
        """Cumulative CPU seconds consumed by *pid*."""
        if pid not in self._pid_cpu_time_s:
            raise ProcessError(f"pid {pid} has no recorded CPU time")
        return self._pid_cpu_time_s[pid]

    def known_pids(self) -> Tuple[int, ...]:
        """Pids with any recorded CPU time, ascending."""
        return tuple(sorted(self._pid_cpu_time_s))

    # -- /proc/stat ----------------------------------------------------------

    def cpu_busy_time_s(self, cpu_id: int) -> float:
        """Cumulative busy (non-idle) seconds of one logical CPU."""
        return self._cpu_busy_s[cpu_id]

    def uptime_s(self) -> float:
        """Seconds of simulated time observed."""
        return self._total_time_s

    def machine_load(self) -> float:
        """Machine-wide CPU load in [0, 1] since boot."""
        if self._total_time_s == 0.0:
            return 0.0
        cpus = len(self._machine.topology)
        busy = left_sum(self._cpu_busy_s.values())
        return busy / (cpus * self._total_time_s)
