"""A ``/proc``-like statistics view over the simulated machine.

This is the interface the CPU-load baseline (Versick et al.) and the
PowerAPI ``ProcFsSensor`` read: cumulative per-process CPU time (as
``/proc/<pid>/stat`` utime) and per-CPU busy/idle time (as ``/proc/stat``).
Per machine replay (a batch of identical ticks) it states the cells one
tick adds — uptime, each CPU's busy time, each pid's CPU time — and the
engine adds them, so it sees exactly what the simulated kernel sees —
no access to the hidden power model.  Over a ramp run's record the busy
fractions and cycle counts are columns, and the same arithmetic states
one column of addends per cell.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Tuple

from repro.errors import ProcessError
from repro.simcpu.machine import Machine, TickRecord
from repro.units import left_sum


class ProcFs:
    """Cumulative CPU accounting, per process and per logical CPU."""

    def __init__(self, machine: Machine) -> None:
        self._machine = machine
        self._pid_cpu_time_s: Dict[int, float] = defaultdict(float)
        self._cpu_busy_s: Dict[int, float] = defaultdict(float)
        self._total_time_s = 0.0
        # The cells of the last event map stated: a held engine program
        # hands every replay the same maps.
        self._events = None
        self._cells: list = []
        machine.add_cells(self._state)

    def _state(self, record: TickRecord, n_ticks: int) -> Tuple[list, None]:
        """One tick's cells, stated again per event map: uptime, each
        CPU's busy time in CPU order, then each pid's CPU time."""
        if record.events is not self._events:
            self._events = record.events
            dt = record.dt_s
            busy_s = self._cpu_busy_s
            cells = [(vars(self), "_total_time_s", dt)]
            cells += [(busy_s, cpu_id, busy * dt)
                      for cpu_id, busy in record.cpu_busy.items()]
            # Per-pid CPU time is busy_fraction * dt; recover it from
            # retired cycles at the core's granted frequency.  A pid on
            # several CPUs gets one addend per CPU each tick, in event
            # order.
            core_key = self._machine._cpu_core_key
            frequencies = record.core_frequencies_hz
            cpu_time_s = self._pid_cpu_time_s
            for (pid, cpu_id), delta in record.events.items():
                frequency = frequencies[core_key[cpu_id]]
                if frequency > 0:
                    cells.append((cpu_time_s, pid,
                                  delta.get("cycles", 0.0) / frequency))
            self._cells = cells
        return self._cells, None

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
