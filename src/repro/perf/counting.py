"""Counting interface: the simulated ``perf_event_open`` + ``read``.

A :class:`PerfSession` attaches to a :class:`~repro.simcpu.machine.Machine`
and exposes :meth:`~PerfSession.open` with the familiar (event, pid, cpu)
triple, where ``pid=-1`` means every process and ``cpu=-1`` every CPU.
Counters follow the kernel lifecycle — open → enable → read → disable —
and report ``time_enabled`` / ``time_running`` so multiplexed values can be
scaled exactly like perf does.  :meth:`PerfSession.read_group` reads
several counters at once, like a ``PERF_FORMAT_GROUP`` read.

Multiplexing lives in :mod:`repro.perf.multiplex`; the session delegates
per-tick scheduling decisions to it.  The session adds nothing itself:
per engine replay (a batch of identical ticks, or a ramp run whose
counts are columns) it states each enabled counter's cells — its
enabled time, its running time and one raw cell per event-map delta its
target covers — and the ticks the counter held a PMU slot, on which
alone the engine adds its running time and raw counts.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.errors import (CounterInvalidError, CounterStateError,
                          SampleLossError)
from repro.perf import pfm
from repro.perf.multiplex import MultiplexScheduler
from repro.simcpu.machine import Machine


class CounterValue(NamedTuple):
    """One read of a counter, perf-style."""

    #: Raw counted value while the event was scheduled on the PMU.
    raw: float
    time_enabled_s: float
    time_running_s: float

    @property
    def scaled(self) -> float:
        """Multiplex-corrected estimate: ``raw * enabled / running``."""
        if self.time_running_s == 0.0:
            return 0.0
        return self.raw * (self.time_enabled_s / self.time_running_s)

    @property
    def multiplexed(self) -> bool:
        """Whether the event ever lost its PMU slot."""
        return self.time_running_s < self.time_enabled_s - 1e-12


class PerfCounter:
    """One opened event; mirrors a perf_event file descriptor."""

    def __init__(self, session: "PerfSession", counter_id: int, event: str,
                 pid: int, cpu: int) -> None:
        self._session = session
        self.counter_id = counter_id
        self.event = event
        self.pid = pid
        self.cpu = cpu
        self.enabled = False
        self.closed = False
        self.dead = False
        # (raw, enabled, running), in CounterValue order: the cells an
        # engine replay adds into.
        self._values = [0.0, 0.0, 0.0]

    #: Raw counted value while the event held a PMU slot.
    raw = property(lambda self: self._values[0])
    time_enabled_s = property(lambda self: self._values[1])
    time_running_s = property(lambda self: self._values[2])

    def _check_open(self) -> None:
        if self.closed:
            raise CounterStateError(f"counter {self.counter_id} is closed")
        if self.dead:
            raise CounterInvalidError(
                f"counter {self.counter_id}: target pid {self.pid} "
                "no longer exists (ESRCH)")

    def _check_read(self) -> None:
        """Raise what a read of this counter raises now, if anything: a
        closed or dead counter first, then a session in sample loss."""
        if self.closed or self.dead:
            self._check_open()
        if self._session._sample_loss:
            raise SampleLossError(
                f"counter {self.counter_id}: sample lost")

    def enable(self) -> None:
        """Start counting (PERF_EVENT_IOC_ENABLE)."""
        self._check_open()
        self.enabled = True

    def disable(self) -> None:
        """Stop counting (PERF_EVENT_IOC_DISABLE)."""
        self._check_open()
        self.enabled = False

    def reset(self) -> None:
        """Zero the counter (PERF_EVENT_IOC_RESET)."""
        self._check_open()
        self._values[:] = (0.0, 0.0, 0.0)

    def invalidate(self) -> None:
        """Mark the counter's target as gone; reads now raise ESRCH-style.

        Mirrors what the kernel does when a monitored pid exits: the fd
        stays open but stops producing data.  ``close()`` remains legal.
        """
        self.dead = True
        self.enabled = False

    def read(self) -> CounterValue:
        """Current value with scaling metadata."""
        if self.closed or self.dead or self._session._sample_loss:
            self._check_read()
        # tuple.__new__ skips the argument parsing of the NamedTuple's
        # generated __new__: a read is on every sensor's hot path.
        return tuple.__new__(CounterValue, self._values)

    def close(self) -> None:
        """Release the counter; further operations raise."""
        if not self.closed:
            self.closed = True
            self._session._release(self)


class PerfSession:
    """All counters opened against one machine; handles multiplexing."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self._counters: Dict[int, PerfCounter] = {}
        self._ids = itertools.count(3)  # fds start above stdio
        self._mux = MultiplexScheduler(slots=machine.spec.counter_slots)
        self._dead_pids: set = set()
        self._sample_loss = False
        self._closed = False
        # The cells stated for the last (event map, dt, active counters):
        # the enabled and running times, kept while dt and the counters
        # hold, then the raw cells of the map.  A held engine program
        # hands every replay the same map.
        self._key: tuple = (None, 0.0, [])
        self._times: list = []
        self._targets: Dict[Tuple[int, int], list] = {}
        self._cells: list = []
        machine.add_cells(self._state)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def open(self, event: str, pid: int = -1, cpu: int = -1,
             enabled: bool = True) -> PerfCounter:
        """Open a counter for *event* on (pid, cpu); -1 wildcards both."""
        if self._closed:
            raise CounterStateError("perf session is closed")
        if pid >= 0 and pid in self._dead_pids:
            raise CounterInvalidError(
                f"cannot open counter: pid {pid} no longer exists (ESRCH)")
        canonical = pfm.resolve(event)
        counter = PerfCounter(self, next(self._ids), canonical, pid, cpu)
        self._counters[counter.counter_id] = counter
        if enabled:
            counter.enable()
        return counter

    def open_group(self, events, pid: int = -1, cpu: int = -1
                   ) -> List[PerfCounter]:
        """Open several events on the same target at once."""
        return [self.open(event, pid=pid, cpu=cpu) for event in events]

    def read_group(self, counters: Sequence[PerfCounter]
                   ) -> Tuple[float, ...]:
        """Every member's (raw, enabled, running), in member order, as one
        flat tuple: the simulated ``PERF_FORMAT_GROUP`` read.

        Raises what the first failing :meth:`PerfCounter.read` of the
        members, in order, would.  Multiplexing rotates members one by
        one, so each keeps its own enabled and running times.
        """
        values: List[float] = []
        loss = self._sample_loss
        for counter in counters:
            if counter.closed or counter.dead or loss:
                counter._check_read()
            values += counter._values
        return tuple(values)

    def close(self) -> None:
        """Close every counter and detach from the machine (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for counter in list(self._counters.values()):
            counter.close()
        self.machine.remove_cells(self._state)

    # -- fault injection -------------------------------------------------

    def invalidate_pid(self, pid: int) -> int:
        """ESRCH-style fault: every counter on *pid* goes dead.

        Later :meth:`open` calls for the pid also fail, mirroring the
        kernel refusing to attach to an exited process.  Returns the
        number of counters invalidated.
        """
        self._dead_pids.add(pid)
        hit = 0
        for counter in self._counters.values():
            if counter.pid == pid and not counter.dead:
                counter.invalidate()
                hit += 1
        return hit

    def set_sample_loss(self, active: bool) -> None:
        """While active, every counter read raises :class:`SampleLossError`."""
        self._sample_loss = bool(active)

    def set_slot_override(self, slots) -> None:
        """Override the usable PMU slots (0 = starvation); None restores."""
        self._mux.slot_override = slots

    # -- internals -------------------------------------------------------

    def _release(self, counter: PerfCounter) -> None:
        self._counters.pop(counter.counter_id, None)

    def _state(self, record, n_ticks: int
               ) -> Tuple[list, Optional[List[Optional[Sequence[int]]]]]:
        """The enabled counters' cells and, unless every counter held a
        PMU slot on all *n_ticks* ticks, each cell's ticks (None for all
        of them: every enabled time, and a counter that ran
        throughout)."""
        active = [counter for counter in self._counters.values()
                  if counter.enabled]
        running = self._mux.running_ticks(active, n_ticks)
        events = record.events
        dt = record.dt_s
        key = self._key
        if key[1] != dt or key[2] != active:
            self._times = []
            self._targets = {}
            for counter in active:
                values = counter._values
                self._times += ((values, 1, dt), (values, 2, dt))
                self._targets.setdefault((counter.pid, counter.cpu),
                                         []).append((values, counter.event))
            key = (None, dt, active)
        if key[0] is not events:
            self._cells = self._times + self._raw_cells(events)
            self._key = (events, dt, active)
        if running is None:
            return self._cells, None
        ran = {}
        for counter in active:
            ticks = running.get(counter.counter_id, ())
            ran[id(counter._values)] = (None if len(ticks) == n_ticks
                                        else ticks)
        return self._cells, [None if index == 1 else ran[id(values)]
                             for values, index, _addend in self._cells]

    def _raw_cells(self, events: Mapping) -> list:
        """One pass over a new event map: each counter's raw cells, one
        per delta its (pid, cpu) target covers, in event order — the
        order a tick adds them."""
        targets = self._targets
        cells = []
        for (pid, cpu), delta in events.items():
            for target in ((pid, -1), (pid, cpu), (-1, cpu), (-1, -1)):
                members = targets.get(target)
                if members is not None:
                    cells += [(values, 0, delta.get(event, 0.0))
                              for values, event in members]
        return cells

    def __enter__(self) -> "PerfSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
