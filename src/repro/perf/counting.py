"""Counting interface: the simulated ``perf_event_open`` + ``read``.

A :class:`PerfSession` attaches to a :class:`~repro.simcpu.machine.Machine`
and exposes :meth:`~PerfSession.open` with the familiar (event, pid, cpu)
triple, where ``pid=-1`` means every process and ``cpu=-1`` every CPU.
Counters follow the kernel lifecycle — open → enable → read → disable —
and report ``time_enabled`` / ``time_running`` so multiplexed values can be
scaled exactly like perf does.

Multiplexing lives in :mod:`repro.perf.multiplex`; the session delegates
per-tick scheduling decisions to it.  The session is a machine *fold*:
it takes each engine replay (a batch of identical ticks) in one call.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

from repro.errors import (CounterInvalidError, CounterStateError,
                          SampleLossError)
from repro.perf import pfm
from repro.perf.multiplex import MultiplexScheduler
from repro.simcpu.engine import addend_table, vector_fold
from repro.simcpu.machine import Machine, TickRecord


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
        self.raw = 0.0
        self.time_enabled_s = 0.0
        self.time_running_s = 0.0
        # The per-tick addends of the last event map folded while the
        # counter ran: a held engine program hands every replay the
        # same map.
        self._events = None
        self._addends: List[float] = []

    def _check_open(self) -> None:
        if self.closed:
            raise CounterStateError(f"counter {self.counter_id} is closed")
        if self.dead:
            raise CounterInvalidError(
                f"counter {self.counter_id}: target pid {self.pid} "
                "no longer exists (ESRCH)")

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
        self.raw = 0.0
        self.time_enabled_s = 0.0
        self.time_running_s = 0.0

    def invalidate(self) -> None:
        """Mark the counter's target as gone; reads now raise ESRCH-style.

        Mirrors what the kernel does when a monitored pid exits: the fd
        stays open but stops producing data.  ``close()`` remains legal.
        """
        self.dead = True
        self.enabled = False

    def read(self) -> CounterValue:
        """Current value with scaling metadata."""
        if self.closed or self.dead:
            self._check_open()
        if self._session._sample_loss:
            raise SampleLossError(
                f"counter {self.counter_id}: sample lost")
        # tuple.__new__ skips the argument parsing of the NamedTuple's
        # generated __new__: a read is on every sensor's hot path.
        return tuple.__new__(CounterValue, (self.raw, self.time_enabled_s,
                                            self.time_running_s))

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
        # The last event map folded and, per (pid, cpu) target read
        # from it, the deltas the target covers.
        self._events = None
        self._covered: Dict[Tuple[int, int], list] = {}
        # The (event map, dt, active counters) of the last multi-tick
        # fold, and its addend table: three columns per counter, its
        # enabled time, running time and raw count.
        self._table_key: tuple = (None, 0.0, [])
        self._table = None
        machine.add_fold(self._fold)

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

    def close(self) -> None:
        """Close every counter and detach from the machine (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for counter in list(self._counters.values()):
            counter.close()
        self.machine.remove_fold(self._fold)

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

    def _fold(self, record: TickRecord, n_ticks: int,
              leaks: Sequence[float], start_s: float) -> None:
        active = [counter for counter in self._counters.values()
                  if counter.enabled]
        running = self._mux.running_ticks(active, n_ticks)
        events = record.events
        if events is not self._events:
            self._cover(events, active)
        dt = record.dt_s
        if n_ticks > 1:
            self._fold_ticks(active, running, events, dt, n_ticks)
            return
        # One tick: the additions themselves.
        for counter in active:
            counter.time_enabled_s += dt
            if running.get(counter.counter_id, 0):
                if counter._events is not events:
                    self._derive_addends(counter, events, active)
                counter.time_running_s += dt
                raw = counter.raw
                for addend in counter._addends:
                    raw += addend
                counter.raw = raw

    def _fold_ticks(self, active: List[PerfCounter], running: Dict[int, int],
                    events: Mapping, dt: float, n_ticks: int) -> None:
        """Fold *n_ticks* ticks with one :func:`vector_fold` per distinct
        tick count: every enabled time folds *n_ticks* times, a running
        time and raw count as often as its counter held a PMU slot."""
        key = self._table_key
        if key[0] is not events or key[1] != dt or key[2] != active:
            cells = []
            for counter in active:
                if counter._events is not events:
                    self._derive_addends(counter, events, active)
                cells += ((dt,), (dt,), counter._addends)
            self._table = addend_table(cells)
            self._table_key = (events, dt, active)
        table = self._table
        values: List[float] = []
        by_count: Dict[int, List[int]] = {}
        for index, counter in enumerate(active):
            values += (counter.time_enabled_s, counter.time_running_s,
                       counter.raw)
            by_count.setdefault(n_ticks, []).append(3 * index)
            n_running = running.get(counter.counter_id, 0)
            if n_running:
                by_count.setdefault(n_running, []).extend(
                    (3 * index + 1, 3 * index + 2))
        for count, columns in by_count.items():
            if len(columns) == len(values):
                # Every counter ran every tick: fold the kept table as
                # it is, without gathering its columns.
                values = vector_fold(values, table, count)
                continue
            folded = vector_fold([values[column] for column in columns],
                                 table[:, columns], count)
            for column, value in zip(columns, folded):
                values[column] = value
        for index, counter in enumerate(active):
            (counter.time_enabled_s, counter.time_running_s,
             counter.raw) = values[3 * index:3 * index + 3]

    def _derive_addends(self, counter: PerfCounter, events: Mapping,
                        active: Sequence[PerfCounter]) -> None:
        """*counter*'s per-tick addends from *events*, in fold order."""
        deltas = self._covered.get((counter.pid, counter.cpu))
        if deltas is None:  # enabled since the map was indexed
            self._cover(events, active)
            deltas = self._covered[(counter.pid, counter.cpu)]
        event = counter.event
        counter._addends = [delta.get(event, 0.0) for delta in deltas]
        counter._events = events

    def _cover(self, events: Mapping, counters: Sequence[PerfCounter]
               ) -> None:
        """Index a new event map in one pass: for each counter's (pid,
        cpu) target, the deltas it covers in event order, which is the
        order a tick folds its addends."""
        covered: Dict[Tuple[int, int], list] = {
            (counter.pid, counter.cpu): [] for counter in counters}
        for (pid, cpu), delta in events.items():
            for target in ((pid, -1), (pid, cpu), (-1, cpu), (-1, -1)):
                deltas = covered.get(target)
                if deltas is not None:
                    deltas.append(delta)
        self._events = events
        self._covered = covered

    def __enter__(self) -> "PerfSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
