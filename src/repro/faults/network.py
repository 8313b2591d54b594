"""Seeded network chaos: fault plans applied at the socket boundary.

The in-process :class:`~repro.faults.plan.FaultPlan` breaks sensors and
actors; this module breaks the *wire*.  A :class:`NetworkFaultPlan` is a
deterministic, seedable schedule of transport faults —

* ``partition@T[:DUR]``   — every send/recv during the window fails,
* ``reset@T``             — the next operation raises a connection reset,
* ``corrupt@T[:N]``       — N bytes of the next received chunk are flipped,
* ``truncate@T``          — the next send transmits half a payload, then
  the connection dies (a torn frame on the peer),
* ``stall@T[:DUR[:DELAY]]`` — reads sleep DELAY during the window (a slow
  reader),

— applied through a :class:`FaultyTransport` wrapper that interposes on
a real socket's ``sendall``/``recv`` and delegates everything else.  A
:class:`NetworkFaultInjector` owns the schedule's shared state so one
plan spans many connections: a client that reconnects after a reset is
wrapped again and keeps marching through the same schedule.  The
wrapper is usable on either end — ``TelemetryClient(transport=...)``
wraps its dial, ``TelemetryServer.set_transport(...)`` wraps every
connection it accepts afterwards.

Times are measured by an injectable ``clock`` relative to the
injector's creation, so tests can drive the schedule with a fake clock
and zero real waiting.  The same seed always produces the identical
plan (:meth:`NetworkFaultPlan.random`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.plan import _Event, _Plan


@dataclass(frozen=True)
class Partition(_Event):
    """All traffic fails for ``duration_s`` seconds from ``at_s``."""

    KIND = "partition"
    ARGS = (("duration", float),)

    at_s: float
    duration_s: float = 1.0


@dataclass(frozen=True)
class ConnectionReset(_Event):
    """The next transport operation at/after ``at_s`` raises ECONNRESET."""

    KIND = "reset"

    at_s: float


@dataclass(frozen=True)
class ByteCorruption(_Event):
    """``nbytes`` of the next received chunk after ``at_s`` are flipped."""

    KIND = "corrupt"
    ARGS = (("byte count", int),)

    at_s: float
    nbytes: int = 1


@dataclass(frozen=True)
class TruncatedFrame(_Event):
    """The next send after ``at_s`` transmits half its bytes, then dies."""

    KIND = "truncate"

    at_s: float


@dataclass(frozen=True)
class SlowReader(_Event):
    """Reads sleep ``delay_s`` during the window (a stalling consumer)."""

    KIND = "stall"
    ARGS = (("duration", float), ("delay", float))

    at_s: float
    duration_s: float = 0.5
    delay_s: float = 0.05


NetworkFaultEvent = Union[Partition, ConnectionReset, ByteCorruption,
                          TruncatedFrame, SlowReader]


class NetworkFaultPlan(_Plan):
    """An immutable, time-ordered schedule of transport faults.

    Parsed from the ``--net-faults`` spec with the same grammar as
    :class:`~repro.faults.plan.FaultPlan` (kinds listed in the module
    docstring); ``random:SEED[:DURATION]`` composes a seeded campaign
    in.
    """

    EVENTS = (Partition, ConnectionReset, ByteCorruption, TruncatedFrame,
              SlowReader)
    NOUN = "network fault"

    @classmethod
    def random(cls, seed: int, duration_s: float = 10.0,
               partitions: int = 1, resets: int = 2, corruptions: int = 1,
               truncations: int = 1, stalls: int = 1) -> "NetworkFaultPlan":
        """A reproducible chaos campaign over the middle 80% of the run."""
        if duration_s <= 0:
            raise ConfigurationError("campaign duration must be positive")
        rng = np.random.default_rng(seed)
        lo, hi = 0.1 * duration_s, 0.9 * duration_s

        def when() -> float:
            return round(float(rng.uniform(lo, hi)), 2)

        events: List[NetworkFaultEvent] = []
        for _ in range(partitions):
            events.append(Partition(
                when(),
                duration_s=round(float(rng.uniform(0.2, 1.0)), 2)))
        for _ in range(resets):
            events.append(ConnectionReset(when()))
        for _ in range(corruptions):
            events.append(ByteCorruption(when(), nbytes=int(rng.integers(
                1, 4))))
        for _ in range(truncations):
            events.append(TruncatedFrame(when()))
        for _ in range(stalls):
            events.append(SlowReader(
                when(), duration_s=round(float(rng.uniform(0.1, 0.5)), 2),
                delay_s=0.02))
        return cls(events, seed=seed)


class NetworkFaultInjector:
    """The shared, thread-safe runtime state of one network fault plan.

    One injector spans every connection it wraps: one-shot events
    (reset, corrupt, truncate) fire exactly once plan-wide, window
    events (partition, stall) affect whichever transport operates
    during the window.  ``injector.wrap`` is the transport hook for
    both ends: :class:`~repro.telemetry.client.TelemetryClient`'s
    ``transport=`` and
    :meth:`~repro.telemetry.server.TelemetryServer.set_transport`.
    """

    def __init__(self, plan: NetworkFaultPlan,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.plan = plan
        self._clock = clock
        self._sleep = sleep
        self._start = clock()
        self._lock = threading.Lock()
        self._pending_oneshots: List[NetworkFaultEvent] = [
            event for event in plan
            if isinstance(event, (ConnectionReset, ByteCorruption,
                                  TruncatedFrame))]
        self._windows: Tuple[NetworkFaultEvent, ...] = tuple(
            event for event in plan
            if isinstance(event, (Partition, SlowReader)))
        #: Every injected fault as ``(plan_time_s, description)``.
        self.injected: List[Tuple[float, str]] = []
        self.resets_injected = 0
        self.corruptions_injected = 0
        self.truncations_injected = 0
        self.partition_hits = 0
        self.stall_hits = 0

    def now_s(self) -> float:
        """Plan time: seconds since the injector was created."""
        return self._clock() - self._start

    @property
    def exhausted(self) -> bool:
        """Whether every one-shot fault has fired and windows passed."""
        with self._lock:
            if self._pending_oneshots:
                return False
        now = self.now_s()
        return all(now >= w.at_s + w.duration_s for w in self._windows)

    def wrap(self, sock) -> "FaultyTransport":
        """Wrap one socket; the transport callable for either end."""
        return FaultyTransport(sock, self)

    # -- queries used by FaultyTransport -------------------------------

    def _record(self, description: str) -> None:
        self.injected.append((round(self.now_s(), 6), description))

    def _take_oneshot(self, kinds) -> Optional[NetworkFaultEvent]:
        """Pop the earliest due one-shot of the given kinds, if any."""
        now = self.now_s()
        with self._lock:
            for event in self._pending_oneshots:
                if isinstance(event, kinds) and event.at_s <= now:
                    self._pending_oneshots.remove(event)
                    return event
        return None

    def _active_window(self, kind) -> Optional[NetworkFaultEvent]:
        now = self.now_s()
        for event in self._windows:
            if isinstance(event, kind) and \
                    event.at_s <= now < event.at_s + event.duration_s:
                return event
        return None

    def check_partition(self) -> None:
        event = self._active_window(Partition)
        if event is not None:
            self.partition_hits += 1
            self._record(event.describe())
            raise ConnectionResetError(
                f"injected network partition ({event.describe()})")

    def check_reset(self) -> None:
        event = self._take_oneshot(ConnectionReset)
        if event is not None:
            self.resets_injected += 1
            self._record(event.describe())
            raise ConnectionResetError(
                f"injected connection reset ({event.describe()})")

    def maybe_stall(self) -> None:
        event = self._active_window(SlowReader)
        if event is not None:
            self.stall_hits += 1
            self._sleep(event.delay_s)

    def maybe_corrupt(self, data: bytes) -> bytes:
        if not data:
            return data
        event = self._take_oneshot(ByteCorruption)
        if event is None:
            return data
        self.corruptions_injected += 1
        self._record(event.describe())
        nbytes = min(event.nbytes, len(data))
        corrupted = bytearray(data)
        for index in range(nbytes):
            corrupted[index] ^= 0xFF
        return bytes(corrupted)

    def take_truncation(self) -> Optional[TruncatedFrame]:
        event = self._take_oneshot(TruncatedFrame)
        if event is not None:
            self.truncations_injected += 1
            self._record(event.describe())
        return event


class FaultyTransport:
    """A socket wrapper that injects its plan's faults into the stream.

    Interposes on ``sendall``/``send`` and ``recv``; every other attribute
    (``settimeout``, ``setsockopt``, ``shutdown``, ``close``, ...)
    delegates to the wrapped socket, so the wrapper drops in anywhere a
    plain socket is used.
    """

    def __init__(self, sock, injector: NetworkFaultInjector) -> None:
        self._sock = sock
        self._injector = injector
        self._dead: Optional[str] = None

    def _check_dead(self) -> None:
        if self._dead is not None:
            raise ConnectionResetError(self._dead)

    def sendall(self, data: bytes) -> None:
        self._check_dead()
        self._injector.check_partition()
        self._injector.check_reset()
        truncation = self._injector.take_truncation()
        if truncation is not None:
            self._sock.sendall(data[:max(1, len(data) // 2)])
            self._dead = (f"injected truncated frame "
                          f"({truncation.describe()})")
            raise BrokenPipeError(self._dead)
        self._sock.sendall(data)

    def send(self, data) -> int:
        # The server's event loop writes with non-blocking ``send``;
        # inject the same faults ``sendall`` would see so chaos plans
        # keep biting after the thread-per-subscriber writer went away.
        self._check_dead()
        self._injector.check_partition()
        self._injector.check_reset()
        truncation = self._injector.take_truncation()
        if truncation is not None:
            view = memoryview(data)
            self._sock.send(view[:max(1, len(view) // 2)])
            self._dead = (f"injected truncated frame "
                          f"({truncation.describe()})")
            raise BrokenPipeError(self._dead)
        return self._sock.send(data)

    def recv(self, bufsize: int, *args) -> bytes:
        self._check_dead()
        self._injector.check_partition()
        self._injector.check_reset()
        self._injector.maybe_stall()
        data = self._sock.recv(bufsize, *args)
        return self._injector.maybe_corrupt(data)

    def __getattr__(self, name: str):
        return getattr(self._sock, name)
