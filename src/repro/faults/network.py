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
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.plan import _convert, _max_args, _spec_entries, spec_number


@dataclass(frozen=True)
class Partition:
    """All traffic fails for ``duration_s`` seconds from ``at_s``."""

    at_s: float
    duration_s: float = 1.0

    def describe(self) -> str:
        return f"partition@{self.at_s:g}:{self.duration_s:g}"

    def to_spec(self) -> str:
        return (f"partition@{spec_number(self.at_s)}"
                f":{spec_number(self.duration_s)}")


@dataclass(frozen=True)
class ConnectionReset:
    """The next transport operation at/after ``at_s`` raises ECONNRESET."""

    at_s: float

    def describe(self) -> str:
        return f"reset@{self.at_s:g}"

    def to_spec(self) -> str:
        return f"reset@{spec_number(self.at_s)}"


@dataclass(frozen=True)
class ByteCorruption:
    """``nbytes`` of the next received chunk after ``at_s`` are flipped."""

    at_s: float
    nbytes: int = 1

    def describe(self) -> str:
        return f"corrupt@{self.at_s:g}:{self.nbytes}"

    def to_spec(self) -> str:
        return f"corrupt@{spec_number(self.at_s)}:{self.nbytes}"


@dataclass(frozen=True)
class TruncatedFrame:
    """The next send after ``at_s`` transmits half its bytes, then dies."""

    at_s: float

    def describe(self) -> str:
        return f"truncate@{self.at_s:g}"

    def to_spec(self) -> str:
        return f"truncate@{spec_number(self.at_s)}"


@dataclass(frozen=True)
class SlowReader:
    """Reads sleep ``delay_s`` during the window (a stalling consumer)."""

    at_s: float
    duration_s: float = 0.5
    delay_s: float = 0.05

    def describe(self) -> str:
        return f"stall@{self.at_s:g}:{self.duration_s:g}:{self.delay_s:g}"

    def to_spec(self) -> str:
        return (f"stall@{spec_number(self.at_s)}"
                f":{spec_number(self.duration_s)}"
                f":{spec_number(self.delay_s)}")


NetworkFaultEvent = Union[Partition, ConnectionReset, ByteCorruption,
                          TruncatedFrame, SlowReader]


class NetworkFaultPlan:
    """An immutable, time-ordered schedule of transport faults."""

    def __init__(self, events: Sequence[NetworkFaultEvent] = (),
                 seed: Optional[int] = None) -> None:
        for event in events:
            if event.at_s < 0:
                raise ConfigurationError(
                    f"network fault time must be >= 0, got {event.at_s}")
        self.events: Tuple[NetworkFaultEvent, ...] = tuple(
            sorted(events, key=lambda e: e.at_s))
        self.seed = seed

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def describe(self) -> str:
        """The plan as a human-oriented spec string (``%g`` times)."""
        return ";".join(event.describe() for event in self.events)

    def to_spec(self) -> str:
        """The plan as a lossless, parseable spec string.

        ``NetworkFaultPlan.parse(plan.to_spec())`` reproduces the exact
        event tuple (shortest-round-trip floats, seeded campaigns
        flattened), so any plan is a copy-pasteable ``--net-faults``
        argument.
        """
        return ";".join(event.to_spec() for event in self.events)

    # -- construction --------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "NetworkFaultPlan":
        """Parse a compact ``kind@time[:arg[:arg]]`` spec (the
        ``--net-faults`` flag); entries separated by ``;`` or ``,``.
        ``random:SEED[:DURATION]`` composes a seeded campaign in.
        Errors name the offending entry, its character position and
        the token that failed to parse.
        """
        events: List[NetworkFaultEvent] = []
        seed: Optional[int] = None
        for entry, where in _spec_entries(spec):

            def bad(reason: str) -> ConfigurationError:
                return ConfigurationError(
                    f"bad network fault entry {entry!r} {where}: {reason}")

            if entry.startswith("random:"):

                def bad_random(reason: str) -> ConfigurationError:
                    return ConfigurationError(
                        f"bad random network fault entry {entry!r} "
                        f"{where}: {reason}; use random:SEED[:DURATION]")

                parts = entry.split(":")[1:]
                seed = _convert(parts[0] if parts else "", "seed", int,
                                bad_random)
                duration = 10.0
                if len(parts) > 1:
                    duration = _convert(parts[1], "duration", float,
                                        bad_random)
                if len(parts) > 2:
                    raise bad_random(f"unexpected argument {parts[2]!r}")
                events.extend(cls.random(seed, duration_s=duration).events)
                continue
            if "@" not in entry:
                raise bad("expected kind@time[:args]")
            kind, _, rest = entry.partition("@")
            args = rest.split(":")
            at_s = _convert(args[0], "time", float, bad)
            if kind == "partition":
                _max_args(args, 2, bad)
                events.append(Partition(
                    at_s,
                    _convert(args[1], "duration", float, bad)
                    if len(args) > 1 else 1.0))
            elif kind == "reset":
                _max_args(args, 1, bad)
                events.append(ConnectionReset(at_s))
            elif kind == "corrupt":
                _max_args(args, 2, bad)
                events.append(ByteCorruption(
                    at_s,
                    _convert(args[1], "byte count", int, bad)
                    if len(args) > 1 else 1))
            elif kind == "truncate":
                _max_args(args, 1, bad)
                events.append(TruncatedFrame(at_s))
            elif kind == "stall":
                _max_args(args, 3, bad)
                events.append(SlowReader(
                    at_s,
                    _convert(args[1], "duration", float, bad)
                    if len(args) > 1 else 0.5,
                    _convert(args[2], "delay", float, bad)
                    if len(args) > 2 else 0.05))
            else:
                raise bad(f"unknown network fault kind {kind!r}")
        return cls(events, seed=seed)

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
