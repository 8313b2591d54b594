"""The telemetry server: event-bus to TCP subscriber fan-out.

A :class:`TelemetryServer` listens on localhost and streams the live
output of a monitoring pipeline — aggregated power reports, health
events and sensor gap markers — to any number of concurrent
subscribers.  The design splits cleanly into:

* one **event-loop thread** driving a ``selectors``-based reactor over
  non-blocking sockets: it accepts connections, runs the
  Hello/Subscribe handshake incrementally, drains every subscriber's
  :class:`BoundedFrameQueue` into a per-connection write buffer, and
  flushes buffers on write readiness,
* **publishers** (the actor thread, via :class:`TelemetryBridge`, or a
  :class:`~repro.telemetry.relay.TelemetryRelay` uplink) that encode
  each event **once** and offer the shared bytes to every matching
  queue — the loop never re-encodes a frame, and on connections that
  negotiated protocol version 2 it coalesces queued frames into one
  BATCH envelope per ``send()`` according to a :class:`BatchPolicy`.

A slow subscriber therefore never slows the pipeline down unless the
server is explicitly configured with the ``block`` overflow policy;
``drop-oldest`` and ``coalesce`` shed load per subscriber and account
for every shed frame in that subscriber's counters.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass
from typing import (Callable, Deque, Dict, FrozenSet, List, Mapping,
                    Optional, Set, Tuple)

from repro.actors.actor import Actor
from repro.core.messages import AggregatedPowerReport, GapMarker, HealthEvent
from repro.errors import ConfigurationError, TelemetryError, WireProtocolError
from repro.telemetry import wire
from repro.telemetry.wire import FrameKind

#: Socket receive chunk for the handshake reader.
_RECV_BYTES = 65536

#: Per-connection write-buffer cap: frames beyond it stay in the
#: subscriber's queue, where the overflow policy (not unbounded memory)
#: absorbs a stalled peer.
_OUTBUF_LIMIT = 256 * 1024


@dataclass(frozen=True)
class BatchPolicy:
    """When the event loop flushes queued frames as one BATCH envelope.

    Applied only on connections that negotiated protocol version 2; a
    v1 subscriber always receives bare frames.  ``max_frames=1``
    disables batching outright.  ``max_latency_s > 0`` lets the loop
    hold a not-yet-full batch for up to that long to accumulate more
    frames (0 flushes whatever is queued the moment the socket is
    writable — "natural" batching under load, no added latency when
    idle).
    """

    max_frames: int = 64
    max_bytes: int = 128 * 1024
    max_latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.max_frames < 1:
            raise ConfigurationError("batch max_frames must be >= 1")
        if self.max_bytes < 1:
            raise ConfigurationError("batch max_bytes must be >= 1")
        if self.max_latency_s < 0:
            raise ConfigurationError("batch max_latency_s must be >= 0")


class OverflowPolicy:
    """What a full subscriber queue does with the next frame."""

    #: The publisher waits for space (backpressure; can stall the bus).
    BLOCK = "block"
    #: Evict the oldest queued frame to admit the new one (lossy FIFO).
    DROP_OLDEST = "drop-oldest"
    #: Pending Report frames collapse to the latest one; other kinds
    #: fall back to drop-oldest.  The subscriber always sees the newest
    #: state with bounded lag.
    COALESCE = "coalesce"

    ALL = (BLOCK, DROP_OLDEST, COALESCE)


def check_server_config(overflow: str = OverflowPolicy.DROP_OLDEST,
                        queue_capacity: int = 256,
                        heartbeat_every: int = 0,
                        replay_window: int = 0,
                        max_subscribers: int = 0) -> None:
    """Every rule a :class:`TelemetryServer`'s settings must obey.

    The server checks its constructor arguments here, and
    :class:`~repro.core.pipeline.TelemetrySpec` checks its fields here
    when it is built, so a bad ``[telemetry]`` section fails at
    description time rather than half-way through pipeline start-up.
    (``BatchPolicy`` checks its own fields.)
    """
    if overflow not in OverflowPolicy.ALL:
        raise ConfigurationError(
            f"unknown overflow policy {overflow!r}; "
            f"use one of {', '.join(OverflowPolicy.ALL)}")
    if queue_capacity < 1:
        raise ConfigurationError("queue_capacity must be >= 1")
    if heartbeat_every < 0:
        raise ConfigurationError("heartbeat_every must be >= 0")
    if replay_window < 0:
        raise ConfigurationError("replay_window must be >= 0")
    if max_subscribers < 0:
        raise ConfigurationError("max_subscribers must be >= 0")


class BoundedFrameQueue:
    """A bounded frame queue implementing the three overflow policies.

    A plain policy container, kept apart from the socket machinery so
    the policies are unit-testable without any I/O.  It owns no lock:
    the server guards every queue with its ``_cond``.  :meth:`offer`
    never blocks; a ``block``-policy publisher waits on that ``_cond``
    until ``full`` clears before it offers.
    """

    def __init__(self, capacity: int,
                 policy: str = OverflowPolicy.DROP_OLDEST) -> None:
        if capacity < 1:
            raise ConfigurationError("queue capacity must be >= 1")
        if policy not in OverflowPolicy.ALL:
            raise ConfigurationError(
                f"unknown overflow policy {policy!r}; "
                f"use one of {', '.join(OverflowPolicy.ALL)}")
        self.capacity = capacity
        self.policy = policy
        self._items: Deque[Tuple[FrameKind, bytes]] = deque()
        #: Consumer held: frames pile up and the policy becomes visible.
        self.paused = False
        #: Refuses new frames once set.
        self.closed = False
        #: Frames shed by a full queue.
        self.dropped = 0
        #: Times a publisher waited for space (block policy only).
        self.blocked = 0
        #: Maximum queue depth ever observed.
        self.high_water = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def offer(self, kind: FrameKind, data: bytes) -> bool:
        """Enqueue one frame, shedding one if full; False if closed.

        ``coalesce`` sheds the newest pending report for a report; every
        other case sheds the oldest frame.  A ``block`` queue is never
        full here: its publisher waits for space first, and a RESUME
        replay is cut to fit its fresh queue.
        """
        if self.closed:
            return False
        if self.full:
            self.dropped += 1
            if (self.policy == OverflowPolicy.COALESCE
                    and kind is FrameKind.REPORT):
                # Replace the most recent pending report with this
                # one: the subscriber skips straight to the latest.
                for index in range(len(self._items) - 1, -1, -1):
                    if self._items[index][0] is FrameKind.REPORT:
                        del self._items[index]
                        break
                else:
                    self._items.popleft()
            else:
                self._items.popleft()
        self._items.append((kind, data))
        self.high_water = max(self.high_water, len(self._items))
        return True

    def pop_many(self, max_frames: int, max_bytes: int
                 ) -> List[Tuple[FrameKind, bytes]]:
        """Dequeue up to *max_frames* frames; ``[]`` when paused or empty.

        Stops before a frame that would push the popped total past
        *max_bytes* (the first frame always fits, so an oversized frame
        cannot wedge the queue).
        """
        popped: List[Tuple[FrameKind, bytes]] = []
        if self.paused:
            return popped
        total = 0
        while self._items and len(popped) < max_frames:
            size = len(self._items[0][1])
            if popped and total + size > max_bytes:
                break
            popped.append(self._items.popleft())
            total += size
        return popped


class ReplayBuffer:
    """The server's bounded ring of recently published stream frames.

    Every REPORT/HEALTH/GAP frame is appended as ``(seq, kind, bytes,
    meta)``, *meta* being the frame's payload: a RESUME replay picks
    each subscriber's bytes from it exactly as the live path does.
    :meth:`since` answers a RESUME: the frames still held after
    ``last_seq``, plus the highest sequence number that has scrolled
    out of the window (``None`` when nothing the client missed was
    evicted).  Not self-locking — the server mutates it under its own
    ``_cond``.
    """

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ConfigurationError("replay window must be >= 1")
        self.window = window
        self._items: Deque[Tuple[int, FrameKind, bytes,
                                 Mapping[str, object]]] = deque(
            maxlen=window)
        #: Highest sequence number ever appended (-1 when empty).
        self.last_seq = -1

    def __len__(self) -> int:
        return len(self._items)

    def append(self, seq: int, kind: FrameKind, data: bytes,
               meta: Mapping[str, object]) -> None:
        self._items.append((seq, kind, data, meta))
        self.last_seq = seq

    def since(self, last_seq: int) -> Tuple[
            List[Tuple[int, FrameKind, bytes, Mapping[str, object]]],
            Optional[int]]:
        """``(replayable frames after last_seq, evicted_through)``."""
        frames = [item for item in self._items if item[0] > last_seq]
        if frames:
            oldest_held = frames[0][0]
            evicted = oldest_held - 1 if oldest_held > last_seq + 1 else None
        else:
            evicted = self.last_seq if self.last_seq > last_seq else None
        return frames, evicted


class _Subscription:
    """One subscriber's negotiated filters."""

    def __init__(self, pids: Optional[FrozenSet[int]] = None,
                 kinds: Optional[FrozenSet[FrameKind]] = None,
                 downsample: int = 1) -> None:
        self.pids = pids
        self.kinds = kinds or frozenset(
            (FrameKind.REPORT, FrameKind.HEALTH, FrameKind.GAP,
             FrameKind.HEARTBEAT))
        self.downsample = max(1, downsample)
        self._report_index = 0

    def admit_payload(self, kind: FrameKind,
                      payload: Mapping[str, object]) -> bool:
        """The filter predicate, evaluated on a wire payload.

        Advances the downsample cadence on every report it gets past
        the pid filter.
        """
        if kind not in self.kinds:
            return False
        if kind is FrameKind.REPORT:
            if (self.pids is not None and not payload.get("gap")
                    and self.pids.isdisjoint(
                        int(pid) for pid in payload.get("by_pid", {}))):
                return False
            index = self._report_index
            self._report_index += 1
            return index % self.downsample == 0
        if kind is FrameKind.GAP:
            pid = int(payload.get("pid", -1))
            return self.pids is None or pid == -1 or pid in self.pids
        return True

    def frame_for(self, kind: FrameKind, payload: Mapping[str, object],
                  data: bytes) -> Optional[bytes]:
        """The bytes this subscriber gets for one frame, or None.

        The one delivery rule for live frames, heartbeats and RESUME
        replay, so a resuming subscriber sees exactly the frames it
        would have seen live: :meth:`admit_payload`, then, for a report
        on a pid-filtered subscription, *payload* re-encoded with
        ``by_pid`` narrowed to the subscribed pids.  Everyone else
        shares *data*, the frame as encoded once.
        """
        if not self.admit_payload(kind, payload):
            return None
        if kind is not FrameKind.REPORT or self.pids is None:
            return data
        restricted = dict(payload)
        by_pid = payload.get("by_pid")
        if isinstance(by_pid, dict):
            restricted["by_pid"] = {key: watts
                                    for key, watts in by_pid.items()
                                    if int(key) in self.pids}
        return wire.encode_frame(kind, restricted,
                                 version=wire.STREAM_VERSION)


class _Subscriber:
    """Server-side state for one connection on the event loop.

    The loop thread owns all connection state (decoder, write buffer,
    selector registration); the ``queue`` and the delivery counters are
    guarded by the server's ``_cond``.
    """

    _ids = 0

    def __init__(self, server: "TelemetryServer",
                 conn: socket.socket, peer: Tuple[str, int]) -> None:
        _Subscriber._ids += 1
        self.id = _Subscriber._ids
        self.server = server
        self.conn = conn
        self.peer = peer
        self.queue = BoundedFrameQueue(server.queue_capacity,
                                       server.overflow)
        self.subscription: Optional[_Subscription] = None
        self.agent = ""
        self.version = wire.PROTOCOL_VERSION
        #: Last-acked seq from a RESUME frame (None: fresh subscriber).
        self.resume_last_seq: Optional[int] = None
        #: Stream epoch the RESUME's seq belongs to, if the client knew.
        self.resume_epoch: Optional[str] = None
        self.ready = False
        self.closed = False
        self.frames_sent = 0
        self.bytes_sent = 0
        self.frames_replayed = 0
        # -- event-loop-owned connection state ------------------------
        self.decoder = wire.FrameDecoder()
        self.hello: Optional[wire.Frame] = None
        #: Pending write chunks: (bytes, stream frame count, counted).
        #: Handshake plumbing rides with counted=False so the delivery
        #: counters keep meaning "stream frames/bytes delivered".
        self.outbuf: Deque[Tuple[bytes, int, bool]] = deque()
        self.outbuf_bytes = 0
        #: Bytes of the head chunk already handed to the kernel.
        self.chunk_offset = 0
        #: Close the connection once the outbuf drains (ERROR sent).
        self.close_after_flush = False
        #: Handshake was refused: drain and discard any further input.
        self.refused = False
        #: Selector interest currently registered for this connection.
        self.interest = 0
        #: Deadline for a latency-accumulated batch flush, if armed.
        self.flush_deadline: Optional[float] = None

    def pause(self) -> None:
        """Hold delivery: frames pile up in the queue under its policy.

        The deterministic stand-in for a subscriber that stopped reading.
        """
        with self.server._cond:
            self.queue.paused = True

    def resume(self) -> None:
        """Release a paused subscriber and wake the loop to drain it."""
        with self.server._cond:
            self.queue.paused = False
            self.server._dirty.add(self)
            wake = self.server._claim_wake()
        if wake:
            self.server._wake()

    def enqueue_chunk(self, data: bytes, frames: int = 0,
                      counted: bool = False) -> None:
        self.outbuf.append((data, frames, counted))
        self.outbuf_bytes += len(data)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        with self.server._cond:
            # Wakes a ``block`` publisher waiting for space in it.
            self.queue.closed = True
            self.server._cond.notify_all()
        try:
            self.conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.conn.close()
        except OSError:
            pass

    def stats(self) -> Dict[str, object]:
        """This subscriber's delivery counters (read under ``_cond``)."""
        return {
            "id": self.id,
            "agent": self.agent,
            "peer": f"{self.peer[0]}:{self.peer[1]}",
            "version": self.version,
            "frames_sent": self.frames_sent,
            "frames_replayed": self.frames_replayed,
            "frames_dropped": self.queue.dropped,
            "bytes_sent": self.bytes_sent,
            "queue_high_water": self.queue.high_water,
            "queue_depth": len(self.queue),
            "blocked": self.queue.blocked,
        }


def _parse_subscription(payload: Dict[str, object]) -> _Subscription:
    pids = payload.get("pids")
    kinds = payload.get("kinds")
    return _Subscription(
        pids=None if pids is None else frozenset(
            int(pid) for pid in pids),
        kinds=None if kinds is None else frozenset(
            wire.kinds_from_names(kinds)),
        downsample=int(payload.get("downsample", 1)),
    )


#: Stream kinds a server re-publishes, mapped to their stats counter.
_PUBLISH_COUNTERS = {
    FrameKind.REPORT: "reports_published",
    FrameKind.HEALTH: "health_published",
    FrameKind.GAP: "gaps_published",
}


class TelemetryServer:
    """Streams pipeline telemetry to TCP subscribers on localhost.

    Thread model: ``start()`` spawns one event-loop thread that owns
    every socket (accepting, handshakes, flushing write buffers).
    ``publish_*`` may be called from any thread (typically the single
    actor-dispatch thread through a :class:`TelemetryBridge`, or a
    relay's uplink drain threads).

    Lock model: ``_cond`` is the one monitor over seq, the counters,
    the subscriber list, the replay ring, the dirty set and every
    subscriber queue.  ``_publish_lock`` serializes whole publishes, so
    frames enter every queue in seq order and client-side dedup never
    mistakes reordering for replay.  The only order is
    ``_publish_lock`` -> ``_cond``; the loop thread takes ``_cond``
    alone.  A publisher that meets a full ``block`` queue waits on
    ``_cond`` (releasing it, keeping ``_publish_lock``) until the loop
    drains or closes that queue.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 overflow: str = OverflowPolicy.DROP_OLDEST,
                 queue_capacity: int = 256,
                 host_label: str = "",
                 heartbeat_every: int = 0,
                 agent: str = "repro-telemetry-server",
                 replay_window: int = 0,
                 batch: Optional[BatchPolicy] = None,
                 max_subscribers: int = 0) -> None:
        check_server_config(overflow, queue_capacity, heartbeat_every,
                            replay_window, max_subscribers)
        self.host = host
        self.overflow = overflow
        self.queue_capacity = queue_capacity
        self.host_label = host_label
        self.heartbeat_every = heartbeat_every
        self.agent = agent
        #: Frames of replay history kept for RESUME (0 disables replay:
        #: a resume is honoured but everything missed becomes a gap).
        self.replay_window = replay_window
        self._replay = (ReplayBuffer(replay_window)
                        if replay_window > 0 else None)
        #: BATCH envelope flush policy for v2 subscribers.
        self.batch = batch if batch is not None else BatchPolicy()
        #: Accepted-connection cap (0: unbounded).  Connections beyond
        #: it are refused with an ERROR frame instead of silently
        #: accumulating server state.
        self.max_subscribers = max_subscribers
        #: Wraps every accepted connection (see :meth:`set_transport`).
        self._transport: Optional[Callable[[socket.socket],
                                           socket.socket]] = None
        #: Pipeline description included in handshake replies, if any.
        self.advertised_spec: Optional[Dict[str, object]] = None
        self._requested_port = port
        self._listener: Optional[socket.socket] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._wake_r: Optional[socket.socket] = None
        self._wake_w: Optional[socket.socket] = None
        #: Subscribers with queue activity since the last loop pass.
        self._dirty: Set[_Subscriber] = set()
        self._wake_pending = False
        #: Connections mid-handshake (accepted, not yet subscribed).
        self._handshaking: Set[_Subscriber] = set()
        #: Every live connection the loop owns (for teardown).
        self._conns: Set[_Subscriber] = set()
        #: Subscribers with an armed batch-latency flush deadline.
        self._deadlines: Set[_Subscriber] = set()
        self._subscribers: List[_Subscriber] = []
        self._cond = threading.Condition()
        #: Serializes whole publishes (seq assignment + queue offers)
        #: across publisher threads; see the class docstring.
        self._publish_lock = threading.Lock()
        self._running = False
        self.reports_published = 0
        self.health_published = 0
        self.gaps_published = 0
        self.heartbeats_published = 0
        #: Times a publish had to wait on a full ``block``-policy queue.
        self.stalls = 0
        self.resumes_served = 0
        #: RESUMEs whose seq belonged to another server's epoch and
        #: were therefore treated as fresh subscriptions.
        self.resumes_rejected = 0
        #: Connections turned away by ``max_subscribers``.
        self.connections_refused = 0
        self.frames_replayed = 0
        self.replay_evictions = 0
        #: Token identifying this server instance's sequence space.
        self.stream_epoch = uuid.uuid4().hex[:16]
        # One counter across REPORT/HEALTH/GAP: the *stream* sequence a
        # resuming client acks (heartbeats keep their own counter).
        self._seq = 0

    def set_transport(self, transport: Optional[Callable[[socket.socket],
                                                         socket.socket]]
                      ) -> None:
        """Install/replace the wrapper applied to newly accepted sockets.

        Only connections accepted afterwards are wrapped; existing
        subscribers keep their plain sockets.  The CLI arms ``serve
        --net-faults`` here with ``NetworkFaultInjector.wrap``.
        """
        self._transport = transport

    def advertise_spec(self, spec: Optional[Dict[str, object]]) -> None:
        """Attach a pipeline description to future handshake replies.

        *spec* is a JSON-safe dict (typically
        ``PipelineSpec.to_dict()``); ``None`` clears the advertisement.
        Only subscribers connecting afterwards see the change.
        """
        self.advertised_spec = None if spec is None else dict(spec)

    # -- lifecycle ----------------------------------------------------

    def start(self) -> "TelemetryServer":
        """Bind, listen, and start the event-loop thread."""
        if self._running:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self._requested_port))
            listener.listen(128)
            listener.setblocking(False)
        except BaseException:
            listener.close()
            raise
        self._listener = listener
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, "listener")
        # Self-pipe idiom: publishers nudge the loop out of select()
        # with one byte on this pair whenever a queue gains frames.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        with self._cond:
            self._dirty.clear()
            self._wake_pending = False
        self._running = True
        self._loop_thread = threading.Thread(
            target=self._loop, name="telemetry-loop", daemon=True)
        self._loop_thread.start()
        return self

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ephemeral ``port=0``)."""
        if self._listener is None:
            raise TelemetryError("server is not started")
        return self._listener.getsockname()[1]

    @property
    def address(self) -> Tuple[str, int]:
        """The (host, port) subscribers should connect to."""
        return (self.host, self.port)

    def stop(self) -> None:
        """Close the listener and every subscriber (idempotent)."""
        with self._cond:
            if not self._running and self._loop_thread is None:
                return
            self._running = False
        self._wake()
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=5.0)
            self._loop_thread = None
        # The loop closed everything on its way out; sweeping here also
        # covers a loop thread that died before reaching teardown.
        for subscriber in self.subscribers():
            subscriber.close()
        with self._cond:
            self._subscribers.clear()
            self._cond.notify_all()

    # -- event loop ---------------------------------------------------

    def _wake(self) -> None:
        wake = self._wake_w
        if wake is None:
            return
        try:
            wake.send(b"\x00")
        except OSError:
            pass

    def _claim_wake(self) -> bool:
        """Whether the caller must :meth:`_wake` the loop for the dirty
        set (``_cond`` held).

        The pending flag coalesces wake bytes: at most one is in flight
        between loop passes.  Callers send it after releasing ``_cond``
        where they can, so the woken loop does not block on it.
        """
        if not self._dirty or self._wake_pending:
            return False
        self._wake_pending = True
        return True

    def _loop(self) -> None:
        selector = self._selector
        try:
            while self._running:
                try:
                    events = selector.select(self._next_timeout())
                except OSError:
                    continue
                for key, mask in events:
                    tag = key.data
                    if tag == "listener":
                        self._accept_ready()
                    elif tag == "wake":
                        try:
                            self._wake_r.recv(_RECV_BYTES)
                        except OSError:
                            pass
                    else:
                        self._conn_ready(tag, mask)
                self._service_dirty()
                self._service_deadlines()
        finally:
            self._teardown()

    def _next_timeout(self) -> Optional[float]:
        if not self._deadlines:
            return None
        soonest = min((sub.flush_deadline for sub in self._deadlines
                       if sub.flush_deadline is not None), default=None)
        if soonest is None:
            return None
        return max(0.0, soonest - time.monotonic())

    def _service_dirty(self) -> None:
        with self._cond:
            dirty, self._dirty = self._dirty, set()
            self._wake_pending = False
        for subscriber in dirty:
            if not subscriber.closed and subscriber.ready:
                self._pump(subscriber)
                self._flush(subscriber)

    def _service_deadlines(self) -> None:
        if not self._deadlines:
            return
        now = time.monotonic()
        due = [sub for sub in self._deadlines
               if sub.flush_deadline is not None
               and sub.flush_deadline <= now]
        for subscriber in due:
            self._pump(subscriber)
            self._flush(subscriber)

    def _teardown(self) -> None:
        for subscriber in list(self._conns):
            self._drop(subscriber)
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass
        if self._selector is not None:
            try:
                self._selector.close()
            except OSError:
                pass
            self._selector = None
        for sock in (self._wake_r, self._wake_w):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        self._wake_r = self._wake_w = None

    # -- accepting ----------------------------------------------------

    def _accept_ready(self) -> None:
        while True:
            try:
                conn, peer = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listener closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.setblocking(False)
            if self._transport is not None:
                conn = self._transport(conn)
            subscriber = _Subscriber(self, conn, peer)
            self._conns.add(subscriber)
            with self._cond:
                ready = len(self._subscribers)
                if (self.max_subscribers
                        and ready + len(self._handshaking)
                        >= self.max_subscribers):
                    self.connections_refused += 1
                    self._cond.notify_all()
                    refused = True
                else:
                    refused = False
            if refused:
                # Send a proper ERROR frame, then hold the connection
                # in read-until-EOF: closing with the client's
                # handshake bytes unread would RST the socket and race
                # the error off the wire.
                subscriber.refused = True
                subscriber.enqueue_chunk(wire.error_frame(
                    "subscriber limit reached "
                    f"({self.max_subscribers})"))
                self._flush(subscriber)
                continue
            self._handshaking.add(subscriber)
            self._set_interest(subscriber, selectors.EVENT_READ)

    def _conn_ready(self, subscriber: _Subscriber, mask: int) -> None:
        if subscriber.closed:
            return
        if mask & selectors.EVENT_READ:
            self._read_ready(subscriber)
        if subscriber.closed:
            return
        if mask & selectors.EVENT_WRITE:
            self._pump(subscriber)
            self._flush(subscriber)

    def _read_ready(self, subscriber: _Subscriber) -> None:
        try:
            data = subscriber.conn.recv(_RECV_BYTES)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop(subscriber)
            return
        if not data:
            self._drop(subscriber)  # peer closed
            return
        if subscriber.ready or subscriber.refused:
            # Post-handshake input is not part of the protocol; keep
            # the legacy tolerance of reading and ignoring it (the
            # recv doubles as EOF detection).
            return
        try:
            frames = subscriber.decoder.feed(data)
        except WireProtocolError:
            # Garbage during the handshake: drop, as the threaded
            # handler did (no ERROR — we cannot trust the stream).
            self._drop(subscriber)
            return
        for frame in frames:
            if subscriber.closed or subscriber.ready or subscriber.refused:
                break
            if not self._handshake_frame(subscriber, frame):
                break

    # -- handshake ----------------------------------------------------

    def _handshake_frame(self, subscriber: _Subscriber,
                         frame: wire.Frame) -> bool:
        """Advance one connection's handshake by one frame."""
        if frame.kind is FrameKind.HELLO and subscriber.hello is None:
            subscriber.hello = frame
            return True
        if (frame.kind is FrameKind.RESUME and subscriber.hello is not None
                and subscriber.resume_last_seq is None):
            try:
                last_seq = int(frame.payload["last_seq"])
                if last_seq < 0:
                    raise ValueError("negative")
            except (KeyError, TypeError, ValueError):
                self._refuse(subscriber,
                             "bad RESUME payload: last_seq must "
                             "be a non-negative integer")
                return False
            subscriber.resume_last_seq = last_seq
            epoch = frame.payload.get("epoch")
            if epoch is not None:
                subscriber.resume_epoch = str(epoch)
            return True
        if frame.kind is FrameKind.SUBSCRIBE and subscriber.hello is not None:
            return self._complete_handshake(subscriber, frame)
        self._refuse(subscriber, f"unexpected {frame.kind.name} frame "
                                 "during handshake")
        return False

    def _complete_handshake(self, subscriber: _Subscriber,
                            subscribe: wire.Frame) -> bool:
        try:
            subscriber.version = wire.negotiate_version(
                subscriber.hello.payload.get("versions", ()))
        except (WireProtocolError, TypeError, ValueError) as exc:
            self._refuse(subscriber, f"bad versions list: {exc}")
            return False
        subscriber.agent = str(subscriber.hello.payload.get("agent", ""))
        try:
            subscriber.subscription = _parse_subscription(subscribe.payload)
        except (WireProtocolError, TypeError, ValueError) as exc:
            self._refuse(subscriber, f"bad subscription: {exc}")
            return False
        subscriber.enqueue_chunk(wire.encode_frame(
            FrameKind.HELLO,
            wire.hello_payload(agent=self.agent,
                               chosen=subscriber.version,
                               spec=self.advertised_spec,
                               features=("resume",),
                               epoch=self.stream_epoch),
        ))
        self._handshaking.discard(subscriber)
        self._subscriber_ready(subscriber)
        self._pump(subscriber)
        self._flush(subscriber)
        return True

    def _refuse(self, subscriber: _Subscriber, reason: str) -> None:
        subscriber.refused = True
        subscriber.close_after_flush = True
        subscriber.enqueue_chunk(wire.error_frame(reason))
        self._handshaking.discard(subscriber)
        self._flush(subscriber)

    # -- per-connection write path ------------------------------------

    def _pump(self, subscriber: _Subscriber) -> None:
        """Move queued frames into the connection's write buffer.

        Frames were encoded once at publish time; this only decides
        framing: v2 connections get one BATCH envelope per
        ``BatchPolicy`` window, v1 connections get the same bytes
        concatenated (wire-identical to frame-at-a-time sends).
        """
        if subscriber.closed or not subscriber.ready:
            return
        policy = self.batch
        batching = (subscriber.version >= wire.BATCH_VERSION
                    and policy.max_frames > 1)
        queue = subscriber.queue
        while subscriber.outbuf_bytes < _OUTBUF_LIMIT:
            with self._cond:
                if (batching and policy.max_latency_s > 0.0
                        and len(queue) < policy.max_frames):
                    # Not enough for a full batch: spend the latency
                    # budget accumulating before flushing a partial one.
                    now = time.monotonic()
                    if subscriber.flush_deadline is None:
                        if not queue:
                            break
                        subscriber.flush_deadline = (
                            now + policy.max_latency_s)
                        self._deadlines.add(subscriber)
                        break
                    if now < subscriber.flush_deadline:
                        break
                items = queue.pop_many(policy.max_frames, policy.max_bytes)
                if items:
                    self._cond.notify_all()  # a block publisher may wait
            if subscriber.flush_deadline is not None:
                subscriber.flush_deadline = None
                self._deadlines.discard(subscriber)
            if not items:
                break
            frames = [data for _kind, data in items]
            if batching and len(frames) > 1:
                chunk = wire.encode_batch(frames)
            else:
                chunk = frames[0] if len(frames) == 1 else b"".join(frames)
            subscriber.enqueue_chunk(chunk, frames=len(frames),
                                     counted=True)

    def _flush(self, subscriber: _Subscriber) -> None:
        """Write buffered chunks until the socket would block."""
        while subscriber.outbuf:
            data, frames, counted = subscriber.outbuf[0]
            view = memoryview(data)[subscriber.chunk_offset:]
            try:
                sent = subscriber.conn.send(view)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._drop(subscriber)
                return
            if sent <= 0:
                break
            subscriber.chunk_offset += sent
            complete = subscriber.chunk_offset >= len(data)
            with self._cond:
                subscriber.bytes_sent += sent
                if complete and counted:
                    subscriber.frames_sent += frames
                self._cond.notify_all()
            if not complete:
                break  # kernel buffer full mid-chunk
            subscriber.outbuf.popleft()
            subscriber.outbuf_bytes -= len(data)
            subscriber.chunk_offset = 0
            if not subscriber.outbuf:
                # Freed the buffer: top it back up so a deep backlog
                # drains in few syscalls.
                self._pump(subscriber)
        if subscriber.closed:
            return
        if subscriber.outbuf:
            self._set_interest(
                subscriber, selectors.EVENT_READ | selectors.EVENT_WRITE)
        elif subscriber.close_after_flush:
            self._drop(subscriber)
        else:
            self._set_interest(subscriber, selectors.EVENT_READ)

    def _set_interest(self, subscriber: _Subscriber, mask: int) -> None:
        if subscriber.closed or subscriber.interest == mask:
            return
        try:
            if subscriber.interest == 0:
                self._selector.register(subscriber.conn, mask, subscriber)
            else:
                self._selector.modify(subscriber.conn, mask, subscriber)
            subscriber.interest = mask
        except (KeyError, ValueError, OSError):
            pass

    def _drop(self, subscriber: _Subscriber) -> None:
        """Close one connection and forget every reference to it."""
        if subscriber.interest:
            try:
                self._selector.unregister(subscriber.conn)
            except (KeyError, ValueError, OSError):
                pass
            subscriber.interest = 0
        self._conns.discard(subscriber)
        self._handshaking.discard(subscriber)
        self._deadlines.discard(subscriber)
        subscriber.close()
        with self._cond:
            if subscriber in self._subscribers:
                self._subscribers.remove(subscriber)
            self._cond.notify_all()

    # -- subscriber activation ----------------------------------------

    def _subscriber_ready(self, subscriber: _Subscriber) -> None:
        # Replay and registration are one atomic step under ``_cond``:
        # a publisher that sees this subscriber in its targets snapshot
        # strictly follows this block, so every stream frame lands
        # exactly once — in the replay batch or live, never both.
        with self._cond:
            if subscriber.resume_last_seq is not None:
                if (subscriber.resume_epoch is not None
                        and subscriber.resume_epoch != self.stream_epoch):
                    # A seq from another server instance's sequence
                    # space means nothing here: fresh subscription.
                    self.resumes_rejected += 1
                else:
                    self._replay_to(subscriber, subscriber.resume_last_seq)
            subscriber.ready = True
            self._subscribers.append(subscriber)
            self._cond.notify_all()

    def _replay_to(self, subscriber: _Subscriber, last_seq: int) -> None:
        """Serve one RESUME: replay held frames, mark evictions.

        Runs under ``_cond``.  Each held frame passes through
        :meth:`_Subscription.frame_for`, exactly like a live one.  The
        subscriber's queue is still empty, and the replay is cut to fit
        it.
        """
        self.resumes_served += 1
        if self._replay is not None:
            held, evicted_through = self._replay.since(last_seq)
        else:
            held = []
            evicted_through = (self._seq - 1
                               if self._seq - 1 > last_seq else None)
        admitted: List[Tuple[int, FrameKind, bytes]] = []
        for seq, kind, data, meta in held:
            chunk = subscriber.subscription.frame_for(kind, meta, data)
            if chunk is not None:
                admitted.append((seq, kind, chunk))
        # Reserve one queue slot for the eviction gap marker: frames
        # that cannot fit extend the evicted range instead of silently
        # evicting each other inside the queue.
        budget = subscriber.queue.capacity - 1
        if len(admitted) > budget:
            overflow = admitted[:-budget] if budget > 0 else admitted
            admitted = admitted[-budget:] if budget > 0 else []
            evicted_through = overflow[-1][0]
        if evicted_through is not None and evicted_through > last_seq:
            self.replay_evictions += 1
            gap = wire.eviction_gap_frame(
                evicted_from=last_seq + 1, evicted_through=evicted_through,
                time_s=0.0, host=self.host_label)
            subscriber.queue.offer(FrameKind.GAP, gap)
        for _seq, kind, data in admitted:
            subscriber.queue.offer(kind, data)
        subscriber.frames_replayed += len(admitted)
        self.frames_replayed += len(admitted)

    # -- publishing ---------------------------------------------------

    def publish_report(self, report: AggregatedPowerReport) -> int:
        """Fan one aggregated report out; returns queues offered to."""
        return self.publish_frame(FrameKind.REPORT, report.to_wire())

    def publish_health(self, event: HealthEvent) -> int:
        """Fan one health event out to health subscribers."""
        return self.publish_frame(FrameKind.HEALTH, event.to_wire())

    def publish_gap(self, marker: GapMarker) -> int:
        """Fan one sensor gap marker out to gap subscribers."""
        return self.publish_frame(FrameKind.GAP, marker.to_wire())

    def publish_frame(self, kind: FrameKind,
                      payload: Mapping[str, object]) -> int:
        """Fan one stream frame out from its wire payload; returns
        queues offered to.

        The shared entry point behind every ``publish_*`` wrapper and
        the relay's re-publish path: *payload* is a JSON-safe dict
        (``event.to_wire()``, or a decoded upstream frame's payload).
        This hop stamps its own ``seq``, fills ``host`` only if the
        origin left it empty, and preserves any ``origin_seq`` /
        ``origin_epoch`` keys riding along — which is how end-to-end
        identity survives a relay tree.  The frame is encoded exactly
        once (at the floor stream version, so the same bytes serve v1
        and v2 subscribers); only pid-restricted report views are
        re-encoded, per subscriber.
        """
        counter = _PUBLISH_COUNTERS.get(kind)
        if counter is None:
            raise TelemetryError(
                f"cannot publish {FrameKind(kind).name} frames")
        body = dict(payload)
        if not body.get("host"):
            body["host"] = self.host_label
        with self._publish_lock, self._cond:
            seq = self._seq
            self._seq += 1
            setattr(self, counter, getattr(self, counter) + 1)
            body["seq"] = seq
            data = wire.encode_frame(kind, body,
                                     version=wire.STREAM_VERSION)
            if self._replay is not None:
                # Seq assignment + ring append are atomic with the
                # targets snapshot, so a concurrent resume replays
                # exactly the frames its owner will not receive live.
                self._replay.append(seq, kind, data, body)
            targets = list(self._subscribers)
            offered = self._deliver(targets, kind, body, data)
            if (kind is FrameKind.REPORT and self.heartbeat_every
                    and self.reports_published % self.heartbeat_every
                    == 0):
                self.heartbeats_published += 1
                beat = {"seq": self.heartbeats_published,
                        "time_s": float(body.get("time_s", 0.0)),
                        "host": self.host_label}
                self._deliver(targets, FrameKind.HEARTBEAT, beat,
                              wire.encode_frame(
                                  FrameKind.HEARTBEAT, beat,
                                  version=wire.STREAM_VERSION))
            self._cond.notify_all()  # wait_for() may watch the counters
            wake = self._claim_wake()
        if wake:
            self._wake()
        return offered

    def _deliver(self, targets: List[_Subscriber], kind: FrameKind,
                 payload: Mapping[str, object], data: bytes) -> int:
        """Offer one frame to every target that admits it; returns
        queues offered to.

        Runs under ``_cond``.  On a full ``block`` queue the publisher
        counts a stall and waits on ``_cond`` until the loop drains the
        queue or closes it.  It keeps ``_publish_lock`` meanwhile, so no
        later frame overtakes this one.
        """
        offered = 0
        for subscriber in targets:
            chunk = subscriber.subscription.frame_for(kind, payload, data)
            if chunk is None:
                continue
            queue = subscriber.queue
            if (queue.policy == OverflowPolicy.BLOCK and queue.full
                    and not queue.closed):
                queue.blocked += 1
                self.stalls += 1
                self._cond.notify_all()
                if self._claim_wake():
                    self._wake()  # the loop must drain what is owed
                while queue.full and not queue.closed:
                    self._cond.wait()
            if queue.offer(kind, chunk):
                offered += 1
                self._dirty.add(subscriber)
        return offered

    # -- introspection -------------------------------------------------

    def subscribers(self) -> List[_Subscriber]:
        """A snapshot of the currently connected, ready subscribers."""
        with self._cond:
            return list(self._subscribers)

    @property
    def subscriber_count(self) -> int:
        with self._cond:
            return len(self._subscribers)

    def stats(self) -> Dict[str, object]:
        """Server-wide and per-subscriber delivery counters."""
        with self._cond:
            return {
                "host_label": self.host_label,
                "overflow": self.overflow,
                "queue_capacity": self.queue_capacity,
                "reports_published": self.reports_published,
                "health_published": self.health_published,
                "gaps_published": self.gaps_published,
                "heartbeats_published": self.heartbeats_published,
                "stalls": self.stalls,
                "replay_window": self.replay_window,
                "stream_epoch": self.stream_epoch,
                "resumes_served": self.resumes_served,
                "resumes_rejected": self.resumes_rejected,
                "connections_refused": self.connections_refused,
                "frames_replayed": self.frames_replayed,
                "replay_evictions": self.replay_evictions,
                "subscribers": [sub.stats() for sub in self._subscribers],
            }

    def wait_for(self, predicate: Callable[[], bool],
                 timeout: float = 5.0) -> bool:
        """Condition-based wait until *predicate()* holds (no polling)."""
        deadline = threading.TIMEOUT_MAX if timeout is None else timeout
        with self._cond:
            return self._cond.wait_for(predicate, timeout=deadline)

    def wait_for_subscribers(self, count: int,
                             timeout: float = 5.0) -> bool:
        """Wait until *count* subscribers have completed their handshake."""
        return self.wait_for(
            lambda: len(self._subscribers) >= count, timeout=timeout)

    def wait_until_sent(self, frames: int, timeout: float = 5.0) -> bool:
        """Wait until every subscriber has sent >= *frames* frames."""
        def _done() -> bool:
            return all(sub.frames_sent >= frames
                       for sub in self._subscribers)
        return self.wait_for(_done, timeout=timeout)


class TelemetryBridge(Actor):
    """The actor gluing the event bus to a :class:`TelemetryServer`.

    Subscribes to :class:`AggregatedPowerReport`, :class:`HealthEvent`
    and :class:`GapMarker` and forwards each to the server.
    """

    def __init__(self, server: TelemetryServer) -> None:
        super().__init__()
        self.server = server
        self.forwarded = 0

    def pre_start(self) -> None:
        bus = self.context.system.event_bus
        bus.subscribe(AggregatedPowerReport, self.self_ref)
        bus.subscribe(HealthEvent, self.self_ref)
        bus.subscribe(GapMarker, self.self_ref)

    def receive(self, message) -> None:
        if isinstance(message, AggregatedPowerReport):
            self.server.publish_report(message)
        elif isinstance(message, HealthEvent):
            self.server.publish_health(message)
        elif isinstance(message, GapMarker):
            self.server.publish_gap(message)
        else:
            return
        self.forwarded += 1
