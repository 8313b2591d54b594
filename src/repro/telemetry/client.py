"""The telemetry client: subscribe to a server and iterate events.

Typical use::

    client = TelemetryClient("127.0.0.1", 9462, pids={100},
                             reconnect=ReconnectPolicy())
    for event in client:
        if isinstance(event, ReportEvent):
            print(event.host, event.report.total_w)

The iterator yields typed events (:class:`~repro.telemetry.wire.ReportEvent`,
:class:`~repro.telemetry.wire.HealthTelemetry`,
:class:`~repro.telemetry.wire.GapTelemetry`,
:class:`~repro.telemetry.wire.Heartbeat`) and ends cleanly when
:meth:`TelemetryClient.close` is called.  When the link drops and a
:class:`ReconnectPolicy` is configured, the client re-dials with the
shared capped-exponential-backoff idiom
(:class:`~repro.faults.backoff.ExponentialBackoff`), re-negotiates the
protocol version and re-issues its subscription — so a server restart
is invisible to the consuming loop apart from any frames published
while the link was down.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, Union

from repro.errors import (TelemetryConnectionError, TelemetryError,
                          WireProtocolError)
from repro.faults.backoff import ExponentialBackoff
from repro.faults.breaker import CircuitBreaker
from repro.telemetry import wire
from repro.telemetry.spool import Spool
from repro.telemetry.wire import Frame, FrameKind

_RECV_BYTES = 65536

#: Frame kinds that carry the shared stream sequence number (heartbeats
#: keep their own counter and never advance ``last_seq``).
_STREAM_KINDS = (FrameKind.REPORT, FrameKind.HEALTH, FrameKind.GAP)


@dataclass(frozen=True)
class ReconnectPolicy:
    """Capped exponential re-dial schedule after a lost connection."""

    base_s: float = 0.05
    factor: float = 2.0
    max_s: float = 2.0
    #: Give up (raise) after this many consecutive failed dials;
    #: ``None`` retries forever.
    max_attempts: Optional[int] = None
    #: Jitter fraction spreading re-dials across a fleet (0 disables).
    jitter: float = 0.0
    #: Seed making a jittered schedule reproducible.
    seed: Optional[int] = None

    def backoff(self) -> ExponentialBackoff:
        return ExponentialBackoff(base_s=self.base_s, factor=self.factor,
                                  max_s=self.max_s, jitter=self.jitter,
                                  seed=self.seed)


class TelemetryClient:
    """One subscription to one :class:`~repro.telemetry.server.TelemetryServer`.

    The client is single-threaded and blocking: :meth:`events` (or plain
    iteration) drives the socket.  ``sleep`` is injectable so reconnect
    schedules are testable without real delays.
    """

    def __init__(self, host: str, port: int,
                 pids: Optional[Iterable[int]] = None,
                 kinds: Optional[Iterable[str]] = None,
                 downsample: int = 1,
                 reconnect: Optional[ReconnectPolicy] = None,
                 agent: str = "repro-telemetry-client",
                 connect_timeout_s: float = 5.0,
                 read_timeout_s: Optional[float] = 30.0,
                 sleep: Callable[[float], None] = time.sleep,
                 spool: Optional[Union[str, Path, Spool]] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 transport: Optional[Callable[[socket.socket],
                                              socket.socket]] = None) -> None:
        self.host = host
        self.port = port
        self.pids = None if pids is None else sorted(set(pids))
        self.kinds = None if kinds is None else tuple(kinds)
        self.downsample = downsample
        self.reconnect = reconnect
        self.agent = agent
        self.connect_timeout_s = connect_timeout_s
        self.read_timeout_s = read_timeout_s
        self._sleep = sleep
        #: Circuit breaker consulted before every re-dial, if any.
        self.breaker = breaker
        #: Wraps the dialed socket (chaos tests inject faults here).
        self.transport = transport
        self._owns_spool = spool is not None and not isinstance(spool, Spool)
        if self._owns_spool:
            path = Path(spool)
            if path.is_dir():
                path = path / "telemetry.spool"
            spool = Spool(path)
        #: Durable journal of delivered stream frames, if any.
        self.spool: Optional[Spool] = spool
        #: The server stream epoch ``last_seq`` belongs to.
        self.stream_epoch: Optional[str] = None
        #: Highest stream seq delivered (recovered from the spool on
        #: restart); what a RESUME handshake presents to the server.
        self.last_seq: Optional[int] = None
        if self.spool is not None:
            self.stream_epoch, self.last_seq = self.spool.resume_state()
        self._sock: Optional[socket.socket] = None
        self._decoder: Optional[wire.FrameDecoder] = None
        #: Frames that arrived in the same chunk as the handshake reply
        #: (the server may pipeline data right behind its HELLO).
        self._pending: List[Frame] = []
        self._closed = False
        #: Protocol version agreed with the server (after connect()).
        self.negotiated_version: Optional[int] = None
        #: The pipeline description the server advertised in its
        #: handshake reply (PipelineSpec.to_dict() form), if any.
        self.server_spec: Optional[dict] = None
        #: Optional protocol features the server advertised ("resume").
        self.server_features: tuple = ()
        #: None until a handshake reply reveals whether the server
        #: understands RESUME; False stops us from ever sending one.
        self._resume_supported: Optional[bool] = None
        self.frames_received = 0
        self.reconnects = 0
        self.duplicates_dropped = 0
        self.resumes_sent = 0
        #: Corrupt-stream (WireProtocolError) disconnects survived.
        self.stream_errors = 0

    # -- connection management ----------------------------------------

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def connect(self) -> "TelemetryClient":
        """Dial, negotiate the protocol version and subscribe."""
        if self._closed:
            raise TelemetryError("client is closed")
        if self._sock is not None:
            return self
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self.transport is not None:
            sock = self.transport(sock)
        try:
            sock.sendall(wire.encode_frame(
                FrameKind.HELLO, wire.hello_payload(agent=self.agent)))
            # Resume optimistically: the reply that would tell us the
            # server lacks the feature hasn't arrived yet on a first
            # reconnect, but a server that advertised "resume" once is
            # assumed to keep it, and one that refused never sees
            # another RESUME.
            if self.last_seq is not None and self._resume_supported is not \
                    False:
                sock.sendall(wire.encode_frame(
                    FrameKind.RESUME,
                    wire.resume_payload(self.last_seq,
                                        epoch=self.stream_epoch)))
                self.resumes_sent += 1
            sock.sendall(wire.encode_frame(
                FrameKind.SUBSCRIBE,
                wire.subscribe_payload(pids=self.pids, kinds=self.kinds,
                                       downsample=self.downsample)))
            decoder = wire.FrameDecoder()
            reply, pending = self._read_handshake_reply(sock, decoder)
            if reply.kind is FrameKind.ERROR:
                raise TelemetryConnectionError(
                    f"server refused subscription: "
                    f"{reply.payload.get('reason', 'unknown')}")
            if reply.kind is not FrameKind.HELLO:
                raise WireProtocolError(
                    f"expected HELLO reply, got {reply.kind.name}")
            self.negotiated_version = int(
                reply.payload.get("version", wire.PROTOCOL_VERSION))
            spec = reply.payload.get("spec")
            if isinstance(spec, dict):
                self.server_spec = spec
            features = reply.payload.get("features")
            if isinstance(features, list):
                self.server_features = tuple(str(f) for f in features)
            self._resume_supported = "resume" in self.server_features
            epoch = reply.payload.get("epoch")
            if isinstance(epoch, str) and epoch != self.stream_epoch:
                if self.stream_epoch is not None:
                    # A different server instance: its sequence space
                    # is fresh, so stale resume state must not be used
                    # to deduplicate the new stream.
                    self.last_seq = None
                self.stream_epoch = epoch
                if self.spool is not None:
                    self.spool.append(wire.encode_frame(
                        FrameKind.HELLO, {"epoch": epoch}))
        except BaseException:
            sock.close()
            raise
        sock.settimeout(self.read_timeout_s)
        self._sock = sock
        self._decoder = decoder
        self._pending = pending
        if self._closed:
            # close() ran mid-handshake and found no socket to release.
            self._disconnect()
            raise TelemetryError("client is closed")
        return self

    def _read_handshake_reply(
            self, sock: socket.socket, decoder: wire.FrameDecoder,
    ) -> "tuple[Frame, List[Frame]]":
        """Block until the server's reply arrives.

        The server pipelines: published frames may ride in the same
        chunk as its HELLO reply.  Anything decoded beyond the reply is
        returned for :meth:`events` to yield first.
        """
        while True:
            data = sock.recv(_RECV_BYTES)
            if not data:
                raise TelemetryConnectionError(
                    "connection closed during handshake")
            frames = decoder.feed(data)
            if frames:
                return frames[0], frames[1:]

    def close(self) -> None:
        """Stop iterating and release the socket (idempotent)."""
        self._closed = True
        self._disconnect()
        if self.spool is not None and self._owns_spool:
            self.spool.close()

    def _disconnect(self) -> None:
        sock, self._sock = self._sock, None
        self._decoder = None
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def _redial(self) -> bool:
        """Re-dial per the reconnect policy; False when closed/exhausted."""
        if self.reconnect is None or self._closed:
            return False
        backoff = self.reconnect.backoff()
        while not self._closed:
            if (self.reconnect.max_attempts is not None
                    and backoff.attempts >= self.reconnect.max_attempts):
                raise TelemetryConnectionError(
                    f"gave up reconnecting to {self.host}:{self.port} "
                    f"after {backoff.attempts} attempts")
            if self.breaker is not None and not self.breaker.allow():
                # Open breaker: no socket is burned; wait out the
                # remainder of its reset timeout instead of dialing.
                self._sleep(max(self.breaker.retry_in_s(), 0.001))
                continue
            self._sleep(backoff.next_delay_s())
            try:
                self.connect()
            except (OSError, TelemetryError):
                if self.breaker is not None:
                    self.breaker.record_failure()
                continue
            if self.breaker is not None:
                self.breaker.record_success()
            self.reconnects += 1
            return True
        return False

    # -- event iteration ----------------------------------------------

    def events(self, max_events: Optional[int] = None) -> Iterator[object]:
        """Yield typed telemetry events; ends on close / clean shutdown.

        Without a reconnect policy a lost connection simply ends the
        iterator (a clean server stop is not an error).  With one, the
        client re-dials and the stream continues.
        """
        yielded = 0
        while max_events is None or yielded < max_events:
            if self._closed:
                return
            if self._sock is None:
                try:
                    self.connect()
                except (OSError, TelemetryError):
                    if not self._redial():
                        return
            if self._pending:
                frames, self._pending = self._pending, []
            else:
                # close() on another thread may clear both attributes
                # mid-read: keep this read's socket and decoder.
                sock, decoder = self._sock, self._decoder
                if sock is None or decoder is None:
                    continue
                try:
                    data = sock.recv(_RECV_BYTES)
                except socket.timeout:
                    raise TelemetryConnectionError(
                        f"no data from {self.host}:{self.port} within "
                        f"{self.read_timeout_s}s") from None
                except OSError:
                    data = b""
                if self._closed or not data:
                    self._disconnect()
                    if not self._redial():
                        return
                    continue
                try:
                    frames = decoder.feed(data)
                except WireProtocolError:
                    # Corrupt stream: the decoder is poisoned, so the
                    # only recovery is a fresh connection — RESUME then
                    # re-delivers anything the corruption swallowed.
                    self.stream_errors += 1
                    self._disconnect()
                    if self.reconnect is None:
                        raise
                    if self._closed or not self._redial():
                        return
                    continue
            for index, frame in enumerate(frames):
                self.frames_received += 1
                if frame.kind is FrameKind.ERROR:
                    self._disconnect()
                    raise TelemetryConnectionError(
                        f"server error: "
                        f"{frame.payload.get('reason', 'unknown')}")
                if frame.kind in _STREAM_KINDS:
                    seq = frame.payload.get("seq")
                    if isinstance(seq, int):
                        if (self.last_seq is not None
                                and seq <= self.last_seq):
                            # Replay overlap after a reconnect: already
                            # delivered (or spooled) — drop silently.
                            self.duplicates_dropped += 1
                            continue
                        self.last_seq = seq
                        if self.spool is not None:
                            self.spool.append(wire.encode_frame(
                                frame.kind, frame.payload))
                yield wire.decode_event(frame)
                yielded += 1
                if max_events is not None and yielded >= max_events:
                    # Frames already decoded beyond the cap must survive
                    # for the next events()/collect() call on this
                    # client — dropping them would lose events that were
                    # received off the wire.
                    self._pending = frames[index + 1:] + self._pending
                    return

    def __iter__(self) -> Iterator[object]:
        return self.events()

    def collect(self, count: int) -> List[object]:
        """Block until *count* events arrived; return them."""
        return list(self.events(max_events=count))

    def __enter__(self) -> "TelemetryClient":
        self.connect()
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
