"""Crash-recovery chaos tests: sequence/resume replay, eviction gaps,
spooled crash-restart, fault-injected streams and backward compatibility
with pre-RESUME clients.

All assertions are condition-driven (collect exactly N events, then
check invariants) — nothing here depends on scheduler timing.  The
long seeded soak lives in ``benchmarks/test_chaos_soak.py``; this file
is the deterministic tier-1 slice of the same guarantees.
"""

import socket
import threading

import pytest

from repro.core.messages import AggregatedPowerReport, GapMarker, HealthEvent
from repro.errors import ConfigurationError
from repro.faults import (ByteCorruption, CircuitBreaker, ConnectionReset,
                          NetworkFaultInjector, NetworkFaultPlan)
from repro.telemetry import wire
from repro.telemetry.client import ReconnectPolicy, TelemetryClient
from repro.telemetry.server import ReplayBuffer, TelemetryServer
from repro.telemetry.spool import Spool
from repro.telemetry.wire import (FrameKind, GapTelemetry, HealthTelemetry,
                                  ReportEvent)

pytestmark = [pytest.mark.telemetry, pytest.mark.chaos]


def report(time_s=1.0, by_pid=None):
    return AggregatedPowerReport(
        time_s=time_s, period_s=1.0,
        by_pid=by_pid if by_pid is not None else {100: 5.5},
        idle_w=31.48, formula="hpc", gap=False)


@pytest.fixture
def server():
    srv = TelemetryServer(port=0, queue_capacity=64,
                          replay_window=128).start()
    yield srv
    srv.stop()


def make_client(server, **kwargs):
    client = TelemetryClient("127.0.0.1", server.port,
                             read_timeout_s=10.0, **kwargs)
    client.connect()
    return client


class TestReplayBuffer:
    """The ring's since() answers, unit-tested without I/O."""

    def test_window_validation(self):
        with pytest.raises(ConfigurationError):
            ReplayBuffer(0)

    def test_everything_held_no_eviction(self):
        ring = ReplayBuffer(8)
        for seq in range(4):
            ring.append(seq, FrameKind.REPORT, b"%d" % seq, {"seq": seq})
        frames, evicted = ring.since(1)
        assert [item[0] for item in frames] == [2, 3]
        assert evicted is None

    def test_eviction_detected(self):
        ring = ReplayBuffer(2)
        for seq in range(5):  # ring holds seqs 3, 4
            ring.append(seq, FrameKind.REPORT, b"%d" % seq, {"seq": seq})
        frames, evicted = ring.since(0)
        assert [item[0] for item in frames] == [3, 4]
        assert evicted == 2  # seqs 1..2 scrolled out

    def test_fully_evicted(self):
        ring = ReplayBuffer(2)
        for seq in range(10):  # holds 8, 9
            ring.append(seq, FrameKind.REPORT, b"%d" % seq, {"seq": seq})
        frames, evicted = ring.since(9)
        assert frames == [] and evicted is None  # nothing was missed

    def test_empty_ring(self):
        frames, evicted = ReplayBuffer(4).since(0)
        assert frames == [] and evicted is None


class TestResumeReplay:
    """RESUME handshake against a live server."""

    def test_sequence_numbers_on_stream_frames(self, server):
        client = make_client(server)
        server.wait_for(lambda: server.subscriber_count == 1)
        server.publish_report(report(time_s=1.0))
        server.publish_health(HealthEvent(
            time_s=1.5, component="sensor", kind="degraded", detail=""))
        server.publish_gap(GapMarker(time_s=2.0, pid=-1, period_s=1.0,
                                     source="sensor"))
        events = client.collect(3)
        assert [event.seq for event in events] == [0, 1, 2]
        assert client.last_seq == 2  # dedup armed even without a spool
        client.close()

    def test_reconnect_resumes_and_replays(self, server, tmp_path):
        """A crashed consumer reconnects and receives exactly the frames
        published while it was gone — no loss, no duplicates."""
        first = make_client(server, spool=tmp_path)
        server.wait_for(lambda: server.subscriber_count == 1)
        server.publish_report(report(time_s=1.0))
        server.publish_report(report(time_s=2.0))
        assert [e.report.time_s for e in first.collect(2)] == [1.0, 2.0]
        first.close()  # crash: the spool file survives

        for time_s in (3.0, 4.0, 5.0):  # published while it was down
            server.publish_report(report(time_s=time_s))

        second = make_client(server, spool=tmp_path)
        events = second.collect(3)
        assert [e.report.time_s for e in events] == [3.0, 4.0, 5.0]
        assert [e.seq for e in events] == [2, 3, 4]
        assert second.resumes_sent == 1
        assert second.duplicates_dropped == 0
        stats = server.stats()
        assert stats["resumes_served"] == 1
        assert stats["frames_replayed"] == 3
        assert stats["replay_evictions"] == 0
        second.close()

    def test_eviction_yields_explicit_gap(self, tmp_path):
        """Frames that scrolled out of the replay window surface as one
        explicit replay-eviction gap, never as silence."""
        server = TelemetryServer(port=0, replay_window=2).start()
        try:
            first = make_client(server, spool=tmp_path)
            server.wait_for(lambda: server.subscriber_count == 1)
            server.publish_report(report(time_s=1.0))
            first.collect(1)
            first.close()

            for time_s in (2.0, 3.0, 4.0, 5.0):  # window keeps the last 2
                server.publish_report(report(time_s=time_s))

            second = make_client(server, spool=tmp_path)
            events = second.collect(3)
            gap, late1, late2 = events
            assert isinstance(gap, GapTelemetry)
            assert gap.marker.source == "replay-eviction"
            assert gap.evicted_from == 1 and gap.evicted_through == 2
            assert [late1.report.time_s, late2.report.time_s] == [4.0, 5.0]
            assert server.stats()["replay_evictions"] == 1
            second.close()
        finally:
            server.stop()

    def test_replay_respects_pid_filter(self, server, tmp_path):
        """Regression: replayed frames used to bypass the subscription
        filters — a pid-scoped consumer resuming after a crash received
        every frame in the window, including other pids' reports."""
        first = make_client(server, spool=tmp_path, pids=[100])
        server.wait_for(lambda: server.subscriber_count == 1)
        server.publish_report(report(time_s=1.0))  # seq 0, pid 100
        assert first.collect(1)[0].seq == 0
        first.close()

        # Published while the consumer was down: two frames it must
        # NOT see on resume, one it must.
        server.publish_report(report(time_s=2.0, by_pid={200: 1.0}))
        server.publish_report(report(time_s=3.0, by_pid={200: 2.0}))
        server.publish_report(report(time_s=4.0,
                                     by_pid={100: 9.0, 200: 1.0}))

        second = make_client(server, spool=tmp_path, pids=[100])
        events = second.collect(1)
        assert events[0].report.time_s == 4.0
        assert events[0].seq == 3
        # The replayed payload is narrowed exactly like a live one.
        assert set(events[0].report.by_pid) == {100}
        stats = server.stats()
        assert stats["resumes_served"] == 1
        assert stats["frames_replayed"] == 1
        second.close()

    def test_replay_respects_kind_filter(self, server, tmp_path):
        first = make_client(server, spool=tmp_path, kinds=["report"])
        server.wait_for(lambda: server.subscriber_count == 1)
        server.publish_report(report(time_s=1.0))  # seq 0
        assert first.collect(1)[0].seq == 0
        first.close()

        server.publish_health(HealthEvent(  # seq 1: filtered on resume
            time_s=1.5, component="sensor", kind="degraded", detail=""))
        server.publish_report(report(time_s=2.0))  # seq 2

        second = make_client(server, spool=tmp_path, kinds=["report"])
        events = second.collect(1)
        assert isinstance(events[0], ReportEvent)
        assert events[0].seq == 2 and events[0].report.time_s == 2.0
        assert server.stats()["frames_replayed"] == 1
        second.close()

    def test_replay_respects_downsample_cadence(self, server, tmp_path):
        """Replay applies the same every-Nth predicate as the live
        path: the reconnected subscription's counter starts fresh, so
        the replayed window is downsampled exactly like a live stream
        would be for this connection — not delivered wholesale."""
        first = make_client(server, spool=tmp_path, downsample=2)
        server.wait_for(lambda: server.subscriber_count == 1)
        server.publish_report(report(time_s=1.0))  # index 0: delivered
        assert first.collect(1)[0].seq == 0
        first.close()

        for time_s in (2.0, 3.0, 4.0, 5.0):  # published while away
            server.publish_report(report(time_s=time_s))

        second = make_client(server, spool=tmp_path, downsample=2)
        events = second.collect(2)
        # Replay indexes 0 and 2 of this connection fall on the
        # cadence; the frames between them are skipped, not queued.
        assert [e.report.time_s for e in events] == [2.0, 4.0]
        assert server.stats()["frames_replayed"] == 2
        second.close()

    def test_resume_rejected_across_server_restart(self, tmp_path):
        """A seq from another server's epoch must not be replayed."""
        first_server = TelemetryServer(port=0, replay_window=16).start()
        client = make_client(first_server, spool=tmp_path)
        first_server.wait_for(lambda: first_server.subscriber_count == 1)
        first_server.publish_report(report(time_s=1.0))
        first_server.publish_report(report(time_s=2.0))
        client.collect(2)
        client.close()
        first_server.stop()
        with Spool(tmp_path / "telemetry.spool") as spool:
            assert spool.last_seq() == 1

        second_server = TelemetryServer(port=0, replay_window=16).start()
        try:
            second = make_client(second_server, spool=tmp_path)
            second_server.wait_for(
                lambda: second_server.subscriber_count == 1)
            second_server.publish_report(report(time_s=9.0))
            events = second.collect(1)
            # Seq 0 of the new epoch is delivered, not deduplicated
            # against the old epoch's seq 1.
            assert events[0].seq == 0
            assert events[0].report.time_s == 9.0
            assert second_server.stats()["resumes_rejected"] == 1
            second.close()
        finally:
            second_server.stop()

    def test_bad_resume_payload_refused(self, server):
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5.0) as sock:
            sock.sendall(wire.encode_frame(
                FrameKind.HELLO, wire.hello_payload(agent="bad-resume")))
            sock.sendall(wire.encode_frame(
                FrameKind.RESUME, {"last_seq": "not-a-number"}))
            sock.sendall(wire.encode_frame(
                FrameKind.SUBSCRIBE, wire.subscribe_payload()))
            sock.settimeout(5.0)
            frames = wire.FrameDecoder().feed(sock.recv(65536))
            assert frames and frames[0].kind is FrameKind.ERROR
            assert "RESUME" in frames[0].payload["reason"]


class TestBackwardCompatibility:

    def test_pre_resume_client_still_streams(self, server):
        """A PR-4-era client (plain HELLO + SUBSCRIBE, no RESUME, no
        feature awareness) completes the handshake and receives frames."""
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5.0) as sock:
            sock.settimeout(10.0)
            sock.sendall(wire.encode_frame(
                FrameKind.HELLO, wire.hello_payload(agent="old-client")))
            sock.sendall(wire.encode_frame(
                FrameKind.SUBSCRIBE, wire.subscribe_payload()))
            decoder = wire.FrameDecoder()
            frames = []
            while not frames:
                frames = decoder.feed(sock.recv(65536))
            reply = frames.pop(0)
            assert reply.kind is FrameKind.HELLO
            # New fields ride along; an old client simply ignores them.
            assert reply.payload["features"] == ["resume"]
            server.wait_for(lambda: server.subscriber_count == 1)
            server.publish_report(report(time_s=1.0))
            while not frames:
                frames = decoder.feed(sock.recv(65536))
            event = wire.decode_event(frames[0])
            assert isinstance(event, ReportEvent)
            assert event.report.time_s == 1.0

    def test_client_against_featureless_reply_sends_no_resume(self):
        """A client that learned the server lacks RESUME never sends one
        (kind 8 must not reach old servers)."""
        client = TelemetryClient("127.0.0.1", 1, spool=None)
        assert client._resume_supported is None
        client.server_features = ()
        client._resume_supported = False
        client.last_seq = 7
        # The guard in connect(): resume only when not explicitly
        # unsupported.  (Asserting the predicate keeps this free of
        # sockets; the live path is covered above.)
        assert not (client.last_seq is not None
                    and client._resume_supported is not False)
        client.close()


class TestChaoticStream:
    """Fault-injected end-to-end sessions, driven by a fake plan clock."""

    def _publish_all(self, server, count, start=0):
        for index in range(start, start + count):
            server.publish_report(report(time_s=float(index + 1)))

    def test_soak_lite_no_loss_no_duplicates(self, tmp_path):
        """Resets + mid-stream corruption + a consumer crash-restart:
        every published report is delivered exactly once, in order."""
        clock = [0.0]
        plan = NetworkFaultPlan([
            ConnectionReset(10.0), ConnectionReset(10.0),
            ByteCorruption(20.0, nbytes=3),
            ConnectionReset(30.0),
        ])
        injector = NetworkFaultInjector(plan, clock=lambda: clock[0],
                                        sleep=lambda _s: None)
        server = TelemetryServer(port=0, replay_window=256).start()
        received = []
        try:
            client = TelemetryClient(
                "127.0.0.1", server.port, read_timeout_s=10.0,
                reconnect=ReconnectPolicy(base_s=0.005, max_s=0.02),
                spool=tmp_path, transport=injector.wrap,
                breaker=CircuitBreaker(failure_threshold=50,
                                       reset_timeout_s=0.05))
            client.connect()
            server.wait_for(lambda: server.subscriber_count == 1)

            self._publish_all(server, 10)          # seqs 0..9, clean
            received += client.collect(10)

            clock[0] = 10.0                        # two resets due
            self._publish_all(server, 10, start=10)
            received += client.collect(10)
            assert client.reconnects >= 1

            clock[0] = 20.0                        # corruption due
            self._publish_all(server, 10, start=20)
            received += client.collect(10)

            # Consumer crash: drop the client, keep the spool.
            client.close()
            self._publish_all(server, 10, start=30)

            clock[0] = 30.0                        # reset during redial
            restarted = TelemetryClient(
                "127.0.0.1", server.port, read_timeout_s=10.0,
                reconnect=ReconnectPolicy(base_s=0.005, max_s=0.02),
                spool=tmp_path, transport=injector.wrap)
            received += restarted.collect(10)
            restarted.close()

            # The invariants: zero loss, zero duplicates, in order.
            times = [event.report.time_s for event in received
                     if isinstance(event, ReportEvent)]
            assert times == [float(index + 1) for index in range(40)]
            assert not any(isinstance(event, GapTelemetry)
                           for event in received)
            assert injector.resets_injected >= 2
            assert injector.corruptions_injected == 1
        finally:
            server.stop()

    def test_corruption_recovery_counts_stream_error(self, tmp_path):
        """One corrupted chunk poisons the decoder; the client redials,
        resumes, and the stream continues without loss."""
        clock = [0.0]
        injector = NetworkFaultInjector(
            NetworkFaultPlan([ByteCorruption(5.0, nbytes=1)]),
            clock=lambda: clock[0], sleep=lambda _s: None)
        server = TelemetryServer(port=0, replay_window=64).start()
        try:
            client = TelemetryClient(
                "127.0.0.1", server.port, read_timeout_s=10.0,
                reconnect=ReconnectPolicy(base_s=0.005, max_s=0.02),
                spool=tmp_path, transport=injector.wrap)
            client.connect()
            server.wait_for(lambda: server.subscriber_count == 1)
            server.publish_report(report(time_s=1.0))
            assert client.collect(1)[0].report.time_s == 1.0

            clock[0] = 5.0  # next recv chunk is corrupted
            server.publish_report(report(time_s=2.0))
            server.publish_report(report(time_s=3.0))
            events = client.collect(2)
            assert [e.report.time_s for e in events] == [2.0, 3.0]
            assert client.stream_errors >= 1
            assert client.reconnects >= 1
            assert client.duplicates_dropped == 0
            client.close()
        finally:
            server.stop()

    def test_breaker_opens_against_dead_server(self):
        """A hard-down server trips the breaker; re-dials are refused
        without burning sockets until the reset timeout."""
        server = TelemetryServer(port=0).start()
        port = server.port
        server.stop()  # nothing listens here any more
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout_s=0.05)
        client = TelemetryClient(
            "127.0.0.1", port, connect_timeout_s=0.2,
            reconnect=ReconnectPolicy(base_s=0.001, max_s=0.002,
                                      max_attempts=6),
            breaker=breaker)
        from repro.errors import TelemetryConnectionError
        with pytest.raises(TelemetryConnectionError, match="gave up"):
            list(client.events(max_events=1))
        assert breaker.state == "open"
        assert breaker.opens >= 1
        assert breaker.refusals >= 1  # attempts refused, not dialed
        client.close()
