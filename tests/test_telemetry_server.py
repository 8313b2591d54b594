"""Telemetry server tests: queue overflow policies, fan-out, filters,
handshake strictness and the event-bus bridge.

All socket tests bind ephemeral localhost ports and synchronise with
condition-based waits — no sleeps anywhere.
"""

import socket
import sys
import threading

import pytest

from repro.actors.system import ActorSystem
from repro.core.messages import AggregatedPowerReport, GapMarker, HealthEvent
from repro.errors import ConfigurationError, WireProtocolError
from repro.telemetry import wire
from repro.telemetry.client import ReconnectPolicy, TelemetryClient
from repro.telemetry.server import (BatchPolicy, BoundedFrameQueue,
                                    OverflowPolicy, TelemetryBridge,
                                    TelemetryServer, _Subscription)
from repro.telemetry.wire import (FrameKind, GapTelemetry, Heartbeat,
                                  HealthTelemetry, ReportEvent)

pytestmark = pytest.mark.telemetry


def report(time_s=1.0, by_pid=None, gap=False):
    return AggregatedPowerReport(
        time_s=time_s, period_s=1.0,
        by_pid={} if gap else (by_pid if by_pid is not None else {100: 5.5}),
        idle_w=31.48, formula="hpc", gap=gap)


@pytest.fixture
def server():
    srv = TelemetryServer(port=0, queue_capacity=64).start()
    yield srv
    srv.stop()


def make_client(server, **kwargs):
    client = TelemetryClient("127.0.0.1", server.port,
                             read_timeout_s=10.0, **kwargs)
    client.connect()
    return client


def pop_one(queue):
    """Dequeue at most one frame the way the server's event loop does."""
    return queue.pop_many(1, 1 << 20)


class TestBoundedFrameQueue:
    """The overflow policies, unit-tested without any I/O."""

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BoundedFrameQueue(0)
        with pytest.raises(ConfigurationError):
            BoundedFrameQueue(4, policy="bogus")

    def test_fifo_within_capacity(self):
        queue = BoundedFrameQueue(4)
        for index in range(3):
            queue.offer(FrameKind.REPORT, b"%d" % index)
        assert [pop_one(queue)[0][1] for _ in range(3)] == [b"0", b"1", b"2"]
        assert queue.dropped == 0 and queue.high_water == 3

    def test_drop_oldest_evicts_head(self):
        queue = BoundedFrameQueue(2, policy=OverflowPolicy.DROP_OLDEST)
        for index in range(5):
            queue.offer(FrameKind.REPORT, b"%d" % index)
        assert queue.dropped == 3
        assert [pop_one(queue)[0][1] for _ in range(2)] == [b"3", b"4"]
        assert queue.high_water == 2

    def test_coalesce_keeps_latest_report(self):
        queue = BoundedFrameQueue(2, policy=OverflowPolicy.COALESCE)
        queue.offer(FrameKind.HEALTH, b"h")
        for index in range(5):
            queue.offer(FrameKind.REPORT, b"r%d" % index)
        # Health frame survives; pending reports collapsed to the last.
        assert queue.dropped == 4
        assert pop_one(queue) == [(FrameKind.HEALTH, b"h")]
        assert pop_one(queue) == [(FrameKind.REPORT, b"r4")]

    def test_coalesce_full_of_non_reports_falls_back_to_drop_oldest(self):
        queue = BoundedFrameQueue(2, policy=OverflowPolicy.COALESCE)
        queue.offer(FrameKind.HEALTH, b"h0")
        queue.offer(FrameKind.HEALTH, b"h1")
        queue.offer(FrameKind.HEALTH, b"h2")
        assert queue.dropped == 1
        assert pop_one(queue) == [(FrameKind.HEALTH, b"h1")]

    def test_pause_holds_consumer(self):
        queue = BoundedFrameQueue(4)
        queue.paused = True
        queue.offer(FrameKind.REPORT, b"0")
        assert pop_one(queue) == []
        queue.paused = False
        assert pop_one(queue) == [(FrameKind.REPORT, b"0")]


class TestFanOut:
    def test_single_subscriber_receives_reports_in_order(self, server):
        client = make_client(server)
        assert server.wait_for_subscribers(1)
        for index in range(5):
            server.publish_report(report(time_s=float(index)))
        events = client.collect(5)
        assert [e.report.time_s for e in events] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert [e.seq for e in events] == list(range(5))
        assert all(isinstance(e, ReportEvent) for e in events)
        client.close()

    def test_eight_subscribers_all_receive_everything(self, server):
        clients = [make_client(server) for _ in range(8)]
        assert server.wait_for_subscribers(8)
        for index in range(10):
            server.publish_report(report(time_s=float(index)))
        for client in clients:
            times = [e.report.time_s for e in client.collect(10)]
            assert times == [float(i) for i in range(10)]
        for client in clients:
            client.close()

    def test_health_and_gap_frames_fan_out(self, server):
        client = make_client(server)
        assert server.wait_for_subscribers(1)
        server.publish_health(HealthEvent(
            time_s=1.0, component="hpc-sensor-0", kind="degraded"))
        server.publish_gap(GapMarker(time_s=2.0, period_s=1.0, pid=-1,
                                     source="meter"))
        health, gap = client.collect(2)
        assert isinstance(health, HealthTelemetry)
        assert health.event.kind == "degraded"
        assert isinstance(gap, GapTelemetry)
        assert gap.marker.source == "meter"
        client.close()

    def test_gap_marked_report_travels_with_flag(self, server):
        client = make_client(server)
        assert server.wait_for_subscribers(1)
        server.publish_report(report(time_s=9.0, gap=True))
        (event,) = client.collect(1)
        assert event.report.gap is True and event.report.by_pid == {}
        client.close()

    def test_host_label_stamped_on_frames(self):
        server = TelemetryServer(port=0, host_label="machine-7").start()
        try:
            client = make_client(server)
            assert server.wait_for_subscribers(1)
            server.publish_report(report())
            (event,) = client.collect(1)
            assert event.host == "machine-7"
            client.close()
        finally:
            server.stop()

    def test_per_subscriber_counters(self, server):
        client = make_client(server)
        assert server.wait_for_subscribers(1)
        for index in range(4):
            server.publish_report(report(time_s=float(index)))
        client.collect(4)
        assert server.wait_until_sent(4)
        (stats,) = server.stats()["subscribers"]
        assert stats["frames_sent"] == 4
        assert stats["frames_dropped"] == 0
        assert stats["bytes_sent"] > 0
        assert 1 <= stats["queue_high_water"] <= 4
        client.close()


class TestFilters:
    def test_pid_filter_restricts_by_pid(self, server):
        client = make_client(server, pids=[100])
        assert server.wait_for_subscribers(1)
        server.publish_report(report(by_pid={100: 5.0, 200: 7.0}))
        server.publish_report(report(time_s=2.0, by_pid={200: 7.0}))
        server.publish_report(report(time_s=3.0, by_pid={100: 1.0}))
        events = client.collect(2)
        assert [set(e.report.by_pid) for e in events] == [{100}, {100}]
        assert [e.report.time_s for e in events] == [1.0, 3.0]
        client.close()

    def test_kind_filter(self, server):
        client = make_client(server, kinds=["health"])
        assert server.wait_for_subscribers(1)
        server.publish_report(report())
        server.publish_health(HealthEvent(
            time_s=1.0, component="x", kind="recovered"))
        (event,) = client.collect(1)
        assert isinstance(event, HealthTelemetry)
        client.close()

    def test_downsample_every_other_report(self, server):
        client = make_client(server, downsample=2)
        assert server.wait_for_subscribers(1)
        for index in range(6):
            server.publish_report(report(time_s=float(index)))
        events = client.collect(3)
        assert [e.report.time_s for e in events] == [0.0, 2.0, 4.0]
        client.close()

    def test_heartbeat_every_n_reports(self):
        server = TelemetryServer(port=0, heartbeat_every=2).start()
        try:
            client = make_client(server)
            assert server.wait_for_subscribers(1)
            for index in range(4):
                server.publish_report(report(time_s=float(index)))
            events = client.collect(6)
            beats = [e for e in events if isinstance(e, Heartbeat)]
            assert [b.seq for b in beats] == [1, 2]
            client.close()
        finally:
            server.stop()


class TestOverflow:
    """Slow-subscriber behaviour for all three policies.

    The subscriber is paused server-side — the deterministic stand-in
    for a subscriber that stopped reading.
    """

    def _paused_subscriber(self, server):
        client = make_client(server)
        assert server.wait_for_subscribers(1)
        (subscriber,) = server.subscribers()
        subscriber.pause()
        return client, subscriber

    def test_drop_oldest_sheds_without_stalling(self):
        server = TelemetryServer(port=0, queue_capacity=4,
                                 overflow=OverflowPolicy.DROP_OLDEST).start()
        try:
            client, subscriber = self._paused_subscriber(server)
            for index in range(20):
                server.publish_report(report(time_s=float(index)))
            assert server.stalls == 0
            assert subscriber.queue.dropped == 16
            assert subscriber.queue.high_water == 4
            subscriber.resume()
            events = client.collect(4)
            assert [e.report.time_s for e in events] == [16.0, 17.0,
                                                         18.0, 19.0]
            client.close()
        finally:
            server.stop()

    def test_coalesce_delivers_latest_state(self):
        server = TelemetryServer(port=0, queue_capacity=2,
                                 overflow=OverflowPolicy.COALESCE).start()
        try:
            client, subscriber = self._paused_subscriber(server)
            server.publish_health(HealthEvent(
                time_s=0.0, component="x", kind="degraded"))
            for index in range(50):
                server.publish_report(report(time_s=float(index)))
            assert server.stalls == 0
            assert subscriber.queue.dropped == 49
            subscriber.resume()
            health, latest = client.collect(2)
            assert isinstance(health, HealthTelemetry)
            assert latest.report.time_s == 49.0
            client.close()
        finally:
            server.stop()

    def test_stats_while_publisher_is_stalled(self):
        server = TelemetryServer(port=0, queue_capacity=1,
                                 overflow=OverflowPolicy.BLOCK).start()
        try:
            client, subscriber = self._paused_subscriber(server)
            server.publish_report(report(time_s=0.0))
            blocked_publish = threading.Thread(
                target=lambda: server.publish_report(report(time_s=1.0)),
                daemon=True)
            blocked_publish.start()
            assert server.wait_for(lambda: server.stalls >= 1)
            stats = server.stats()  # must stay live mid-stall
            assert stats["stalls"] == 1
            assert stats["subscribers"][0]["blocked"] == 1
            subscriber.resume()
            blocked_publish.join(timeout=5.0)
            assert not blocked_publish.is_alive()
            client.collect(2)
            client.close()
        finally:
            server.stop()

    def test_block_policy_stalls_the_publisher(self):
        server = TelemetryServer(port=0, queue_capacity=2,
                                 overflow=OverflowPolicy.BLOCK).start()
        try:
            client, subscriber = self._paused_subscriber(server)
            server.publish_report(report(time_s=0.0))
            server.publish_report(report(time_s=1.0))
            blocked_publish = threading.Thread(
                target=lambda: server.publish_report(report(time_s=2.0)),
                daemon=True)
            blocked_publish.start()
            assert server.wait_for(lambda: server.stalls >= 1)
            subscriber.resume()
            blocked_publish.join(timeout=5.0)
            assert not blocked_publish.is_alive()
            events = client.collect(3)
            assert [e.report.time_s for e in events] == [0.0, 1.0, 2.0]
            assert subscriber.queue.dropped == 0
            client.close()
        finally:
            server.stop()

    def test_stop_releases_a_stalled_publisher(self):
        server = TelemetryServer(port=0, queue_capacity=1,
                                 overflow=OverflowPolicy.BLOCK).start()
        try:
            client, _subscriber = self._paused_subscriber(server)
            server.publish_report(report(time_s=0.0))
            offered = []
            blocked_publish = threading.Thread(
                target=lambda: offered.append(
                    server.publish_report(report(time_s=1.0))),
                daemon=True)
            blocked_publish.start()
            assert server.wait_for(lambda: server.stalls >= 1)
            server.stop()
            blocked_publish.join(timeout=5.0)
            assert not blocked_publish.is_alive()
            assert offered == [0]  # the closed queue refused the frame
            client.close()
        finally:
            server.stop()


class TestConcurrentPublishers:
    """Three publishers into one ``block`` server, the way relay uplinks
    and a bridge share one, against every kind of subscriber at once."""

    PER_PUBLISHER = 40
    CAPACITY = 8
    KINDS = {AggregatedPowerReport: FrameKind.REPORT,
             HealthEvent: FrameKind.HEALTH, GapMarker: FrameKind.GAP}

    @staticmethod
    def _message(index, tag):
        """The index-th bus message of one publisher."""
        if index % 5 == 4:
            return GapMarker(time_s=float(index), period_s=1.0,
                             pid=(100, 200, -1)[index % 3], source=tag)
        if index % 7 == 6:
            return HealthEvent(time_s=float(index), component=tag,
                               kind="degraded")
        by_pid = ({100: 1.0}, {200: 2.0}, {100: 1.0, 200: 2.0},
                  None)[index % 4]
        return report(time_s=float(index), by_pid=by_pid,
                      gap=by_pid is None)

    def _publish_like_an_uplink(self, server, tag):
        for index in range(self.PER_PUBLISHER):
            message = self._message(index, tag)
            server.publish_frame(self.KINDS[type(message)],
                                 message.to_wire())

    def _publish_like_a_bridge(self, server):
        system = ActorSystem()
        system.spawn(TelemetryBridge(server), name="bridge")
        for index in range(self.PER_PUBLISHER):
            system.event_bus.publish(self._message(index, "bridge"))
            system.dispatch()

    def test_three_publishers_against_every_subscriber_kind(self):
        server = TelemetryServer(port=0, queue_capacity=self.CAPACITY,
                                 overflow=OverflowPolicy.BLOCK,
                                 replay_window=1024).start()
        sockets = []

        def keep(sock):
            sockets.append(sock)
            return sock

        def dial(agent, **kwargs):
            return TelemetryClient("127.0.0.1", server.port, agent=agent,
                                   read_timeout_s=30.0, **kwargs).connect()

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            clients = {
                "all": dial("all"),
                "paused": dial("paused"),
                "pid": dial("pid", pids=[100]),
                "sampled": dial("sampled", downsample=2),
                "resumed": dial("resumed", transport=keep,
                                reconnect=ReconnectPolicy(base_s=0.01,
                                                          max_s=0.05)),
            }
            assert server.wait_for_subscribers(len(clients))
            (paused,) = [sub for sub in server.subscribers()
                         if sub.agent == "paused"]
            paused.pause()

            received = {name: [] for name in clients}
            errors = []
            resumed_has_two = threading.Event()

            def read(name):
                try:
                    for event in clients[name].events():
                        if (isinstance(event, HealthTelemetry)
                                and event.event.kind == "end"):
                            return
                        received[name].append(event.seq)
                        if name == "resumed" and len(received[name]) >= 2:
                            resumed_has_two.set()
                except Exception as exc:  # noqa: BLE001 - asserted below
                    errors.append((name, exc))

            stop_stats = threading.Event()
            stats_calls = []

            def poll_stats():
                while not stop_stats.is_set():
                    stats_calls.append(server.stats()["stalls"])

            readers = [threading.Thread(target=read, args=(name,),
                                        daemon=True) for name in clients]
            publishers = [
                threading.Thread(target=self._publish_like_an_uplink,
                                 args=(server, "uplink-0"), daemon=True),
                threading.Thread(target=self._publish_like_an_uplink,
                                 args=(server, "uplink-1"), daemon=True),
                threading.Thread(target=self._publish_like_a_bridge,
                                 args=(server,), daemon=True),
            ]
            statser = threading.Thread(target=poll_stats, daemon=True)
            for thread in readers + publishers + [statser]:
                thread.start()

            # While "paused" holds the publishers at its full queue no
            # more than CAPACITY + 1 seqs exist, so the resumed client,
            # two seqs in, misses at most CAPACITY - 1: all replayable.
            assert server.wait_for(lambda: server.stalls >= 1,
                                   timeout=30.0)
            assert resumed_has_two.wait(timeout=30.0)
            sockets[0].shutdown(socket.SHUT_RDWR)
            assert server.wait_for(lambda: server.resumes_served >= 1,
                                   timeout=30.0)
            paused.resume()

            for thread in publishers:
                thread.join(timeout=60.0)
            server.publish_health(HealthEvent(
                time_s=0.0, component="test", kind="end"))
            for thread in readers:
                thread.join(timeout=60.0)
            stop_stats.set()
            statser.join(timeout=60.0)
            assert not any(thread.is_alive()
                           for thread in readers + publishers + [statser])
            assert errors == []
            assert stats_calls

            total = 3 * self.PER_PUBLISHER
            held, _evicted = server._replay.since(-1)
            assert [entry[0] for entry in held] == list(range(total + 1))
            for name, seqs in received.items():
                assert all(a < b for a, b in zip(seqs, seqs[1:])), name
            for name in ("all", "paused", "resumed"):
                assert received[name] == list(range(total)), name
            # Exactly once on the wire too, not only after client dedup.
            assert clients["resumed"].duplicates_dropped == 0
            for name, subscription in (
                    ("pid", _Subscription(pids=frozenset({100}))),
                    ("sampled", _Subscription(downsample=2))):
                expected = [seq for seq, kind, _data, meta in held[:-1]
                            if subscription.admit_payload(kind, meta)]
                assert received[name] == expected, name
            assert server.stalls >= 1
            for client in clients.values():
                client.close()
        finally:
            sys.setswitchinterval(switch_interval)
            server.stop()


class TestHandshake:
    def test_bad_subscription_kind_is_refused(self, server):
        sock = socket.create_connection(("127.0.0.1", server.port),
                                        timeout=5.0)
        try:
            sock.sendall(wire.encode_frame(
                FrameKind.HELLO, wire.hello_payload("bad-client")))
            sock.sendall(wire.encode_frame(
                FrameKind.SUBSCRIBE, {"kinds": ["bogus"], "downsample": 1}))
            decoder = wire.FrameDecoder()
            frames = []
            while not frames:
                data = sock.recv(65536)
                assert data, "server closed without an error frame"
                frames = decoder.feed(data)
            assert frames[0].kind is FrameKind.ERROR
            assert "bogus" in frames[0].payload["reason"]
        finally:
            sock.close()
        assert server.subscriber_count == 0

    def test_no_common_version_is_refused(self, server):
        sock = socket.create_connection(("127.0.0.1", server.port),
                                        timeout=5.0)
        try:
            sock.sendall(wire.encode_frame(
                FrameKind.HELLO, {"agent": "future", "versions": [99]}))
            sock.sendall(wire.encode_frame(
                FrameKind.SUBSCRIBE, {"downsample": 1}))
            decoder = wire.FrameDecoder()
            frames = []
            while not frames:
                data = sock.recv(65536)
                assert data, "server closed without an error frame"
                frames = decoder.feed(data)
            assert frames[0].kind is FrameKind.ERROR
            assert "version" in frames[0].payload["reason"]
        finally:
            sock.close()

    def test_malformed_versions_list_is_refused(self, server):
        # A HELLO whose versions field is not a list of ints must get
        # an ERROR frame back, not kill the handler thread unanswered.
        for bad in (["abc"], 42):
            sock = socket.create_connection(("127.0.0.1", server.port),
                                            timeout=5.0)
            try:
                sock.sendall(wire.encode_frame(
                    FrameKind.HELLO,
                    {"agent": "mangled", "versions": bad}))
                sock.sendall(wire.encode_frame(
                    FrameKind.SUBSCRIBE, {"downsample": 1}))
                decoder = wire.FrameDecoder()
                frames = []
                while not frames:
                    data = sock.recv(65536)
                    assert data, "server closed without an error frame"
                    frames = decoder.feed(data)
                assert frames[0].kind is FrameKind.ERROR
                assert "versions" in frames[0].payload["reason"]
            finally:
                sock.close()
        assert server.subscriber_count == 0

    def test_client_validates_filters_before_dialing(self, server):
        client = TelemetryClient("127.0.0.1", server.port, kinds=["bogus"])
        with pytest.raises(WireProtocolError, match="unknown event kind"):
            client.connect()

    def test_version_negotiated_to_one(self, server):
        client = make_client(server)
        assert client.negotiated_version == wire.PROTOCOL_VERSION
        client.close()


class TestBridge:
    def test_bridge_forwards_bus_traffic(self, server):
        client = make_client(server)
        assert server.wait_for_subscribers(1)
        system = ActorSystem()
        system.spawn(TelemetryBridge(server), name="bridge")
        system.event_bus.publish(report(time_s=1.0))
        system.event_bus.publish(HealthEvent(
            time_s=1.0, component="c", kind="k"))
        system.event_bus.publish(GapMarker(
            time_s=2.0, period_s=1.0, pid=-1, source="hpc"))
        system.dispatch()
        kinds = [type(e).__name__ for e in client.collect(3)]
        assert kinds == ["ReportEvent", "HealthTelemetry", "GapTelemetry"]
        client.close()

    def test_bridge_pid_scope(self, server):
        client = make_client(server)
        assert server.wait_for_subscribers(1)
        system = ActorSystem()
        system.spawn(TelemetryBridge(server, pids=[100]), name="bridge")
        system.event_bus.publish(report(time_s=1.0, by_pid={200: 3.0}))
        system.event_bus.publish(report(time_s=2.0, by_pid={100: 4.0}))
        system.event_bus.publish(GapMarker(
            time_s=3.0, period_s=1.0, pid=200, source="hpc"))
        system.event_bus.publish(GapMarker(
            time_s=4.0, period_s=1.0, pid=100, source="hpc"))
        system.dispatch()
        events = client.collect(2)
        assert isinstance(events[0], ReportEvent)
        assert events[0].report.time_s == 2.0
        assert isinstance(events[1], GapTelemetry)
        assert events[1].marker.pid == 100
        client.close()


def _raw_subscribe(server, versions=(1, 2)):
    """Handshake a raw socket; returns (sock, decoder, leftover raw)."""
    sock = socket.create_connection(("127.0.0.1", server.port),
                                    timeout=10.0)
    sock.sendall(wire.encode_frame(
        FrameKind.HELLO, {"agent": "raw", "versions": list(versions)}))
    sock.sendall(wire.encode_frame(FrameKind.SUBSCRIBE, {"downsample": 1}))
    decoder = wire.FrameDecoder(accept_versions=versions)
    raw = b""
    frames = []
    while not frames:
        data = sock.recv(65536)
        assert data, "server closed during handshake"
        raw += data
        frames = decoder.feed(data)
    assert frames[0].kind is FrameKind.HELLO
    # Bytes past the HELLO reply belong to the stream proper.
    hello_len = len(wire.encode_frame(FrameKind.HELLO, frames[0].payload))
    return sock, decoder, raw[hello_len:]


def _outer_kinds(data):
    """Frame kinds at the outer (envelope) level of a raw byte run."""
    kinds = []
    offset = 0
    while offset + wire.HEADER_SIZE <= len(data):
        _magic, _version, kind, length = wire._HEADER.unpack_from(
            data, offset)
        kinds.append(FrameKind(kind))
        offset += wire.HEADER_SIZE + length
    return kinds


class TestBatching:
    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_frames=0)
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_bytes=0)
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_latency_s=-0.1)

    def test_batched_stream_is_transparent_to_the_client(self):
        server = TelemetryServer(
            port=0, batch=BatchPolicy(max_frames=16,
                                      max_latency_s=0.02)).start()
        try:
            client = make_client(server)
            assert server.wait_for_subscribers(1)
            for index in range(20):
                server.publish_report(report(time_s=float(index)))
            events = client.collect(20)
            assert [e.seq for e in events] == list(range(20))
            assert [e.report.time_s for e in events] == [
                float(i) for i in range(20)]
            client.close()
        finally:
            server.stop()

    def test_v2_wire_carries_batch_envelopes(self):
        server = TelemetryServer(
            port=0, batch=BatchPolicy(max_frames=16,
                                      max_latency_s=0.05)).start()
        try:
            sock, decoder, raw = _raw_subscribe(server)
            assert server.wait_for_subscribers(1)
            for index in range(6):
                server.publish_report(report(time_s=float(index)))
            frames = decoder.feed(b"")
            while len(frames) < 6:
                data = sock.recv(65536)
                assert data, "server closed mid-stream"
                raw += data
                frames.extend(decoder.feed(data))
            assert len(frames) == 6
            assert all(f.kind is FrameKind.REPORT for f in frames)
            # The latency window coalesced the burst: at least one
            # outer frame is a BATCH envelope.
            assert FrameKind.BATCH in _outer_kinds(raw)
            sock.close()
        finally:
            server.stop()

    def test_v1_subscriber_receives_bare_frames(self):
        # A PR-5-era client that only negotiated v1 must never be sent
        # a BATCH envelope, whatever the server's flush policy says.
        server = TelemetryServer(
            port=0, batch=BatchPolicy(max_frames=16,
                                      max_latency_s=0.05)).start()
        try:
            sock, decoder, raw = _raw_subscribe(server, versions=(1,))
            assert server.wait_for_subscribers(1)
            for index in range(6):
                server.publish_report(report(time_s=float(index)))
            frames = decoder.feed(b"")
            while len(frames) < 6:
                data = sock.recv(65536)
                assert data, "server closed mid-stream"
                raw += data
                frames.extend(decoder.feed(data))
            outer = _outer_kinds(raw)
            assert FrameKind.BATCH not in outer
            assert outer.count(FrameKind.REPORT) == 6
            sock.close()
        finally:
            server.stop()

    def test_max_frames_one_disables_batching(self):
        server = TelemetryServer(
            port=0, batch=BatchPolicy(max_frames=1)).start()
        try:
            sock, decoder, raw = _raw_subscribe(server)
            assert server.wait_for_subscribers(1)
            for index in range(6):
                server.publish_report(report(time_s=float(index)))
            frames = decoder.feed(b"")
            while len(frames) < 6:
                data = sock.recv(65536)
                assert data, "server closed mid-stream"
                raw += data
                frames.extend(decoder.feed(data))
            assert FrameKind.BATCH not in _outer_kinds(raw)
            sock.close()
        finally:
            server.stop()


class TestMaxSubscribers:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TelemetryServer(max_subscribers=-1)

    def test_excess_connection_gets_error_frame(self):
        server = TelemetryServer(port=0, max_subscribers=1).start()
        try:
            first = make_client(server)
            assert server.wait_for_subscribers(1)

            sock = socket.create_connection(("127.0.0.1", server.port),
                                            timeout=10.0)
            sock.sendall(wire.encode_frame(
                FrameKind.HELLO, wire.hello_payload("overflow")))
            sock.sendall(wire.encode_frame(
                FrameKind.SUBSCRIBE, {"downsample": 1}))
            decoder = wire.FrameDecoder()
            frames = []
            while not frames:
                data = sock.recv(65536)
                assert data, "server closed without an error frame"
                frames = decoder.feed(data)
            assert frames[0].kind is FrameKind.ERROR
            assert "subscriber limit reached (1)" \
                in frames[0].payload["reason"]
            sock.close()

            stats = server.stats()
            assert stats["connections_refused"] == 1
            assert server.subscriber_count == 1

            # A slot freed by a disconnect is usable again.
            first.close()
            assert server.wait_for(
                lambda: server.subscriber_count == 0)
            second = make_client(server)
            assert server.wait_for_subscribers(1)
            server.publish_report(report())
            assert len(second.collect(1)) == 1
            second.close()
        finally:
            server.stop()

    def test_client_surfaces_refusal(self):
        from repro.errors import TelemetryError
        server = TelemetryServer(port=0, max_subscribers=1).start()
        try:
            first = make_client(server)
            assert server.wait_for_subscribers(1)
            blocked = TelemetryClient("127.0.0.1", server.port,
                                      read_timeout_s=10.0)
            with pytest.raises(TelemetryError,
                               match="subscriber limit"):
                blocked.connect()
            first.close()
        finally:
            server.stop()


class TestServerLifecycle:
    def test_configuration_validation(self):
        with pytest.raises(ConfigurationError):
            TelemetryServer(queue_capacity=0)
        with pytest.raises(ConfigurationError):
            TelemetryServer(overflow="nope")
        with pytest.raises(ConfigurationError):
            TelemetryServer(heartbeat_every=-1)

    def test_stop_is_idempotent_and_ends_clients(self, server):
        client = make_client(server)
        assert server.wait_for_subscribers(1)
        server.stop()
        server.stop()
        assert list(client.events()) == []  # clean end, no exception

    def test_failed_bind_closes_the_listener(self, server, monkeypatch):
        """A port in use makes ``start()`` raise, and the listening
        socket it opened is closed, not left to the garbage collector."""
        opened = []

        class Recorded(socket.socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        monkeypatch.setattr(socket, "socket", Recorded)
        with pytest.raises(OSError):
            TelemetryServer(port=server.port).start()
        assert len(opened) == 1
        assert opened[0].fileno() == -1

    def test_ephemeral_ports_are_distinct(self):
        one = TelemetryServer(port=0).start()
        two = TelemetryServer(port=0).start()
        try:
            assert one.port != two.port
        finally:
            one.stop()
            two.stop()
