"""Telemetry client tests: iteration, reconnect across a server
restart, and the shared backoff idiom."""

import threading

import pytest

from repro.core.messages import AggregatedPowerReport
from repro.errors import (ConfigurationError, TelemetryConnectionError,
                          TelemetryError)
from repro.faults.backoff import ExponentialBackoff
from repro.telemetry import wire
from repro.telemetry.client import ReconnectPolicy, TelemetryClient
from repro.telemetry.server import TelemetryServer

pytestmark = pytest.mark.telemetry


def report(time_s=1.0, watts=5.5):
    return AggregatedPowerReport(
        time_s=time_s, period_s=1.0, by_pid={100: watts},
        idle_w=31.48, formula="hpc")


class TestExponentialBackoff:
    def test_schedule_doubles_and_caps(self):
        backoff = ExponentialBackoff(base_s=0.1, factor=2.0, max_s=0.5)
        assert [backoff.next_delay_s() for _ in range(5)] == [
            pytest.approx(0.1), pytest.approx(0.2), pytest.approx(0.4),
            pytest.approx(0.5), pytest.approx(0.5)]
        assert backoff.attempts == 5

    def test_reset(self):
        backoff = ExponentialBackoff(base_s=1.0)
        backoff.next_delay_s()
        backoff.next_delay_s()
        backoff.reset()
        assert backoff.attempts == 0
        assert backoff.next_delay_s() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExponentialBackoff(base_s=0.0)
        with pytest.raises(ConfigurationError):
            ExponentialBackoff(factor=0.5)
        with pytest.raises(ConfigurationError):
            ExponentialBackoff(base_s=2.0, max_s=1.0)


class TestClientBasics:
    def test_context_manager_and_counters(self):
        server = TelemetryServer(port=0).start()
        try:
            with TelemetryClient("127.0.0.1", server.port) as client:
                assert server.wait_for_subscribers(1)
                server.publish_report(report(time_s=1.0))
                (event,) = client.collect(1)
                assert event.report.by_pid == {100: 5.5}
                assert client.frames_received == 1
                assert client.reconnects == 0
        finally:
            server.stop()

    def test_closed_client_cannot_reconnect(self):
        server = TelemetryServer(port=0).start()
        try:
            client = TelemetryClient("127.0.0.1", server.port).connect()
            client.close()
            with pytest.raises(TelemetryError, match="closed"):
                client.connect()
        finally:
            server.stop()

    def test_iteration_without_reconnect_ends_on_server_stop(self):
        server = TelemetryServer(port=0).start()
        client = TelemetryClient("127.0.0.1", server.port).connect()
        assert server.wait_for_subscribers(1)
        server.publish_report(report(time_s=1.0))
        events = client.events()
        assert next(events).report.time_s == 1.0
        server.stop()
        assert list(events) == []  # clean end, not an error
        client.close()

    def test_close_during_read_ends_iteration(self):
        # Regression: close() on another thread cleared _sock/_decoder
        # while events() sat between recv() and feed(), and the
        # iterating thread died with an AttributeError.  The transport
        # replays that interleaving deterministically: its recv() runs
        # close() before handing the bytes back.
        class CloseOnRecv:
            def __init__(self, sock):
                self.sock = sock
                self.client = None  # armed once the handshake is done

            def __getattr__(self, name):
                return getattr(self.sock, name)

            def recv(self, size):
                data = self.sock.recv(size)
                if self.client is not None:
                    self.client.close()
                return data

        wrappers = []

        def wrap(sock):
            wrappers.append(CloseOnRecv(sock))
            return wrappers[-1]

        server = TelemetryServer(port=0).start()
        try:
            client = TelemetryClient("127.0.0.1", server.port,
                                     read_timeout_s=10.0,
                                     transport=wrap).connect()
            assert server.wait_for_subscribers(1)
            wrappers[0].client = client
            server.publish_report(report(time_s=1.0))
            assert list(client.events()) == []  # ends, does not raise
            assert not client.connected
        finally:
            server.stop()


class TestEventBatching:
    def test_max_events_mid_batch_keeps_decoded_tail(self):
        # Regression: when max_events was reached partway through a
        # decoded batch, the remaining frames were discarded instead of
        # stashed back into _pending — a later events()/collect() call
        # silently lost events already received off the wire.
        client = TelemetryClient("127.0.0.1", 1)
        client._sock = object()  # "connected"; only _pending is drained
        client._pending = wire.FrameDecoder().feed(b"".join(
            wire.report_frame(report(time_s=float(index)), host="h",
                              seq=index)
            for index in range(3)))
        (first,) = list(client.events(max_events=1))
        assert first.report.time_s == 0.0
        assert len(client._pending) == 2  # decoded tail survives the cap
        second, third = list(client.events(max_events=2))
        assert (second.report.time_s, third.report.time_s) == (1.0, 2.0)
        assert client.frames_received == 3


class TestReconnect:
    def test_resumes_across_server_restart(self):
        server1 = TelemetryServer(port=0).start()
        port = server1.port
        sleeps = []
        client = TelemetryClient(
            "127.0.0.1", port,
            reconnect=ReconnectPolicy(base_s=0.01, max_s=0.05),
            sleep=lambda s: sleeps.append(s))
        events = client.events()
        # The client connects lazily on first next(); force the dial.
        client.connect()
        assert server1.wait_for_subscribers(1)
        server1.publish_report(report(time_s=1.0, watts=1.0))
        assert next(events).report.time_s == 1.0

        server1.stop()
        server2 = TelemetryServer(port=port).start()
        try:
            # Publish as soon as the re-subscription lands; next(events)
            # meanwhile drives the reconnect loop.
            publisher = threading.Thread(target=lambda: (
                server2.wait_for_subscribers(1, timeout=10.0)
                and server2.publish_report(report(time_s=2.0, watts=2.0))),
                daemon=True)
            publisher.start()
            event = next(events)
            publisher.join(timeout=10.0)
            assert event.report.time_s == 2.0
            assert client.reconnects == 1
            assert client.negotiated_version == wire.PROTOCOL_VERSION
            # The backoff schedule was consulted, not a busy loop.
            assert sleeps and all(delay <= 0.05 for delay in sleeps)
        finally:
            client.close()
            server2.stop()

    def test_gives_up_after_max_attempts(self):
        server = TelemetryServer(port=0).start()
        port = server.port
        client = TelemetryClient(
            "127.0.0.1", port,
            reconnect=ReconnectPolicy(base_s=0.001, max_s=0.002,
                                      max_attempts=3),
            sleep=lambda s: None)
        events = client.events()
        client.connect()
        assert server.wait_for_subscribers(1)
        server.publish_report(report(time_s=1.0))
        assert next(events).report.time_s == 1.0
        server.stop()  # nothing ever comes back on this port
        with pytest.raises(TelemetryConnectionError, match="gave up"):
            next(events)
        assert client.reconnects == 0
        client.close()
