"""Fleet aggregation tests: merging host streams (live and direct-fed)
into cluster-level series, tolerating out-of-order and gap input —
plus the end-to-end PowerAPI → serve_telemetry → fleet path."""

import pytest

from repro.core.messages import AggregatedPowerReport
from repro.core.model import FrequencyFormula, PowerModel
from repro.core.monitor import PowerAPI
from repro.core.reporters import InMemoryReporter
from repro.errors import ConfigurationError
from repro.os.kernel import SimKernel
from repro.simcpu.spec import intel_i3_2120
from repro.telemetry.fleet import FleetAggregator
from repro.telemetry.server import TelemetryServer
from repro.workloads.stress import CpuStress

pytestmark = pytest.mark.telemetry


def report(time_s, watts=5.0, gap=False, idle_w=30.0):
    return AggregatedPowerReport(
        time_s=time_s, period_s=1.0,
        by_pid={} if gap else {100: watts},
        idle_w=idle_w, formula="hpc", gap=gap)


class TestDirectIngest:
    def test_cluster_series_sums_hosts_per_timestamp(self):
        fleet = FleetAggregator()
        fleet.register_host("a")
        fleet.register_host("b")
        fleet.ingest("a", report(1.0, watts=5.0))
        fleet.ingest("b", report(1.0, watts=7.0))
        fleet.ingest("a", report(2.0, watts=6.0))
        points = fleet.cluster_series()
        assert [p.time_s for p in points] == [1.0, 2.0]
        assert points[0].total_w == pytest.approx(72.0)  # 35 + 37
        assert points[0].complete is True
        assert points[0].by_host == {"a": pytest.approx(35.0),
                                     "b": pytest.approx(37.0)}
        assert points[1].complete is False  # host b missing at t=2

    def test_out_of_order_reports_are_sorted_in(self):
        fleet = FleetAggregator()
        fleet.register_host("a")
        for time_s in (3.0, 1.0, 2.0):
            fleet.ingest("a", report(time_s))
        assert [s.time_s for s in fleet.host_series("a")] == [1.0, 2.0, 3.0]
        assert fleet.out_of_order_count() == 2
        assert [p.time_s for p in fleet.cluster_series()] == [1.0, 2.0, 3.0]

    def test_gap_marked_input_is_tolerated_not_summed(self):
        fleet = FleetAggregator()
        fleet.register_host("a")
        fleet.register_host("b")
        fleet.ingest("a", report(1.0, watts=5.0))
        fleet.ingest("b", report(1.0, gap=True))
        (point,) = fleet.cluster_series()
        assert point.total_w == pytest.approx(35.0)
        assert point.gap_hosts == ("b",)
        assert point.complete is False

    def test_cluster_energy_skips_gaps(self):
        fleet = FleetAggregator()
        fleet.ingest("a", report(1.0, watts=10.0))  # 40 W * 1 s
        fleet.ingest("a", report(2.0, gap=True))
        fleet.ingest("a", report(3.0, watts=10.0))
        assert fleet.cluster_energy_j() == pytest.approx(80.0)

    def test_duplicate_registration_rejected(self):
        fleet = FleetAggregator()
        fleet.register_host("a")
        with pytest.raises(ConfigurationError):
            fleet.register_host("a")

    def test_duplicate_timestamp_latest_wins(self):
        fleet = FleetAggregator()
        fleet.ingest("a", report(1.0, watts=5.0))
        fleet.ingest("a", report(1.0, watts=9.0))  # resent after reconnect
        (point,) = fleet.cluster_series()
        assert point.by_host["a"] == pytest.approx(39.0)


class TestLiveFleet:
    def test_merges_two_servers_with_host_labels(self):
        servers = {
            "machine-0": TelemetryServer(port=0,
                                         host_label="machine-0").start(),
            "machine-1": TelemetryServer(port=0,
                                         host_label="machine-1").start(),
        }
        fleet = FleetAggregator()
        try:
            for name, server in servers.items():
                fleet.add_host(name, "127.0.0.1", server.port)
                assert server.wait_for_subscribers(1)
            # machine-1 publishes out of order; machine-0 has a gap.
            servers["machine-0"].publish_report(report(1.0, watts=4.0))
            servers["machine-0"].publish_report(report(2.0, gap=True))
            servers["machine-1"].publish_report(report(2.0, watts=6.0))
            servers["machine-1"].publish_report(report(1.0, watts=5.0))
            assert fleet.wait_for_samples(4)
            points = fleet.cluster_series()
            assert [p.time_s for p in points] == [1.0, 2.0]
            assert points[0].total_w == pytest.approx(34.0 + 35.0)
            assert points[0].complete is True
            assert points[1].by_host == {"machine-1": pytest.approx(36.0)}
            assert points[1].gap_hosts == ("machine-0",)
            assert fleet.out_of_order_count() == 1
        finally:
            fleet.close()
            for server in servers.values():
                server.stop()


class TestEndToEnd:
    """Monitor pipeline → serve_telemetry → client/fleet, full stack."""

    @pytest.fixture
    def model(self):
        formulas = [FrequencyFormula(f, {"instructions": 3e-9,
                                         "cache-references": 2e-8,
                                         "cache-misses": 2e-7})
                    for f in intel_i3_2120().frequencies_hz]
        return PowerModel(idle_w=31.48, formulas=formulas, name="unit-model")

    def test_served_stream_matches_in_memory_reporter(self, model):
        kernel = SimKernel(intel_i3_2120(), quantum_s=0.02)
        pid = kernel.spawn(CpuStress(duration_s=10.0))
        api = PowerAPI(kernel, model)
        handle = api.monitor(pid).every(1.0).to(InMemoryReporter())
        server = api.serve_telemetry(host_label="sim-0")
        fleet = FleetAggregator()
        fleet.add_host("sim-0", "127.0.0.1", server.port)
        assert server.wait_for_subscribers(1)
        api.run(4.0)
        expected = len(handle.reporter.aggregated)
        assert expected >= 3
        assert fleet.wait_for_samples(expected)
        fleet_series = [s.total_w for s in fleet.host_series("sim-0")]
        assert fleet_series == pytest.approx(
            handle.reporter.total_series())
        fleet.close()
        api.shutdown()
        assert server.subscriber_count == 0

    def test_shutdown_stops_served_telemetry(self, model):
        kernel = SimKernel(intel_i3_2120(), quantum_s=0.02)
        api = PowerAPI(kernel, model)
        server = api.serve_telemetry()
        port = server.port
        assert len(api.telemetry_servers) == 1
        api.shutdown()
        # The listener is gone: a fresh server can take the port.
        replacement = TelemetryServer(port=port).start()
        replacement.stop()


class TestSeqDedup:
    """(host, seq) dedup: replayed frames never double-count watts."""

    def test_duplicate_seq_dropped(self):
        fleet = FleetAggregator()
        fleet.ingest("hostA", report(1.0, watts=5.0), seq=0)
        fleet.ingest("hostA", report(2.0, watts=6.0), seq=1)
        fleet.ingest("hostA", report(2.0, watts=6.0), seq=1)  # replay
        assert fleet.duplicate_count() == 1
        assert fleet.samples_ingested == 2
        assert [sample.time_s for sample in fleet.host_series("hostA")] \
            == [1.0, 2.0]
        assert fleet.cluster_energy_j() == pytest.approx(5.0 + 30.0
                                                         + 6.0 + 30.0)

    def test_dedup_is_per_host(self):
        fleet = FleetAggregator()
        fleet.ingest("hostA", report(1.0), seq=0)
        fleet.ingest("hostB", report(1.0), seq=0)  # same seq, other host
        assert fleet.duplicate_count() == 0
        assert len(fleet.cluster_series()) == 1
        assert fleet.cluster_series()[0].complete

    def test_seqless_input_never_deduped(self):
        fleet = FleetAggregator()
        fleet.ingest("hostA", report(1.0))
        fleet.ingest("hostA", report(1.0))
        assert fleet.duplicate_count() == 0
        assert fleet.samples_ingested == 2

    def test_live_replay_does_not_double_count(self, tmp_path):
        """End to end: a fleet client that crashes and resumes re-reads
        replayed frames off the wire; the aggregator merges each seq
        exactly once."""
        server = TelemetryServer(port=0, host_label="m1",
                                 replay_window=64).start()
        try:
            fleet = FleetAggregator()
            client = fleet.add_host("m1", "127.0.0.1", server.port,
                                    spool=tmp_path)
            server.wait_for(lambda: server.subscriber_count == 1)
            for time_s in (1.0, 2.0, 3.0):
                server.publish_report(report(time_s))
            assert fleet.wait_for_samples(3)
            client.close()

            for time_s in (4.0, 5.0):  # missed while down
                server.publish_report(report(time_s))
            restarted = fleet._streams["m1"]
            restarted.client = None  # the drain thread exited with close
            from repro.telemetry.client import TelemetryClient
            import threading
            resumed = TelemetryClient("127.0.0.1", server.port,
                                      kinds=("report",), spool=tmp_path)
            thread = threading.Thread(
                target=fleet._drain, args=("m1", resumed), daemon=True)
            thread.start()
            assert fleet.wait_for_samples(5)
            resumed.close()
            thread.join(timeout=5.0)

            times = [s.time_s for s in fleet.host_series("m1")]
            assert times == [1.0, 2.0, 3.0, 4.0, 5.0]
            assert fleet.duplicate_count() == 0  # RESUME replays exactly
        finally:
            server.stop()
