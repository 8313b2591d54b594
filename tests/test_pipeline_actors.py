"""Unit tests for the PowerAPI actor pipeline: messages, sensors,
formulas, aggregators, reporters."""

import io

import pytest

from repro.actors.clock import ClockTick
from repro.actors.system import ActorSystem
from repro.core.aggregators import (FlushAggregates, PidAggregator,
                                    PidEnergyReport, TimestampAggregator)
from repro.core.formula import CpuLoadFormula, HpcFormula
from repro.core.messages import (AggregatedPowerReport, HpcReport,
                                 PowerReport, ProcFsReport)
from repro.core.model import FrequencyFormula, PowerModel
from repro.core.reporters import (CallbackReporter, ConsoleReporter,
                                  CsvReporter, InMemoryReporter)
from repro.errors import ConfigurationError
from repro.units import ghz


@pytest.fixture
def system():
    return ActorSystem()


@pytest.fixture
def model():
    return PowerModel(idle_w=30.0, formulas=[
        FrequencyFormula(ghz(3.3), {"instructions": 1e-9}),
        FrequencyFormula(ghz(1.6), {"instructions": 5e-10}),
    ], name="test-model")


def hpc_report(time_s=1.0, pid=100, instructions=2e9, frequency=ghz(3.3),
               period_s=1.0):
    return HpcReport(time_s=time_s, period_s=period_s, pid=-1,
                     events=("instructions",),
                     counters={pid: (instructions,)},
                     frequency_hz=frequency)


class PowerCollector(InMemoryReporter):
    """Records the formula's raw :class:`PowerReport` batches."""

    def __init__(self):
        super().__init__()
        self.reports = []

    def pre_start(self):
        self.context.system.event_bus.subscribe(PowerReport, self.self_ref)

    def receive(self, message):
        self.reports.append(message)


class TestMessages:
    def test_hpc_rates(self, system, model):
        # Counts over a 2 s period are 2e9 instructions/s: 2 W here.
        collector = PowerCollector()
        system.spawn(collector, "collector")
        system.spawn(HpcFormula(model), "formula")
        system.event_bus.publish(hpc_report(time_s=2.0, pid=1,
                                            instructions=4e9, period_s=2.0))
        system.dispatch()
        assert collector.reports[0].by_pid[1] == pytest.approx(2.0)

    def test_report_rejects_bad_period(self):
        with pytest.raises(ConfigurationError):
            HpcReport(time_s=0.0, period_s=0.0, pid=1)

    def test_power_report_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            PowerReport(time_s=0, period_s=1, by_pid={1: 2.0, 2: -1},
                        formula="x")

    def test_aggregated_totals(self):
        report = AggregatedPowerReport(
            time_s=1.0, period_s=1.0, by_pid={1: 5.0, 2: 3.0},
            idle_w=30.0, formula="f")
        assert report.active_w == 8.0
        assert report.total_w == 38.0
        assert report.pids() == (1, 2)


class TestHpcFormula:
    def test_applies_model_at_frequency(self, system, model):
        collector = PowerCollector()
        system.spawn(collector, "collector")
        system.spawn(HpcFormula(model), "formula")
        system.event_bus.publish(hpc_report(instructions=2e9,
                                            frequency=ghz(3.3)))
        system.dispatch()
        reports = collector.reports
        assert len(reports) == 1
        assert reports[0].by_pid[100] == pytest.approx(2.0)
        assert reports[0].formula == "test-model"

    def test_nearest_frequency_used(self, system, model):
        collector = PowerCollector()
        system.spawn(collector, "collector")
        system.spawn(HpcFormula(model), "formula")
        system.event_bus.publish(hpc_report(instructions=2e9,
                                            frequency=ghz(1.8)))
        system.dispatch()
        # 1.6 GHz formula
        assert collector.reports[0].by_pid[100] == pytest.approx(1.0)


class TestCpuLoadFormula:
    def test_share_of_range(self, system):
        collector = PowerCollector()
        system.spawn(collector, "collector")
        system.spawn(CpuLoadFormula(active_range_w=40.0, num_cpus=4),
                     "formula")
        system.event_bus.publish(ProcFsReport(
            time_s=1.0, period_s=1.0, pid=-1, cpu_time_delta_s={1: 1.0}))
        system.dispatch()
        # One CPU fully busy of four: a quarter of the range.
        assert collector.reports[0].by_pid[1] == pytest.approx(10.0)

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            CpuLoadFormula(active_range_w=-1, num_cpus=4)
        with pytest.raises(ConfigurationError):
            CpuLoadFormula(active_range_w=10, num_cpus=0)


class TestTimestampAggregator:
    def test_groups_by_timestamp(self, system):
        reporter = InMemoryReporter()
        system.spawn(TimestampAggregator(idle_w=30.0), "agg")
        system.spawn(reporter, "rep")
        system.event_bus.publish(PowerReport(
            time_s=1.0, period_s=1.0, by_pid={1: 5.0, 2: 5.0}, formula="f"))
        # Next timestamp flushes the previous one.
        system.event_bus.publish(PowerReport(
            time_s=2.0, period_s=1.0, by_pid={1: 7.0}, formula="f"))
        system.dispatch()
        assert len(reporter.aggregated) == 1
        first = reporter.aggregated[0]
        assert first.time_s == 1.0
        assert first.by_pid == {1: 5.0, 2: 5.0}
        assert first.total_w == pytest.approx(40.0)

    def test_flush_emits_pending(self, system):
        reporter = InMemoryReporter()
        system.spawn(TimestampAggregator(idle_w=30.0), "agg")
        system.spawn(reporter, "rep")
        system.event_bus.publish(PowerReport(
            time_s=1.0, period_s=1.0, by_pid={1: 5.0}, formula="f"))
        system.event_bus.publish(FlushAggregates())
        system.dispatch()
        assert len(reporter.aggregated) == 1

    def test_same_pid_same_timestamp_sums(self, system):
        reporter = InMemoryReporter()
        system.spawn(TimestampAggregator(idle_w=0.0), "agg")
        system.spawn(reporter, "rep")
        for _ in range(2):
            system.event_bus.publish(PowerReport(
                time_s=1.0, period_s=1.0, by_pid={1: 2.0}, formula="f"))
        system.event_bus.publish(FlushAggregates())
        system.dispatch()
        assert reporter.aggregated[0].by_pid == {1: 4.0}


class TestPidAggregator:
    def test_integrates_energy(self, system):
        aggregator = PidAggregator()
        system.spawn(aggregator, "agg")
        for t in (1.0, 2.0, 3.0):
            system.event_bus.publish(PowerReport(
                time_s=t, period_s=1.0, by_pid={7: 4.0}, formula="f"))
        system.dispatch()
        assert aggregator.energy_by_pid_j == {7: pytest.approx(12.0)}

    def test_flush_publishes_summary(self, system):
        summaries = []

        class Collector(InMemoryReporter):
            def pre_start(self):
                self.context.system.event_bus.subscribe(
                    PidEnergyReport, self.self_ref)

            def receive(self, message):
                summaries.append(message)

        system.spawn(Collector(), "collector")
        system.spawn(PidAggregator(), "agg")
        system.event_bus.publish(PowerReport(
            time_s=1.0, period_s=1.0, by_pid={7: 4.0}, formula="f"))
        system.event_bus.publish(FlushAggregates())
        system.dispatch()
        assert summaries[0].energy_by_pid_j == {7: pytest.approx(4.0)}
        assert summaries[0].total_j() == pytest.approx(4.0)


class TestReporters:
    def test_in_memory_series(self, system):
        reporter = InMemoryReporter()
        system.spawn(reporter, "rep")
        system.event_bus.publish(AggregatedPowerReport(
            time_s=1.0, period_s=1.0, by_pid={1: 5.0}, idle_w=30.0,
            formula="f"))
        system.dispatch()
        assert reporter.total_series() == [35.0]
        assert reporter.time_series() == [1.0]
        assert reporter.pid_series(1) == [5.0]
        assert reporter.pid_series(99) == [0.0]

    def test_console_reporter_writes_lines(self, system):
        stream = io.StringIO()
        reporter = ConsoleReporter(stream=stream)
        system.spawn(reporter, "rep")
        system.event_bus.publish(AggregatedPowerReport(
            time_s=1.0, period_s=1.0, by_pid={1: 5.0}, idle_w=30.0,
            formula="f"))
        system.dispatch()
        output = stream.getvalue()
        assert "total= 35.00W" in output
        assert "pid1" in output
        assert reporter.lines_written == 1

    def test_csv_reporter(self, system, tmp_path):
        path = tmp_path / "power.csv"
        reporter = CsvReporter(path, pids=[1, 2])
        ref = system.spawn(reporter, "rep")
        system.event_bus.publish(AggregatedPowerReport(
            time_s=1.0, period_s=1.0, by_pid={1: 5.0}, idle_w=30.0,
            formula="f"))
        system.dispatch()
        system.stop(ref)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time_s,total_w,idle_w,pid_1_w,pid_2_w,gap"
        assert lines[1].startswith("1.000,35.0000,30.0000,5.0000,0.0000,0")

    def test_callback_reporter(self, system):
        seen = []
        system.spawn(CallbackReporter(seen.append), "rep")
        system.event_bus.publish(AggregatedPowerReport(
            time_s=1.0, period_s=1.0, by_pid={}, idle_w=30.0, formula="f"))
        system.dispatch()
        assert len(seen) == 1
