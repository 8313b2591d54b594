"""Unit tests for the PowerAPI facade (repro.core.monitor)."""

import pytest

from repro.core.model import FrequencyFormula, PowerModel
from repro.core.monitor import PowerAPI
from repro.core.reporters import InMemoryReporter
from repro.errors import ConfigurationError
from repro.os.kernel import SimKernel
from repro.powermeter.powerspy import PowerSpy
from repro.simcpu.spec import intel_i3_2120
from repro.units import ghz
from repro.workloads.stress import CpuStress
from repro.workloads.idle import IdleWorkload


@pytest.fixture
def model():
    # A simple but sane model for pipeline tests.
    formulas = [FrequencyFormula(f, {"instructions": 3e-9,
                                     "cache-references": 2e-8,
                                     "cache-misses": 2e-7})
                for f in intel_i3_2120().frequencies_hz]
    return PowerModel(idle_w=31.48, formulas=formulas, name="unit-model")


@pytest.fixture
def kernel():
    return SimKernel(intel_i3_2120(), quantum_s=0.02)


class TestBuilder:
    def test_requires_pids(self, kernel, model):
        api = PowerAPI(kernel, model)
        with pytest.raises(ConfigurationError):
            api.monitor()

    def test_rejects_bad_period(self, kernel, model):
        api = PowerAPI(kernel, model)
        with pytest.raises(ConfigurationError):
            api.monitor(1).every(0.0)

    def test_rejects_unknown_formula(self, kernel, model):
        api = PowerAPI(kernel, model)
        with pytest.raises(ConfigurationError):
            api.monitor(1).with_formula("neural")

    def test_rejects_empty_events(self, kernel, model):
        api = PowerAPI(kernel, model)
        with pytest.raises(ConfigurationError):
            api.monitor(1).with_events([])


class TestMonitoring:
    def test_reports_once_per_period(self, kernel, model):
        pid = kernel.spawn(CpuStress(duration_s=10.0))
        api = PowerAPI(kernel, model)
        handle = api.monitor(pid).every(0.5).to(InMemoryReporter())
        api.run(3.0)
        api.flush()
        # 6 periods (the last may need the flush).
        assert len(handle.reporter.aggregated) == 6

    def test_estimates_above_idle_under_load(self, kernel, model):
        pid = kernel.spawn(CpuStress(duration_s=10.0, threads=4))
        api = PowerAPI(kernel, model)
        handle = api.monitor(pid).every(1.0).to(InMemoryReporter())
        api.run(3.0)
        assert all(total > model.idle_w + 1
                   for total in handle.reporter.total_series())

    def test_idle_process_estimates_near_idle(self, kernel, model):
        pid = kernel.spawn(IdleWorkload())
        api = PowerAPI(kernel, model)
        handle = api.monitor(pid).every(1.0).to(InMemoryReporter())
        api.run(3.0)
        for total in handle.reporter.total_series():
            assert total == pytest.approx(model.idle_w, abs=0.5)

    def test_multiple_pids_attributed_separately(self, kernel, model):
        heavy = kernel.spawn(CpuStress(duration_s=10.0), name="heavy")
        light = kernel.spawn(CpuStress(utilization=0.2, duration_s=10.0),
                             name="light")
        api = PowerAPI(kernel, model)
        handle = api.monitor(heavy, light).every(1.0).to(InMemoryReporter())
        api.run(4.0)
        heavy_mean = sum(handle.reporter.pid_series(heavy)) / 4
        light_mean = sum(handle.reporter.pid_series(light)) / 4
        assert heavy_mean > 3 * light_mean > 0

    def test_pid_aggregator_accumulates_energy(self, kernel, model):
        pid = kernel.spawn(CpuStress(duration_s=10.0))
        api = PowerAPI(kernel, model)
        handle = api.monitor(pid).every(1.0).to(InMemoryReporter())
        api.run(3.0)
        assert handle.pid_aggregator.energy_by_pid_j[pid] > 0

    def test_cpu_load_formula_pipeline(self, kernel, model):
        pid = kernel.spawn(CpuStress(duration_s=10.0))
        api = PowerAPI(kernel, model)
        handle = (api.monitor(pid).every(1.0).with_formula("cpu-load")
                  .to(InMemoryReporter()))
        api.run(3.0)
        series = handle.reporter.total_series()
        assert len(series) >= 2
        assert all(total > model.idle_w for total in series)

    def test_run_until_idle_stops(self, kernel, model):
        pid = kernel.spawn(CpuStress(duration_s=0.5))
        api = PowerAPI(kernel, model)
        api.monitor(pid).every(0.25).to(InMemoryReporter())
        api.run_until_idle(max_duration_s=5.0)
        assert kernel.time_s < 1.0

    def test_run_until_idle_deadline_is_relative_to_the_call(self, model):
        """Like SimKernel.run_until_idle: at most *max_duration_s* more,
        not until absolute time *max_duration_s*."""
        kernel = SimKernel(intel_i3_2120(), quantum_s=0.01)
        pid = kernel.spawn(CpuStress(duration_s=8.0))
        api = PowerAPI(kernel, model)
        api.monitor(pid).every(1.0).to(InMemoryReporter())
        api.run(6.0)
        api.run_until_idle(max_duration_s=5.0)
        assert kernel.live_pids == ()
        assert kernel.time_s == pytest.approx(8.01)

    def test_run_until_idle_stops_at_its_deadline(self, kernel, model):
        pid = kernel.spawn(CpuStress(duration_s=8.0))
        api = PowerAPI(kernel, model)
        api.monitor(pid).every(0.5).to(InMemoryReporter())
        api.run(1.0)
        api.run_until_idle(max_duration_s=0.3)
        assert kernel.live_pids == (pid,)
        assert kernel.time_s == pytest.approx(1.3)

    def test_attach_meter_publishes(self, kernel, model):
        from repro.core.messages import PowerMeterReport
        from repro.actors.actor import Actor

        seen = []

        class Collector(Actor):
            def pre_start(self):
                self.context.system.event_bus.subscribe(
                    PowerMeterReport, self.self_ref)

            def receive(self, message):
                seen.append(message)

        pid = kernel.spawn(CpuStress(duration_s=10.0))
        api = PowerAPI(kernel, model)
        api.system.spawn(Collector(), "collector")
        api.attach_meter(PowerSpy(kernel.machine, seed=1), name="meter")
        api.monitor(pid).every(1.0).to(InMemoryReporter())
        api.run(3.0)
        assert len(seen) >= 2
        assert seen[-1].power_w > 0

    def test_shutdown_cleans_up(self, kernel, model):
        pid = kernel.spawn(CpuStress(duration_s=10.0))
        api = PowerAPI(kernel, model)
        api.monitor(pid).every(1.0).to(InMemoryReporter())
        api.shutdown()
        assert api.system.actor_names() == ()

    def test_shutdown_releases_the_pipeline(self, kernel, model):
        """After shutdown nothing is monitored, and the API, whose perf
        session is closed, refuses a pipeline it could not feed."""
        pid = kernel.spawn(CpuStress(duration_s=10.0))
        api = PowerAPI(kernel, model)
        handle = api.monitor(pid).every(1.0).to(InMemoryReporter())
        api.shutdown()
        assert api.monitored_pids() == ()
        assert handle._refs == []
        with pytest.raises(ConfigurationError, match="shut down"):
            api.monitor(pid).every(1.0).to(InMemoryReporter())
        api.shutdown()  # still idempotent

    def test_handle_stop_halts_reporting(self, kernel, model):
        pid = kernel.spawn(CpuStress(duration_s=10.0))
        api = PowerAPI(kernel, model)
        handle = api.monitor(pid).every(1.0).to(InMemoryReporter())
        api.run(2.0)
        count = len(handle.reporter.aggregated)
        handle.stop()
        api.run(2.0)
        assert len(handle.reporter.aggregated) == count

    def test_rejects_negative_run(self, kernel, model):
        api = PowerAPI(kernel, model)
        with pytest.raises(ConfigurationError):
            api.run(-1.0)
