"""Failure-injection tests: the pipeline under adverse conditions.

A monitoring middleware earns its keep when things go wrong: meters
drop, processes die mid-run, formula actors crash on poisoned input.
These tests drive those paths end-to-end.
"""

import pytest

from repro.actors.actor import Actor
from repro.actors.supervision import RestartStrategy, StopStrategy
from repro.actors.system import ActorSystem
from repro.core.formula import HpcFormula
from repro.core.messages import HpcReport, PowerReport
from repro.core.model import FrequencyFormula, PowerModel
from repro.core.monitor import PowerAPI
from repro.core.reporters import InMemoryReporter
from repro.errors import ActorStoppedError
from repro.os.kernel import SimKernel
from repro.powermeter.powerspy import PowerSpy
from repro.simcpu.spec import amd_fx_8120, intel_i3_2120
from repro.workloads.stress import CpuStress


@pytest.fixture
def spec():
    return intel_i3_2120()


@pytest.fixture
def model(spec):
    formulas = [FrequencyFormula(f, {"instructions": 3e-9,
                                     "cache-references": 2e-8,
                                     "cache-misses": 2e-7})
                for f in spec.frequencies_hz]
    return PowerModel(idle_w=31.48, formulas=formulas)


class TestProcessChurn:
    def test_monitored_process_exits_midway(self, spec, model):
        kernel = SimKernel(spec, quantum_s=0.02)
        short = kernel.spawn(CpuStress(duration_s=2.0), name="short")
        long = kernel.spawn(CpuStress(duration_s=100.0), name="long")
        api = PowerAPI(kernel, model, period_s=0.5)
        handle = api.monitor(short, long).every(0.5).to(InMemoryReporter())
        api.run(5.0)
        # After the short process exits its estimate drops to ~zero while
        # the long one keeps being attributed power.
        last = handle.reporter.aggregated[-1]
        assert last.by_pid.get(short, 0.0) == pytest.approx(0.0, abs=0.2)
        assert last.by_pid[long] > 1.0
        api.shutdown()

    def test_killed_process_stops_consuming(self, spec, model):
        kernel = SimKernel(spec, quantum_s=0.02)
        pid = kernel.spawn(CpuStress(duration_s=100.0))
        api = PowerAPI(kernel, model, period_s=0.5)
        handle = api.monitor(pid).every(0.5).to(InMemoryReporter())
        api.run(2.0)
        kernel.kill(pid)
        api.run(2.0)
        series = handle.reporter.pid_series(pid)
        assert series[0] > 1.0
        assert series[-1] == pytest.approx(0.0, abs=0.2)
        api.shutdown()


class TestMeterFailures:
    def test_disconnected_meter_keeps_samples(self, spec):
        kernel = SimKernel(spec, quantum_s=0.02)
        meter = PowerSpy(kernel.machine, sample_rate_hz=2.0, seed=1)
        meter.connect()
        kernel.run(2.0)
        collected = len(meter.samples)
        meter.disconnect()
        kernel.run(2.0)
        assert len(meter.samples) == collected
        assert meter.mean_power_w() > 0

    def test_meter_reconnect_resumes(self, spec):
        kernel = SimKernel(spec, quantum_s=0.02)
        meter = PowerSpy(kernel.machine, sample_rate_hz=2.0, seed=1)
        meter.connect()
        kernel.run(1.0)
        meter.disconnect()
        kernel.run(1.0)
        meter.connect()
        kernel.run(1.0)
        assert len(meter.samples) == 4  # 2 + 0 + 2

    def test_pipeline_survives_meter_detach(self, spec, model):
        kernel = SimKernel(spec, quantum_s=0.02)
        pid = kernel.spawn(CpuStress(duration_s=100.0))
        api = PowerAPI(kernel, model, period_s=0.5)
        meter = PowerSpy(kernel.machine, seed=2)
        api.attach_meter(meter)
        handle = api.monitor(pid).every(0.5).to(InMemoryReporter())
        api.run(1.0)
        meter.disconnect()
        api.run(1.0)
        assert len(handle.reporter.aggregated) >= 3
        api.shutdown()


class TestActorCrashes:
    class PoisonableFormula(HpcFormula):
        """A formula that chokes on the reports of poisoned periods."""

        def __init__(self, model, poison_times):
            super().__init__(model)
            self.poison_times = poison_times

        def receive(self, message):
            if (isinstance(message, HpcReport)
                    and round(message.time_s, 6) in self.poison_times):
                raise RuntimeError("poisoned report")
            super().receive(message)

    def test_restart_strategy_keeps_pipeline_alive(self, spec, model):
        kernel = SimKernel(spec, quantum_s=0.02)
        good = kernel.spawn(CpuStress(duration_s=100.0), name="good")
        other = kernel.spawn(CpuStress(duration_s=100.0), name="other")
        api = PowerAPI(kernel, model, period_s=0.5)
        api.system.strategy = RestartStrategy(max_restarts=1_000_000)
        poisoned = {1.0, 2.0}

        # Hand-build the pipeline with the crashing formula.
        from repro.core.aggregators import PidAggregator, TimestampAggregator
        from repro.core.sensors import HpcSensor
        reporter = InMemoryReporter()
        formulas = []

        def formula():
            formulas.append(self_formula(model, poisoned))
            return formulas[-1]

        api.system.spawn(HpcSensor(kernel.machine, api.perf, [good, other]))
        api.system.actor_of(formula, "formula")
        api.system.spawn(TimestampAggregator(idle_w=model.idle_w))
        api.system.spawn(reporter)
        api.run(3.0)
        api.flush()
        # One restart per poisoned period, each poisoned period is a
        # marked gap, and every other period made it through with both
        # pids despite the crashes.
        assert len(formulas) == 1 + len(poisoned)
        times = [round(report.time_s, 6) for report in reporter.aggregated]
        assert times == [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        gaps = [report for report in reporter.aggregated if report.gap]
        assert {round(report.time_s, 6) for report in gaps} == poisoned
        assert all(report.formula == "gap:missing" and not report.by_pid
                   for report in gaps)
        assert all(set(report.by_pid) == {good, other}
                   and min(report.by_pid.values()) > 0.5
                   for report in reporter.aggregated if not report.gap)

    def test_stop_strategy_halts_only_failed_actor(self, model):
        system = ActorSystem(strategy=StopStrategy())
        reporter = InMemoryReporter()
        formula_ref = system.spawn(HpcFormula(model), "formula")
        system.spawn(reporter, "reporter")

        class Killer(Actor):
            def receive(self, message):
                raise ValueError("die")

        killer_ref = system.spawn(Killer(), "killer")
        killer_ref.tell("x")
        system.dispatch()
        assert not killer_ref.alive
        assert formula_ref.alive


def self_formula(model, poison_times):
    return TestActorCrashes.PoisonableFormula(model, poison_times)


class TestAmdPortability:
    def test_full_pipeline_on_amd_part(self, ):
        """The generic-counter pipeline runs unchanged on the AMD preset."""
        from repro.core.sampling import SamplingCampaign, learn_power_model
        spec = amd_fx_8120()
        campaign = SamplingCampaign(
            spec,
            workloads=[CpuStress(utilization=1.0, threads=4),
                       CpuStress(utilization=0.5, threads=8)],
            frequencies_hz=[spec.max_frequency_hz],
            window_s=0.5, windows_per_run=4, settle_s=0.25, quantum_s=0.05)
        report = learn_power_model(spec, campaign=campaign,
                                   idle_duration_s=3.0)
        assert report.model.idle_w == pytest.approx(48.0, rel=0.05)

        kernel = SimKernel(spec, quantum_s=0.02)
        pid = kernel.spawn(CpuStress(utilization=1.0, duration_s=100.0))
        api = PowerAPI(kernel, report.model, period_s=0.5)
        handle = api.monitor(pid).every(0.5).to(InMemoryReporter())
        api.run(2.0)
        assert handle.reporter.total_series()[-1] > report.model.idle_w
        api.shutdown()

    def test_rapl_unavailable_on_amd(self):
        from repro.errors import PowerMeterError
        from repro.powermeter.rapl import RaplInterface
        from repro.simcpu.machine import Machine
        with pytest.raises(PowerMeterError):
            RaplInterface(Machine(amd_fx_8120()))
