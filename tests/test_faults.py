"""Fault injection and graceful degradation (repro.faults + pipeline).

Covers the fault plan/injector, the degradation ladder
(HPC → cpu-load → gap markers), supervision restart backoff, and the
pipeline-lifecycle regressions fixed alongside: the shared-clock period
conflict, rotation-state pruning under pid churn, idempotent teardown,
and the exited-pid counter isolation.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.actors.actor import Actor
from repro.actors.supervision import RestartStrategy, StopStrategy
from repro.actors.system import ActorSystem
from repro.core.messages import GapMarker, PowerReport
from repro.core.model import (FrequencyFormula, PowerModel,
                              published_i3_2120_model)
from repro.core.monitor import PowerAPI
from repro.core.reporters import InMemoryReporter
from repro.errors import (ConfigurationError, CounterInvalidError,
                          SampleLossError)
from repro.faults import (ActorCrash, FaultPlan, MeterDropout, PidExit,
                          SampleLoss, SlotStarvation)
from repro.os.kernel import SimKernel
from repro.os.procfs import ProcFs
from repro.perf.counting import PerfSession
from repro.perf.multiplex import MultiplexScheduler
from repro.powermeter.powerspy import PowerSpy
from repro.simcpu.spec import intel_i3_2120
from repro.workloads import RandomWorkload
from repro.workloads.stress import CpuStress
from tests.strategies import default_settings, fault_plans

pytestmark = pytest.mark.faults


@pytest.fixture
def model():
    formulas = [FrequencyFormula(f, {"instructions": 3e-9,
                                     "cache-references": 2e-8,
                                     "cache-misses": 2e-7})
                for f in intel_i3_2120().frequencies_hz]
    return PowerModel(idle_w=31.48, formulas=formulas, name="fault-model")


@pytest.fixture
def kernel():
    return SimKernel(intel_i3_2120(), quantum_s=0.02)


class Collector(Actor):
    """Subscribes to one raw message type (pre-aggregation)."""

    def __init__(self, topic):
        super().__init__()
        self.topic = topic
        self.messages = []

    def pre_start(self):
        self.context.system.event_bus.subscribe(self.topic, self.self_ref)

    def receive(self, message):
        if isinstance(message, self.topic):
            self.messages.append(message)


def _report_at(handle, time_s):
    return next(r for r in handle.reporter.aggregated
                if abs(r.time_s - time_s) < 1e-6)


class TestFaultPlan:
    def test_parse_all_kinds(self):
        plan = FaultPlan.parse(
            "meter-dropout@2:1.5; pid-exit@7:1, starve@4:2:0;"
            "hpc-loss@9; crash@3:formula-0")
        assert [type(e) for e in plan] == [
            MeterDropout, ActorCrash, SlotStarvation, PidExit, SampleLoss]
        assert plan.events[0] == MeterDropout(at_s=2.0, down_s=1.5)
        assert plan.events[1] == ActorCrash(at_s=3.0, actor="formula-0")
        assert plan.events[2] == SlotStarvation(at_s=4.0, duration_s=2.0,
                                                slots=0)
        assert plan.events[3] == PidExit(at_s=7.0, index=1)
        assert plan.events[4] == SampleLoss(at_s=9.0, duration_s=1.0)

    def test_describe_roundtrips(self):
        spec = "meter-dropout@2:1.5;crash@3:formula-0;starve@4:2:0"
        plan = FaultPlan.parse(spec)
        again = FaultPlan.parse(plan.describe())
        assert again.events == plan.events

    def test_events_sorted_stably(self):
        plan = FaultPlan([SampleLoss(at_s=5.0), MeterDropout(at_s=1.0),
                          PidExit(at_s=5.0)])
        assert [type(e) for e in plan] == [MeterDropout, SampleLoss, PidExit]

    def test_rejects_negative_time(self):
        with pytest.raises(ConfigurationError):
            FaultPlan([MeterDropout(at_s=-0.1)])

    @pytest.mark.parametrize("bad", [
        "meter-dropout",          # no @time
        "warp-core-breach@3",     # unknown kind
        "meter-dropout@abc",      # unparseable time
        "crash@3",                # crash needs an actor name
        "random:notanint",        # bad seed
    ])
    def test_rejects_malformed_entries(self, bad):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse(bad)

    def test_random_is_seed_deterministic(self):
        assert (FaultPlan.random(42).describe()
                == FaultPlan.random(42).describe())
        assert (FaultPlan.random(42).describe()
                != FaultPlan.random(43).describe())

    def test_parse_random_entry(self):
        plan = FaultPlan.parse("random:7:20")
        assert plan.seed == 7
        assert plan.events == FaultPlan.random(7, duration_s=20.0).events
        assert all(2.0 - 1e-9 <= e.at_s <= 18.0 + 1e-9 for e in plan)

    @given(plan=fault_plans())
    @default_settings
    def test_any_plan_describes_and_reparses(self, plan):
        # describe() is the canonical serialisation: parsing it back
        # must reproduce the same (sorted) event list.
        again = FaultPlan.parse(plan.describe())
        assert again.events == plan.events

    @given(plan=fault_plans())
    @default_settings
    def test_to_spec_round_trips_losslessly(self, plan):
        # to_spec() must be lossless for *any* plan, not just times that
        # happen to print well: repr-based number formatting guarantees
        # parse(to_spec()) == plan exactly.
        again = FaultPlan.parse(plan.to_spec())
        assert again.events == plan.events

    def test_to_spec_keeps_awkward_floats(self):
        plan = FaultPlan([MeterDropout(at_s=0.1 + 0.2, down_s=1e-4)])
        assert FaultPlan.parse(plan.to_spec()).events == plan.events

    def test_parse_error_names_entry_and_position(self):
        with pytest.raises(ConfigurationError,
                           match=r"'warp@3' at position 18"):
            FaultPlan.parse("meter-dropout@2:1;warp@3")

    def test_parse_error_names_bad_argument(self):
        with pytest.raises(ConfigurationError,
                           match=r"'meter-dropout@abc' at position 0.*time"):
            FaultPlan.parse("meter-dropout@abc;crash@3:formula-0")

    def test_parse_error_rejects_extra_arguments(self):
        with pytest.raises(ConfigurationError,
                           match=r"at position 0.*argument"):
            FaultPlan.parse("pid-exit@3:1:9")


class TestMeterDropout:
    def test_dropout_reconnect_and_gap_markers(self, kernel, model):
        pid = kernel.spawn(CpuStress(duration_s=20.0))
        api = PowerAPI(kernel, model)
        api.attach_meter(PowerSpy(kernel.machine, seed=1), name="meter")
        collector = Collector(GapMarker)
        api.system.spawn(collector, name="gap-collector")
        handle = api.monitor(pid).every(1.0).to(InMemoryReporter())
        api.install_faults(FaultPlan([MeterDropout(at_s=2.0, down_s=1.5)]))
        api.run(7.0)

        kinds = handle.health.kinds()
        assert "meter-dropout" in kinds
        assert "meter-reconnected" in kinds
        down = next(e for e in handle.health if e.kind == "meter-dropout")
        up = next(e for e in handle.health if e.kind == "meter-reconnected")
        # The link stays down for down_s; reconnection happens at the
        # first backoff-scheduled retry after that.
        assert up.time_s >= down.time_s + 1.5 - 1e-9
        meter_gaps = [m for m in collector.messages if m.source == "meter"]
        assert len(meter_gaps) >= 2
        # The HPC path stayed healthy, so no aggregated period is a gap.
        assert handle.reporter.gap_count() == 0

    def test_meter_samples_resume_after_reconnect(self, kernel, model):
        from repro.core.messages import PowerMeterReport

        seen = []

        class Collector(Actor):
            def pre_start(self):
                self.context.system.event_bus.subscribe(
                    PowerMeterReport, self.self_ref)

            def receive(self, message):
                seen.append(message)

        pid = kernel.spawn(CpuStress(duration_s=20.0))
        api = PowerAPI(kernel, model)
        api.system.spawn(Collector(), name="collector")
        api.attach_meter(PowerSpy(kernel.machine, seed=1), name="meter")
        api.monitor(pid).every(1.0).to(InMemoryReporter())
        api.install_faults(FaultPlan([MeterDropout(at_s=2.0, down_s=1.0)]))
        api.run(8.0)
        assert seen, "meter reports should resume after the dropout"
        assert max(r.time_s for r in seen) > 4.0


class TestPidExit:
    def test_pid_exit_marks_lost_and_keeps_others(self, kernel, model):
        doomed = kernel.spawn(CpuStress(duration_s=20.0), name="doomed")
        steady = kernel.spawn(CpuStress(duration_s=20.0), name="steady")
        api = PowerAPI(kernel, model)
        handle = api.monitor(doomed, steady).every(0.5).to(InMemoryReporter())
        api.install_faults(FaultPlan([PidExit(at_s=2.0, index=0)]))
        api.run(5.0)

        lost = [e for e in handle.health if e.kind == "pid-lost"]
        assert len(lost) == 1
        assert f"pid {doomed}" in lost[0].detail
        assert doomed not in kernel.live_pids
        # The surviving pid keeps flowing through the pipeline.
        late = [r for r in handle.reporter.aggregated if r.time_s > 3.0]
        assert late
        assert all(r.by_pid.get(steady, 0.0) > 0 for r in late)
        assert all(doomed not in r.by_pid for r in late)

    def test_a_lost_last_pid_ends_the_series_with_no_missing_period(
            self, kernel, model):
        """Once its only pid is lost the sensor ends the series: the
        flush at the end of the run marks none of the later periods
        ``gap:missing``, so the series stops at the last period it
        reported, a truncation the pid-lost event explains."""
        pid = kernel.spawn(CpuStress(duration_s=20.0))
        api = PowerAPI(kernel, model)
        handle = api.monitor(pid).every(0.5).to(InMemoryReporter())
        api.install_faults(FaultPlan([PidExit(at_s=3.0)]))
        api.run(6.0)
        api.shutdown()
        reports = handle.reporter.aggregated
        assert [round(r.time_s, 6) for r in reports] == [
            0.5 * k for k in range(1, 6)]
        assert not any(r.gap for r in reports)
        assert [round(e.time_s, 6) for e in handle.health
                if e.kind == "pid-lost"] == [3.0]

    def test_a_finished_workload_leaves_no_missing_period(self, model):
        """A workload that ends before the run keeps its counters open
        (they read no new counts), so its series runs to the end of the
        run with no ``gap:missing`` report."""
        kernel = SimKernel(intel_i3_2120(), quantum_s=0.01)
        pid = kernel.spawn(CpuStress(duration_s=3.0))
        api = PowerAPI(kernel, model)
        handle = api.monitor(pid).every(0.5).to(InMemoryReporter())
        api.run(6.0)
        api.shutdown()
        assert pid not in kernel.live_pids
        reports = handle.reporter.aggregated
        assert [round(r.time_s, 6) for r in reports] == [
            0.5 * k for k in range(1, 13)]
        assert not any(r.gap for r in reports)
        assert reports[-1].by_pid[pid] < reports[0].by_pid[pid]

    def test_counter_does_not_accumulate_other_pids_after_exit(self, kernel):
        """Regression: a counter opened on pid A, after A exits, must not
        pick up pid B's events through the ``-1`` wildcard matching path."""
        short = kernel.spawn(CpuStress(duration_s=1.0), name="short")
        kernel.spawn(CpuStress(duration_s=10.0), name="long")
        perf = PerfSession(kernel.machine)
        pinned = perf.open("instructions", pid=short)
        wildcard = perf.open("instructions", pid=-1)

        kernel.run_until_idle(max_duration_s=2.0)  # short exits, long runs on
        assert short not in kernel.live_pids
        raw_at_exit = pinned.read().raw
        wildcard_at_exit = wildcard.read().raw
        assert raw_at_exit > 0

        kernel.run(2.0)
        assert pinned.read().raw == pytest.approx(raw_at_exit)
        assert wildcard.read().raw > wildcard_at_exit  # events did flow
        perf.close()

    def test_invalidate_pid_is_esrch(self, kernel):
        pid = kernel.spawn(CpuStress(duration_s=10.0))
        perf = PerfSession(kernel.machine)
        counter = perf.open("instructions", pid=pid)
        kernel.run(0.5)
        assert perf.invalidate_pid(pid) == 1
        with pytest.raises(CounterInvalidError):
            counter.read()
        with pytest.raises(CounterInvalidError):
            perf.open("cache-misses", pid=pid)
        counter.close()  # close stays legal on a dead counter
        perf.close()


class TestSlotStarvation:
    def test_degrades_to_cpu_load_and_recovers(self, kernel, model):
        pid = kernel.spawn(CpuStress(duration_s=20.0))
        api = PowerAPI(kernel, model)
        handle = api.monitor(pid).every(0.5).to(InMemoryReporter())
        api.install_faults(FaultPlan(
            [SlotStarvation(at_s=1.0, duration_s=3.0, slots=0)]))

        api.run(3.0)
        assert handle.degraded
        assert handle.mode.mode == "cpu-load"
        api.run(3.0)
        assert not handle.degraded

        kinds = handle.health.kinds()
        assert "degraded" in kinds and "recovered" in kinds
        degraded = next(e for e in handle.health if e.kind == "degraded")
        recovered = next(e for e in handle.health if e.kind == "recovered")
        assert degraded.time_s < recovered.time_s
        # While degraded the fallback formula keeps estimates coming.
        during = [r for r in handle.reporter.aggregated
                  if degraded.time_s <= r.time_s < recovered.time_s
                  and not r.gap]
        assert during
        assert all(r.total_w > model.idle_w for r in during)

    def test_without_degradation_gaps_persist(self, kernel, model):
        pid = kernel.spawn(CpuStress(duration_s=20.0))
        api = PowerAPI(kernel, model)
        handle = (api.monitor(pid).every(0.5).without_degradation()
                  .to(InMemoryReporter()))
        api.install_faults(FaultPlan(
            [SlotStarvation(at_s=1.0, duration_s=3.0, slots=0)]))
        api.run(6.0)
        assert handle.mode is None
        assert "degraded" not in handle.health.kinds()
        gaps = [r for r in handle.reporter.aggregated if r.gap]
        assert len(gaps) >= 4
        assert all(r.formula.startswith("gap:") for r in gaps)
        assert all(not r.by_pid for r in gaps)


class TestSampleLoss:
    def test_short_loss_yields_gaps_without_degrading(self, kernel, model):
        pid = kernel.spawn(CpuStress(duration_s=20.0))
        api = PowerAPI(kernel, model)
        handle = api.monitor(pid).every(0.5).to(InMemoryReporter())
        api.install_faults(FaultPlan([SampleLoss(at_s=1.0, duration_s=1.0)]))
        api.run(4.0)
        # Two missing periods: marked gaps, but below degrade_after=3.
        assert handle.reporter.gap_count() >= 1
        assert "degraded" not in handle.health.kinds()
        assert not handle.degraded

    def test_sample_loss_error_at_perf_level(self, kernel):
        pid = kernel.spawn(CpuStress(duration_s=10.0))
        perf = PerfSession(kernel.machine)
        counter = perf.open("instructions", pid=pid)
        perf.set_sample_loss(True)
        with pytest.raises(SampleLossError):
            counter.read()
        perf.set_sample_loss(False)
        assert counter.read() is not None
        perf.close()


class TestActorCrash:
    def test_backoff_schedule_values(self):
        strategy = RestartStrategy(backoff_base_s=1.0, backoff_factor=2.0,
                                   backoff_max_s=5.0)
        assert strategy.backoff_s(1) == 1.0
        assert strategy.backoff_s(2) == 2.0
        assert strategy.backoff_s(3) == 4.0
        assert strategy.backoff_s(4) == 5.0  # capped
        assert RestartStrategy().backoff_s(3) == 0.0  # default: immediate

    def test_crash_restarts_and_reports_continue(self, kernel, model):
        pid = kernel.spawn(CpuStress(duration_s=20.0))
        api = PowerAPI(kernel, model)
        handle = api.monitor(pid).every(0.5).to(InMemoryReporter())
        api.install_faults(FaultPlan([ActorCrash(at_s=2.0,
                                                 actor="formula-0")]))
        api.run(5.0)
        kinds = handle.health.kinds()
        assert "fault-injected" in kinds
        assert "actor-restarted" in kinds
        # The restarted formula re-subscribed cleanly: reports keep coming.
        late = [r for r in handle.reporter.aggregated
                if r.time_s > 2.5 and not r.gap]
        assert late

    def test_crash_with_backoff_delays_restart(self, kernel, model):
        pid = kernel.spawn(CpuStress(duration_s=20.0))
        api = PowerAPI(kernel, model)
        api.system.strategy = RestartStrategy(backoff_base_s=1.0)
        handle = api.monitor(pid).every(0.5).to(InMemoryReporter())
        api.install_faults(FaultPlan([ActorCrash(at_s=2.0,
                                                 actor="formula-0")]))
        api.run(6.0)
        scheduled = next(e for e in handle.health
                         if e.kind == "actor-restart-scheduled")
        restarted = next(e for e in handle.health
                         if e.kind == "actor-restarted")
        assert scheduled.component == "formula-0"
        assert restarted.time_s >= scheduled.time_s + 1.0 - 1e-9
        # Mail queued during suspension is replayed: no periods vanish.
        late = [r for r in handle.reporter.aggregated
                if r.time_s > restarted.time_s and not r.gap]
        assert late

    def test_sensor_restarts_inside_a_sample_loss_window(self, kernel,
                                                        model):
        """The restarted sensor reopens its counters while reads fail;
        its fresh baseline must not need a read."""
        pid = kernel.spawn(CpuStress(duration_s=20.0))
        api = PowerAPI(kernel, model)
        handle = api.monitor(pid).every(0.5).to(InMemoryReporter())
        api.install_faults(FaultPlan.parse(
            "hpc-loss@1:1;crash@1.5:sensor-0"))
        api.run(4.0)
        restarted = next(e for e in handle.health
                         if e.kind == "actor-restarted")
        assert restarted.component == "sensor-0"
        assert any(not r.gap and r.time_s > 2.5
                   for r in handle.reporter.aggregated)

    def test_crash_unknown_actor_is_harmless(self, kernel, model):
        pid = kernel.spawn(CpuStress(duration_s=20.0))
        api = PowerAPI(kernel, model)
        api.monitor(pid).every(1.0).to(InMemoryReporter())
        injector = api.install_faults(
            FaultPlan([ActorCrash(at_s=1.0, actor="no-such-actor")]))
        api.run(3.0)
        assert injector.exhausted


class TestSensorRestart:
    def test_restarted_sensor_runs_the_whole_ladder(self):
        """A restart re-subscribes the sensor behind every other clock
        subscriber.  The period that degrades must still be estimated
        by the fallback, and the period that recovers by HPC alone."""
        kernel = SimKernel(intel_i3_2120(), quantum_s=0.01)
        pid = kernel.spawn(CpuStress(duration_s=20.0))
        api = PowerAPI(kernel, published_i3_2120_model())
        handle = (api.monitor(pid).every(0.5)
                  .with_faults("crash@1.0:sensor-0;starve@2.0:2.0:0")
                  .to(InMemoryReporter()))
        api.run(6.0)
        degraded = next(e for e in handle.health if e.kind == "degraded")
        assert degraded.time_s == pytest.approx(3.5)
        at_degrade = _report_at(handle, 3.5)
        assert not at_degrade.gap
        assert at_degrade.formula == "cpu-load-fallback"
        assert at_degrade.total_w == pytest.approx(39.605, abs=1e-3)
        at_recover = _report_at(handle, 5.0)
        assert at_recover.formula == "i3-2120-published"
        assert list(at_recover.by_pid) == [pid]
        assert at_recover.total_w == pytest.approx(42.120, abs=1e-3)
        api.shutdown()

    def test_fallback_after_a_backoff_estimates_one_period(self):
        """A restart backoff suspends the sensor's fallback with it (the
        period it sits out is a marked ``gap:missing`` hole).  The
        first fallback period after it reads the mean load since the
        last procfs read, not the whole backlog."""
        kernel = SimKernel(intel_i3_2120(), quantum_s=0.01)
        pid = kernel.spawn(CpuStress(duration_s=20.0))
        api = PowerAPI(kernel, published_i3_2120_model())
        api.system.strategy = RestartStrategy(backoff_base_s=0.3)
        handle = (api.monitor(pid).every(0.5)
                  .with_faults("starve@2:4:0;crash@4.25:sensor-0")
                  .to(InMemoryReporter()))
        api.run(6.0)
        suspended = _report_at(handle, 4.5)
        assert suspended.gap and suspended.formula == "gap:missing"
        assert suspended.by_pid == {}
        assert suspended.total_w == suspended.idle_w
        before, after = _report_at(handle, 4.0), _report_at(handle, 5.0)
        assert before.formula == after.formula == "cpu-load-fallback"
        assert after.total_w == pytest.approx(before.total_w)
        assert after.total_w == pytest.approx(39.605, abs=1e-3)
        api.shutdown()

    def test_backoff_past_the_end_marks_the_last_periods_missing(self):
        """A skipped period is marked once a later period's message
        reaches the aggregator; the periods of a backoff that outlasts
        the run are marked when the run is flushed, up to its end."""
        kernel = SimKernel(intel_i3_2120(), quantum_s=0.01)
        pid = kernel.spawn(CpuStress(duration_s=20.0))
        api = PowerAPI(kernel, published_i3_2120_model())
        api.system.strategy = RestartStrategy(backoff_base_s=3.0)
        handle = (api.monitor(pid).every(0.5)
                  .with_faults("crash@4.75:sensor-0")
                  .to(InMemoryReporter()))
        api.run(6.0)
        api.shutdown()
        reports = handle.reporter.aggregated
        assert [round(r.time_s, 6) for r in reports] == [
            0.5 * k for k in range(1, 13)]
        assert not any(r.gap for r in reports[:9])
        assert [(r.gap, r.formula) for r in reports[9:]] == [
            (True, "gap:missing")] * 3
        # A second flush marks nothing twice.
        api.flush()
        assert len(handle.reporter.aggregated) == 12

    def test_a_stopped_formula_leaves_every_later_period_missing(self):
        """Under StopStrategy a crashed formula stays down, so no power
        report reaches the aggregator again: each period from the crash
        to the end of the run is a ``gap:missing`` report."""
        kernel = SimKernel(intel_i3_2120(), quantum_s=0.01)
        pid = kernel.spawn(CpuStress(duration_s=20.0))
        api = PowerAPI(kernel, published_i3_2120_model())
        api.system.strategy = StopStrategy()
        handle = (api.monitor(pid).every(0.5)
                  .with_faults("crash@2.25:formula-0")
                  .to(InMemoryReporter()))
        api.run(5.0)
        api.shutdown()
        reports = handle.reporter.aggregated
        assert [round(r.time_s, 6) for r in reports] == [
            0.5 * k for k in range(1, 11)]
        assert not any(r.gap for r in reports[:4])
        assert [(r.gap, r.formula) for r in reports[4:]] == [
            (True, "gap:missing")] * 6

    def test_periods_are_missing_only_until_the_series_ends(self):
        """A pid lost while the sensor sits out a backoff: the periods
        of the backoff are ``gap:missing``, and the series ends on the
        restarted sensor's first tick, where it finds the pid lost."""
        kernel = SimKernel(intel_i3_2120(), quantum_s=0.01)
        pid = kernel.spawn(CpuStress(duration_s=20.0))
        api = PowerAPI(kernel, published_i3_2120_model())
        api.system.strategy = RestartStrategy(backoff_base_s=3.0)
        handle = (api.monitor(pid).every(0.5)
                  .with_faults("crash@2.25:sensor-0;pid-exit@4")
                  .to(InMemoryReporter()))
        api.run(7.0)
        api.shutdown()
        reports = handle.reporter.aggregated
        assert [round(r.time_s, 6) for r in reports] == [
            0.5 * k for k in range(1, 11)]
        assert not any(r.gap for r in reports[:4])
        assert [(r.gap, r.formula) for r in reports[4:]] == [
            (True, "gap:missing")] * 6
        assert [round(e.time_s, 6) for e in handle.health
                if e.kind == "pid-lost"] == [5.5]

    def test_immediately_restarted_sensor_keeps_its_period(self):
        """A sensor restarted without a backoff keeps the counters and
        baselines it still holds: reopened at the fault time, they read
        no running time on the same tick and turned the period into a
        gap."""
        kernel = SimKernel(intel_i3_2120(), quantum_s=0.01)
        pid = kernel.spawn(CpuStress(duration_s=20.0))
        api = PowerAPI(kernel, published_i3_2120_model())
        handle = (api.monitor(pid).every(0.5)
                  .with_faults("crash@1.0:sensor-0")
                  .to(InMemoryReporter()))
        api.run(3.0)
        restarted = next(e for e in handle.health
                         if e.kind == "actor-restarted")
        assert restarted.time_s == pytest.approx(1.0)
        at_restart = _report_at(handle, 1.0)
        assert not at_restart.gap
        assert at_restart.formula == "i3-2120-published"
        assert at_restart.total_w == pytest.approx(42.120, abs=1e-3)
        assert len(api.perf._counters) == 3
        api.shutdown()

    @staticmethod
    def _two_random_tenants(faults):
        kernel = SimKernel(intel_i3_2120(), quantum_s=0.01)
        pids = [kernel.spawn(RandomWorkload(20.0, seed=seed))
                for seed in (1, 2)]
        api = PowerAPI(kernel, published_i3_2120_model())
        builder = api.monitor(*pids).every(1.0)
        if faults:
            builder.with_faults(faults)
        handle = builder.to(InMemoryReporter())
        api.run(9.0)
        counters = list(api.perf._counters.values())
        totals = [r.total_w for r in handle.reporter.aggregated]
        api.shutdown()
        return counters, totals

    def test_restarted_sensor_closes_its_old_counters(self):
        """Counters the crashed instance held would stay open and force
        every counter into multiplexing, skewing the later estimates."""
        counters, totals = self._two_random_tenants("crash@2.5:sensor-0")
        assert len(counters) == 6  # three events for each of two pids
        assert all(c.time_running_s == c.time_enabled_s for c in counters)
        _, crash_free = self._two_random_tenants(None)
        assert totals == pytest.approx(crash_free, rel=1e-12)
        assert totals[4] == pytest.approx(38.623004, abs=1e-6)  # t=5
        assert totals[7] == pytest.approx(38.568045, abs=1e-6)  # t=8


class TestDegradationLadder:
    @given(plan=fault_plans())
    @default_settings
    def test_no_pid_is_reported_twice_in_one_period(self, plan):
        kernel = SimKernel(intel_i3_2120(), quantum_s=0.02)
        pids = [kernel.spawn(CpuStress(duration_s=80.0)) for _ in range(2)]
        api = PowerAPI(kernel, published_i3_2120_model())
        collector = Collector(PowerReport)
        api.system.spawn(collector, name="report-collector")
        api.monitor(*pids).every(0.5).to(InMemoryReporter())
        api.install_faults(plan)
        api.run(72.0)
        api.shutdown()
        keys = [(round(report.time_s, 9), pid)
                for report in collector.messages for pid in report.by_pid]
        assert len(keys) == len(set(keys))

    @given(plan=fault_plans(),
           seeds=st.lists(st.integers(0, 999), min_size=1, max_size=4))
    @default_settings
    def test_pid_energy_equals_the_aggregated_series(self, plan, seeds):
        """The estimator's conservation law: the pid aggregator's energy
        of each pid is the timestamp aggregator's series of that pid
        integrated over its periods, to the last bit."""
        kernel = SimKernel(intel_i3_2120(), quantum_s=0.02)
        pids = [kernel.spawn(RandomWorkload(80.0, seed=seed))
                for seed in seeds]
        api = PowerAPI(kernel, published_i3_2120_model())
        handle = api.monitor(*pids).every(0.5).to(InMemoryReporter())
        api.install_faults(plan)
        api.run(72.0)
        api.flush()
        energy_j = handle.reporter.energy_reports[-1].energy_by_pid_j
        api.shutdown()
        for pid in pids:
            series_j = 0.0  # summed in order, as the pid aggregator does
            for report in handle.reporter.aggregated:
                series_j += report.by_pid.get(pid, 0.0) * report.period_s
            assert energy_j.get(pid, 0.0) == series_j

    @staticmethod
    def _count_procfs_reads(monkeypatch, kernel):
        """Kernel times of every procfs CPU-time read from now on."""
        reads = []
        read = ProcFs.process_cpu_time_s

        def counted(procfs, pid):
            reads.append(round(kernel.time_s, 6))
            return read(procfs, pid)

        monkeypatch.setattr(ProcFs, "process_cpu_time_s", counted)
        return reads

    def test_healthy_pipeline_reads_no_procfs(self, monkeypatch):
        """While HPC data flows the fallback costs nothing: no procfs
        read, and a period at 8 pids is 5 deliveries (the tick, one HPC
        report, one power report to each aggregator, one aggregate)."""
        kernel = SimKernel(intel_i3_2120(), quantum_s=0.001)
        pids = [kernel.spawn(RandomWorkload(2.0, seed=seed))
                for seed in range(8)]
        reads = self._count_procfs_reads(monkeypatch, kernel)
        deliveries = []
        dispatch = ActorSystem.dispatch

        def counted(system):
            deliveries.append(dispatch(system))
            return deliveries[-1]

        monkeypatch.setattr(ActorSystem, "dispatch", counted)
        api = PowerAPI(kernel, published_i3_2120_model(), period_s=0.001)
        handle = api.monitor(*pids).every(0.001).to(InMemoryReporter())
        api.run(0.2)
        assert not handle.degraded
        assert reads == []
        assert deliveries[1:] == [5] * 199
        api.shutdown()

    def test_fallback_reads_procfs_only_when_it_may_publish_next(
            self, kernel, model, monkeypatch):
        """Starved from t=1 to t=4 at 0.5 s periods with degrade_after=3:
        the misses at 1.5 and 2.0 make 2.5 a possible first degraded
        period, so the baselines are read from 2.0 on, through the
        degraded periods, and not after recovery at 5.0."""
        pid = kernel.spawn(CpuStress(duration_s=20.0))
        reads = self._count_procfs_reads(monkeypatch, kernel)
        api = PowerAPI(kernel, model)
        handle = (api.monitor(pid).every(0.5).with_degradation(3, 2)
                  .with_faults("starve@1:3:0").to(InMemoryReporter()))
        api.run(7.0)
        assert reads == [2.0, 2.5, 3.0, 3.5, 4.0, 4.5]
        fallback = [round(r.time_s, 6) for r in handle.reporter.aggregated
                    if r.formula == "cpu-load-fallback"]
        assert fallback == [2.5, 3.0, 3.5, 4.0, 4.5]
        api.shutdown()


class TestLifecycleRegressions:
    def test_conflicting_period_raises(self, kernel, model):
        a = kernel.spawn(CpuStress(duration_s=20.0))
        b = kernel.spawn(CpuStress(duration_s=20.0))
        api = PowerAPI(kernel, model)
        api.monitor(a).every(1.0).to(InMemoryReporter())
        with pytest.raises(ConfigurationError):
            api.monitor(b).every(0.5).to(InMemoryReporter())
        # The shared clock must not have been silently retuned.
        assert api.clock.period_s == 1.0
        # The same period is refused too: one pipeline runs at a time.
        with pytest.raises(ConfigurationError):
            api.monitor(b).every(1.0).to(InMemoryReporter())

    def test_second_running_pipeline_is_refused(self, model):
        """Stages subscribe to the bus by message class, so a second
        pipeline's formula would answer the first one's sensor as well
        and double pid A's estimate.  Refused, A's reports stay those of
        a lone pipeline."""
        def reports(second):
            kernel = SimKernel(intel_i3_2120(), quantum_s=0.02)
            a = kernel.spawn(CpuStress(duration_s=20.0))
            b = kernel.spawn(CpuStress(duration_s=20.0))
            api = PowerAPI(kernel, model)
            handle = api.monitor(a).every(1.0).to(InMemoryReporter())
            if second:
                with pytest.raises(ConfigurationError, match="already runs"):
                    api.monitor(b).every(1.0).to(InMemoryReporter())
            api.run(3.0)
            return handle.reporter.aggregated

        assert reports(second=True) == reports(second=False)

    def test_period_retune_allowed_once_pipelines_stop(self, kernel, model):
        pid = kernel.spawn(CpuStress(duration_s=20.0))
        api = PowerAPI(kernel, model)
        handle = api.monitor(pid).every(1.0).to(InMemoryReporter())
        handle.stop()
        api.monitor(pid).every(0.25).to(InMemoryReporter())
        assert api.clock.period_s == 0.25

    def test_shutdown_and_stop_are_idempotent(self, kernel, model):
        pid = kernel.spawn(CpuStress(duration_s=20.0))
        api = PowerAPI(kernel, model)
        handle = api.monitor(pid).every(1.0).to(InMemoryReporter())
        api.run(2.0)
        handle.stop()
        handle.stop()
        api.shutdown()
        api.shutdown()
        handle.stop()  # after shutdown: still a no-op
        assert api.system.actor_names() == ()
        assert api.perf.closed

    def test_rotation_state_pruned_under_pid_churn(self):
        class Stub:
            def __init__(self, counter_id, pid):
                self.counter_id = counter_id
                self.pid = pid
                self.cpu = -1

        scheduler = MultiplexScheduler(slots=2)
        fds = iter(range(1000))
        generations = [[Stub(next(fds), pid) for _ in range(5)]
                       for pid in range(40)]
        for counters in generations:  # churn: each pid lives one round
            scheduler.schedule(counters)
        assert len(scheduler.rotation_targets()) == 1  # only the last pid
        scheduler.schedule([])
        assert scheduler.rotation_targets() == ()

    def test_slot_override_starves_and_restores(self):
        class Stub:
            def __init__(self, counter_id):
                self.counter_id = counter_id
                self.pid = 1
                self.cpu = -1

        scheduler = MultiplexScheduler(slots=2)
        counters = [Stub(i) for i in range(3)]
        scheduler.slot_override = 0
        assert scheduler.schedule(counters) == set()
        scheduler.slot_override = None
        assert len(scheduler.schedule(counters)) == 2


class TestAcceptanceCampaign:
    SPEC = "meter-dropout@2:1.5;starve@4:2;pid-exit@7:0;hpc-loss@9:1"

    def _run_campaign(self, model):
        kernel = SimKernel(intel_i3_2120(), quantum_s=0.02)
        doomed = kernel.spawn(CpuStress(duration_s=30.0), name="doomed")
        steady = kernel.spawn(CpuStress(duration_s=30.0), name="steady")
        api = PowerAPI(kernel, model)
        api.attach_meter(PowerSpy(kernel.machine, seed=9), name="meter")
        handle = api.monitor(doomed, steady).every(0.5).to(InMemoryReporter())
        injector = api.install_faults(FaultPlan.parse(self.SPEC))
        api.run(12.0)
        api.flush()
        result = (handle.health.signature(),
                  handle.reporter.total_series(),
                  handle.reporter.gap_series(),
                  injector.exhausted)
        api.shutdown()
        return result

    def test_campaign_survives_with_marked_gaps(self, model):
        signature, series, gaps, exhausted = self._run_campaign(model)
        assert exhausted
        assert len(series) >= 20  # the pipeline never stalled
        assert any(gaps)  # holes are marked, not silent
        kinds = [entry[2] for entry in signature]
        assert "fault-injected" in kinds
        assert "meter-dropout" in kinds
        assert "meter-reconnected" in kinds
        assert "degraded" in kinds
        assert "recovered" in kinds
        assert "pid-lost" in kinds

    def test_same_seed_reproduces_identical_health_log(self, model):
        first = self._run_campaign(model)
        second = self._run_campaign(model)
        assert first[0] == second[0]  # health signatures byte-identical
        assert first[1] == second[1]  # and the power series too


class TestExponentialBackoff:
    """The shared retry schedule, including the fleet-jitter extension."""

    def _backoff(self, **kwargs):
        from repro.faults.backoff import ExponentialBackoff
        return ExponentialBackoff(**kwargs)

    def test_cap_saturation(self):
        backoff = self._backoff(base_s=0.5, factor=2.0, max_s=3.0)
        delays = [backoff.next_delay_s() for _ in range(6)]
        assert delays == [0.5, 1.0, 2.0, 3.0, 3.0, 3.0]
        assert backoff.attempts == 6

    def test_reset_restarts_the_schedule(self):
        backoff = self._backoff(base_s=1.0, factor=2.0, max_s=8.0)
        backoff.next_delay_s()
        backoff.next_delay_s()
        backoff.reset()
        assert backoff.attempts == 0
        assert backoff.next_delay_s() == 1.0

    def test_stateless_delay_matches_stateful(self):
        backoff = self._backoff(base_s=0.1, factor=3.0, max_s=10.0)
        assert [backoff.delay_s(n) for n in (1, 2, 3)] == \
            [backoff.next_delay_s() for _ in range(3)]
        assert backoff.delay_s(0) == 0.0

    def test_jitter_deterministic_under_seed(self):
        first = self._backoff(base_s=1.0, max_s=30.0, jitter=0.5, seed=42)
        second = self._backoff(base_s=1.0, max_s=30.0, jitter=0.5, seed=42)
        a = [first.next_delay_s() for _ in range(8)]
        b = [second.next_delay_s() for _ in range(8)]
        assert a == b
        other = self._backoff(base_s=1.0, max_s=30.0, jitter=0.5, seed=7)
        assert a != [other.next_delay_s() for _ in range(8)]

    def test_jitter_stays_within_band(self):
        backoff = self._backoff(base_s=1.0, factor=2.0, max_s=64.0,
                                jitter=0.25, seed=1)
        for attempt in range(1, 8):
            nominal = backoff.delay_s(attempt)
            jittered = backoff.next_delay_s()
            assert 0.75 * nominal <= jittered <= 1.25 * nominal

    def test_zero_jitter_is_exact(self):
        backoff = self._backoff(base_s=1.0, jitter=0.0, seed=99)
        assert backoff.next_delay_s() == 1.0

    def test_reset_does_not_rewind_the_rng(self):
        backoff = self._backoff(base_s=1.0, max_s=30.0, jitter=0.5, seed=3)
        first = backoff.next_delay_s()
        backoff.reset()
        # Same attempt number, fresh draw: almost surely different.
        assert backoff.next_delay_s() != first

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self._backoff(base_s=0.0)
        with pytest.raises(ConfigurationError):
            self._backoff(factor=0.5)
        with pytest.raises(ConfigurationError):
            self._backoff(base_s=2.0, max_s=1.0)
        with pytest.raises(ConfigurationError):
            self._backoff(jitter=1.5)
        with pytest.raises(ConfigurationError):
            self._backoff(jitter=-0.1)


class TestBoundedHealthLog:
    """The health log's bound: cap, exact counts, digested evictions."""

    def _event(self, index, kind="degraded"):
        from repro.core.messages import HealthEvent
        return HealthEvent(time_s=float(index), component="sensor",
                           kind=kind, detail=f"event-{index}")

    def _log(self, cap):
        from repro.faults.health import HealthLog
        return HealthLog(cap=cap)

    def test_cap_validation(self):
        with pytest.raises(ConfigurationError):
            self._log(0)

    def test_retains_only_newest_cap_events(self):
        log = self._log(3)
        for index in range(10):
            log.record(self._event(index))
        assert len(log) == 10  # total keeps counting
        assert log.evicted == 7
        assert [event.detail for event in log] == [
            "event-7", "event-8", "event-9"]

    def test_counts_exact_past_cap(self):
        log = self._log(2)
        for index in range(5):
            log.record(self._event(index, kind="degraded"))
        log.record(self._event(5, kind="recovered"))
        assert log.count("degraded") == 5
        assert log.count("recovered") == 1
        assert log.count("unknown") == 0
        assert log.kinds() == ["degraded", "recovered"]  # retained only

    def test_signature_fingerprints_complete_history(self):
        small, large = self._log(2), self._log(100)
        for index in range(8):
            small.record(self._event(index))
            large.record(self._event(index))
        # Identical histories at different caps: the small log's
        # signature folds evictions into one digest entry.
        assert small.signature()[0][0] == "evicted"
        assert small.signature()[0][1] == "6"
        assert small.signature()[1:] == large.signature()[-2:]
        # Diverging histories diverge even when the divergent event
        # has already been evicted.
        other = self._log(2)
        for index in range(8):
            other.record(self._event(
                index, kind="recovered" if index == 0 else "degraded"))
        assert other.signature() != small.signature()

    def test_signature_unchanged_within_cap(self):
        log = self._log(100)
        for index in range(3):
            log.record(self._event(index))
        signature = log.signature()
        assert len(signature) == 3
        assert all(entry[1] == "sensor" for entry in signature)
        assert signature[0][2] == "degraded"
