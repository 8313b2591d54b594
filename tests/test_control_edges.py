"""Edge cases for the closed control loop (repro.control).

The hard corners of cap control: caps no actuation can reach, caps
changed or removed while the loop is mid-escalation, degraded (gap)
periods that must freeze the loop, and the control loop running through
a fault-injection campaign.
"""

import pytest

from repro.core.messages import AggregatedPowerReport
from repro.core.model import FrequencyFormula, PowerModel
from repro.core.monitor import PowerAPI
from repro.core.reporters import InMemoryReporter
from repro.os.kernel import SimKernel
from repro.simcpu.spec import intel_i3_2120
from repro.workloads.stress import CpuStress

pytestmark = pytest.mark.control


@pytest.fixture(scope="module")
def spec():
    return intel_i3_2120()


@pytest.fixture(scope="module")
def model(spec):
    formulas = []
    for frequency in spec.frequencies_hz:
        scale = (frequency / spec.max_frequency_hz) ** 3
        formulas.append(FrequencyFormula(frequency, {
            "instructions": 2.8e-9 * scale,
            "cache-references": 3.8e-8 * scale,
            "cache-misses": 3.5e-7 * scale,
        }))
    return PowerModel(idle_w=31.48, formulas=formulas, name="edge-model")


def start(spec, model, cap_w, *, builder_hook=None, threads=4,
          quantum_s=0.02, **cap_kwargs):
    kernel = SimKernel(spec, quantum_s=quantum_s)
    pid = kernel.spawn(CpuStress(utilization=1.0, threads=threads,
                                 duration_s=120), name="workload")
    api = PowerAPI(kernel, model, period_s=0.5)
    memory = InMemoryReporter()
    builder = api.monitor(pid).every(0.5).cap(cap_w, **cap_kwargs)
    if builder_hook is not None:
        builder = builder_hook(builder)
    handle = builder.to(memory)
    return api, kernel, handle, memory


class TestUnattainableCap:
    def test_cap_below_idle_floor_reports_once(self, spec, model):
        # idle_w is 31.48 W: a 20 W cap is below the floor of what any
        # actuation can reach.  The loop must say so once, not actuate
        # and not spam.
        api, _kernel, handle, _memory = start(spec, model, 20.0)
        api.run(15.0)
        api.shutdown()
        actions = [e.action for e in handle.control.events]
        assert actions.count("unattainable") == 1
        assert "step-down" not in actions
        assert "throttle" not in actions
        assert "idle floor" in handle.control.events[0].detail

    def test_unattainable_event_reaches_health_log(self, spec, model):
        api, _kernel, handle, _memory = start(spec, model, 20.0)
        api.run(10.0)
        api.shutdown()
        assert any(event.kind == "cap-unattainable"
                   for event in handle.health)

    def test_exhausted_actuation_reports_unattainable(self, spec, model):
        # A cap a hair above idle: even the frequency floor plus a
        # fully throttled process table still overshoots, so after the
        # ladder and the nice levels run out the loop declares it.
        api, _kernel, handle, _memory = start(
            spec, model, 31.50, grace_periods=0)
        api.run(60.0)
        api.shutdown()
        actions = [e.action for e in handle.control.events]
        assert "unattainable" in actions
        assert actions.count("unattainable") == 1
        # It did try everything first.
        assert "step-down" in actions and "throttle" in actions

    def test_raising_unattainable_cap_recovers(self, spec, model):
        api, _kernel, handle, memory = start(spec, model, 20.0)
        api.run(10.0)
        handle.set_cap(45.0)
        api.run(25.0)
        api.shutdown()
        actions = [e.action for e in handle.control.events]
        assert "unattainable" in actions
        assert "cap-set" in actions
        # The new, reachable cap is then actually held.
        steady = memory.total_series()[-10:]
        assert sum(steady) / len(steady) <= 45.0 * 1.05


class TestMidRunChanges:
    def test_cap_raised_mid_run_releases_pressure(self, spec, model):
        api, _kernel, handle, memory = start(spec, model, 38.0)
        api.run(25.0)
        down_events = [e for e in handle.control.events
                       if e.action == "step-down"]
        assert down_events
        handle.set_cap(60.0)
        api.run(25.0)
        api.shutdown()
        ups = [e for e in handle.control.events if e.action == "step-up"]
        assert ups, "raising the cap must walk the ceiling back up"
        # With 60 W of headroom the workload returns to (near) full
        # power: clearly above what the 38 W regime allowed.
        steady = memory.total_series()[-10:]
        assert sum(steady) / len(steady) > 45.0

    def test_cap_removed_mid_run_restores_uncapped_power(self, spec, model):
        api, kernel, handle, memory = start(spec, model, 38.0)
        api.run(25.0)
        assert kernel.machine.frequency.ceiling_hz is not None
        handle.set_cap(None)
        api.run(15.0)
        api.shutdown()
        # The ceiling came off with the cap; the kernel's default
        # governor (Performance) was never replaced.
        assert kernel.machine.frequency.ceiling_hz is None
        assert type(kernel.governor).__name__ == "PerformanceGovernor"
        assert handle.control.events[-1].action == "cap-removed"
        steady = memory.total_series()[-10:]
        uncapped = sum(steady) / len(steady)
        assert uncapped > 45.0

    def test_lowering_cap_mid_run_escalates_further(self, spec, model):
        api, _kernel, handle, memory = start(spec, model, 48.0)
        api.run(20.0)
        levels_before = handle.control.actuator.level
        handle.set_cap(38.0)
        api.run(20.0)
        # Read the level before shutdown: stopping the actor releases
        # the actuator and resets the ladder.
        assert handle.control.actuator.level < levels_before
        api.shutdown()
        steady = memory.total_series()[-10:]
        assert sum(steady) / len(steady) <= 38.0 * 1.05

    def test_throttled_processes_restored_on_cap_removal(self, spec, model):
        # Force throttling with a cap only reachable by nice pressure,
        # then remove the cap: every touched process must be back at
        # its original nice.
        api, kernel, handle, _memory = start(
            spec, model, 33.0, grace_periods=0)
        api.run(40.0)
        pid = handle.pids[0]
        if not any(e.action == "throttle" for e in handle.control.events):
            pytest.skip("cap never forced throttling in this scenario")
        assert kernel.process(pid).nice > 0
        handle.set_cap(None)
        api.run(1.0)
        api.shutdown()
        assert kernel.process(pid).nice == 0


class TestDegradedMode:
    def test_gap_periods_freeze_the_loop(self, spec, model):
        # Knock the HPC sensor out (no degradation ladder, so the
        # periods in the hole arrive as gap=True reports).  The loop
        # must not actuate on a gap: estimates there say nothing.
        api, _kernel, handle, memory = start(
            spec, model, 500.0,
            builder_hook=lambda b: (b.without_degradation()
                                    .with_faults("hpc-loss@4:6")))
        api.run(12.0)
        api.shutdown()
        assert any(memory.gap_series()), "fault produced no gap periods"
        assert handle.control.events == []

    def test_loop_resumes_after_gap(self, spec, model):
        api, _kernel, handle, memory = start(
            spec, model, 40.0,
            builder_hook=lambda b: (b.without_degradation()
                                    .with_faults("hpc-loss@2:3")))
        api.run(30.0)
        api.shutdown()
        assert any(memory.gap_series())
        # After the sensor comes back the cap is enforced again.
        assert any(e.action == "step-down" for e in handle.control.events)
        steady = memory.total_series()[-10:]
        assert sum(steady) / len(steady) <= 40.0 * 1.05

    def test_degraded_formula_estimates_still_drive_the_loop(self, spec,
                                                             model):
        # With the degradation ladder on, a long HPC outage falls back
        # to the cpu-load formula (gap=False, degraded mode).  Those
        # estimates are real, so control keeps working on them.
        api, _kernel, handle, _memory = start(
            spec, model, 40.0,
            builder_hook=lambda b: (
                b.with_degradation(degrade_after=2, recover_after=4)
                .with_faults("hpc-loss@3:20")))
        api.run(20.0)
        api.shutdown()
        assert any(event.kind == "degraded" for event in handle.health)
        after_degrade = [e for e in handle.control.events if e.time_s > 5.0]
        assert after_degrade, "loop stalled while degraded"


class TestControlWithFaults:
    CAMPAIGN = "starve@4:2;hpc-loss@8:1;meter-dropout@11:1.5"

    def test_cap_held_through_fault_campaign(self, spec, model):
        api, _kernel, handle, memory = start(
            spec, model, 40.0,
            builder_hook=lambda b: b.with_faults(self.CAMPAIGN))
        api.run(30.0)
        api.shutdown()
        kinds = [event.kind for event in handle.health]
        assert "fault-injected" in kinds
        assert any(e.action == "step-down" for e in handle.control.events)
        steady = memory.total_series()[-12:]
        mean = sum(steady) / len(steady)
        assert mean <= 40.0 * 1.05, mean

    def test_campaign_with_control_is_deterministic(self, spec, model):
        def run_once():
            api, _kernel, handle, memory = start(
                spec, model, 40.0,
                builder_hook=lambda b: b.with_faults(self.CAMPAIGN))
            api.run(20.0)
            result = (handle.health.signature(),
                      tuple(memory.total_series()),
                      tuple((e.action, e.time_s, e.level)
                            for e in handle.control.events))
            api.shutdown()
            return result

        assert run_once() == run_once()

    def test_pid_exit_under_cap_control(self, spec, model):
        # The capped workload dies mid-run: the loop must not crash on
        # reports that no longer contain it and de-escalates as power
        # falls to idle.
        kernel = SimKernel(spec, quantum_s=0.02)
        pid = kernel.spawn(CpuStress(utilization=1.0, threads=4,
                                     duration_s=120), name="doomed")
        api = PowerAPI(kernel, model, period_s=0.5)
        memory = InMemoryReporter()
        handle = (api.monitor(pid).every(0.5).cap(40.0)
                  .to(memory))
        api.run(10.0)
        assert any(e.action == "step-down" for e in handle.control.events)
        kernel.kill(pid)
        api.run(10.0)
        api.shutdown()
        assert any(e.action == "step-up" for e in handle.control.events)
        assert memory.total_series()[-1] <= 40.0
