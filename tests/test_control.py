"""Unit and integration tests for the closed control loop.

Covers the `repro.control` subsystem bottom-up: policies (hysteresis,
anti-windup), the `repro.os.actuation` backends (DVFS ceiling, process
throttling), the PowerCapActor in the Figure-2 graph, spec/fluent/CLI
integration, reporter surfacing, and end-to-end cap adherence across
three workload scenarios.
"""

import io
import json
import math

import pytest

from repro.control.actor import PowerCapActor
from repro.control.policy import DeadBandPolicy, PIPolicy
from repro.core.messages import AggregatedPowerReport, CapEvent, SetCap
from repro.core.model import FrequencyFormula, PowerModel
from repro.core.monitor import PowerAPI
from repro.core.pipeline import ControlSpec, PipelineSpec, StageSpec
from repro.core.reporters import (CsvReporter, InMemoryReporter,
                                  JsonlReporter, PrometheusReporter)
from repro.errors import ConfigurationError
from repro.os.actuation import (CeilingGovernor, FrequencyCapActuator,
                                ProcessThrottle)
from repro.os.governor import OndemandGovernor, PerformanceGovernor
from repro.os.kernel import SimKernel
from repro.simcpu.spec import intel_i3_2120
from repro.workloads.stress import CpuStress, MemoryStress, MixedStress

pytestmark = pytest.mark.control


@pytest.fixture(scope="module")
def spec():
    return intel_i3_2120()


@pytest.fixture(scope="module")
def model(spec):
    """A frequency-aware model matching the published one's shape."""
    formulas = []
    for frequency in spec.frequencies_hz:
        scale = (frequency / spec.max_frequency_hz) ** 3
        formulas.append(FrequencyFormula(frequency, {
            "instructions": 2.8e-9 * scale,
            "cache-references": 3.8e-8 * scale,
            "cache-misses": 3.5e-7 * scale,
        }))
    return PowerModel(idle_w=31.48, formulas=formulas, name="control-model")


def report(total_active, time_s=1.0, idle_w=31.48, gap=False, by_pid=None):
    return AggregatedPowerReport(
        time_s=time_s, period_s=0.5,
        by_pid=by_pid if by_pid is not None else {1: total_active},
        idle_w=idle_w, formula="f", gap=gap)


# ---------------------------------------------------------------------------
# Policies


class TestDeadBandPolicy:
    def test_overshoot_steps_down_immediately(self):
        policy = DeadBandPolicy(band_w=2.0, up_patience=2)
        assert policy.decide(0.1, 0.5) == -1

    def test_step_up_requires_patience(self):
        policy = DeadBandPolicy(band_w=2.0, up_patience=3)
        assert policy.decide(-5.0, 0.5) == 0
        assert policy.decide(-5.0, 0.5) == 0
        assert policy.decide(-5.0, 0.5) == 1

    def test_overshoot_resets_patience_streak(self):
        policy = DeadBandPolicy(band_w=2.0, up_patience=2)
        assert policy.decide(-5.0, 0.5) == 0
        assert policy.decide(1.0, 0.5) == -1
        # The streak restarted: one low reading is not enough again.
        assert policy.decide(-5.0, 0.5) == 0
        assert policy.decide(-5.0, 0.5) == 1

    def test_dead_band_holds(self):
        policy = DeadBandPolicy(band_w=2.0, up_patience=1)
        for _ in range(10):
            assert policy.decide(-1.0, 0.5) == 0

    def test_reset_clears_streak(self):
        policy = DeadBandPolicy(band_w=2.0, up_patience=2)
        policy.decide(-5.0, 0.5)
        policy.reset()
        assert policy.decide(-5.0, 0.5) == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DeadBandPolicy(band_w=0.0)
        with pytest.raises(ConfigurationError):
            DeadBandPolicy(up_patience=0)


class TestPIPolicy:
    def test_large_error_steps_down(self):
        policy = PIPolicy(step_w=3.0, kp=1.0, ki=0.0, band_w=1.0)
        assert policy.decide(6.0, 0.5) < 0

    def test_hysteresis_band_holds(self):
        policy = PIPolicy(step_w=3.0, kp=1.0, ki=0.0, band_w=2.0)
        assert policy.decide(1.5, 0.5) == 0
        assert policy.decide(-1.5, 0.5) == 0

    def test_max_step_clamps(self):
        policy = PIPolicy(step_w=1.0, kp=1.0, ki=0.0, band_w=0.5,
                          max_step=2)
        assert policy.decide(100.0, 0.5) == -2
        assert policy.decide(-100.0, 0.5) == 2

    def test_integral_accumulates(self):
        policy = PIPolicy(step_w=2.0, kp=0.0, ki=1.0, band_w=1.0)
        # Small persistent error: the integral eventually drives a step
        # even though kp alone never would.
        decisions = [policy.decide(1.0, 1.0) for _ in range(5)]
        assert -1 in decisions

    def test_anti_windup_bounds_integral(self):
        policy = PIPolicy(step_w=1.0, kp=0.0, ki=1.0, band_w=0.5,
                          max_step=10, windup_w=5.0)
        # Saturate hard: a huge banked integral would demand many
        # up-steps for a long time after the error flips sign.
        for _ in range(100):
            policy.decide(50.0, 1.0)
        # ki * integral is clamped at windup_w -> at most windup/step
        # steps demanded, not 5000.
        assert policy.decide(0.0, 1.0) >= -10
        # And the integral drains quickly once the error reverses.
        recovered = 0
        for _ in range(15):
            if policy.decide(-2.0, 1.0) >= 0:
                recovered += 1
        assert recovered > 0

    def test_reset_clears_integral(self):
        policy = PIPolicy(step_w=1.0, kp=0.0, ki=1.0, band_w=0.5)
        for _ in range(10):
            policy.decide(5.0, 1.0)
        policy.reset()
        assert policy.decide(0.0, 1.0) == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PIPolicy(step_w=0.0)
        with pytest.raises(ConfigurationError):
            PIPolicy(step_w=1.0, kp=0.0, ki=0.0)
        with pytest.raises(ConfigurationError):
            PIPolicy(step_w=1.0, max_step=0)
        with pytest.raises(ConfigurationError):
            PIPolicy(step_w=1.0, windup_w=0.0)


# ---------------------------------------------------------------------------
# Actuation backends


class TestCeilingGovernor:
    def test_clamps_above_ceiling(self, spec):
        kernel = SimKernel(spec)
        wrapper = CeilingGovernor(kernel.governor)
        wrapper.ceiling_hz = spec.frequencies_hz[2]
        kernel.governor = wrapper
        kernel.tick()
        assert kernel.machine.frequency.target(0, 0) == spec.frequencies_hz[2]

    def test_none_ceiling_is_passthrough(self, spec):
        kernel = SimKernel(spec)
        wrapper = CeilingGovernor(kernel.governor)
        kernel.governor = wrapper
        kernel.tick()
        assert kernel.machine.frequency.target(0, 0) == spec.max_frequency_hz

    def test_inner_policy_keeps_authority_below_ceiling(self, spec):
        kernel = SimKernel(spec, governor_factory=OndemandGovernor)
        wrapper = CeilingGovernor(kernel.governor)
        wrapper.ceiling_hz = spec.frequencies_hz[-2]
        kernel.governor = wrapper
        # Idle machine: ondemand wants the minimum, far below the
        # ceiling — the clamp must not touch it.
        kernel.tick()
        assert kernel.machine.frequency.target(0, 0) == spec.min_frequency_hz


class TestFrequencyCapActuator:
    def test_arm_wraps_and_release_restores(self, spec):
        kernel = SimKernel(spec)
        original = kernel.governor
        actuator = FrequencyCapActuator(kernel)
        actuator.arm()
        assert isinstance(kernel.governor, CeilingGovernor)
        assert kernel.governor.inner is original
        actuator.release()
        assert kernel.governor is original

    def test_arm_is_idempotent(self, spec):
        kernel = SimKernel(spec)
        actuator = FrequencyCapActuator(kernel)
        actuator.arm()
        wrapper = kernel.governor
        actuator.arm()
        assert kernel.governor is wrapper

    def test_second_actuator_rejected(self, spec):
        kernel = SimKernel(spec)
        FrequencyCapActuator(kernel).arm()
        with pytest.raises(ConfigurationError):
            FrequencyCapActuator(kernel).arm()

    def test_top_level_is_noop_clamp(self, spec):
        kernel = SimKernel(spec)
        actuator = FrequencyCapActuator(kernel)
        actuator.arm()
        kernel.tick()
        # Ceiling at the top of the table: the governor's choice stands.
        assert kernel.machine.frequency.target(0, 0) == spec.max_frequency_hz

    def test_step_walks_ladder_and_clamps(self, spec):
        kernel = SimKernel(spec)
        actuator = FrequencyCapActuator(kernel)
        actuator.arm()
        top = len(actuator.ladder) - 1
        assert actuator.at_ceiling
        assert actuator.step(-2) == -2
        assert actuator.level == top - 2
        assert actuator.step(-100) == -(top - 2)
        assert actuator.at_floor
        assert actuator.step(-1) == 0
        assert actuator.step(100) == top
        assert actuator.at_ceiling

    def test_step_down_caps_kernel_frequency(self, spec):
        kernel = SimKernel(spec)
        actuator = FrequencyCapActuator(kernel)
        actuator.arm()
        actuator.step(-3)
        kernel.tick()
        assert (kernel.machine.frequency.target(0, 0)
                == actuator.frequency_hz)

    def test_set_level_validates(self, spec):
        actuator = FrequencyCapActuator(SimKernel(spec))
        with pytest.raises(ConfigurationError):
            actuator.set_level(-1)
        with pytest.raises(ConfigurationError):
            actuator.set_level(len(actuator.ladder))


class TestProcessThrottle:
    def make_kernel(self, spec):
        kernel = SimKernel(spec)
        pids = [kernel.spawn(CpuStress(utilization=1.0, threads=1,
                                       duration_s=60), name=f"w{i}")
                for i in range(3)]
        return kernel, pids

    def test_throttles_hungriest(self, spec):
        kernel, pids = self.make_kernel(spec)
        throttle = ProcessThrottle(kernel, step=5)
        chosen = throttle.throttle_hungriest(
            {pids[0]: 5.0, pids[1]: 20.0, pids[2]: 10.0})
        assert chosen == pids[1]
        assert kernel.process(pids[1]).nice == 5
        assert kernel.process(pids[0]).nice == 0

    def test_lifo_unwind_restores_nice(self, spec):
        kernel, pids = self.make_kernel(spec)
        throttle = ProcessThrottle(kernel, step=5)
        throttle.throttle_hungriest({pids[0]: 20.0})
        throttle.throttle_hungriest({pids[0]: 20.0})
        assert kernel.process(pids[0]).nice == 10
        assert throttle.unthrottle_last() == pids[0]
        assert kernel.process(pids[0]).nice == 5
        assert throttle.unthrottle_last() == pids[0]
        assert kernel.process(pids[0]).nice == 0
        assert throttle.unthrottle_last() is None

    def test_restore_all(self, spec):
        kernel, pids = self.make_kernel(spec)
        throttle = ProcessThrottle(kernel, step=7)
        for _ in range(4):
            throttle.throttle_hungriest(
                {pid: 10.0 for pid in pids})
        assert throttle.restore_all() == 4
        assert all(kernel.process(pid).nice == 0 for pid in pids)
        assert throttle.depth() == 0

    def test_nice_ceiling_exhausts(self, spec):
        kernel, pids = self.make_kernel(spec)
        throttle = ProcessThrottle(kernel, step=19)
        by_pid = {pid: 10.0 for pid in pids}
        for _ in range(3):
            assert throttle.throttle_hungriest(by_pid) is not None
        # Every candidate is at nice 19 now.
        assert throttle.throttle_hungriest(by_pid) is None
        assert not throttle.can_throttle(by_pid)

    def test_dead_pids_skipped(self, spec):
        kernel, pids = self.make_kernel(spec)
        throttle = ProcessThrottle(kernel)
        kernel.kill(pids[1])
        chosen = throttle.throttle_hungriest({pids[1]: 50.0, pids[0]: 1.0})
        assert chosen == pids[0]


# ---------------------------------------------------------------------------
# The actor (driven directly, no pipeline)


class DirectCapActor(PowerCapActor):
    """PowerCapActor with bus publication stubbed for direct driving."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.published = []

    def publish(self, message):
        self.published.append(message)

    def report_health(self, time_s, kind, detail=""):
        self.published.append(("health", kind))


class TestPowerCapActor:
    def make(self, spec, cap_w=40.0, **kwargs):
        kernel = SimKernel(spec)
        self.pid = kernel.spawn(CpuStress(utilization=1.0, threads=4,
                                          duration_s=60), name="w")
        actor = DirectCapActor(kernel, cap_w=cap_w, **kwargs)
        actor.actuator.arm()
        return actor

    def test_over_cap_steps_down(self, spec):
        actor = self.make(spec, cap_w=40.0, grace_periods=0)
        level = actor.actuator.level
        actor.handle(report(20.0))  # 51.48 W > 40
        assert actor.actuator.level == level - 1
        assert actor.events[-1].action == "step-down"

    def test_grace_window_skips_reports(self, spec):
        actor = self.make(spec, cap_w=40.0, grace_periods=2)
        actor.handle(report(20.0))
        level = actor.actuator.level
        actor.handle(report(20.0))  # grace 1
        actor.handle(report(20.0))  # grace 2
        assert actor.actuator.level == level
        actor.handle(report(20.0))  # grace over: acts again
        assert actor.actuator.level == level - 1

    def test_under_cap_steps_back_up(self, spec):
        actor = self.make(spec, cap_w=40.0, grace_periods=0,
                          policy=DeadBandPolicy(band_w=2.0, up_patience=1))
        actor.handle(report(20.0))
        down_level = actor.actuator.level
        actor.handle(report(1.0))  # 32.48 W, far below the cap
        assert actor.actuator.level == down_level + 1
        assert actor.events[-1].action == "step-up"

    def test_throttle_at_frequency_floor(self, spec):
        actor = self.make(spec, cap_w=40.0, grace_periods=0,
                          policy=DeadBandPolicy(band_w=2.0, up_patience=1))
        actor.actuator.set_level(0)
        actor.handle(report(20.0, by_pid={self.pid: 20.0}))
        assert actor.events[-1].action == "throttle"
        assert actor.throttle.depth() == 1

    def test_unthrottle_before_step_up(self, spec):
        actor = self.make(spec, cap_w=40.0, grace_periods=0,
                          policy=DeadBandPolicy(band_w=2.0, up_patience=1))
        actor.actuator.set_level(0)
        actor.handle(report(20.0, by_pid={self.pid: 20.0}))  # throttle
        actor.handle(report(1.0))   # low: unwind throttle first
        assert actor.events[-1].action == "unthrottle"
        assert actor.throttle.depth() == 0
        actor.handle(report(1.0))   # next: frequency back up
        assert actor.events[-1].action == "step-up"

    def test_throttle_disabled(self, spec):
        actor = self.make(spec, cap_w=40.0, grace_periods=0,
                          throttle=False)
        actor.actuator.set_level(0)
        actor.handle(report(20.0))
        assert actor.throttle.depth() == 0
        assert actor.events[-1].action == "unattainable"

    def test_cap_below_idle_floor_is_unattainable_once(self, spec):
        actor = self.make(spec, cap_w=10.0)
        actor.handle(report(5.0, idle_w=31.48))
        actor.handle(report(5.0, idle_w=31.48))
        unattainable = [e for e in actor.events
                        if e.action == "unattainable"]
        assert len(unattainable) == 1
        assert "idle floor" in unattainable[0].detail

    def test_set_cap_rearms_unattainable(self, spec):
        actor = self.make(spec, cap_w=10.0)
        actor.handle(report(5.0))
        actor.handle(SetCap(cap_w=60.0))
        actor.handle(SetCap(cap_w=10.0))
        actor.handle(report(5.0))
        unattainable = [e for e in actor.events
                        if e.action == "unattainable"]
        assert len(unattainable) == 2

    def test_remove_cap_unwinds_actuation(self, spec):
        actor = self.make(spec, cap_w=40.0, grace_periods=0)
        actor.actuator.set_level(0)
        actor.handle(report(20.0))  # throttle at floor
        actor.handle(SetCap(cap_w=None))
        assert not actor.actuator.armed
        assert actor.throttle.depth() == 0
        assert actor.events[-1].action == "cap-removed"
        # Without a cap, reports are ignored.
        actor.handle(report(50.0))
        assert actor.events[-1].action == "cap-removed"

    def test_gap_reports_freeze_loop(self, spec):
        actor = self.make(spec, cap_w=40.0, grace_periods=0)
        level = actor.actuator.level
        actor.handle(report(0.0, gap=True, by_pid={}))
        assert actor.actuator.level == level
        assert actor.events == []

    def test_events_mirror_to_health(self, spec):
        actor = self.make(spec, cap_w=40.0, grace_periods=0)
        actor.handle(report(20.0))
        kinds = [entry[1] for entry in actor.published
                 if isinstance(entry, tuple) and entry[0] == "health"]
        assert "cap-step-down" in kinds

    def test_rejects_bad_construction(self, spec):
        kernel = SimKernel(spec)
        with pytest.raises(ConfigurationError):
            PowerCapActor(kernel, cap_w=-1.0)
        with pytest.raises(ConfigurationError):
            PowerCapActor(kernel, cap_w=40.0, grace_periods=-1)


# ---------------------------------------------------------------------------
# Spec / fluent / registry integration


class TestControlSpec:
    def test_round_trips_through_json(self):
        spec = PipelineSpec(
            pids=(1,), reporters=(StageSpec("memory"),),
            control=ControlSpec(cap_w=42.0,
                                policy=StageSpec("pi", {"kp": 0.5}),
                                grace_periods=2, throttle=False))
        again = PipelineSpec.from_json(spec.to_json())
        assert again == spec
        assert again.control.policy.params["kp"] == 0.5

    def test_round_trips_through_toml(self):
        spec = PipelineSpec(
            pids=(1,), reporters=(StageSpec("memory"),),
            control=ControlSpec(cap_w=42.0))
        assert PipelineSpec.from_toml(spec.to_toml()) == spec

    def test_no_control_section_omitted(self):
        spec = PipelineSpec(pids=(1,), reporters=(StageSpec("memory"),))
        assert "control" not in spec.to_dict()

    def test_unknown_control_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown control"):
            ControlSpec.from_dict({"cap_w": 40.0, "bogus": 1})

    def test_missing_cap_rejected(self):
        with pytest.raises(ConfigurationError, match="cap_w"):
            ControlSpec.from_dict({"grace_periods": 1})

    def test_validate_rejects_unknown_policy(self):
        spec = PipelineSpec(
            pids=(1,), reporters=(StageSpec("memory"),),
            control=ControlSpec(cap_w=40.0,
                                policy=StageSpec("fuzzy-logic")))
        with pytest.raises(ConfigurationError, match="unknown policy"):
            spec.validate()

    def test_validate_rejects_bad_policy_params(self):
        spec = PipelineSpec(
            pids=(1,), reporters=(StageSpec("memory"),),
            control=ControlSpec(cap_w=40.0,
                                policy=StageSpec("deadband",
                                                 {"bogus": True})))
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            spec.validate()

    def test_fluent_cap_matches_config_spec(self, spec, model):
        kernel = SimKernel(spec)
        pid = kernel.spawn(CpuStress(utilization=1.0, threads=1,
                                     duration_s=5), name="w")
        api = PowerAPI(kernel, model, period_s=0.5)
        fluent = (api.monitor(pid).every(0.5)
                  .cap(40.0, policy="pi", grace_periods=2, kp=0.5)
                  .spec())
        config = PipelineSpec.from_dict({
            "pids": [pid], "period_s": 0.5,
            "control": {"cap_w": 40.0,
                        "policy": {"type": "pi", "kp": 0.5},
                        "grace_periods": 2}})
        assert fluent.control == config.control
        api.shutdown()


# ---------------------------------------------------------------------------
# End-to-end: the actor in the pipeline, three scenarios


def run_capped(spec, model, workload, cap_w, duration_s=25.0,
               policy="deadband", **cap_kwargs):
    kernel = SimKernel(spec, quantum_s=0.02)
    pid = kernel.spawn(workload, name="workload")
    api = PowerAPI(kernel, model, period_s=0.5)
    memory = InMemoryReporter()
    handle = (api.monitor(pid).every(0.5)
              .cap(cap_w, policy=policy, **cap_kwargs).to(memory))
    api.run(duration_s)
    api.shutdown()
    return handle, memory


SCENARIOS = [
    ("cpu", lambda: CpuStress(utilization=1.0, threads=4, duration_s=60)),
    ("memory", lambda: MemoryStress(utilization=1.0, threads=4,
                                    duration_s=60)),
    ("mixed", lambda: MixedStress(utilization=1.0, threads=4,
                                  duration_s=60)),
]


class TestEndToEndAdherence:
    @pytest.mark.parametrize("name,factory", SCENARIOS,
                             ids=[s[0] for s in SCENARIOS])
    def test_holds_cap_within_5_percent(self, spec, model, name, factory):
        cap = 40.0
        handle, memory = run_capped(spec, model, factory(), cap)
        totals = memory.total_series()
        assert len(totals) >= 40
        # The cap must actually bind: the loop had to act.
        assert any(e.action == "step-down"
                   for e in handle.control.events), name
        steady = totals[int(len(totals) * 0.6):]
        mean = sum(steady) / len(steady)
        assert mean <= cap * 1.05, (name, mean)
        adherence = sum(1 for t in steady if t <= cap * 1.05) / len(steady)
        assert adherence >= 0.9, (name, adherence)

    def test_pi_policy_holds_cap(self, spec, model):
        cap = 40.0
        handle, memory = run_capped(
            spec, model, CpuStress(utilization=1.0, threads=4,
                                   duration_s=60), cap, policy="pi")
        steady = memory.total_series()[30:]
        mean = sum(steady) / len(steady)
        assert mean <= cap * 1.05
        assert any(e.action == "step-down" for e in handle.control.events)

    def test_unconstrained_cap_never_actuates(self, spec, model):
        handle, memory = run_capped(
            spec, model, CpuStress(utilization=1.0, threads=4,
                                   duration_s=60), 500.0, duration_s=10.0)
        assert handle.control.events == []
        assert memory.cap_events == []

    def test_mid_run_set_cap(self, spec, model):
        kernel = SimKernel(spec, quantum_s=0.02)
        pid = kernel.spawn(CpuStress(utilization=1.0, threads=4,
                                     duration_s=60), name="w")
        api = PowerAPI(kernel, model, period_s=0.5)
        memory = InMemoryReporter()
        handle = api.monitor(pid).every(0.5).cap(500.0).to(memory)
        api.run(5.0)
        assert handle.control.events == []
        handle.set_cap(40.0)
        api.run(15.0)
        api.shutdown()
        assert any(e.action == "cap-set" for e in handle.control.events)
        steady = memory.total_series()[-10:]
        assert sum(steady) / len(steady) <= 40.0 * 1.05

    def test_cap_costs_throughput_and_energy(self, spec, model):
        def run(cap_w):
            handle, _memory = run_capped(
                spec, model, CpuStress(utilization=1.0, threads=4,
                                       duration_s=60), cap_w,
                duration_s=15.0)
            machine = handle.control.kernel.machine
            return machine.counters.read("instructions"), machine.energy_j

        free_work, free_energy = run(1000.0)
        capped_work, capped_energy = run(42.0)
        assert capped_work < free_work
        assert capped_energy < free_energy

    def test_solar_feed_followed_via_set_cap(self, spec, model):
        def budget(time_s):  # a 38-55 W sinusoid, like a solar feed
            return 46.5 + 8.5 * math.sin(2 * math.pi * time_s / 20.0)

        kernel = SimKernel(spec, quantum_s=0.02)
        pid = kernel.spawn(CpuStress(utilization=1.0, threads=4,
                                     duration_s=60), name="w")
        api = PowerAPI(kernel, model, period_s=0.5)
        memory = InMemoryReporter()
        handle = api.monitor(pid).every(0.5).cap(budget(0.0)).to(memory)
        # Update every 2 s, not every period: each SetCap resets the
        # dead-band up_patience streak, so it could never step back up.
        for _slice in range(15):
            api.run(2.0)
            handle.set_cap(budget(kernel.time_s))
        api.shutdown()
        steps = [event for event in handle.control.events
                 if event.action in ("step-down", "step-up")]
        # The loop follows the feed back up, not just down to one cap.
        assert {event.action for event in steps} == {"step-down",
                                                     "step-up"}
        assert len({event.frequency_hz for event in steps}) >= 3
        over = sum(1 for r in memory.aggregated
                   if r.total_w > budget(r.time_s) + 2.0)
        assert over / len(memory.aggregated) < 0.35

    def test_stop_restores_governor(self, spec, model):
        kernel = SimKernel(spec, quantum_s=0.02)
        original = kernel.governor
        pid = kernel.spawn(CpuStress(utilization=1.0, threads=4,
                                     duration_s=60), name="w")
        api = PowerAPI(kernel, model, period_s=0.5)
        handle = (api.monitor(pid).every(0.5).cap(40.0)
                  .to(InMemoryReporter()))
        api.run(5.0)
        assert kernel.governor is not original
        handle.stop()
        api.system.dispatch()
        assert kernel.governor is original
        api.shutdown()

    def test_set_cap_without_control_raises(self, spec, model):
        kernel = SimKernel(spec, quantum_s=0.02)
        pid = kernel.spawn(CpuStress(utilization=1.0, threads=1,
                                     duration_s=5), name="w")
        api = PowerAPI(kernel, model, period_s=0.5)
        handle = api.monitor(pid).every(0.5).to(InMemoryReporter())
        with pytest.raises(ConfigurationError, match="no control loop"):
            handle.set_cap(40.0)
        api.shutdown()


# ---------------------------------------------------------------------------
# Reporter surfacing


class TestReporterSurfacing:
    def test_memory_reporter_collects_cap_events(self, spec, model):
        handle, memory = run_capped(
            spec, model, CpuStress(utilization=1.0, threads=4,
                                   duration_s=60), 40.0, duration_s=10.0)
        assert memory.cap_events
        assert memory.cap_events[0].action == "step-down"
        assert memory.cap_events == handle.control.events

    def test_csv_control_columns(self, spec, model, tmp_path):
        path = tmp_path / "capped.csv"
        kernel = SimKernel(spec, quantum_s=0.02)
        pid = kernel.spawn(CpuStress(utilization=1.0, threads=4,
                                     duration_s=60), name="w")
        api = PowerAPI(kernel, model, period_s=0.5)
        builder = api.monitor(pid).every(0.5).cap(40.0)
        handle = builder.to("csv", path=str(path), control=True)
        api.run(10.0)
        api.shutdown()
        lines = path.read_text().strip().splitlines()
        assert lines[0].endswith("gap,cap_w,cap_hz")
        last = lines[-1].split(",")
        assert last[-2] == "40.0000"
        assert int(last[-1]) < spec.max_frequency_hz

    def test_csv_without_control_keeps_historical_header(self, tmp_path):
        reporter = CsvReporter(tmp_path / "plain.csv", pids=[7])
        reporter.on_start()
        reporter.on_stop()
        header = (tmp_path / "plain.csv").read_text().strip()
        assert header == "time_s,total_w,idle_w,pid_7_w,gap"

    def test_jsonl_control_records(self, spec, model, tmp_path):
        path = tmp_path / "capped.jsonl"
        kernel = SimKernel(spec, quantum_s=0.02)
        pid = kernel.spawn(CpuStress(utilization=1.0, threads=4,
                                     duration_s=60), name="w")
        api = PowerAPI(kernel, model, period_s=0.5)
        api.monitor(pid).every(0.5).cap(40.0).to(
            "jsonl", path=str(path), control=True)
        api.run(10.0)
        api.shutdown()
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        cap_events = [r for r in records if "cap_event" in r]
        reports = [r for r in records if "control" in r]
        assert cap_events and reports
        assert cap_events[0]["cap_event"]["action"] == "step-down"
        assert reports[-1]["control"]["cap_w"] == 40.0

    def test_prometheus_cap_gauges(self, spec, model, tmp_path):
        path = tmp_path / "metrics.prom"
        kernel = SimKernel(spec, quantum_s=0.02)
        pid = kernel.spawn(CpuStress(utilization=1.0, threads=4,
                                     duration_s=60), name="w")
        api = PowerAPI(kernel, model, period_s=0.5)
        api.monitor(pid).every(0.5).cap(40.0).to(
            "prometheus", path=str(path))
        api.run(10.0)
        api.shutdown()
        text = path.read_text()
        assert "powerapi_cap_watts 40.0000" in text
        assert "powerapi_cap_hertz" in text

    def test_prometheus_without_cap_unchanged(self, tmp_path):
        path = tmp_path / "plain.prom"
        reporter = PrometheusReporter(path)
        reporter.handle(report(5.0))
        assert "powerapi_cap" not in path.read_text()

    def test_cap_health_events_reach_health_log(self, spec, model):
        handle, _memory = run_capped(
            spec, model, CpuStress(utilization=1.0, threads=4,
                                   duration_s=60), 40.0, duration_s=10.0)
        kinds = {event.kind for event in handle.health}
        assert "cap-step-down" in kinds


# ---------------------------------------------------------------------------
# CapEvent wire form


class TestCapEventWire:
    def test_round_trip(self):
        event = CapEvent(time_s=2.5, action="throttle", cap_w=40.0,
                         estimate_w=45.2, frequency_hz=1600000000,
                         level=0, pid=1003, detail="nice 5")
        assert CapEvent.from_wire(event.to_wire()) == event

    def test_round_trip_no_cap(self):
        event = CapEvent(time_s=2.5, action="cap-removed", cap_w=None,
                         estimate_w=0.0, frequency_hz=3300000000, level=9)
        again = CapEvent.from_wire(json.loads(json.dumps(event.to_wire())))
        assert again == event

    def test_set_cap_validates(self):
        with pytest.raises(ConfigurationError):
            SetCap(cap_w=0.0)
        assert SetCap(cap_w=None).cap_w is None


# ---------------------------------------------------------------------------
# CLI


class TestCli:
    @pytest.fixture(scope="class")
    def model_path(self, tmp_path_factory):
        from repro.cli import main
        path = tmp_path_factory.mktemp("control-cli") / "model.json"
        out = io.StringIO()
        main(["learn", "--quick", "--output", str(path)], out=out)
        return path

    def run_cli(self, argv):
        from repro.cli import main
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_monitor_with_cap(self, model_path):
        code, output = self.run_cli(
            ["monitor", "--model", str(model_path), "--workload", "cpu",
             "--duration", "8", "--period", "0.5", "--cap", "40"])
        assert code == 0
        assert "power cap: 40.0 W (deadband policy)" in output
        assert "cap actuations:" in output
        assert "step-down" in output

    def test_monitor_with_pi_policy(self, model_path):
        code, output = self.run_cli(
            ["monitor", "--model", str(model_path), "--workload", "cpu",
             "--duration", "6", "--period", "0.5", "--cap", "40",
             "--cap-policy", "pi"])
        assert code == 0
        assert "pi policy" in output

    def test_monitor_without_cap_prints_nothing_about_caps(self,
                                                           model_path):
        code, output = self.run_cli(
            ["monitor", "--model", str(model_path), "--workload", "cpu",
             "--duration", "3"])
        assert code == 0
        assert "cap actuations" not in output
