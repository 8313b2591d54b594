"""Estimate-driven power capping, checked on the `repro.control` loop.

The cap controller is the PowerCapActor: it reads aggregated PowerAPI
estimates (never the meter) and walks the DVFS ceiling through a
FrequencyCapActuator.  The unit tests drive the actor directly with the
hysteresis the controller is built for (a 5 W headroom band, two low
readings before stepping up, no grace window); the run tests go through
the fluent ``.cap()`` entry point on a four-thread CPU stress.
"""

import pytest

from repro.control.policy import DeadBandPolicy
from repro.core.messages import AggregatedPowerReport
from repro.core.model import FrequencyFormula, PowerModel
from repro.core.monitor import PowerAPI
from repro.core.reporters import InMemoryReporter
from repro.errors import ConfigurationError
from repro.os.kernel import SimKernel
from repro.simcpu.spec import intel_i3_2120
from repro.workloads.stress import CpuStress

from tests.test_control import DirectCapActor

pytestmark = pytest.mark.control

IDLE_W = 31.48


@pytest.fixture(scope="module")
def spec():
    return intel_i3_2120()


@pytest.fixture(scope="module")
def model(spec):
    # A reasonable model for the i3: scales with frequency like the
    # published one.
    formulas = []
    for frequency in spec.frequencies_hz:
        scale = (frequency / spec.max_frequency_hz) ** 3
        formulas.append(FrequencyFormula(frequency, {
            "instructions": 2.8e-9 * scale,
            "cache-references": 3.8e-8 * scale,
            "cache-misses": 3.5e-7 * scale,
        }))
    return PowerModel(idle_w=IDLE_W, formulas=formulas, name="cap-model")


def make_controller(spec, budget, headroom_w=5.0, up_patience=2, **kwargs):
    """An armed cap actor on a loaded kernel, driven report by report."""
    kernel = SimKernel(spec)
    kernel.spawn(CpuStress(utilization=1.0, threads=4, duration_s=60),
                 name="w")
    actor = DirectCapActor(
        kernel, cap_w=budget, grace_periods=0,
        policy=DeadBandPolicy(band_w=headroom_w, up_patience=up_patience),
        **kwargs)
    actor.actuator.arm()
    return actor, kernel


def feed(actor, kernel, active_w, time_s=1.0):
    """Deliver one estimate and let the governor apply the ceiling."""
    actor.handle(AggregatedPowerReport(
        time_s=time_s, period_s=1.0, by_pid={1: active_w}, idle_w=IDLE_W,
        formula="f"))
    kernel.tick()
    return kernel.machine.frequency.target(0, 0)


class TestCappingGovernor:
    def test_starts_at_max_frequency(self, spec):
        actor, kernel = make_controller(spec, 45.0)
        kernel.tick()
        assert actor.actuator.at_ceiling
        assert kernel.machine.frequency.target(0, 0) == spec.max_frequency_hz

    def test_steps_down_when_over_budget(self, spec):
        actor, kernel = make_controller(spec, 40.0)
        assert feed(actor, kernel, 20.0) < spec.max_frequency_hz

    def test_steps_up_when_far_below_budget(self, spec):
        actor, kernel = make_controller(spec, 60.0, headroom_w=2.0)
        # Push it down twice first.
        for _ in range(2):
            down = feed(actor, kernel, 40.0)
        # Stepping back up takes `up_patience` consecutive low readings.
        for step in range(actor.policy.up_patience):
            up = feed(actor, kernel, 2.0, time_s=3.0 + step)
        assert up > down

    def test_hysteresis_holds_frequency(self, spec):
        actor, kernel = make_controller(spec, 40.0, headroom_w=5.0)
        held = feed(actor, kernel, 20.0)
        # Estimate inside the [budget - headroom, budget] band: no change.
        assert feed(actor, kernel, 6.0, time_s=2.0) == held

    def test_never_leaves_ladder(self, spec):
        actor, kernel = make_controller(spec, 33.0, throttle=False)
        for step in range(30):
            target = feed(actor, kernel, 50.0, time_s=float(step))
        assert actor.actuator.at_floor
        assert target == spec.min_frequency_hz

    def test_rejects_negative_headroom(self, spec):
        with pytest.raises(ConfigurationError):
            make_controller(spec, 40.0, headroom_w=-1.0)


def run_capped(spec, model, budget, duration_s):
    """Run four busy threads under *budget*; return the handle and series."""
    kernel = SimKernel(spec, quantum_s=0.02)
    pid = kernel.spawn(CpuStress(utilization=1.0, threads=4,
                                 duration_s=1000.0), name="w")
    api = PowerAPI(kernel, model, period_s=0.5)
    memory = InMemoryReporter()
    handle = api.monitor(pid).every(0.5).cap(budget).to(memory)
    api.run(duration_s)
    final_hz = kernel.machine.frequency.target(0, 0)
    api.shutdown()
    return handle, memory, final_hz


class TestRunCapped:
    def test_cap_respected(self, spec, model):
        _handle, memory, _final = run_capped(spec, model, 45.0, 20.0)
        totals = memory.total_series()
        # After convergence the estimates stay at/under the cap almost
        # always (the first seconds may overshoot while stepping down).
        over = sum(1 for total in totals if total > 45.0 + 1.0)
        assert over / len(totals) < 0.25

    def test_frequency_trace_descends_under_tight_cap(self, spec, model):
        handle, _memory, final_hz = run_capped(spec, model, 38.0, 10.0)
        assert any(e.action == "step-down" for e in handle.control.events)
        assert final_hz < spec.max_frequency_hz
