"""E2 — extension: adaptive power capping from PowerAPI estimates.

The paper's motivation section calls for "adaptive strategies that can
cope with the sporadic nature" of renewable energy.  This benchmark runs
the estimate-driven DVFS cap loop (``repro.control``, armed with
``.cap(...)``) at several budgets and under a solar-like varying budget,
and reports the compliance/throughput trade-off the estimates enable
*without any physical meter in the loop*.
"""

import math

import pytest

from conftest import paper_campaign

from repro.analysis.report import render_grid
from repro.core.monitor import PowerAPI
from repro.core.reporters import InMemoryReporter
from repro.core.sampling import learn_power_model
from repro.os.kernel import SimKernel
from repro.workloads.stress import CpuStress

pytestmark = pytest.mark.paper

PERIOD_S = 0.5
# Re-set the solar budget every 1 s, not every period: each SetCap resets
# the dead-band up_patience streak, so the loop would never step back up.
BUDGET_UPDATE_S = 1.0


@pytest.fixture(scope="module")
def cap_model(i3_spec):
    """A per-frequency model (the controller needs the whole ladder)."""
    return learn_power_model(i3_spec, campaign=paper_campaign(i3_spec),
                             idle_duration_s=10.0).model


def run_capped_stress(spec, model, budget, duration_s, update_s=None):
    """Run 4 busy threads capped at ``budget(t)`` watts.

    The cap starts at ``budget(0)``; with *update_s* it is re-set
    through ``MonitorHandle.set_cap`` that often.  Returns the kernel,
    the monitor handle and the in-memory reporter.
    """
    kernel = SimKernel(spec, quantum_s=0.02)
    pid = kernel.spawn(CpuStress(utilization=1.0, threads=4,
                                 duration_s=1000.0), name="stress")
    api = PowerAPI(kernel, model, period_s=PERIOD_S)
    memory = InMemoryReporter()
    handle = api.monitor(pid).every(PERIOD_S).cap(budget(0.0)).to(memory)
    slice_s = update_s or duration_s
    for _slice in range(int(round(duration_s / slice_s))):
        api.run(slice_s)
        if update_s:
            handle.set_cap(budget(kernel.time_s))
    api.shutdown()
    return kernel, handle, memory


def fixed(watts):
    """A constant budget."""
    return lambda _time_s: watts


def overshoot_fraction(memory, budget, tolerance_w):
    """Fraction of periods whose estimate exceeded budget + tolerance."""
    over = sum(1 for report in memory.aggregated
               if report.total_w > budget(report.time_s) + tolerance_w)
    return over / len(memory.aggregated)


def step_frequencies(handle):
    """The DVFS ceilings the loop stepped to, in order."""
    return [event.frequency_hz for event in handle.control.events
            if event.action in ("step-down", "step-up")]


def test_ext_fixed_budgets_tradeoff(benchmark, i3_spec, cap_model,
                                    save_result):
    # All feasible: the machine floor (idle + 4 busy threads at the
    # lowest P-state) sits near 41 W on this part.
    budgets = [65.0, 50.0, 44.0]

    def sweep():
        return {budget: run_capped_stress(i3_spec, cap_model,
                                          fixed(budget), duration_s=20.0)
                for budget in budgets}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    previous_instructions = None
    for budget in budgets:
        kernel, _handle, memory = results[budget]
        instructions = kernel.machine.counters.read("instructions")
        overshoot = overshoot_fraction(memory, fixed(budget), 1.5)
        rows.append([
            f"{budget:.0f} W",
            f"{overshoot * 100:.0f}%",
            f"{kernel.machine.energy_j:.0f} J",
            f"{instructions / 1e9:.1f} G",
        ])
        if previous_instructions is not None:
            # Tighter budget -> less work done (monotone trade-off).
            assert instructions <= previous_instructions * 1.02
        previous_instructions = instructions
    save_result("ext_capping", render_grid(
        ["budget", "overshoot", "true energy", "work"],
        rows,
        title="E2: estimate-driven power capping "
              "(20 s, 4 busy threads, no meter in the loop)"))

    # Under the loosest budget nothing is throttled; under the tightest
    # the machine uses much less energy.
    assert (results[44.0][0].machine.energy_j
            < results[65.0][0].machine.energy_j * 0.8)


def test_ext_infeasible_budget_pegs_minimum(benchmark, i3_spec, cap_model,
                                            save_result):
    """A budget below the machine floor drives (and holds) the lowest
    P-state — the controller degrades gracefully instead of oscillating."""
    duration_s = 15.0
    _kernel, handle, _memory = benchmark.pedantic(
        lambda: run_capped_stress(i3_spec, cap_model, fixed(34.0),
                                  duration_s),
        rounds=1, iterations=1)
    # Second half of the run: pegged at the minimum frequency.
    assert step_frequencies(handle)[-1] == i3_spec.min_frequency_hz
    assert not [event for event in handle.control.events
                if event.action == "step-up"
                and event.time_s > duration_s / 2]
    save_result("ext_capping_infeasible",
                "budget 34 W is below the ~41 W machine floor: controller "
                "pegs the lowest P-state and holds it (no oscillation)")


def test_ext_solar_feed_followed(benchmark, i3_spec, cap_model,
                                   save_result):
    def budget(time_s):  # a 38-58 W sinusoid imitating a solar feed
        return 48.0 + 10.0 * math.sin(2 * math.pi * time_s / 20.0)

    _kernel, handle, memory = benchmark.pedantic(
        lambda: run_capped_stress(i3_spec, cap_model, budget,
                                  duration_s=40.0,
                                  update_s=BUDGET_UPDATE_S),
        rounds=1, iterations=1)
    overshoot = overshoot_fraction(memory, budget, tolerance_w=2.5)
    visited = len(set(step_frequencies(handle)))
    save_result("ext_capping_solar",
                f"solar budget 38-58 W, 40 s, cap re-set every "
                f"{BUDGET_UPDATE_S:.0f} s: overshoot "
                f"{overshoot * 100:.1f}% of periods, "
                f"{visited} P-states visited")
    # The controller genuinely follows the feed up and down the ladder.
    assert visited >= 3
    assert any(event.action == "step-up" for event in handle.control.events)
    assert overshoot < 0.40
