#!/usr/bin/env python3
"""Adaptive power capping under a sporadic (solar-like) energy budget.

The paper's motivation: renewable energy "is introducing the need for
the development of adaptive strategies that can cope with the sporadic
nature of these energy feeds".  Here the PowerAPI *estimates* (no meter
in the loop) drive the pipeline's DVFS cap loop, and the caller moves
the cap along a sinusoidal power budget with ``MonitorHandle.set_cap``,
trading throughput for compliance.

Run:  python examples/power_capping.py
"""

import math

from repro.analysis import PowerTrace, ascii_chart
from repro.core import (InMemoryReporter, PowerAPI, SamplingCampaign,
                        learn_power_model)
from repro.os import SimKernel
from repro.simcpu import intel_i3_2120
from repro.workloads import CpuStress, MemoryStress

DURATION_S = 60.0
PERIOD_S = 0.5
# Re-set the cap every 1 s, not every period: each SetCap resets the
# dead-band up_patience streak, so the loop would never step back up.
BUDGET_UPDATE_S = 1.0


def solar_feed_w(time_s: float) -> float:
    """A 38-58 W sinusoid with a 30 s period, imitating a solar feed."""
    return 48.0 + 10.0 * math.sin(2 * math.pi * time_s / 30.0)


def run(spec, model, budget):
    """Run four busy threads capped at ``budget(t)``; return the run."""
    kernel = SimKernel(spec, quantum_s=0.02)
    pid = kernel.spawn(CpuStress(utilization=1.0, threads=4,
                                 duration_s=1000.0), name="stress")
    api = PowerAPI(kernel, model, period_s=PERIOD_S)
    memory = InMemoryReporter()
    handle = api.monitor(pid).every(PERIOD_S).cap(budget(0.0)).to(memory)
    for _slice in range(int(DURATION_S / BUDGET_UPDATE_S)):
        api.run(BUDGET_UPDATE_S)
        handle.set_cap(budget(kernel.time_s))
    api.shutdown()
    return kernel, handle, memory


def main() -> None:
    spec = intel_i3_2120()
    print("learning a power model (~10 s) ...")
    campaign = SamplingCampaign(
        spec,
        workloads=[CpuStress(utilization=1.0, threads=4),
                   MemoryStress(utilization=1.0, threads=4,
                                working_set_bytes=64 * 1024 ** 2)],
        window_s=1.0, windows_per_run=3, settle_s=0.5)
    model = learn_power_model(spec, campaign=campaign,
                              idle_duration_s=10.0).model

    print(f"running {DURATION_S:.0f} s capped by the solar budget ...")
    capped, handle, memory = run(spec, model, solar_feed_w)
    print("running the same load uncapped for comparison ...")
    uncapped, _handle, _memory = run(spec, model, lambda _time_s: 1000.0)

    times = memory.time_series()
    estimate_trace = PowerTrace.from_series("estimated", times,
                                            memory.total_series())
    budget_trace = PowerTrace.from_series(
        "budget", times, [solar_feed_w(t) for t in times])
    print(ascii_chart([budget_trace, estimate_trace], width=78, height=14,
                      title="Estimated power tracking the solar budget"))

    over = sum(1 for report in memory.aggregated
               if report.total_w > solar_feed_w(report.time_s) + 2.0)
    capped_j = capped.machine.energy_j
    uncapped_j = uncapped.machine.energy_j
    print(f"budget overshoot:   {over / len(memory.aggregated) * 100:.1f}% "
          "of periods (controller lag)")
    print(f"energy consumed:    capped {capped_j:.0f} J vs "
          f"uncapped {uncapped_j:.0f} J "
          f"({(1 - capped_j / uncapped_j) * 100:.0f}% saved)")
    print(f"work accomplished:  capped "
          f"{capped.machine.counters.read('instructions') / 1e9:.1f} G vs "
          f"uncapped "
          f"{uncapped.machine.counters.read('instructions') / 1e9:.1f} G "
          "instructions")
    ladder = sorted({event.frequency_hz for event in handle.control.events
                     if event.action in ("step-down", "step-up")})
    print(f"P-states visited:   "
          f"{', '.join(f'{f / 1e9:.1f} GHz' for f in ladder)}")


if __name__ == "__main__":
    main()
