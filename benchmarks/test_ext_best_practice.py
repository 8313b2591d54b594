"""E3 — extension: how far better sampling takes the same three counters.

The paper blames its 15 % median error partly on the generic counters
("only consider the generic counters is not necessarily the most
reliable solution").  A4 and A1 decompose the error; this experiment
composes the fixes: same machine, same SPECjbb trace, same three
counters — but a best-practice campaign (partial-load levels, thread
sweep, several working sets, thermal steady-state settle) instead of the
quick full-load one.

Shape claim: the paper's ~15 % drops into the mid single digits without
touching the model form, showing the error was mostly methodology, not
metric choice.
"""

import pytest

from conftest import paper_campaign

from repro.analysis.traces import PowerTrace, compare
from repro.core.monitor import PowerAPI
from repro.core.reporters import InMemoryReporter
from repro.core.sampling import SamplingCampaign, learn_power_model
from repro.os.kernel import SimKernel
from repro.powermeter.powerspy import PowerSpy
from repro.workloads.specjbb import SpecJbbWorkload
from repro.workloads.stress import CpuStress, MemoryStress, MixedStress

pytestmark = pytest.mark.paper

TRACE_S = 600.0


def best_practice_campaign(spec):
    """Partial loads, thread sweep, working-set sweep, steady-state settle."""
    mib = 1024 ** 2
    workloads = (
        [CpuStress(utilization=u, threads=t)
         for u in (0.3, 0.6, 1.0) for t in (1, 4)]
        + [MemoryStress(utilization=u, threads=4, working_set_bytes=ws)
           for u in (0.5, 1.0) for ws in (2 * mib, 64 * mib)]
        + [MixedStress(utilization=0.7, threads=2)]
    )
    return SamplingCampaign(
        spec, workloads=workloads,
        frequencies_hz=[spec.max_frequency_hz],
        window_s=1.0, windows_per_run=3, settle_s=100.0, quantum_s=0.05)


def specjbb_error(spec, model, meter_seed=777):
    kernel = SimKernel(spec, quantum_s=0.05)
    meter = PowerSpy(kernel.machine, sample_rate_hz=1.0, seed=meter_seed)
    meter.connect()
    pid = kernel.spawn(SpecJbbWorkload(duration_s=TRACE_S, threads=4),
                       name="specjbb")
    api = PowerAPI(kernel, model, period_s=1.0)
    handle = api.monitor(pid).every(1.0).to(InMemoryReporter())
    api.run(TRACE_S)
    measured = PowerTrace.from_samples("powerspy", meter.samples)
    estimated = PowerTrace.from_series("estimate",
                                       handle.reporter.time_series(),
                                       handle.reporter.total_series())
    summary = compare(measured, estimated)
    api.shutdown()
    return summary["median_ape"]


def test_ext_best_practice_halves_the_error(benchmark, i3_spec,
                                            save_result):
    paper_style = learn_power_model(
        i3_spec,
        campaign=paper_campaign(i3_spec,
                                frequencies_hz=[i3_spec.max_frequency_hz]),
        idle_duration_s=10.0).model
    best = learn_power_model(
        i3_spec, campaign=best_practice_campaign(i3_spec),
        idle_duration_s=10.0).model

    def evaluate():
        return (specjbb_error(i3_spec, paper_style),
                specjbb_error(i3_spec, best))

    paper_error, best_error = benchmark.pedantic(evaluate, rounds=1,
                                                 iterations=1)
    save_result("ext_best_practice",
                "E3: same machine, same SPECjbb trace, same 3 counters\n"
                f"paper-style quick sampling:       "
                f"{paper_error * 100:.1f}% median APE\n"
                f"best-practice sampling campaign:  "
                f"{best_error * 100:.1f}% median APE\n"
                "(partial loads + thread sweep + working-set sweep + "
                "thermal steady-state settle)")

    # The composition of fixes at least halves the paper's error.
    assert best_error < paper_error * 0.5
    assert best_error < 0.08
