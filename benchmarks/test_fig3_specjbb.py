"""F3 — Figure 3: preliminary experiment on the SPECjbb2013 benchmark.

The paper overlays the PowerSpy trace with the PowerAPI estimation over a
~2500 s SPECjbb2013 run on the i3-2120 and reports that the estimates
"follow the same trend as the real power consumption and exhibit a
median error of 15 %".

This benchmark regenerates the full trace: the synthetic SPECjbb runs on
the simulated i3-2120 under live PowerAPI monitoring while a simulated
PowerSpy samples wall power; the two series are aligned and the figure is
rendered as an ASCII chart.  The reproduction must (a) follow the trend
(positive correlation) and (b) land in the paper's error band.
"""

import numpy as np
import pytest

from repro.analysis.report import ascii_chart, format_metrics
from repro.analysis.traces import PowerTrace, align, compare
from repro.core.monitor import PowerAPI
from repro.core.reporters import InMemoryReporter
from repro.os.kernel import SimKernel
from repro.powermeter.powerspy import PowerSpy
from repro.workloads.specjbb import SpecJbbWorkload

pytestmark = pytest.mark.paper

TRACE_DURATION_S = 2500.0


@pytest.fixture(scope="module")
def fig3_traces(i3_spec, paper_model):
    """(measured, estimated) traces for the full Figure 3 run."""
    kernel = SimKernel(i3_spec, quantum_s=0.05)
    meter = PowerSpy(kernel.machine, sample_rate_hz=1.0, seed=777)
    meter.connect()
    pid = kernel.spawn(SpecJbbWorkload(duration_s=TRACE_DURATION_S,
                                       threads=4), name="specjbb2013")
    api = PowerAPI(kernel, paper_model, period_s=1.0)
    handle = api.monitor(pid).every(1.0).to(InMemoryReporter())
    api.run(TRACE_DURATION_S)
    measured = PowerTrace.from_samples("powerspy", meter.samples)
    estimated = PowerTrace.from_series("powerapi",
                                       handle.reporter.time_series(),
                                       handle.reporter.total_series())
    return measured, estimated


def test_fig3_median_error_in_paper_band(fig3_traces, benchmark,
                                         save_result):
    from repro.analysis.stats import median_ape_interval

    measured, estimated = fig3_traces
    summary = benchmark.pedantic(compare, args=(measured, estimated),
                                 rounds=3, iterations=1)
    _times, aligned_measured, aligned_estimated = align(measured, estimated)
    interval = median_ape_interval(aligned_measured, aligned_estimated)

    chart = ascii_chart(
        [measured, estimated], width=78, height=18,
        title=f"Figure 3: SPECjbb2013 on i3-2120 — PowerSpy vs PowerAPI "
              f"({summary['aligned']} samples)")
    text = (chart + "\n\n"
            + format_metrics(summary) + "\n"
            + f"paper median error: 15%   "
              f"reproduction: {summary['median_ape'] * 100:.1f}% "
              f"(95% bootstrap CI {interval.low * 100:.1f}"
              f"-{interval.high * 100:.1f}%)")
    save_result("fig3_specjbb", text)

    # The paper's headline number: 15 % median error.  The substituted
    # substrate will not match exactly; the shape band is 10-22 %.
    assert 0.10 < summary["median_ape"] < 0.22
    # The interval is tight enough for the point estimate to be meaningful.
    assert interval.width < 0.05


def test_fig3_estimates_follow_the_trend(fig3_traces, benchmark):
    """'The estimations ... follow the same trend as the real power.'"""
    measured, estimated = fig3_traces
    times, ref, est = align(measured, estimated)
    correlation = benchmark(lambda: float(np.corrcoef(ref, est)[0, 1]))
    assert correlation > 0.6


def test_fig3_trace_covers_dynamic_range(fig3_traces, benchmark):
    """The trace shows the ramp and plateaus of Figure 3 (not flat)."""
    measured, _estimated = fig3_traces
    powers = np.asarray(measured.powers_w)
    benchmark(lambda: powers.std())
    # Load varies between near-idle+ and heavy load.
    assert powers.max() - powers.min() > 10.0
    assert powers.min() < 45.0
    assert powers.max() > 55.0
