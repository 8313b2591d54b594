"""F1 — Figure 1: the power-model learning process.

Exercises the full pipeline of the paper's Figure 1: stress workloads x
every available frequency, PowerSpy + HPC collection, multivariate
regression, one model per frequency.  The benchmark times one complete
(workload, frequency) sampling run — the unit the campaign repeats.
"""

import pytest

from conftest import paper_campaign, paper_style_workloads

from repro.analysis.report import render_grid
from repro.core.sampling import SamplingCampaign
from repro.simcpu.counters import GENERIC_TRIO

pytestmark = pytest.mark.paper


def test_fig1_sampling_run(benchmark, i3_spec):
    """Time one pinned sampling run (the repeated unit of Figure 1)."""
    campaign = SamplingCampaign(
        i3_spec, workloads=paper_style_workloads()[:1],
        frequencies_hz=[i3_spec.max_frequency_hz],
        window_s=1.0, windows_per_run=2, settle_s=0.25, quantum_s=0.05)
    points = benchmark.pedantic(campaign.run, rounds=3, iterations=1)
    assert len(points) == 2


def test_fig1_full_learning_process(benchmark, i3_spec, paper_model_report,
                                    save_result):
    """The complete campaign: every frequency gets its own formula."""
    report = paper_model_report
    # One formula per available frequency, as the paper requires.
    assert report.model.frequencies_hz == i3_spec.all_frequencies_hz
    # The sampled dataset covers every frequency with every workload.
    assert len(report.dataset.frequencies_hz) == len(
        i3_spec.all_frequencies_hz)
    # The regression used the paper's generic counters.
    assert set(report.model.events) == set(GENERIC_TRIO)
    # Counter rates span a wide dynamic range (CPU- vs memory-bound).
    misses = [point.rates["cache-misses"] for point in report.dataset.points]
    assert max(misses) > 100 * (min(misses) + 1.0)

    from repro.core.validation import cross_validate

    rows = []
    for frequency in report.model.frequencies_hz:
        result = report.regressions[frequency]
        validation = cross_validate(report.dataset, report.idle_w,
                                    frequency)
        rows.append([f"{frequency / 1e9:.2f} GHz",
                     str(result.samples),
                     f"{result.r2:.3f}",
                     f"{validation.pooled_median_ape * 100:.1f}%"])
    save_result("fig1_learning", render_grid(
        ["frequency", "samples", "train r2", "LOWO median APE"], rows,
        title="Figure 1 pipeline: per-frequency regressions "
              f"(idle = {report.idle_w:.2f} W; LOWO = leave-one-"
              "workload-out cross-validation)"))

    benchmark.pedantic(lambda: report.model.predict_total(
        i3_spec.max_frequency_hz,
        {"instructions": 1e9, "cache-references": 1e8,
         "cache-misses": 1e7}), rounds=100, iterations=10)
