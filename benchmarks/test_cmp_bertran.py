"""C1 — related-work comparison: Bertran et al. (decomposable model).

The paper cites Bertran et al.'s decomposable per-component power model
reaching a 4.63 % average error on six SPEC CPU2006 applications on a
Core 2 Duo — "a simple architecture without any features for improving
performances (no HyperThreading, no TurboBoost)".

Reproduction: the decomposable model (wide per-component event set,
steady-state training) is learned on the simulated Core 2 Duo and scored
on the six synthetic SPEC CPU apps.  Expected shape: a mean error within
a few percent — clearly better than the generic-trio PowerAPI methodology
on the same workloads.
"""

import pytest

from conftest import paper_style_workloads

from repro.analysis.report import render_grid
from repro.baselines.bertran import BERTRAN_EVENTS, learn_bertran_model
from repro.baselines.evaluation import score_model
from repro.core.sampling import (SamplingCampaign, learn_power_model,
                                 run_windows)
from repro.simcpu.spec import intel_core2duo_e6600
from repro.workloads.speccpu import APP_NAMES, spec_cpu_app
from repro.workloads.stress import CpuStress, MemoryStress, MixedStress

pytestmark = pytest.mark.paper

#: Steady-state settle (past the thermal time constant).
SETTLE_S = 100.0


def _training_workloads(threads):
    kib, mib = 1024, 1024 ** 2
    workloads = []
    for utilization in (0.5, 1.0):
        workloads.append(CpuStress(utilization=utilization, threads=threads))
        workloads.append(MixedStress(utilization=utilization,
                                     threads=threads))
        for working_set in (256 * kib, 8 * mib, 64 * mib):
            workloads.append(MemoryStress(
                utilization=utilization, threads=threads,
                working_set_bytes=working_set))
    return workloads


@pytest.fixture(scope="module")
def core2_spec():
    return intel_core2duo_e6600()


@pytest.fixture(scope="module")
def bertran_model(core2_spec):
    campaign = SamplingCampaign(
        core2_spec, events=BERTRAN_EVENTS,
        workloads=_training_workloads(core2_spec.num_threads),
        frequencies_hz=[core2_spec.max_frequency_hz],
        window_s=1.0, windows_per_run=4, settle_s=SETTLE_S, quantum_s=0.05)
    return learn_bertran_model(core2_spec, campaign=campaign,
                               idle_duration_s=15.0).model


@pytest.fixture(scope="module")
def speccpu_windows(core2_spec):
    """Each app measured alone at steady state, like Bertran's protocol."""
    windows = {}
    # Seeded by position: str hashes are salted per process, so a
    # hash-derived seed would change the result on every run.
    for index, name in enumerate(APP_NAMES):
        windows[name] = run_windows(
            core2_spec, [spec_cpu_app(name)],
            frequency_hz=core2_spec.max_frequency_hz,
            events=BERTRAN_EVENTS, duration_s=30.0, window_s=1.0,
            settle_s=SETTLE_S, quantum_s=0.05,
            meter_seed=index)
    return windows


def test_cmp_bertran_error_band(benchmark, core2_spec, bertran_model,
                                speccpu_windows, save_result):
    per_app = {}
    for name, windows in speccpu_windows.items():
        per_app[name] = score_model(bertran_model, windows)["mean_ape"]
    average = sum(per_app.values()) / len(per_app)

    rows = [[name, f"{error * 100:.2f}%"]
            for name, error in sorted(per_app.items())]
    rows.append(["average", f"{average * 100:.2f}%"])
    save_result("cmp_bertran", render_grid(
        ["SPEC CPU app", "mean APE"], rows,
        title="C1: decomposable model on Core 2 Duo "
              "(paper cites Bertran et al.: 4.63% average)"))

    benchmark.pedantic(
        lambda: score_model(bertran_model,
                            speccpu_windows[APP_NAMES[0]]),
        rounds=3, iterations=1)
    # The published shape: mid-single-digit average error.
    assert average < 0.09


def test_cmp_bertran_beats_generic_trio(core2_spec, bertran_model,
                                        speccpu_windows, benchmark,
                                        save_result):
    """On the same apps, the quick generic-trio methodology does worse."""
    trio_campaign = SamplingCampaign(
        core2_spec,
        workloads=paper_style_workloads(core2_spec.num_threads),
        frequencies_hz=[core2_spec.max_frequency_hz],
        window_s=1.0, windows_per_run=4, settle_s=0.5, quantum_s=0.05)
    trio_model = learn_power_model(core2_spec, campaign=trio_campaign,
                                   idle_duration_s=10.0).model

    def scores():
        bertran_errors = []
        trio_errors = []
        for windows in speccpu_windows.values():
            bertran_errors.append(
                score_model(bertran_model, windows)["mean_ape"])
            trio_errors.append(score_model(trio_model, windows)["mean_ape"])
        return (sum(bertran_errors) / len(bertran_errors),
                sum(trio_errors) / len(trio_errors))

    bertran_avg, trio_avg = benchmark.pedantic(scores, rounds=1,
                                               iterations=1)
    save_result("cmp_bertran_vs_trio",
                f"decomposable (steady-state, {len(BERTRAN_EVENTS)} events): "
                f"{bertran_avg * 100:.2f}%\n"
                f"generic trio (quick sampling, 3 events):   "
                f"{trio_avg * 100:.2f}%")
    assert bertran_avg < trio_avg
