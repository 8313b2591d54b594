"""A4 — ablation: sampling settle time vs hot-run accuracy.

Mechanism check for the Figure 3 error: the paper's quick stress
sampling runs seconds per operating point, but silicon leakage keeps
rising for ~2 thermal time constants.  Training three otherwise
identical models with increasing settle time and scoring them on a
*hot* sustained run isolates how much of the 15 % headline error is the
cold-training artefact.
"""

import pytest

from conftest import paper_style_workloads

from repro.analysis.report import render_grid
from repro.baselines.evaluation import score_model
from repro.core.sampling import (SamplingCampaign, learn_power_model,
                                 run_windows)
from repro.workloads.stress import CpuStress, MemoryStress

pytestmark = pytest.mark.paper

#: Settle times to sweep: cold (the paper's style), warm, steady-state.
SETTLES_S = (0.5, 30.0, 100.0)


@pytest.fixture(scope="module")
def models_by_settle(i3_spec):
    models = {}
    for settle_s in SETTLES_S:
        campaign = SamplingCampaign(
            i3_spec, workloads=paper_style_workloads(),
            frequencies_hz=[i3_spec.max_frequency_hz],
            window_s=1.0, windows_per_run=4, settle_s=settle_s,
            quantum_s=0.05)
        models[settle_s] = learn_power_model(
            i3_spec, campaign=campaign, idle_duration_s=10.0).model
    return models


@pytest.fixture(scope="module")
def hot_windows(i3_spec):
    """A sustained mixed run, well past thermal equilibrium."""
    return run_windows(
        i3_spec,
        [CpuStress(utilization=1.0, threads=2, duration_s=1000.0),
         MemoryStress(utilization=1.0, threads=2, duration_s=1000.0,
                      working_set_bytes=64 * 1024 ** 2)],
        frequency_hz=i3_spec.max_frequency_hz,
        duration_s=30.0, window_s=1.0, settle_s=120.0, quantum_s=0.05)


def test_abl_settle_time_reduces_hot_error(benchmark, models_by_settle,
                                           hot_windows, save_result):
    def sweep():
        return {settle: score_model(model, hot_windows)["median_ape"]
                for settle, model in models_by_settle.items()}

    errors = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [[f"{settle:.1f} s", f"{errors[settle] * 100:.1f}%"]
            for settle in SETTLES_S]
    save_result("abl_thermal", render_grid(
        ["training settle per point", "median APE on hot 30 s run"], rows,
        title="A4: cold sampling (the paper's quick methodology) "
              "underestimates hot runs"))

    # Longer settle monotonically reduces the hot-run error and the
    # steady-state model cuts the cold model's error by at least a third.
    cold, warm, steady = (errors[s] for s in SETTLES_S)
    assert steady < warm < cold
    assert steady < cold * 0.67


def test_abl_cold_model_underestimates(models_by_settle, hot_windows,
                                       benchmark):
    """The cold model's error is specifically *under*-estimation."""
    cold_model = models_by_settle[SETTLES_S[0]]

    def mean_bias():
        deltas = [cold_model.predict_total(w.frequency_hz, w.features)
                  - w.power_w for w in hot_windows]
        return sum(deltas) / len(deltas)

    bias = benchmark(mean_bias)
    assert bias < -2.0  # watts below the meter, like Figure 3's plateaus
