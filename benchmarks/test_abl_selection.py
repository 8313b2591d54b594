"""A1 — ablation: Spearman counter selection (the paper's future work).

The paper concludes that "only consider[ing] the generic counters is not
necessarily the most reliable solution leading to high errors" and plans
"the Spearman rank correlation for finding automatically the most
correlated ones with the power consumption".

Reproduction: rank every portable counter by Spearman correlation with
measured power on a rich sampling dataset, select a diverse top-3, learn
models on (a) the fixed generic trio and (b) the selected set, and score
both on held-out random workloads.  Expected shape: the automatic
selection demotes ``instructions`` (weakly correlated on this silicon),
promotes busy-time counters, and does not lose to the fixed trio.
"""

import pytest

from repro.analysis.report import render_grid
from repro.baselines.evaluation import score_model
from repro.core.calibration import calibrate_idle_power
from repro.core.model import FrequencyFormula, PowerModel
from repro.core.regression import fit
from repro.core.sampling import SamplingCampaign, run_windows
from repro.core.selection import rank_counters, select_counters
from repro.perf.events import portable_events
from repro.simcpu.counters import GENERIC_TRIO
from repro.workloads.mix import RandomWorkload
from repro.workloads.stress import CpuStress, MemoryStress, MixedStress


@pytest.fixture(scope="module")
def rich_dataset(i3_spec):
    """A sampling dataset with every portable event and varied load."""
    campaign = SamplingCampaign(
        i3_spec, events=portable_events(),
        workloads=[CpuStress(utilization=u, threads=t)
                   for u in (0.25, 0.5, 1.0) for t in (1, 4)]
        + [MemoryStress(utilization=u, threads=4, working_set_bytes=ws)
           for u in (0.5, 1.0)
           for ws in (2 * 1024 ** 2, 64 * 1024 ** 2)]
        + [MixedStress(utilization=u, threads=2) for u in (0.5, 1.0)],
        frequencies_hz=[i3_spec.max_frequency_hz],
        window_s=1.0, windows_per_run=4, settle_s=0.5, quantum_s=0.05)
    return campaign.run()


@pytest.fixture(scope="module")
def idle_w(i3_spec):
    return calibrate_idle_power(i3_spec, duration_s=10.0)


def _model_from(dataset, events, idle_w, frequency_hz):
    features, targets = dataset.feature_matrix(frequency_hz)
    active = [max(0.0, power - idle_w) for power in targets]
    result = fit(features, active, list(events), method="nnls",
                 fit_intercept=False)
    return PowerModel(idle_w, [FrequencyFormula(
        frequency_hz, dict(result.coefficients))])


@pytest.fixture(scope="module")
def holdout_windows(i3_spec):
    return run_windows(
        i3_spec,
        [RandomWorkload(duration_s=150.0, seed=33, threads=2),
         RandomWorkload(duration_s=150.0, seed=44, threads=2)],
        frequency_hz=i3_spec.max_frequency_hz, events=portable_events(),
        duration_s=150.0, window_s=1.0, quantum_s=0.05)


def test_abl_spearman_ranking(benchmark, rich_dataset, save_result):
    ranking = benchmark(rank_counters, rich_dataset, method="spearman")
    scores = dict(ranking.ranked)

    rows = [[event, f"{score:.3f}"] for event, score in ranking.ranked]
    save_result("abl_selection_ranking", render_grid(
        ["portable event", "|spearman| vs power"], rows,
        title="A1: Spearman correlation ranking "
              "(the paper's proposed automatic selection)"))

    # The paper's suspicion confirmed: the fixed trio is not optimal —
    # plain instruction counting correlates weakly once IPC varies.
    assert scores["cycles"] > scores["instructions"]
    # Cache activity genuinely tracks power (the paper's observation).
    assert scores["cache-references"] > 0.5


def test_abl_selected_vs_fixed_trio(benchmark, i3_spec, rich_dataset,
                                    idle_w, holdout_windows, save_result):
    frequency = i3_spec.max_frequency_hz
    selected = select_counters(rich_dataset, k=3, method="spearman")
    trio_model = _model_from(rich_dataset, GENERIC_TRIO, idle_w, frequency)
    selected_model = _model_from(rich_dataset, selected, idle_w, frequency)

    def scores():
        return (score_model(trio_model, holdout_windows)["median_ape"],
                score_model(selected_model, holdout_windows)["median_ape"])

    trio_error, selected_error = benchmark.pedantic(scores, rounds=1,
                                                    iterations=1)
    save_result("abl_selection", render_grid(
        ["counter set", "median APE (held-out random load)"],
        [[" + ".join(GENERIC_TRIO), f"{trio_error * 100:.2f}%"],
         [" + ".join(selected), f"{selected_error * 100:.2f}%"]],
        title="A1: fixed generic trio vs Spearman-selected counters"))

    # Selection must not lose to the fixed trio (the paper's hypothesis
    # is that it wins; on this substrate it wins modestly).
    assert selected_error <= trio_error * 1.05


def test_abl_diverse_selection_avoids_duplicates(rich_dataset, benchmark):
    """Redundancy filtering spends the 3 slots on distinct signals."""
    naive = select_counters(rich_dataset, k=3, max_redundancy=None)
    diverse = benchmark(select_counters, rich_dataset, 3)
    # The naive top-3 contains near-duplicates (LLC loads ~ references);
    # the diverse set must not pick both spellings of the same signal.
    assert not {"cache-references", "LLC-loads"} <= set(diverse)
    assert len(set(diverse)) == 3
    del naive
