"""A2 — ablation: per-frequency models vs one global linear model.

The paper's model structure computes "one power model per frequency"
(Section 3) because voltage scaling makes power superlinear in frequency:
a single linear model over counter rates cannot represent ten P-states at
once.  This ablation quantifies that design choice.
"""

import pytest

from repro.analysis.report import render_grid
from repro.baselines.evaluation import score_model
from repro.core.model import FrequencyFormula, PowerModel
from repro.core.regression import fit
from repro.core.sampling import learn_power_model, run_windows
from repro.simcpu.counters import CACHE_MISSES, CACHE_REFERENCES, CYCLES
from repro.workloads.mix import RandomWorkload

#: Both structures get the same adequate event set (busy time + caches),
#: so the ablation isolates the per-frequency-vs-pooled choice rather
#: than re-testing the trio's known weaknesses.
EVENTS = (CYCLES, CACHE_REFERENCES, CACHE_MISSES)


@pytest.fixture(scope="module")
def frequency_report(i3_spec):
    """Per-frequency models over a three-frequency ladder subset.

    Trained on the richer utilisation grid (partial loads included) so
    both model structures see the same training distribution and the
    ablation isolates only the per-frequency-vs-pooled choice.
    """
    from repro.core.sampling import SamplingCampaign
    from repro.workloads.stress import CpuStress, MemoryStress

    frequencies = [i3_spec.min_frequency_hz,
                   i3_spec.frequencies_hz[len(i3_spec.frequencies_hz) // 2],
                   i3_spec.max_frequency_hz]
    workloads = ([CpuStress(utilization=u, threads=t)
                  for u in (0.25, 0.5, 1.0) for t in (1, 4)]
                 + [MemoryStress(utilization=u, threads=4,
                                 working_set_bytes=ws)
                    for u in (0.5, 1.0)
                    for ws in (2 * 1024 ** 2, 64 * 1024 ** 2)])
    campaign = SamplingCampaign(
        i3_spec, events=EVENTS, workloads=workloads,
        frequencies_hz=frequencies,
        window_s=1.0, windows_per_run=4, settle_s=0.5, quantum_s=0.05)
    return learn_power_model(i3_spec, events=EVENTS, campaign=campaign,
                             idle_duration_s=10.0)


@pytest.fixture(scope="module")
def global_model(i3_spec, frequency_report):
    """One formula fitted on the pooled all-frequency dataset."""
    features, targets = frequency_report.dataset.feature_matrix(None)
    idle_w = frequency_report.idle_w
    active = [max(0.0, power - idle_w) for power in targets]
    result = fit(features, active, list(EVENTS), method="nnls",
                 fit_intercept=False)
    return PowerModel(idle_w, [FrequencyFormula(
        i3_spec.max_frequency_hz, dict(result.coefficients))],
        name="global-pooled")


@pytest.fixture(scope="module")
def dvfs_windows(i3_spec, frequency_report):
    """Held-out load levels pinned in turn at each modelled frequency.

    Sweeping the ladder exposes the structural question cleanly: a global
    linear formula must mispredict at the P-states it averaged away.  The
    evaluation workloads stay within the training family (stress at
    *unseen* utilisation levels, cold silicon, short runs) so the only
    generalisation demanded is across frequency — exactly the axis the
    two structures differ on.
    """
    from repro.workloads.stress import CpuStress, MemoryStress

    held_out = [
        [CpuStress(utilization=0.85, threads=4, duration_s=100.0)],
        [CpuStress(utilization=0.4, threads=2, duration_s=100.0)],
        [MemoryStress(utilization=0.85, threads=4, duration_s=100.0,
                      working_set_bytes=16 * 1024 ** 2)],
    ]
    windows = []
    run = 0
    for frequency in frequency_report.model.frequencies_hz:
        for workloads in held_out:
            run += 1
            windows.extend(run_windows(
                i3_spec, workloads,
                frequency_hz=frequency, events=EVENTS,
                duration_s=10.0, window_s=1.0,
                quantum_s=0.05, meter_seed=6600 + run))
    return windows


def test_abl_per_frequency_beats_global(benchmark, frequency_report,
                                        global_model, dvfs_windows,
                                        save_result):
    per_frequency = frequency_report.model
    frequencies = per_frequency.frequencies_hz

    def scores():
        rows = []
        for frequency in frequencies:
            at_frequency = [w for w in dvfs_windows
                            if w.frequency_hz == frequency]
            rows.append((
                frequency,
                score_model(per_frequency, at_frequency)["median_ape"],
                score_model(global_model, at_frequency)["median_ape"],
            ))
        overall = (score_model(per_frequency, dvfs_windows)["median_ape"],
                   score_model(global_model, dvfs_windows)["median_ape"])
        return rows, overall

    rows, overall = benchmark.pedantic(scores, rounds=1, iterations=1)
    grid = [[f"{frequency / 1e9:.2f} GHz",
             f"{per_freq * 100:.2f}%", f"{pooled * 100:.2f}%"]
            for frequency, per_freq, pooled in rows]
    grid.append(["overall", f"{overall[0] * 100:.2f}%",
                 f"{overall[1] * 100:.2f}%"])
    save_result("abl_per_frequency", render_grid(
        ["pinned frequency", "per-frequency (paper)", "pooled global"],
        grid,
        title="A2: the per-frequency model structure under a DVFS sweep"))

    # Overall the paper's structure wins; at the low end — the P-states a
    # pooled fit averages away — it must win decisively.
    assert overall[0] < overall[1]
    low_frequency, low_per_freq, low_pooled = rows[0]
    assert low_per_freq < low_pooled


def test_abl_formulas_differ_across_frequencies(frequency_report, benchmark):
    """The learned formulas are genuinely frequency-dependent."""
    model = frequency_report.model
    rates = {"instructions": 2e9, "cache-references": 2e8,
             "cache-misses": 2e7}
    low = model.predict_active(model.frequencies_hz[0], rates)
    high = benchmark(model.predict_active, model.frequencies_hz[-1], rates)
    # Same counter rates cost visibly more at high frequency/voltage.
    assert high > low * 1.2
