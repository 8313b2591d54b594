"""C2 — related-work comparison: HAPPY (hyperthread-aware power model).

The paper cites Zhai et al.'s hyperthread-aware model reaching a 7.5 %
average error on (unreproducible) private Google benchmarks, where
SMT-oblivious models err more because two hyperthreads on one core draw
far less than two cores.

Reproduction: the hyperthread-aware model (per-logical-CPU overlap
feature, OLS with a free-signed overlap weight) against the SMT-oblivious
generic trio, both scored on co-located asymmetric workload pairs on the
SMT Xeon — the placement mix that maximises the effect.  Expected shape:
the HT-aware model lands in the high single digits and beats the
oblivious one.
"""

import pytest

from repro.analysis.report import render_grid
from repro.baselines.evaluation import score_model
from repro.baselines.happy import HAPPY_BASE_EVENTS, learn_happy_model
from repro.core.sampling import (SamplingCampaign, learn_power_model,
                                 run_windows)
from repro.simcpu.spec import intel_xeon_smt
from repro.workloads.mix import colocated_pair
from repro.workloads.stress import CpuStress, MemoryStress

SETTLE_S = 100.0


@pytest.fixture(scope="module")
def xeon_spec():
    return intel_xeon_smt()


@pytest.fixture(scope="module")
def happy_model(xeon_spec):
    report = learn_happy_model(
        xeon_spec,
        frequencies_hz=[xeon_spec.max_frequency_hz],
        duration_per_run_s=6.0, settle_s=SETTLE_S, window_s=1.0,
        quantum_s=0.05, idle_duration_s=15.0)
    return report.model


@pytest.fixture(scope="module")
def oblivious_model(xeon_spec):
    """Same steady-state discipline, but SMT-oblivious.

    Trained only on *spread* placements (at most one thread per physical
    core, the default scheduler's preference) — the per-thread attribution
    Zhai et al. show breaks down once threads share a core.
    """
    campaign = SamplingCampaign(
        xeon_spec,
        workloads=[CpuStress(utilization=u, threads=t)
                   for u in (0.5, 1.0) for t in (1, 2, 4)]
        + [MemoryStress(utilization=1.0, threads=t,
                        working_set_bytes=32 * 1024 ** 2)
           for t in (1, 4)],
        frequencies_hz=[xeon_spec.max_frequency_hz],
        window_s=1.0, windows_per_run=4, settle_s=SETTLE_S, quantum_s=0.05)
    return learn_power_model(xeon_spec, campaign=campaign,
                             idle_duration_s=15.0).model


@pytest.fixture(scope="module")
def colocated_windows(xeon_spec):
    """Windows from separate SMT co-location scenarios.

    Each placement runs alone (its own steady-state machine) so every
    window isolates one co-location pattern: one compute pair, a fully
    packed package, a half-load packed package, and an asymmetric
    compute/memory pair.
    """
    compute_a, memory_a = colocated_pair(duration_s=400.0)
    scenarios = [
        [CpuStress(duration_s=400.0)] * 2,
        [CpuStress(duration_s=400.0)] * 8,
        [CpuStress(utilization=0.5, duration_s=400.0)] * 8,
        [compute_a, memory_a],
    ]
    windows = []
    for index, workloads in enumerate(scenarios):
        windows.extend(run_windows(
            xeon_spec, workloads,
            frequency_hz=xeon_spec.max_frequency_hz,
            events=HAPPY_BASE_EVENTS, duration_s=12.0, window_s=1.0,
            settle_s=SETTLE_S, quantum_s=0.05, meter_seed=9100 + index,
            with_smt_overlap=True, pin_each_to_core=True))
    return windows


def test_cmp_happy_error_band(benchmark, happy_model, colocated_windows,
                              save_result):
    summary = benchmark.pedantic(score_model,
                                 args=(happy_model, colocated_windows),
                                 rounds=3, iterations=1)
    save_result("cmp_happy",
                f"hyperthread-aware model on SMT co-located pairs: "
                f"mean APE {summary['mean_ape'] * 100:.2f}% "
                f"(paper cites HAPPY: 7.5% average)")
    # Published shape: single-digit error on SMT-heavy placements.
    assert summary["mean_ape"] < 0.12


def test_cmp_happy_beats_smt_oblivious(happy_model, oblivious_model,
                                       colocated_windows, benchmark,
                                       save_result):
    def scores():
        aware = score_model(happy_model, colocated_windows)["mean_ape"]
        oblivious = score_model(oblivious_model,
                                colocated_windows)["mean_ape"]
        return aware, oblivious

    aware, oblivious = benchmark.pedantic(scores, rounds=1, iterations=1)
    save_result("cmp_happy_vs_oblivious", render_grid(
        ["model", "mean APE on SMT co-location"],
        [["hyperthread-aware (overlap feature)", f"{aware * 100:.2f}%"],
         ["SMT-oblivious generic trio", f"{oblivious * 100:.2f}%"]],
        title="C2: hyperthread awareness matters on SMT parts"))
    assert aware < oblivious
