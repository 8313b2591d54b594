"""A3 — ablation: CPU-load metric vs hardware performance counters.

Section 3 argues HPCs beat the CPU load "as these performance counters
can capture all the processor activities while the CPU load mostly
indicates whether the processor executes a job" (contrasting with
Versick et al.).  This ablation holds the methodology fixed and swaps the
metric: a cycles-only (load) model vs the generic-counter model, scored
on workloads with equal load but different memory behaviour.
"""

import pytest

from repro.analysis.report import render_grid
from repro.baselines.cpuload import CPU_LOAD_EVENTS, learn_cpu_load_model
from repro.baselines.evaluation import score_model
from repro.core.sampling import (SamplingCampaign, learn_power_model,
                                 run_windows)
from repro.simcpu.counters import CYCLES, GENERIC_TRIO
from repro.workloads.stress import CpuStress, MemoryStress

MIB = 1024 ** 2


def _training_workloads():
    return ([CpuStress(utilization=u, threads=4) for u in (0.5, 1.0)]
            + [MemoryStress(utilization=u, threads=4,
                            working_set_bytes=64 * MIB)
               for u in (0.5, 1.0)]
            + [MemoryStress(utilization=1.0, threads=4,
                            working_set_bytes=2 * MIB)])


@pytest.fixture(scope="module")
def hpc_model(i3_spec):
    campaign = SamplingCampaign(
        i3_spec, workloads=_training_workloads(),
        frequencies_hz=[i3_spec.max_frequency_hz],
        window_s=1.0, windows_per_run=4, settle_s=0.5, quantum_s=0.05)
    return learn_power_model(i3_spec, campaign=campaign,
                             idle_duration_s=10.0).model


@pytest.fixture(scope="module")
def load_model(i3_spec):
    campaign = SamplingCampaign(
        i3_spec, events=CPU_LOAD_EVENTS, workloads=_training_workloads(),
        frequencies_hz=[i3_spec.max_frequency_hz],
        window_s=1.0, windows_per_run=4, settle_s=0.5, quantum_s=0.05)
    return learn_cpu_load_model(i3_spec, campaign=campaign,
                                idle_duration_s=10.0).model


@pytest.fixture(scope="module")
def heterogeneous_windows(i3_spec):
    """Same CPU load, very different memory traffic, run separately."""
    scenarios = [
        [CpuStress(utilization=0.8, threads=2, duration_s=400.0)],
        [MemoryStress(utilization=0.8, threads=2, duration_s=400.0,
                      working_set_bytes=96 * MIB, locality=0.6)],
        [CpuStress(utilization=0.8, duration_s=400.0),
         MemoryStress(utilization=0.8, duration_s=400.0,
                      working_set_bytes=96 * MIB, locality=0.6)],
    ]
    windows = []
    for index, workloads in enumerate(scenarios):
        windows.extend(run_windows(
            i3_spec, workloads, frequency_hz=i3_spec.max_frequency_hz,
            events=list(GENERIC_TRIO) + [CYCLES],
            duration_s=30.0, window_s=1.0, quantum_s=0.05,
            meter_seed=8800 + index))
    return windows


def test_abl_hpc_beats_cpu_load(benchmark, hpc_model, load_model,
                                heterogeneous_windows, save_result):
    def scores():
        return (score_model(hpc_model, heterogeneous_windows)["median_ape"],
                score_model(load_model, heterogeneous_windows)["median_ape"])

    hpc_error, load_error = benchmark.pedantic(scores, rounds=1,
                                               iterations=1)
    save_result("abl_cpuload", render_grid(
        ["activity metric", "median APE (equal-load mixed workloads)"],
        [["hardware performance counters (paper)",
          f"{hpc_error * 100:.2f}%"],
         ["CPU load (Versick et al.)", f"{load_error * 100:.2f}%"]],
        title="A3: HPCs see what the CPU load cannot"))

    assert hpc_error < load_error


def test_abl_load_blind_to_memory_traffic(load_model, hpc_model, i3_spec,
                                          heterogeneous_windows, benchmark):
    """The load model cannot tell equal-load CPU-bound and memory-bound
    windows apart at all — the HPC model can (the paper's §3 argument
    that load 'mostly indicates whether the processor executes a job')."""
    cpu_windows = [w for w in heterogeneous_windows
                   if w.workload == "stress-cpu-80"]
    mem_windows = [w for w in heterogeneous_windows
                   if w.workload.startswith("stress-mem") and
                   "+" not in w.workload]
    assert cpu_windows and mem_windows

    def load_prediction(window):
        return load_model.predict_total(window.frequency_hz,
                                        window.features)

    cpu_prediction = benchmark(load_prediction, cpu_windows[-1])
    mem_prediction = load_prediction(mem_windows[-1])
    # Equal load -> near-equal cycles -> near-equal load-model estimate.
    assert cpu_prediction == pytest.approx(mem_prediction, rel=0.02)

    # The HPC model sees the memory traffic and separates the scenarios.
    hpc_cpu = hpc_model.predict_total(cpu_windows[-1].frequency_hz,
                                      cpu_windows[-1].features)
    hpc_mem = hpc_model.predict_total(mem_windows[-1].frequency_hz,
                                      mem_windows[-1].features)
    assert abs(hpc_cpu - hpc_mem) > abs(cpu_prediction - mem_prediction)
