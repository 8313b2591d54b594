"""Unit tests for the workload library."""

import pytest

from repro.errors import ConfigurationError
from repro.os.kernel import SimKernel
from repro.simcpu.spec import intel_i3_2120
from repro.workloads.base import (ConstantWorkload, Phase, PhasedWorkload,
                                  cpu_demand, memory_demand)
from repro.workloads.idle import BackgroundNoise, IdleWorkload
from repro.workloads.mix import RandomWorkload, colocated_pair
from repro.workloads.speccpu import (APP_NAMES, spec_cpu_app, spec_cpu_suite)
from repro.workloads.specjbb import RT_CURVE_STEPS, SpecJbbWorkload
from repro.workloads.stress import (CpuStress, MemoryStress, MixedStress,
                                    stress_matrix)
from repro.workloads.webserver import WebServerWorkload


class TestPhasedWorkload:
    def test_requires_phases(self):
        with pytest.raises(ConfigurationError):
            PhasedWorkload([])

    def test_phase_rejects_zero_duration(self):
        with pytest.raises(ConfigurationError):
            Phase(0.0, cpu_demand())

    def test_walks_phases_in_order(self):
        workload = PhasedWorkload([
            Phase(1.0, cpu_demand(utilization=0.2)),
            Phase(1.0, cpu_demand(utilization=0.8)),
        ])
        assert workload.demand(0.5).utilization == 0.2
        assert workload.demand(1.5).utilization == 0.8

    def test_finishes_after_last_phase(self):
        workload = PhasedWorkload([Phase(1.0, cpu_demand())])
        assert workload.demand(1.0) is None

    def test_repeat_wraps(self):
        workload = PhasedWorkload([Phase(1.0, cpu_demand(utilization=0.3))],
                                  repeat=True)
        assert workload.demand(5.4).utilization == 0.3
        assert workload.total_duration_s() is None

    def test_total_duration(self):
        workload = PhasedWorkload([Phase(1.0, cpu_demand()),
                                   Phase(2.5, cpu_demand())])
        assert workload.total_duration_s() == pytest.approx(3.5)


class TestConstantWorkload:
    def test_open_ended(self):
        workload = ConstantWorkload(cpu_demand())
        assert workload.demand(1e6) is not None
        assert workload.total_duration_s() is None

    def test_time_limited(self):
        workload = ConstantWorkload(cpu_demand(), duration_s=2.0)
        assert workload.demand(1.9) is not None
        assert workload.demand(2.0) is None


class TestDemandHelpers:
    def test_cpu_demand_is_cache_friendly(self):
        demand = cpu_demand()
        assert demand.memory.working_set_bytes <= 64 * 1024

    def test_memory_demand_is_cache_hostile(self):
        demand = memory_demand()
        assert demand.memory.working_set_bytes >= 1024 ** 2
        assert demand.memory.mem_ops_per_instruction > 0.3


class TestStress:
    def test_cpu_stress_name_encodes_level(self):
        assert CpuStress(utilization=0.75).name == "stress-cpu-75"

    def test_memory_stress_name_encodes_working_set(self):
        workload = MemoryStress(working_set_bytes=2 * 1024 ** 2)
        assert workload.name == "stress-mem-2048k"

    def test_mixed_rejects_extreme_fp(self):
        with pytest.raises(ConfigurationError):
            MixedStress(fp_fraction=0.9)

    def test_matrix_covers_dimensions(self):
        workloads = stress_matrix(levels=(0.5, 1.0),
                                  working_sets=(1024, 1024 ** 2))
        names = [w.name for w in workloads]
        assert any("cpu" in name for name in names)
        assert any("mem" in name for name in names)
        assert any("mixed" in name for name in names)
        # 2 cpu + 2x2 memory + 2 mixed.
        assert len(workloads) == 8

    def test_matrix_rejects_bad_level(self):
        with pytest.raises(ConfigurationError):
            stress_matrix(levels=(0.0,))


class TestSpecJbb:
    def test_deterministic_for_seed(self):
        a = SpecJbbWorkload(duration_s=100, seed=7)
        b = SpecJbbWorkload(duration_s=100, seed=7)
        times = [0.0, 10.0, 55.5, 99.0]
        assert ([a.demand(t).utilization for t in times]
                == [b.demand(t).utilization for t in times])

    def test_different_seeds_differ(self):
        a = SpecJbbWorkload(duration_s=100, seed=7)
        b = SpecJbbWorkload(duration_s=100, seed=8)
        times = [20.0, 40.0, 60.0, 80.0]
        assert ([a.demand(t).utilization for t in times]
                != [b.demand(t).utilization for t in times])

    def test_ramp_grows(self):
        workload = SpecJbbWorkload(duration_s=1000, jitter=0.0)
        assert (workload.base_utilization(10.0)
                < workload.base_utilization(100.0))

    def test_staircase_visits_levels(self):
        workload = SpecJbbWorkload(duration_s=1000, jitter=0.0)
        ramp_end = 0.12 * 1000
        steady = 1000 - ramp_end
        step = steady / len(RT_CURVE_STEPS)
        seen = {workload.base_utilization(ramp_end + step * (i + 0.5))
                for i in range(len(RT_CURVE_STEPS))}
        assert seen == set(RT_CURVE_STEPS)

    def test_finishes(self):
        workload = SpecJbbWorkload(duration_s=50)
        assert workload.demand(50.0) is None
        assert workload.total_duration_s() == 50.0

    def test_gc_bursts_occur(self):
        workload = SpecJbbWorkload(duration_s=500, seed=3)
        gc_seconds = [t / 10 for t in range(5000)
                      if workload.in_gc(t / 10)]
        assert gc_seconds  # at least one burst fires

    def test_gc_demand_is_memory_heavy(self):
        workload = SpecJbbWorkload(duration_s=500, seed=3)
        gc_time = next(t / 10 for t in range(5000) if workload.in_gc(t / 10))
        demand = workload.demand(gc_time)
        assert demand.utilization == 1.0
        assert demand.memory.locality < 0.8

    def test_rejects_bad_jitter(self):
        with pytest.raises(ConfigurationError):
            SpecJbbWorkload(jitter=0.9)

    def test_multithreaded_demand(self):
        workload = SpecJbbWorkload(threads=4)
        assert workload.demand(100.0).threads == 4


class TestSeededTracesArePlainFloats:
    """Regression: seeded jitter once reached demands as ``np.float64``.

    ``type(x) is float``, not ``isinstance``: ``np.float64`` subclasses
    ``float`` and would pass an ``isinstance`` check.
    """

    def test_specjbb_utilization_at_ramp_plateau_and_gc(self):
        workload = SpecJbbWorkload(duration_s=500, seed=3)
        gc_time = next(t / 10 for t in range(5000) if workload.in_gc(t / 10))
        plateau_time = next(t for t in range(100, 500)
                            if not workload.in_gc(float(t)))
        assert type(workload.in_gc(gc_time)) is bool
        for time_s in (5.0, float(plateau_time), gc_time):
            assert type(workload.demand(time_s).utilization) is float

    def test_webserver_utilization(self):
        workload = WebServerWorkload(duration_s=60.0)
        for time_s in (0.0, 17.5, 59.0):
            assert type(workload.demand(time_s).utilization) is float

    def test_busy_fraction_after_one_kernel_quantum(self):
        kernel = SimKernel(intel_i3_2120(), quantum_s=0.001)
        kernel.spawn(SpecJbbWorkload(duration_s=60.0, threads=2))
        placed = []
        assign = kernel.scheduler.assign

        def recording_assign(demands):
            placed.append(assign(demands))
            return placed[-1]

        kernel.scheduler.assign = recording_assign
        record = kernel.tick()
        assert placed[-1]
        for assignment in placed[-1]:
            assert type(assignment.busy_fraction) is float
        assert all(type(busy) is float for busy in record.cpu_busy.values())


class TestSpecCpu:
    def test_six_apps(self):
        assert len(APP_NAMES) == 6
        assert len(spec_cpu_suite()) == 6

    def test_unknown_app_raises(self):
        with pytest.raises(ConfigurationError):
            spec_cpu_app("gcc")

    def test_apps_have_distinct_profiles(self):
        demands = [app.phases[0].demand for app in spec_cpu_suite()]
        working_sets = {d.memory.working_set_bytes for d in demands}
        assert len(working_sets) >= 4

    def test_mcf_is_memory_bound(self):
        demand = spec_cpu_app("mcf").phases[0].demand
        assert demand.memory.working_set_bytes > 32 * 1024 ** 2
        assert demand.memory.locality < 0.7

    def test_namd_is_fp_heavy(self):
        demand = spec_cpu_app("namd").phases[0].demand
        assert demand.mix.fp_fraction > 0.3

    def test_duration_override(self):
        app = spec_cpu_app("bzip2", duration_s=5.0)
        assert app.total_duration_s() == 5.0
        assert app.demand(5.0) is None


class TestIdle:
    def test_idle_demands_nothing(self):
        workload = IdleWorkload()
        assert workload.demand(100.0).utilization == 0.0

    def test_idle_with_duration_finishes(self):
        workload = IdleWorkload(duration_s=1.0)
        assert workload.demand(1.0) is None

    def test_background_noise_is_light(self):
        workload = BackgroundNoise()
        assert workload.demand(0.0).utilization <= 0.05


class TestMix:
    def test_random_workload_deterministic(self):
        a = RandomWorkload(duration_s=30, seed=5)
        b = RandomWorkload(duration_s=30, seed=5)
        times = [1.0, 10.0, 25.0]
        assert ([a.demand(t).utilization for t in times]
                == [b.demand(t).utilization for t in times])

    def test_random_workload_covers_duration(self):
        workload = RandomWorkload(duration_s=30, seed=5)
        assert workload.demand(29.9) is not None
        assert workload.demand(30.1) is None

    def test_random_rejects_bad_duration(self):
        with pytest.raises(ConfigurationError):
            RandomWorkload(duration_s=0)

    def test_colocated_pair_asymmetric(self):
        compute, memory = colocated_pair(duration_s=10)
        compute_demand = compute.demand(1.0)
        memory_demand_ = memory.demand(1.0)
        assert (compute_demand.memory.working_set_bytes
                < memory_demand_.memory.working_set_bytes)
        assert compute_demand.mix.fp_fraction > memory_demand_.mix.fp_fraction
