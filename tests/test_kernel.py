"""Unit tests for repro.os.kernel and repro.os.procfs."""

import pytest

from repro.errors import ConfigurationError, ProcessError
from repro.os.governor import OndemandGovernor, PowersaveGovernor
from repro.os.kernel import SimKernel
from repro.os.process import ProcessState
from repro.os.scheduler import PackScheduler
from repro.simcpu.spec import intel_i3_2120
from repro.workloads.base import ConstantWorkload, cpu_demand
from repro.workloads.idle import IdleWorkload
from repro.workloads.stress import CpuStress


@pytest.fixture
def kernel(i3_spec):
    return SimKernel(i3_spec, quantum_s=0.01)


class TestSpawning:
    def test_spawn_returns_increasing_pids(self, kernel):
        pid1 = kernel.spawn(CpuStress(duration_s=1.0))
        pid2 = kernel.spawn(CpuStress(duration_s=1.0))
        assert pid2 > pid1

    def test_process_lookup(self, kernel):
        pid = kernel.spawn(CpuStress(duration_s=1.0), name="stress")
        assert kernel.process(pid).name == "stress"

    def test_unknown_pid_raises(self, kernel):
        with pytest.raises(ProcessError):
            kernel.process(1)

    def test_live_pids(self, kernel):
        pid = kernel.spawn(CpuStress(duration_s=1.0))
        assert kernel.live_pids == (pid,)

    def test_kill(self, kernel):
        pid = kernel.spawn(CpuStress(duration_s=10.0))
        kernel.kill(pid)
        assert kernel.live_pids == ()
        assert kernel.process(pid).state is ProcessState.EXITED


class TestRunning:
    def test_run_advances_time(self, kernel):
        kernel.run(0.1)
        assert kernel.time_s == pytest.approx(0.1)

    def test_rejects_negative_duration(self, kernel):
        with pytest.raises(ConfigurationError):
            kernel.run(-1.0)

    def test_rejects_bad_quantum(self, i3_spec):
        with pytest.raises(ConfigurationError):
            SimKernel(i3_spec, quantum_s=0.0)

    def test_finite_workload_exits(self, kernel):
        kernel.spawn(CpuStress(duration_s=0.05))
        kernel.run(0.1)
        assert kernel.live_pids == ()

    def test_run_until_idle_stops_at_exit(self, kernel):
        kernel.spawn(CpuStress(duration_s=0.05))
        kernel.run_until_idle(max_duration_s=10.0)
        assert kernel.time_s < 0.2

    def test_run_until_idle_bounded(self, kernel):
        kernel.spawn(ConstantWorkload(cpu_demand()))  # never exits
        kernel.run_until_idle(max_duration_s=0.05)
        assert kernel.time_s == pytest.approx(0.05, abs=0.02)

    def test_cpu_time_accounted(self, kernel):
        pid = kernel.spawn(CpuStress(utilization=1.0, duration_s=1.0))
        kernel.run(0.1)
        assert kernel.process(pid).cpu_time_s == pytest.approx(0.1, rel=0.2)

    def test_partial_utilization_accounted(self, kernel):
        pid = kernel.spawn(CpuStress(utilization=0.5, duration_s=1.0))
        kernel.run(0.1)
        assert kernel.process(pid).cpu_time_s == pytest.approx(0.05, rel=0.2)


class TestGovernorIntegration:
    def test_powersave_runs_slow(self, i3_spec):
        kernel = SimKernel(i3_spec, governor_factory=PowersaveGovernor,
                           quantum_s=0.01)
        kernel.spawn(CpuStress(duration_s=1.0))
        record = kernel.run(0.05)
        assert record.core_frequencies_hz[(0, 0)] == i3_spec.min_frequency_hz

    def test_ondemand_raises_frequency_under_load(self, i3_spec):
        kernel = SimKernel(i3_spec, governor_factory=OndemandGovernor,
                           quantum_s=0.01)
        kernel.spawn(CpuStress(utilization=1.0, duration_s=2.0))
        record = kernel.run(0.05)
        assert record.core_frequencies_hz[(0, 0)] == i3_spec.max_frequency_hz

    def test_pack_scheduler_consolidates(self, i3_spec):
        kernel = SimKernel(i3_spec, scheduler_factory=PackScheduler,
                           quantum_s=0.01)
        kernel.spawn(CpuStress(duration_s=1.0))
        kernel.spawn(CpuStress(duration_s=1.0))
        record = kernel.run(0.02)
        busy_cpus = {cpu for cpu, busy in record.cpu_busy.items() if busy > 0}
        assert busy_cpus == {0, 2}  # both hyperthreads of core 0


class TestProcFs:
    def test_process_cpu_time(self, kernel):
        pid = kernel.spawn(CpuStress(utilization=1.0, duration_s=1.0))
        kernel.run(0.1)
        assert kernel.procfs.process_cpu_time_s(pid) == pytest.approx(
            0.1, rel=0.15)

    def test_unknown_pid_raises(self, kernel):
        kernel.run(0.02)
        with pytest.raises(ProcessError):
            kernel.procfs.process_cpu_time_s(1)

    def test_machine_load_idle(self, kernel):
        kernel.spawn(IdleWorkload())
        kernel.run(0.1)
        assert kernel.procfs.machine_load() == pytest.approx(0.0, abs=0.01)

    def test_machine_load_one_of_four(self, kernel):
        kernel.spawn(CpuStress(utilization=1.0, duration_s=1.0))
        kernel.run(0.1)
        assert kernel.procfs.machine_load() == pytest.approx(0.25, rel=0.1)

    def test_uptime(self, kernel):
        kernel.run(0.07)
        assert kernel.procfs.uptime_s() == pytest.approx(0.07)

    def test_known_pids(self, kernel):
        pid = kernel.spawn(CpuStress(duration_s=1.0))
        kernel.run(0.05)
        assert pid in kernel.procfs.known_pids()
