"""Unit tests for repro.os.kernel and repro.os.procfs."""

import pytest

from repro.errors import ConfigurationError, ProcessError, TopologyError
from repro.os.governor import OndemandGovernor, PowersaveGovernor
from repro.os.kernel import SimKernel
from repro.os.process import ProcessState
from repro.os.scheduler import PackScheduler, SpreadScheduler
from repro.simcpu.caches import MemoryProfile
from repro.simcpu.machine import ThreadAssignment
from repro.simcpu.pipeline import InstructionMix
from repro.simcpu.spec import intel_i3_2120
from repro.workloads.base import ConstantWorkload, cpu_demand
from repro.workloads.idle import IdleWorkload
from repro.workloads.stress import CpuStress


@pytest.fixture
def kernel(i3_spec):
    return SimKernel(i3_spec, quantum_s=0.01)


class _Listing(SpreadScheduler):
    """Hands the kernel its placement as a plain list, *extra* appended."""

    def __init__(self, topology, extra=()):
        super().__init__(topology)
        self.extra = list(extra)

    def assign(self, demands):
        return [*super().assign(demands), *self.extra]


def _thread(cpu_id, busy, pid=5):
    return ThreadAssignment(pid=pid, cpu_id=cpu_id, busy_fraction=busy,
                            mix=InstructionMix(), memory=MemoryProfile())


class TestSchedulerReturningAList:
    """A scheduler's own list is converted once (``Machine.placement``):
    validated as the machine validates it, zero-busy threads dropped and
    each demand's share summed by pid."""

    @staticmethod
    def _kernel(spec, *extra):
        """A kernel with two tenants whose scheduler lists its placement
        with *extra* appended, or places them itself without *extra*."""
        factory = SpreadScheduler
        if extra:
            def factory(topology):
                return _Listing(topology, extra)
        kernel = SimKernel(spec, scheduler_factory=factory, quantum_s=0.001)
        pids = [kernel.spawn(CpuStress(duration_s=1.0, threads=2)),
                kernel.spawn(ConstantWorkload(cpu_demand(0.4)))]
        return kernel, pids

    def test_an_unknown_cpu_raises(self, i3_spec):
        kernel, _pids = self._kernel(i3_spec, _thread(17, 0.0))
        with pytest.raises(TopologyError, match="cpu17 does not exist"):
            kernel.run(0.01)

    def test_oversubscription_raises(self, i3_spec):
        kernel, _pids = self._kernel(i3_spec, _thread(0, 0.5))
        with pytest.raises(ConfigurationError,
                           match=r"^cpu0 oversubscribed: 1\.500 > 1$"):
            kernel.run(0.01)

    def test_runs_as_the_placement_would(self, i3_spec):
        listed, pids = self._kernel(i3_spec, _thread(3, 0.0, pid=9))
        placed, _pids = self._kernel(i3_spec)
        for kernel in (listed, placed):
            kernel.run(0.05)
        for pid in pids:
            assert (listed.process(pid).cpu_time_s
                    == placed.process(pid).cpu_time_s > 0.0)
        machines = listed.machine, placed.machine
        assert machines[0].energy_j == machines[1].energy_j
        assert machines[0].counters._columns == machines[1].counters._columns
        assert (machines[0].cstates.residency_table()
                == machines[1].cstates.residency_table())
        assert (machines[0].last_record.events
                == machines[1].last_record.events)


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
