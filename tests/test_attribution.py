"""Unit tests for ground-truth per-process power attribution."""

import pytest

from repro.os.kernel import SimKernel
from repro.simcpu.attribution import TrueProcessPower, attribute_power
from repro.simcpu.caches import MemoryProfile
from repro.simcpu.counters import EventDelta
from repro.simcpu.machine import Machine, ThreadAssignment
from repro.simcpu.pipeline import InstructionMix
from repro.simcpu.power import PowerBreakdown
from repro.simcpu.spec import intel_i3_2120
from repro.units import ghz
from repro.workloads.stress import CpuStress, MemoryStress


def assignment(pid, cpu, busy=1.0, ws=8192, mem_ops=0.15, locality=0.99):
    return ThreadAssignment(
        pid=pid, cpu_id=cpu, busy_fraction=busy,
        mix=InstructionMix(),
        memory=MemoryProfile(mem_ops_per_instruction=mem_ops,
                             working_set_bytes=ws, locality=locality))


class TestAttributePower:
    def test_single_process_gets_all_active_power(self):
        machine = Machine(intel_i3_2120())
        machine.set_frequency(ghz(3.3))
        record = machine.step([assignment(1, 0)], 1.0)
        groups = [machine.topology.core_cpus(p, c)
                  for p, c in machine.topology.cores()]
        shares = attribute_power(record.power, record.events,
                                 record.cpu_busy, groups)
        active = (record.power.cores + record.power.wakeup
                  + record.power.uncore + record.power.dram)
        assert shares[1] == pytest.approx(active, rel=1e-6)

    def test_attribution_sums_to_active_power(self):
        machine = Machine(intel_i3_2120())
        machine.set_frequency(ghz(3.3))
        record = machine.step(
            [assignment(1, 0), assignment(2, 1, busy=0.5),
             assignment(3, 2, ws=64 * 1024 ** 2, mem_ops=0.4, locality=0.6)],
            1.0)
        groups = [machine.topology.core_cpus(p, c)
                  for p, c in machine.topology.cores()]
        shares = attribute_power(record.power, record.events,
                                 record.cpu_busy, groups)
        active = (record.power.cores + record.power.wakeup
                  + record.power.uncore + record.power.dram)
        assert sum(shares.values()) == pytest.approx(active, rel=1e-6)

    def test_idle_machine_attributes_nothing(self):
        machine = Machine(intel_i3_2120())
        record = machine.step([], 1.0)
        shares = attribute_power(record.power, record.events,
                                 record.cpu_busy, [])
        assert shares == {}

    def test_subnormal_busy_attributes_no_nan(self):
        """A busy fraction of 5e-324 overflowed the per-weight core rate
        to inf, and inf * 0 share made the pid's power NaN."""
        machine = Machine(intel_i3_2120())
        record = machine.step([assignment(1, 3, busy=5e-324, mem_ops=0.0)],
                              0.001)
        groups = [machine.topology.core_cpus(p, c)
                  for p, c in machine.topology.cores()]
        shares = attribute_power(record.power, record.events,
                                 record.cpu_busy, groups)
        assert shares == {1: 0.0}

    def test_busier_process_attributed_more(self):
        machine = Machine(intel_i3_2120())
        machine.set_frequency(ghz(3.3))
        record = machine.step(
            [assignment(1, 0, busy=1.0), assignment(2, 1, busy=0.25)], 1.0)
        groups = [machine.topology.core_cpus(p, c)
                  for p, c in machine.topology.cores()]
        shares = attribute_power(record.power, record.events,
                                 record.cpu_busy, groups)
        assert shares[1] > 3 * shares[2]

    def test_memory_bound_process_pays_for_dram(self):
        machine = Machine(intel_i3_2120())
        machine.set_frequency(ghz(3.3))
        record = machine.step(
            [assignment(1, 0),  # cpu-bound
             assignment(2, 1, ws=96 * 1024 ** 2, mem_ops=0.4, locality=0.6)],
            1.0)
        groups = [machine.topology.core_cpus(p, c)
                  for p, c in machine.topology.cores()]
        shares = attribute_power(record.power, record.events,
                                 record.cpu_busy, groups)
        # Process 2 owns virtually all cache misses, hence the DRAM power.
        dram_to_2 = record.power.dram
        assert shares[2] >= dram_to_2 * 0.9

    def test_smt_sibling_attributed_less_than_primary(self):
        machine = Machine(intel_i3_2120())
        machine.set_frequency(ghz(3.3))
        # pid 1 fully busy on cpu0; pid 2 fully busy on its SMT sibling.
        record = machine.step(
            [assignment(1, 0, busy=1.0), assignment(2, 2, busy=0.6)], 1.0)
        groups = [machine.topology.core_cpus(p, c)
                  for p, c in machine.topology.cores()]
        shares = attribute_power(record.power, record.events,
                                 record.cpu_busy, groups)
        # The sibling pays the SMT discount on top of its lower busy.
        assert shares[2] < shares[1] * 0.5

    def test_shared_cpu_split_by_cycles(self):
        machine = Machine(intel_i3_2120())
        machine.set_frequency(ghz(3.3))
        record = machine.step(
            [assignment(1, 0, busy=0.6), assignment(2, 0, busy=0.2)], 1.0)
        groups = [machine.topology.core_cpus(p, c)
                  for p, c in machine.topology.cores()]
        shares = attribute_power(record.power, record.events,
                                 record.cpu_busy, groups)
        assert shares[1] == pytest.approx(3 * shares[2], rel=0.05)


class TestTrueProcessPowerOracle:
    def test_oracle_tracks_kernel_workloads(self):
        kernel = SimKernel(intel_i3_2120(), quantum_s=0.02)
        oracle = TrueProcessPower(kernel.machine)
        heavy = kernel.spawn(CpuStress(utilization=1.0, duration_s=100.0))
        light = kernel.spawn(CpuStress(utilization=0.2, duration_s=100.0))
        kernel.run(5.0)
        assert oracle.duration_s == pytest.approx(5.0)
        assert oracle.energy_j(heavy) > 3 * oracle.energy_j(light)
        assert oracle.pids() == (heavy, light)

    def test_mean_power_consistent_with_energy(self):
        kernel = SimKernel(intel_i3_2120(), quantum_s=0.02)
        oracle = TrueProcessPower(kernel.machine)
        pid = kernel.spawn(MemoryStress(utilization=1.0, duration_s=100.0))
        kernel.run(4.0)
        assert oracle.mean_power_w(pid) == pytest.approx(
            oracle.energy_j(pid) / 4.0)

    def test_detach_stops_accumulation(self):
        kernel = SimKernel(intel_i3_2120(), quantum_s=0.02)
        oracle = TrueProcessPower(kernel.machine)
        pid = kernel.spawn(CpuStress(utilization=1.0, duration_s=100.0))
        kernel.run(1.0)
        before = oracle.energy_j(pid)
        oracle.detach()
        kernel.run(1.0)
        assert oracle.energy_j(pid) == before

    def test_unknown_pid_reads_zero(self):
        kernel = SimKernel(intel_i3_2120(), quantum_s=0.02)
        oracle = TrueProcessPower(kernel.machine)
        kernel.run(0.1)
        assert oracle.energy_j(424242) == 0.0
        assert oracle.mean_power_w(424242) == 0.0
