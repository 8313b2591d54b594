"""Unit tests for the adaptive scheduler and conservative governor."""

import pytest

from repro.errors import FrequencyError, SchedulerError
from repro.os.governor import ConservativeGovernor, OndemandGovernor
from repro.os.kernel import SimKernel
from repro.os.scheduler import (EnergyAwareScheduler, PackScheduler,
                                SpreadScheduler)
from repro.simcpu.frequency import FrequencyDomain
from repro.simcpu.spec import intel_i3_2120
from repro.simcpu.topology import Topology
from repro.workloads.stress import CpuStress


@pytest.fixture
def spec():
    return intel_i3_2120()


class TestEnergyAwareScheduler:
    def test_low_load_packs(self, spec):
        kernel = SimKernel(spec, scheduler_factory=EnergyAwareScheduler,
                           quantum_s=0.01)
        kernel.spawn(CpuStress(utilization=0.4, duration_s=10.0))
        record = kernel.run(0.05)
        assert kernel.scheduler.mode == "pack"
        busy = {cpu for cpu, value in record.cpu_busy.items() if value > 0}
        assert busy <= {0, 2}  # core 0's hyperthreads only

    def test_high_load_spreads(self, spec):
        kernel = SimKernel(spec, scheduler_factory=EnergyAwareScheduler,
                           quantum_s=0.01)
        for _ in range(3):
            kernel.spawn(CpuStress(utilization=1.0, duration_s=10.0))
        record = kernel.run(0.05)
        assert kernel.scheduler.mode == "spread"
        cores = {Topology(spec).cpu(cpu).core_id
                 for cpu, value in record.cpu_busy.items() if value > 0}
        assert len(cores) == 2

    def test_mode_adapts_as_load_changes(self, spec):
        kernel = SimKernel(spec, scheduler_factory=EnergyAwareScheduler,
                           quantum_s=0.01)
        kernel.spawn(CpuStress(utilization=0.3, duration_s=100.0))
        kernel.run(0.05)
        assert kernel.scheduler.mode == "pack"
        for _ in range(3):
            kernel.spawn(CpuStress(utilization=1.0, duration_s=100.0))
        kernel.run(0.05)
        assert kernel.scheduler.mode == "spread"

    def test_saves_energy_at_low_load_vs_spread(self, spec):
        def energy_with(scheduler_factory):
            kernel = SimKernel(spec, scheduler_factory=scheduler_factory,
                               quantum_s=0.02)
            kernel.spawn(CpuStress(utilization=0.5, duration_s=100.0))
            kernel.spawn(CpuStress(utilization=0.4, duration_s=100.0))
            kernel.run(5.0)
            return kernel.machine.energy_j

        adaptive = energy_with(EnergyAwareScheduler)
        spread = energy_with(SpreadScheduler)
        assert adaptive < spread

    def test_keeps_throughput_at_high_load_vs_pack(self, spec):
        def work_with(scheduler_factory):
            kernel = SimKernel(spec, scheduler_factory=scheduler_factory,
                               quantum_s=0.02)
            for _ in range(4):
                kernel.spawn(CpuStress(utilization=1.0, duration_s=100.0))
            kernel.run(5.0)
            return kernel.machine.counters.read("instructions")

        adaptive = work_with(EnergyAwareScheduler)
        packed = work_with(PackScheduler)
        assert adaptive >= packed * 0.99

    def test_rejects_bad_threshold(self, spec):
        with pytest.raises(SchedulerError):
            EnergyAwareScheduler(Topology(spec), pack_threshold=0.0)


class TestConservativeGovernor:
    def _make(self, spec, **kwargs):
        topology = Topology(spec)
        domain = FrequencyDomain(spec)
        return ConservativeGovernor(spec, topology, domain, **kwargs), domain

    def test_starts_at_minimum(self, spec):
        governor, domain = self._make(spec)
        governor.update({0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0})
        assert domain.target(0, 0) == spec.min_frequency_hz

    def test_steps_up_one_at_a_time(self, spec):
        governor, domain = self._make(spec)
        governor.update({0: 1.0, 1: 0.0, 2: 0.0, 3: 0.0})
        assert domain.target(0, 0) == spec.frequencies_hz[1]
        governor.update({0: 1.0, 1: 0.0, 2: 0.0, 3: 0.0})
        assert domain.target(0, 0) == spec.frequencies_hz[2]

    def test_reaches_max_under_sustained_load(self, spec):
        governor, domain = self._make(spec)
        for _ in range(len(spec.frequencies_hz) + 2):
            governor.update({0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0})
        assert domain.target(0, 0) == spec.max_frequency_hz

    def test_steps_down_when_idle(self, spec):
        governor, domain = self._make(spec)
        for _ in range(4):
            governor.update({0: 1.0, 1: 0.0, 2: 0.0, 3: 0.0})
        raised = domain.target(0, 0)
        governor.update({0: 0.1, 1: 0.0, 2: 0.0, 3: 0.0})
        assert domain.target(0, 0) < raised

    def test_holds_in_dead_band(self, spec):
        governor, domain = self._make(spec)
        governor.update({0: 1.0, 1: 0.0, 2: 0.0, 3: 0.0})
        held = domain.target(0, 0)
        governor.update({0: 0.5, 1: 0.0, 2: 0.0, 3: 0.0})
        assert domain.target(0, 0) == held

    def test_slower_than_ondemand_on_burst(self, spec):
        topology = Topology(spec)
        conservative, conservative_domain = self._make(spec)
        ondemand = OndemandGovernor(spec, topology, FrequencyDomain(spec))
        burst = {0: 0.95, 1: 0.0, 2: 0.0, 3: 0.0}
        conservative.update(burst)
        ondemand.update(burst)
        assert (conservative_domain.target(0, 0)
                < ondemand.domain.target(0, 0))

    def test_rejects_inverted_thresholds(self, spec):
        with pytest.raises(FrequencyError):
            self._make(spec, up_threshold=0.3, down_threshold=0.8)

    def test_registered(self):
        from repro.os.governor import GOVERNORS
        assert "conservative" in GOVERNORS
