"""Property-based tests on system-level invariants (kernel, virt,
attribution, parsing, traces)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.traces import PowerTrace, align
from repro.os.kernel import SimKernel
from repro.os.process import Demand
from repro.os.virt import VirtualMachine, split_vm_power
from repro.perf.parsing import parse_perf_stat_csv
from repro.simcpu.attribution import attribute_power
from repro.simcpu.caches import MemoryProfile
from repro.simcpu.machine import Machine, ThreadAssignment
from repro.simcpu.pipeline import InstructionMix
from repro.simcpu.spec import intel_i3_2120
from repro.workloads.base import ConstantWorkload, cpu_demand
from repro.workloads.specjbb import SpecJbbWorkload

SPEC = intel_i3_2120()

utilization = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestKernelProperties:
    @given(utils=st.lists(st.floats(0.05, 1.0, allow_nan=False),
                          min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_cpu_busy_never_exceeds_capacity(self, utils):
        kernel = SimKernel(SPEC, quantum_s=0.01)
        for util in utils:
            kernel.spawn(ConstantWorkload(cpu_demand(utilization=util)))
        for _ in range(5):
            record = kernel.tick()
            for busy in record.cpu_busy.values():
                assert 0.0 <= busy <= 1.0 + 1e-9

    @given(utils=st.lists(st.floats(0.05, 1.0, allow_nan=False),
                          min_size=1, max_size=4))
    @settings(max_examples=20, deadline=None)
    def test_granted_cpu_time_bounded_by_demand(self, utils):
        kernel = SimKernel(SPEC, quantum_s=0.01)
        pids = [kernel.spawn(ConstantWorkload(cpu_demand(utilization=u)))
                for u in utils]
        kernel.run(0.1)
        for pid, util in zip(pids, utils):
            granted = kernel.process(pid).cpu_time_s
            assert granted <= util * 0.1 + 1e-6

    @given(duration=st.floats(0.02, 0.3, allow_nan=False))
    @settings(max_examples=15, deadline=None)
    def test_energy_monotone_in_time(self, duration):
        kernel = SimKernel(SPEC, quantum_s=0.01)
        kernel.spawn(ConstantWorkload(cpu_demand()))
        previous = 0.0
        steps = int(duration / 0.01)
        for _ in range(steps):
            kernel.tick()
            assert kernel.machine.energy_j > previous
            previous = kernel.machine.energy_j


class TestAttributionProperties:
    @given(busy=st.lists(st.floats(0.05, 1.0, allow_nan=False),
                         min_size=1, max_size=4),
           seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_attribution_conserves_active_power(self, busy, seed):
        rng = np.random.default_rng(seed)
        machine = Machine(SPEC)
        machine.set_frequency(SPEC.max_frequency_hz)
        assignments = []
        for index, fraction in enumerate(busy):
            assignments.append(ThreadAssignment(
                pid=100 + index, cpu_id=index % 4, busy_fraction=fraction,
                mix=InstructionMix(fp_fraction=float(rng.uniform(0, 0.3))),
                memory=MemoryProfile(
                    mem_ops_per_instruction=float(rng.uniform(0.1, 0.4)),
                    working_set_bytes=int(rng.uniform(1e4, 1e8)),
                    locality=float(rng.uniform(0.6, 0.99)))))
        # One assignment per cpu at most (avoid oversubscription).
        seen = set()
        assignments = [a for a in assignments
                       if a.cpu_id not in seen and not seen.add(a.cpu_id)]
        record = machine.step(assignments, 0.1)
        groups = [machine.topology.core_cpus(p, c)
                  for p, c in machine.topology.cores()]
        shares = attribute_power(record.power, record.events,
                                 record.cpu_busy, groups)
        active = (record.power.cores + record.power.wakeup
                  + record.power.uncore + record.power.dram)
        assert sum(shares.values()) == pytest.approx(active, rel=1e-6)
        assert all(share >= 0 for share in shares.values())


class TestVirtProperties:
    @given(guest_utils=st.lists(st.floats(0.05, 1.0, allow_nan=False),
                                min_size=1, max_size=5),
           vcpus=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_vm_demand_within_vcpu_capacity(self, guest_utils, vcpus):
        vm = VirtualMachine("vm", vcpus=vcpus, guests=[
            ConstantWorkload(cpu_demand(utilization=u))
            for u in guest_utils])
        demand = vm.demand(0.0)
        assert demand is not None
        assert demand.threads <= vcpus
        assert demand.utilization * demand.threads <= vcpus + 1e-9

    @given(guest_utils=st.lists(st.floats(0.05, 1.0, allow_nan=False),
                                min_size=1, max_size=5),
           power=st.floats(0.0, 100.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_guest_split_conserves_power(self, guest_utils, power):
        vm = VirtualMachine("vm", vcpus=4, guests=[
            ConstantWorkload(cpu_demand(utilization=u), name=f"g{i}")
            for i, u in enumerate(guest_utils)])
        vm.demand(0.0)
        shares = split_vm_power(vm, power)
        assert sum(shares.values()) == pytest.approx(power, rel=1e-9)


class TestWorkloadProperties:
    @given(seed=st.integers(0, 50), t=st.floats(0, 499, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_specjbb_demand_deterministic_and_bounded(self, seed, t):
        a = SpecJbbWorkload(duration_s=500, seed=seed)
        b = SpecJbbWorkload(duration_s=500, seed=seed)
        demand_a = a.demand(t)
        demand_b = b.demand(t)
        assert demand_a.utilization == demand_b.utilization
        assert 0.0 < demand_a.utilization <= 1.0


class TestParsingProperties:
    @given(values=st.lists(st.integers(0, 10 ** 14), min_size=1,
                           max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_csv_roundtrip_any_magnitude(self, values):
        events = ["instructions", "cycles", "cache-references",
                  "cache-misses", "branches", "branch-misses"]
        lines = [f"{value},,{event},1000,100.0,,"
                 for value, event in zip(values, events)]
        parsed = parse_perf_stat_csv("\n".join(lines))
        for value, event in zip(values, events):
            assert parsed[event] == value

    @given(garbage=st.text(max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_parser_never_crashes_on_garbage(self, garbage):
        assume("\x00" not in garbage)
        try:
            parse_perf_stat_csv(garbage)
        except Exception as error:  # noqa: BLE001
            from repro.errors import ReproError
            assert isinstance(error, ReproError)


class TestTraceProperties:
    @given(n=st.integers(2, 40), jitter=st.floats(0, 0.2, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_alignment_matches_jittered_clone(self, n, jitter):
        times = [float(i) for i in range(n)]
        powers = [30.0 + i for i in range(n)]
        reference = PowerTrace.from_series("a", times, powers)
        rng = np.random.default_rng(n)
        other_times = [t + float(rng.uniform(-jitter, jitter))
                       for t in times]
        other_times = sorted(other_times)
        other = PowerTrace.from_series("b", other_times, powers)
        matched_times, ref, oth = align(reference, other, tolerance_s=0.5)
        assert len(matched_times) == n
        assert list(ref) == pytest.approx(list(oth))
