"""Unit tests for repro.simcpu.machine (the integrated simulator)."""

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.simcpu import counters as ev
from repro.simcpu.caches import MemoryProfile
from repro.simcpu.machine import Machine, ThreadAssignment
from repro.simcpu.pipeline import InstructionMix
from repro.simcpu.spec import intel_i3_2120, intel_xeon_smt
from repro.units import ghz


def assignment(pid=100, cpu=0, busy=1.0, ws=8 * 1024, locality=0.99,
               mem_ops=0.15):
    return ThreadAssignment(
        pid=pid, cpu_id=cpu, busy_fraction=busy,
        mix=InstructionMix(),
        memory=MemoryProfile(mem_ops_per_instruction=mem_ops,
                             working_set_bytes=ws, locality=locality))


class TestStepBasics:
    def test_time_advances(self, machine):
        machine.step([], 0.01)
        machine.step([], 0.01)
        assert machine.time_s == pytest.approx(0.02)

    def test_energy_accumulates(self, machine):
        record = machine.step([], 1.0)
        assert machine.energy_j == pytest.approx(record.wall_power_w, rel=1e-6)

    def test_rejects_zero_dt(self, machine):
        with pytest.raises(ConfigurationError):
            machine.step([], 0.0)

    def test_rejects_unknown_cpu(self, machine):
        with pytest.raises(TopologyError):
            machine.step([assignment(cpu=17)], 0.01)

    def test_rejects_oversubscription(self, machine):
        with pytest.raises(ConfigurationError):
            machine.step([assignment(pid=1, busy=0.7),
                          assignment(pid=2, busy=0.7)], 0.01)

    def test_shared_cpu_within_capacity(self, machine):
        record = machine.step([assignment(pid=1, busy=0.5),
                               assignment(pid=2, busy=0.5)], 0.01)
        assert record.cpu_busy[0] == pytest.approx(1.0)

    def test_last_record_updated(self, machine):
        assert machine.last_record is None
        record = machine.step([], 0.01)
        assert machine.last_record is record


class TestCounters:
    def test_instructions_attributed_to_pid(self, machine):
        machine.set_frequency(ghz(3.3))
        machine.step([assignment(pid=42)], 1.0)
        assert machine.counters.read(ev.INSTRUCTIONS, pid=42) > 1e8

    def test_idle_machine_retires_nothing(self, machine):
        machine.step([], 1.0)
        assert machine.counters.read(ev.INSTRUCTIONS) == 0.0

    def test_cycles_match_frequency_and_busy(self, machine):
        machine.set_frequency(ghz(3.3))
        machine.step([assignment(busy=0.5)], 1.0)
        assert machine.counters.read(ev.CYCLES) == pytest.approx(
            0.5 * ghz(3.3), rel=1e-6)

    def test_memory_bound_produces_llc_misses(self, machine):
        machine.set_frequency(ghz(3.3))
        machine.step([assignment(ws=64 * 1024 ** 2, locality=0.6,
                                 mem_ops=0.4)], 1.0)
        assert machine.counters.read(ev.CACHE_MISSES) > 1e6

    def test_misses_never_exceed_references(self, machine):
        machine.step([assignment(ws=16 * 1024 ** 2, mem_ops=0.4,
                                 locality=0.8)], 1.0)
        refs = machine.counters.read(ev.CACHE_REFERENCES)
        misses = machine.counters.read(ev.CACHE_MISSES)
        assert misses <= refs + 1e-9

    def test_zero_busy_assignment_emits_nothing(self, machine):
        machine.step([assignment(busy=0.0)], 1.0)
        assert machine.counters.read(ev.INSTRUCTIONS) == 0.0


class TestSmtEffects:
    def test_colocated_cheaper_than_spread(self):
        spec = intel_i3_2120()
        spread_machine = Machine(spec)
        spread_machine.set_frequency(ghz(3.3))
        # cpu0 and cpu1 are different physical cores.
        spread = spread_machine.step(
            [assignment(pid=1, cpu=0), assignment(pid=2, cpu=1)], 1.0)

        packed_machine = Machine(spec)
        packed_machine.set_frequency(ghz(3.3))
        # cpu0 and cpu2 are SMT siblings of core 0.
        packed = packed_machine.step(
            [assignment(pid=1, cpu=0), assignment(pid=2, cpu=2)], 1.0)
        assert packed.wall_power_w < spread.wall_power_w

    def test_colocated_retires_fewer_instructions(self):
        spec = intel_i3_2120()
        spread_machine = Machine(spec)
        spread_machine.set_frequency(ghz(3.3))
        spread_machine.step(
            [assignment(pid=1, cpu=0), assignment(pid=2, cpu=1)], 1.0)
        packed_machine = Machine(spec)
        packed_machine.set_frequency(ghz(3.3))
        packed_machine.step(
            [assignment(pid=1, cpu=0), assignment(pid=2, cpu=2)], 1.0)
        assert (packed_machine.counters.read(ev.INSTRUCTIONS)
                < spread_machine.counters.read(ev.INSTRUCTIONS))


class TestFrequencyBehaviour:
    def test_higher_frequency_more_instructions(self):
        spec = intel_i3_2120()
        slow = Machine(spec)
        slow.set_frequency(spec.min_frequency_hz)
        slow.step([assignment()], 1.0)
        fast = Machine(spec)
        fast.set_frequency(spec.max_frequency_hz)
        fast.step([assignment()], 1.0)
        assert (fast.counters.read(ev.INSTRUCTIONS)
                > slow.counters.read(ev.INSTRUCTIONS))

    def test_turbo_arbitration_on_xeon(self):
        spec = intel_xeon_smt()
        machine = Machine(spec)
        machine.set_frequency(spec.turbo_frequencies_hz[-1])
        solo = machine.step([assignment(cpu=0)], 0.1)
        assert solo.core_frequencies_hz[(0, 0)] == spec.turbo_frequencies_hz[-1]
        loaded = machine.step([assignment(pid=i, cpu=i) for i in range(4)], 0.1)
        assert loaded.core_frequencies_hz[(0, 0)] < spec.turbo_frequencies_hz[-1]

    def test_dominant_frequency_tracks_busy_core(self, machine):
        machine.frequency.set_target(0, 0, ghz(3.3))
        machine.frequency.set_target(0, 1, ghz(1.6))
        machine.step([assignment(cpu=0)], 0.1)
        assert machine.dominant_frequency_hz() == ghz(3.3)

    def test_dominant_frequency_idle_falls_back(self, machine):
        machine.set_frequency(ghz(2.0))
        machine.step([], 0.1)
        assert machine.dominant_frequency_hz() == ghz(2.0)


class TestObservers:
    def test_observer_sees_each_tick(self, machine):
        seen = []
        machine.add_observer(seen.append)
        machine.run([], 0.05, dt_s=0.01)
        assert len(seen) == 5

    def test_removed_observer_stops_seeing(self, machine):
        seen = []
        machine.add_observer(seen.append)
        machine.step([], 0.01)
        machine.remove_observer(seen.append)
        machine.step([], 0.01)
        assert len(seen) == 1


class TestTickRecord:
    def test_run_returns_all_records(self, machine):
        records = machine.run([assignment()], 0.1, dt_s=0.02)
        assert len(records) == 5
        assert records[-1].time_s == pytest.approx(0.1)


class TestBatchedStepping:
    def test_run_batch_returns_final_record(self, machine):
        record = machine.run_batch([assignment()], 50, dt_s=0.01)
        assert record.time_s == pytest.approx(0.5)
        assert machine.time_s == record.time_s

    def test_run_batch_rejects_bad_inputs(self, machine):
        with pytest.raises(ConfigurationError):
            machine.run_batch([assignment()], 0, dt_s=0.01)
        with pytest.raises(ConfigurationError):
            machine.run_batch([assignment()], 10, dt_s=0.0)

    def test_batched_state_matches_stepped(self):
        spec = intel_i3_2120()
        stepped, batched = Machine(spec), Machine(spec)
        for _ in range(200):
            stepped.step([assignment()], 0.01)
        batched.run_batch([assignment()], 200, 0.01)
        assert stepped.energy_j == batched.energy_j
        assert stepped.time_s == batched.time_s
        assert (stepped.counters.read(ev.INSTRUCTIONS)
                == batched.counters.read(ev.INSTRUCTIONS))

    def test_pstate_change_invalidates_program(self, machine):
        spec = machine.spec
        machine.set_frequency(spec.min_frequency_hz)
        slow = machine.run_batch([assignment()], 10, 0.01)
        machine.set_frequency(spec.max_frequency_hz)
        fast = machine.run_batch([assignment()], 10, 0.01)
        assert fast.events.keys() == slow.events.keys()
        for key, delta in fast.events.items():
            assert delta[ev.INSTRUCTIONS] > slow.events[key][ev.INSTRUCTIONS]

    def test_dominant_frequency_is_cached_on_record(self, machine):
        machine.step([assignment(cpu=0)], 0.1)
        first = machine.dominant_frequency_hz()
        assert machine.last_record.__dict__["_dominant_hz"] == first
        assert machine.dominant_frequency_hz() == first

    def test_dominant_frequency_idle_cache_tracks_live_target(self, machine):
        machine.set_frequency(ghz(2.0))
        machine.step([], 0.1)
        assert machine.dominant_frequency_hz() == ghz(2.0)
        # The idle sentinel must not freeze the fallback frequency.
        machine.set_frequency(ghz(3.3))
        assert machine.dominant_frequency_hz() == ghz(3.3)
