"""Equivalence of the struct-of-arrays engine against dict-based references.

Three layers of the bit-identity contract the batched engine
(:mod:`repro.simcpu.engine`) makes:

* :class:`CounterBank` — the struct-of-arrays columns (and the
  ``accumulation_cells`` replay path the engine uses) must read exactly
  what a plain dict accumulator folding the same deltas in the same
  order reads,
* batched vs tick-at-a-time — ``Machine.run_batch`` (one replay of N
  ticks, cells added column-wise) must leave counters, residencies,
  thermal state, energy and time bit-identical to N façade ``step``
  calls,
* engine vs reference tick loop — the engine-driven machine must match
  a dict-based reimplementation of the pre-engine step (the original
  per-tick derivation, preserved here as an executable specification).

All comparisons are exact float equality, never ``approx``: the golden
learned datasets depend on it.
"""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcpu import counters as ev
from repro.simcpu.counters import ALL_EVENTS, CounterBank
from repro.simcpu.machine import Machine
from repro.simcpu.power import CoreActivity
from repro.simcpu.spec import intel_i3_2120, intel_xeon_smt
from tests.strategies import assignment_lists, dts, event_deltas, schedules

SPEC = intel_i3_2120()
SMT_SPEC = intel_xeon_smt()

pids = st.integers(1, 6)
cpus = st.integers(0, SPEC.num_threads - 1)


class DictCounterReference:
    """Plain-dict accumulator mirroring CounterBank's fold order."""

    def __init__(self):
        self.totals = defaultdict(float)        # (pid, cpu, event)
        self.cpu_totals = defaultdict(float)    # (cpu, event)
        self.slot_order = []                    # first-seen (pid, cpu)
        self.cpu_slot_order = []                # first-seen cpu

    def record(self, pid, cpu_id, delta):
        if (pid, cpu_id) not in self.slot_order:
            self.slot_order.append((pid, cpu_id))
        for event, count in delta.items():
            self.totals[(pid, cpu_id, event)] += count

    def record_cpu_only(self, cpu_id, delta):
        if cpu_id not in self.cpu_slot_order:
            self.cpu_slot_order.append(cpu_id)
        for event, count in delta.items():
            self.cpu_totals[(cpu_id, event)] += count

    def read(self, event, pid=-1, cpu_id=-1):
        """Aggregate in the bank's refresh order (slot insertion order)."""
        if pid >= 0 and cpu_id >= 0:
            return self.totals.get((pid, cpu_id, event), 0.0)
        if pid >= 0:
            total = 0.0
            for slot_pid, slot_cpu in self.slot_order:
                if slot_pid == pid:
                    total += self.totals[(slot_pid, slot_cpu, event)]
            return total
        if cpu_id >= 0:
            total = 0.0
            for slot_pid, slot_cpu in self.slot_order:
                if slot_cpu == cpu_id:
                    total += self.totals[(slot_pid, slot_cpu, event)]
            return total + self.cpu_totals.get((cpu_id, event), 0.0)
        total = 0.0
        for slot_pid, slot_cpu in self.slot_order:
            total += self.totals[(slot_pid, slot_cpu, event)]
        for slot_cpu in self.cpu_slot_order:
            total += self.cpu_totals.get((slot_cpu, event), 0.0)
        return total


class TestCounterBankEquivalence:
    @given(ops=st.lists(
        st.tuples(st.sampled_from(["record", "cells", "cpu"]),
                  pids, cpus, event_deltas()),
        min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_soa_columns_match_dict_reference(self, ops):
        bank = CounterBank()
        reference = DictCounterReference()
        for mode, pid, cpu_id, delta in ops:
            if mode == "record":
                bank.record(pid, cpu_id, delta)
                reference.record(pid, cpu_id, delta)
            elif mode == "cells":
                # The engine path: compile cells once, replay them once.
                for column, slot, addend in bank.accumulation_cells(
                        pid, cpu_id, delta):
                    column[slot] += addend
                bank.mark_dirty()
                reference.record(pid, cpu_id, delta)
            else:
                bank.record_cpu_only(cpu_id, delta)
                reference.record_cpu_only(cpu_id, delta)
        for event in ALL_EVENTS:
            assert bank.read(event) == reference.read(event)
            for pid in range(1, 7):
                assert (bank.read(event, pid=pid)
                        == reference.read(event, pid=pid))
                for cpu_id in range(SPEC.num_threads):
                    assert (bank.read(event, pid=pid, cpu_id=cpu_id)
                            == reference.read(event, pid=pid, cpu_id=cpu_id))
            for cpu_id in range(SPEC.num_threads):
                assert (bank.read(event, cpu_id=cpu_id)
                        == reference.read(event, cpu_id=cpu_id))

    @given(pid=pids, cpu_id=cpus, delta=event_deltas())
    @settings(max_examples=40, deadline=None)
    def test_accumulation_cells_replay_equals_record(self, pid, cpu_id, delta):
        recorded = CounterBank()
        replayed = CounterBank()
        recorded.record(pid, cpu_id, delta)
        for column, slot, addend in replayed.accumulation_cells(
                pid, cpu_id, delta):
            column[slot] += addend
        replayed.mark_dirty()
        for event in delta:
            assert (recorded.read(event, pid=pid, cpu_id=cpu_id)
                    == replayed.read(event, pid=pid, cpu_id=cpu_id))


def _assert_machines_identical(left, right, pids_seen):
    assert left.time_s == right.time_s
    assert left.energy_j == right.energy_j
    assert left.thermal.temperature_c == right.thermal.temperature_c
    for event in ALL_EVENTS:
        assert left.counters.read(event) == right.counters.read(event)
        for pid in pids_seen:
            assert (left.counters.read(event, pid=pid)
                    == right.counters.read(event, pid=pid))
    for cpu_id in range(left.spec.num_threads):
        assert (left.cstates.current_state(cpu_id)
                == right.cstates.current_state(cpu_id))
        for state in left.spec.cstates:
            assert (left.cstates.residency(cpu_id, state)
                    == right.cstates.residency(cpu_id, state))


class TestBatchedEquivalence:
    @given(schedule=schedules(SPEC), dt=dts)
    @settings(max_examples=40, deadline=None)
    def test_run_batch_matches_step_loop(self, schedule, dt):
        stepped = Machine(SPEC)
        batched = Machine(SPEC)
        pids_seen = set()
        for assignments, n_ticks in schedule:
            pids_seen.update(a.pid for a in assignments)
            last = None
            for _ in range(n_ticks):
                last = stepped.step(assignments, dt)
            record = batched.run_batch(assignments, n_ticks, dt)
            assert record.time_s == last.time_s
            assert record.wall_power_w == last.wall_power_w
            assert record.events == last.events
            assert dict(record.cpu_busy) == dict(last.cpu_busy)
        _assert_machines_identical(stepped, batched, pids_seen)

    @given(schedule=schedules(SPEC, max_segments=3, max_ticks=8), dt=dts)
    @settings(max_examples=20, deadline=None)
    def test_observer_path_matches_column_path(self, schedule, dt):
        """The per-tick observer adapter sees every tick, changes nothing."""
        observed = Machine(SPEC)
        seen = []
        observed.add_observer(seen.append)
        silent = Machine(SPEC)
        stepped = []
        pids_seen = set()
        for assignments, n_ticks in schedule:
            pids_seen.update(a.pid for a in assignments)
            observed.run_batch(assignments, n_ticks, dt)
            stepped.extend(silent.step(assignments, dt)
                           for _ in range(n_ticks))
        # One record per tick, in order, as stepping would return them.
        assert ([(r.time_s, r.power, dict(r.events)) for r in seen]
                == [(r.time_s, r.power, dict(r.events)) for r in stepped])
        _assert_machines_identical(observed, silent, pids_seen)

    @given(assignments=assignment_lists(SMT_SPEC),
           n_ticks=st.integers(2, 20))
    @settings(max_examples=15, deadline=None)
    def test_smt_turbo_spec_batches_identically(self, assignments, n_ticks):
        dt = 0.01
        stepped = Machine(SMT_SPEC)
        batched = Machine(SMT_SPEC)
        for machine in (stepped, batched):
            machine.set_frequency(SMT_SPEC.all_frequencies_hz[-1])
        for _ in range(n_ticks):
            stepped.step(assignments, dt)
        batched.run_batch(assignments, n_ticks, dt)
        _assert_machines_identical(stepped, batched,
                                   {a.pid for a in assignments})


class ReferenceTickLoop:
    """Dict-based reimplementation of the pre-engine ``Machine.step``.

    Drives a :class:`Machine`'s pure helpers (`_execute`, frequency
    arbitration, the power and thermal models) exactly as the original
    tick loop did — per-tick dict folds, `cstates.account` side effects,
    `thermal.step` inside `wall_power` — while keeping its own dict
    counter totals.  The engine must match this, float for float.
    """

    def __init__(self, spec):
        self.machine = Machine(spec)  # engine never invoked on this one
        self.counters = DictCounterReference()
        self.time_s = 0.0
        self.energy_j = 0.0

    def step(self, assignments, dt_s):
        machine = self.machine
        cpu_busy = machine._validate_occupancy(assignments)
        machine._current_assignments = assignments
        core_freqs = machine._effective_frequencies(cpu_busy)
        events = {}
        llc_refs = 0.0
        dram_bytes = 0.0
        core_weights = {}
        for assignment in assignments:
            if assignment.busy_fraction == 0.0:
                continue
            core_key = machine._cpu_core_key[assignment.cpu_id]
            delta = machine._execute(assignment, cpu_busy,
                                     core_freqs[core_key], dt_s)
            key = (assignment.pid, assignment.cpu_id)
            events[key] = (delta if key not in events
                           else events[key].merged_with(delta))
            self.counters.record(assignment.pid, assignment.cpu_id, delta)
            llc_refs += delta.get(ev.CACHE_REFERENCES, 0.0)
            dram_bytes += (delta.get(ev.CACHE_MISSES, 0.0)
                           * machine._line_bytes_cached)
            core_weights.setdefault(core_key, []).append(
                (assignment.busy_fraction, assignment.mix.power_weight()))

        activities = []
        for core_key in machine._cores:
            core_cpus = machine._core_cpus[core_key]
            thread_busy = tuple(cpu_busy[cpu_id] for cpu_id in core_cpus)
            weights = core_weights.get(core_key, [])
            total_busy = sum(busy for busy, _weight in weights)
            weight = (sum(busy * w for busy, w in weights) / total_busy
                      if total_busy > 0 else 1.0)
            busiest = max(thread_busy, default=0.0)
            expected_idle_s = (1.0 - busiest) * dt_s
            idle_fraction = machine.cstates.idle_power_fraction(
                expected_idle_s)
            for cpu_id in core_cpus:
                machine.cstates.account(cpu_id, cpu_busy[cpu_id], dt_s,
                                        expected_idle_s)
            activities.append(CoreActivity(
                frequency_hz=core_freqs[core_key],
                thread_busy=thread_busy,
                power_weight=weight,
                idle_power_fraction=idle_fraction,
            ))
        breakdown = machine.power_model.wall_power(
            activities,
            llc_references_per_s=llc_refs / dt_s,
            dram_bytes_per_s=dram_bytes / dt_s,
            thermal=machine.thermal,
            dt_s=dt_s,
        )
        machine._current_assignments = ()
        self.time_s += dt_s
        self.energy_j += breakdown.total * dt_s
        return breakdown, events


class TestEngineMatchesReferenceLoop:
    @given(schedule=schedules(SPEC, max_segments=3, max_ticks=6), dt=dts)
    @settings(max_examples=25, deadline=None)
    def test_engine_matches_dict_reference(self, schedule, dt):
        engine_machine = Machine(SPEC)
        reference = ReferenceTickLoop(SPEC)
        pids_seen = set()
        for assignments, n_ticks in schedule:
            pids_seen.update(a.pid for a in assignments)
            for _ in range(n_ticks):
                record = engine_machine.step(assignments, dt)
                breakdown, events = reference.step(assignments, dt)
                assert record.wall_power_w == breakdown.total
                assert record.power.leakage == breakdown.leakage
                assert dict(record.events) == events
        assert engine_machine.time_s == reference.time_s
        assert engine_machine.energy_j == reference.energy_j
        assert (engine_machine.thermal.temperature_c
                == reference.machine.thermal.temperature_c)
        for event in ALL_EVENTS:
            for pid in pids_seen:
                for cpu_id in range(SPEC.num_threads):
                    assert (engine_machine.counters.read(
                                event, pid=pid, cpu_id=cpu_id)
                            == reference.counters.read(
                                event, pid=pid, cpu_id=cpu_id))
        for cpu_id in range(SPEC.num_threads):
            for state in SPEC.cstates:
                assert (engine_machine.cstates.residency(cpu_id, state)
                        == reference.machine.cstates.residency(
                            cpu_id, state))
