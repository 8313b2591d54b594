"""Ramps: one occupancy shape whose busy fractions move every quantum.

A SPECjbb ramp keeps its placement's shape while the demand moves on
every quantum, so the engine fills fresh values into a layout it keeps
(`repro.simcpu.engine`), every replay is one tick long, and the folds
add their addends directly.  These tests hold those paths to their
references with exact ``==``:

* the engine against :class:`ReferenceTickLoop`, the executable spec of
  the tick loop, over :func:`tests.strategies.ramps`;
* ``k`` one-tick replays of a program against one ``k``-tick replay,
  for a :class:`PerfSession` with a rotating counter group and a
  PMU-starvation window, and for :class:`ProcFs`;
* placement against a copy of the original ``Scheduler.assign`` over
  random demands with affinities, nice levels and saturation, in rounds
  that may keep the last round's shape while the utilisations move
  (the scheduler then re-checks its held decisions).

The kernel holds such quanta as one ramp run instead;
``tests/test_ramp_runs.py`` holds that path to the same references.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulerError
from repro.os.process import Demand, ProcessState, SimProcess
from repro.os.procfs import ProcFs
from repro.os.scheduler import (EnergyAwareScheduler, PackScheduler,
                                PinnedScheduler, SpreadScheduler)
from repro.perf.counting import PerfSession
from repro.simcpu import counters as ev
from repro.simcpu.counters import ALL_EVENTS, GENERIC_TRIO
from repro.simcpu.caches import MemoryProfile
from repro.simcpu.machine import Machine, ThreadAssignment
from repro.simcpu.pipeline import InstructionMix
from repro.simcpu.spec import intel_i3_2120, intel_xeon_smt
from repro.simcpu.topology import Topology
from repro.units import left_sum
from tests.strategies import dts, ramps
from tests.test_engine_equivalence import ReferenceTickLoop

SPEC = intel_i3_2120()
SMT_SPEC = intel_xeon_smt()


def _pids(quanta):
    return sorted({a.pid for quantum in quanta for a in quantum})


class TestEngineOverRamps:
    @pytest.mark.parametrize("spec", [SPEC, SMT_SPEC],
                             ids=["i3-2120", "xeon-smt"])
    @given(data=st.data(), dt=dts)
    @settings(max_examples=40, deadline=None)
    def test_engine_matches_reference_loop(self, spec, data, dt):
        quanta, move_at, frequency_hz = data.draw(ramps(spec))
        ticks = data.draw(st.lists(st.integers(1, 3), min_size=len(quanta),
                                   max_size=len(quanta)))
        engine_machine = Machine(spec)
        reference = ReferenceTickLoop(spec)
        for index, (assignments, n_ticks) in enumerate(zip(quanta, ticks)):
            if index == move_at:
                engine_machine.set_frequency(frequency_hz)
                reference.machine.set_frequency(frequency_hz)
            record = engine_machine.run_batch(assignments, n_ticks, dt)
            for _ in range(n_ticks):
                breakdown, events = reference.step(assignments, dt)
            assert record.power == breakdown
            assert dict(record.events) == events
        assert engine_machine.time_s == reference.time_s
        assert engine_machine.energy_j == reference.energy_j
        assert (engine_machine.thermal.temperature_c
                == reference.machine.thermal.temperature_c)
        for pid in _pids(quanta):
            for cpu_id in range(spec.num_threads):
                for event in ALL_EVENTS:
                    assert (engine_machine.counters.read(
                                event, pid=pid, cpu_id=cpu_id)
                            == reference.counters.read(
                                event, pid=pid, cpu_id=cpu_id))
        cstates = engine_machine.cstates
        for cpu_id in range(spec.num_threads):
            assert (cstates.current_state(cpu_id)
                    == reference.machine.cstates.current_state(cpu_id))
            for state in spec.cstates:
                assert (cstates.residency(cpu_id, state)
                        == reference.machine.cstates.residency(
                            cpu_id, state))


def _open_counters(session):
    """Counters of every target kind, one group rotating over the PMU."""
    slots = SPEC.counter_slots
    counters = session.open_group(ALL_EVENTS[:slots + 2], pid=1)
    counters += session.open_group(GENERIC_TRIO, pid=2)
    counters.append(session.open(ev.INSTRUCTIONS))
    counters.append(session.open(ev.CYCLES, cpu=1))
    counters.append(session.open(ev.CACHE_MISSES, pid=3, cpu=2))
    return counters


class TestOneTickFolds:
    @given(data=st.data(), dt=dts)
    @settings(max_examples=40, deadline=None)
    def test_one_tick_replays_equal_one_batch(self, data, dt):
        quanta, move_at, frequency_hz = data.draw(ramps(SPEC))
        ticks = data.draw(st.lists(st.integers(1, 4), min_size=len(quanta),
                                   max_size=len(quanta)))
        starve_from, starve_to = sorted(data.draw(st.tuples(
            st.integers(0, len(quanta)), st.integers(0, len(quanta)))))
        stepped, batched = Machine(SPEC), Machine(SPEC)
        sessions = [PerfSession(stepped), PerfSession(batched)]
        counters = [_open_counters(session) for session in sessions]
        procfs = [ProcFs(stepped), ProcFs(batched)]
        for index, (assignments, n_ticks) in enumerate(zip(quanta, ticks)):
            for machine, session in zip((stepped, batched), sessions):
                if index == move_at:
                    machine.set_frequency(frequency_hz)
                if index == starve_from:
                    session.set_slot_override(0)
                if index == starve_to:
                    session.set_slot_override(None)
            # k one-tick replays of one program against one k-tick replay.
            for _ in range(n_ticks):
                stepped.step(assignments, dt)
            batched.run_batch(assignments, n_ticks, dt)
        for one, many in zip(*counters):
            assert one.raw == many.raw
            assert one.time_enabled_s == many.time_enabled_s
            assert one.time_running_s == many.time_running_s
        if starve_to - starve_from < len(quanta):
            # Some tick had PMU slots, so the group rotated.
            assert any(counter.read().multiplexed
                       for counter in counters[0] if counter.time_running_s)
        one, many = procfs
        assert one.uptime_s() == many.uptime_s()
        assert one.known_pids() == many.known_pids()
        for pid in one.known_pids():
            assert one.process_cpu_time_s(pid) == many.process_cpu_time_s(pid)
        for cpu_id in range(SPEC.num_threads):
            assert one.cpu_busy_time_s(cpu_id) == many.cpu_busy_time_s(cpu_id)


# -- placement ----------------------------------------------------------------

class ReferencePlacement:
    """The original ``Scheduler.assign`` and the policies' key functions.

    Kept as the executable spec of placement: one key-function sort per
    placed thread and an ``allowed_on`` test per candidate CPU.
    """

    def __init__(self, topology, policy):
        self.topology = topology
        self.policy = policy
        self._cpu_ids = topology.cpu_ids
        self._siblings = {cpu_id: topology.siblings(cpu_id)
                          for cpu_id in self._cpu_ids}

    def cpu_preference(self, busy):
        siblings = self._siblings
        if self.policy == "spread":
            def key(cpu_id):
                core_busy = left_sum(busy[s] for s in siblings[cpu_id])
                return (busy[cpu_id], core_busy, cpu_id)
        elif self.policy == "pack":
            def key(cpu_id):
                core_busy = left_sum(busy[s] for s in siblings[cpu_id])
                return (-core_busy, busy[cpu_id], cpu_id)
        else:
            def key(cpu_id):
                return (busy[cpu_id], cpu_id)
        return sorted(self._cpu_ids, key=key)

    def assign(self, demands):
        busy = {cpu_id: 0.0 for cpu_id in self.topology.cpu_ids}
        assignments = []
        work = sorted(
            (item for item in demands
             if item[0].state is ProcessState.RUNNABLE),
            key=lambda item: -item[1].utilization * item[1].threads)
        for process, demand in work:
            for _thread in range(demand.threads):
                placed = self._place(process, demand, busy)
                if placed is not None:
                    assignments.append(placed)
        return assignments

    def _place(self, process, demand, busy):
        candidates = [cpu_id for cpu_id in self.cpu_preference(busy)
                      if process.allowed_on(cpu_id)]
        if not candidates:
            raise SchedulerError(
                f"pid {process.pid} has an affinity excluding every CPU")
        for cpu_id in candidates:
            if busy[cpu_id] + demand.utilization <= 1.0 + 1e-12:
                granted = demand.utilization
                break
        else:
            cpu_id = max(candidates, key=lambda c: 1.0 - busy[c])
            granted = max(0.0, 1.0 - busy[cpu_id])
            if granted <= 1e-12:
                return None
        weight = 1.25 ** (-process.nice)
        granted = min(1.0 - busy[cpu_id], granted * min(1.0, weight))
        if granted <= 0.0:
            return None
        busy[cpu_id] += granted
        return ThreadAssignment(pid=process.pid, cpu_id=cpu_id,
                                busy_fraction=granted, mix=demand.mix,
                                memory=demand.memory)


class ReferenceEnergyAware:
    """The original ``EnergyAwareScheduler``: pack below the threshold."""

    def __init__(self, topology, pack_threshold=0.5):
        self.capacity = float(len(topology))
        self.pack_threshold = pack_threshold
        self._pack = ReferencePlacement(topology, "pack")
        self._spread = ReferencePlacement(topology, "spread")

    def assign(self, demands):
        wanted = left_sum(demand.utilization * demand.threads
                          for process, demand in demands
                          if process.state.value == "runnable")
        delegate = (self._pack
                    if wanted <= self.capacity * self.pack_threshold
                    else self._spread)
        return delegate.assign(demands)


POLICIES = {
    "spread": (SpreadScheduler,
               lambda topology: ReferencePlacement(topology, "spread")),
    "pack": (PackScheduler,
             lambda topology: ReferencePlacement(topology, "pack")),
    "pinned": (PinnedScheduler,
               lambda topology: ReferencePlacement(topology, "pinned")),
    "energy-aware": (EnergyAwareScheduler, ReferenceEnergyAware),
}


#: Placement passes mixes and memory profiles through untouched.
MIXES = (InstructionMix(), InstructionMix(fp_fraction=0.3))
MEMORIES = (MemoryProfile(), MemoryProfile(working_set_bytes=8 * 1024 ** 2))


def _affinities(spec):
    return st.one_of(st.none(), st.sets(st.integers(0, spec.num_threads),
                                        min_size=1, max_size=3))


def _held_utilizations(previous):
    """Fresh utilisations for demands that keep their shape: the last
    ones; the last ones swapped between demands (the work order's keys
    cross); one value for all (demands with equal threads tie); or each
    drawn alone, at a CPU's headroom edge next to another demand's value
    or up to saturation."""
    count = len(previous)
    edges = sorted({edge for value in previous for edge in (
        1.0 - value, 1.0 - value + 1e-12,
        math.nextafter(1.0 - value + 1e-12, 2.0)) if 0.0 <= edge <= 1.0})
    values = (st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.0])
              | st.sampled_from(previous) | st.sampled_from(edges)
              | st.floats(0.0, 1.0, allow_nan=False))
    return st.one_of(
        st.just(list(previous)),
        st.permutations(previous),
        values.map(lambda value: [value] * count),
        st.lists(values, min_size=count, max_size=count))


@st.composite
def demand_rounds(draw, spec):
    """Processes with affinities and nice levels, and 1–8 rounds of
    demands for them, each with the processes' states, nice levels and
    affinities.  A round may repeat the one before it, or keep its shape
    (threads, mix, memory, states) with fresh utilisations
    (:func:`_held_utilizations`) and renice one process or replace one
    affinity."""
    processes = []
    for index in range(draw(st.integers(1, 8))):
        processes.append(SimProcess(
            pid=1000 + index, name=f"p{index}", program=None,
            affinity=draw(_affinities(spec)),
            nice=draw(st.integers(-5, 5))))
    nices = [process.nice for process in processes]
    affinities = [process.affinity for process in processes]
    rounds = []
    for _ in range(draw(st.integers(1, 8))):
        kind = (draw(st.sampled_from(["repeat", "fresh", "held", "held"]))
                if rounds else "fresh")
        if kind == "repeat":
            rounds.append(rounds[-1])
            continue
        if kind == "held":
            previous, states, nices, affinities = rounds[-1]
            utilizations = draw(_held_utilizations(
                [demand.utilization for _process, demand in previous]))
            demands = [(process, replace(demand, utilization=utilization))
                       for (process, demand), utilization
                       in zip(previous, utilizations)]
            index = draw(st.integers(0, len(processes) - 1))
            change = draw(st.sampled_from(["none", "renice", "affinity"]))
            if change == "renice":
                nices = list(nices)
                nices[index] = draw(st.integers(-5, 5))
            elif change == "affinity":
                affinities = list(affinities)
                affinities[index] = draw(_affinities(spec))
            rounds.append((demands, states, nices, affinities))
            continue
        demands = []
        for process in processes:
            demands.append((process, Demand(
                utilization=draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])
                                 | st.floats(0.0, 1.0, allow_nan=False)),
                mix=draw(st.sampled_from(MIXES)),
                memory=draw(st.sampled_from(MEMORIES)),
                threads=draw(st.integers(1, 3)))))
        states = [draw(st.sampled_from([ProcessState.RUNNABLE,
                                        ProcessState.RUNNABLE,
                                        ProcessState.SLEEPING]))
                  for _process in processes]
        rounds.append((demands, states, nices, affinities))
    return rounds


class TestPlacementMatchesReference:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("spec", [SPEC, SMT_SPEC],
                             ids=["i3-2120", "xeon-smt"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_same_assignments(self, policy, spec, data):
        rounds = data.draw(demand_rounds(spec))
        scheduler_class, reference_class = POLICIES[policy]
        topology = Topology(spec)
        scheduler = scheduler_class(topology)
        reference = reference_class(topology)
        for demands, states, nices, affinities in rounds:
            for (process, _demand), state, nice, affinity in zip(
                    demands, states, nices, affinities):
                process.state = state
                process.nice = nice
                process.affinity = affinity
            try:
                expected = reference.assign(demands)
            except SchedulerError:
                with pytest.raises(SchedulerError):
                    scheduler.assign(demands)
                continue
            assert scheduler.assign(demands) == expected
