"""Ramp runs: quanta that share one layout, held and replayed at once.

A SPECjbb ramp keeps its placement's shape while every quantum's busy
fractions move.  The kernel hands each quantum to the engine
(``BatchEngine.hold``); a quantum that shares the held run's layout key
and dt joins it as a row of floats, and the run is filled as numpy
columns and replayed once (``BatchEngine.replay_run``).  These tests
hold that path, bit for bit (``float.hex``), to the per-quantum ones:

* the engine against :class:`ReferenceTickLoop` stepped per quantum,
  over :func:`tests.strategies.ramps` runs of 2–120 quanta and fixed
  ramps of 1 000 and more (a run longer than ``FOLD_CHUNK_ROWS`` rows,
  and one cut at ``FOLD_CHUNK_ROWS`` quanta);
* a :class:`SimKernel` with a SPECjbb ramp and random tenants, a perf
  session (a per-pid trio, a rotating group, a starvation window),
  procfs and the power oracle, run in spans of 2 to 5 000 quanta,
  against a twin whose spans are one quantum each: a P-state move and
  a row going idle end runs, a PowerSpy forms none, and an
  oversubscribed quantum raises with the twin's machine state.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.os.governor import OndemandGovernor
from repro.os.kernel import SimKernel
from repro.os.process import Demand
from repro.perf.counting import PerfSession
from repro.powermeter.powerspy import PowerSpy
from repro.simcpu.attribution import TrueProcessPower
from repro.simcpu.caches import MemoryProfile
from repro.simcpu.counters import ALL_EVENTS, GENERIC_TRIO
from repro.simcpu.engine import FOLD_CHUNK_ROWS
from repro.simcpu.machine import Machine, RunRecord, ThreadAssignment
from repro.simcpu.pipeline import InstructionMix
from repro.simcpu.spec import intel_i3_2120, intel_xeon_smt
from repro.workloads import (Phase, PhasedWorkload, RandomWorkload,
                             SpecJbbWorkload)
from tests.strategies import dts, ramps
from tests.test_engine_equivalence import ReferenceTickLoop

SPEC = intel_i3_2120()
SMT_SPEC = intel_xeon_smt()


def _record_runs(machine):
    """The tick count of every run the machine's engine replays."""
    engine = machine.engine
    runs = []
    replay_run = engine.replay_run

    def recorded(first, busy, cpu_busy):
        runs.append(len(busy))
        return replay_run(first, busy, cpu_busy)

    engine.replay_run = recorded
    return runs


def _hex(value):
    assert type(value) is float, type(value)
    return value.hex()


def _record_bits(record):
    """A record's every value, as exactly comparable strings; each must
    be a Python float."""
    power = record.power
    return (_hex(record.time_s), _hex(record.dt_s),
            [_hex(getattr(power, name)) for name in (
                "idle", "cores", "uncore", "dram", "leakage", "wakeup")],
            [(key, [(event, _hex(count)) for event, count in delta.items()])
             for key, delta in record.events.items()],
            [(cpu_id, _hex(busy)) for cpu_id, busy in record.cpu_busy.items()],
            dict(record.core_frequencies_hz))


class TickLog:
    """A stating subscriber that states nothing and keeps each run's
    per-tick records (``RunRecord.ticks``), keyed by the run's first
    tick; with *every_tick* it keeps every one-tick replay's record."""

    def __init__(self, machine, every_tick=False):
        self.ticks = 0
        self.records = {}
        self.every_tick = every_tick
        machine.add_cells(self)

    def __call__(self, record, n_ticks):
        if isinstance(record, RunRecord):
            self.records[self.ticks] = [_record_bits(tick)
                                        for tick in record.ticks()]
        elif self.every_tick:
            assert n_ticks == 1
            self.records[self.ticks] = [_record_bits(record)]
        self.ticks += n_ticks
        return [], None

    def matches(self, every_tick):
        """Each run tick's record equals the one-tick replay's there."""
        return all(every_tick.records[start + offset] == [bits]
                   for start, records in self.records.items()
                   for offset, bits in enumerate(records))


class TestEngineRunsMatchReferenceLoop:
    """The run replay against the tick loop, stepped per quantum."""

    @staticmethod
    def _compare(spec, quanta, ticks, dt, move_at=None, frequency_hz=None):
        machine = Machine(spec)
        runs = _record_runs(machine)
        log = TickLog(machine)
        reference = ReferenceTickLoop(spec)
        stepped = []
        engine = machine.engine
        pids = sorted({a.pid for quantum in quanta for a in quantum})
        for index, (assignments, n_ticks) in enumerate(zip(quanta, ticks)):
            if index == move_at:
                machine.set_frequency(frequency_hz)
                reference.machine.set_frequency(frequency_hz)
            engine.hold(assignments, dt)
            engine.extend(n_ticks)
            for _ in range(n_ticks):
                breakdown, events = reference.step(assignments, dt)
                stepped.append((reference.time_s.hex(), [
                    getattr(breakdown, name).hex() for name in (
                        "idle", "cores", "uncore", "dram", "leakage",
                        "wakeup")]))
        engine.flush()

        # Each run tick's record: its time and its own power terms.
        for start, records in log.records.items():
            assert [(bits[0], bits[2]) for bits in records] == stepped[
                start:start + len(records)]

        record = machine.last_record
        assert [_hex(getattr(record.power, name)) for name in (
            "idle", "cores", "uncore", "dram", "leakage", "wakeup")] == [
            getattr(breakdown, name).hex() for name in (
                "idle", "cores", "uncore", "dram", "leakage", "wakeup")]
        assert ([(key, [_hex(count) for count in delta.values()])
                 for key, delta in record.events.items()]
                == [(key, [count.hex() for count in delta.values()])
                    for key, delta in events.items()])
        assert ({cpu_id: _hex(busy) for cpu_id, busy
                 in record.cpu_busy.items()}
                == {cpu_id: busy.hex() for cpu_id, busy in
                    reference.machine._validate_occupancy(
                        quanta[-1]).items()})
        assert _hex(record.time_s) == reference.time_s.hex()
        assert _hex(machine.time_s) == reference.time_s.hex()
        assert _hex(machine.energy_j) == reference.energy_j.hex()
        assert (_hex(machine.thermal.temperature_c)
                == reference.machine.thermal.temperature_c.hex())
        for pid in pids:
            for cpu_id in range(spec.num_threads):
                for event in ALL_EVENTS:
                    assert (machine.counters.read(
                                event, pid=pid, cpu_id=cpu_id).hex()
                            == reference.counters.read(
                                event, pid=pid, cpu_id=cpu_id).hex())
        for column in machine.counters._columns:
            assert all(type(value) is float for value in column)
        cstates, expected = machine.cstates, reference.machine.cstates
        for cpu_id in range(spec.num_threads):
            assert (cstates.current_state(cpu_id)
                    == expected.current_state(cpu_id))
            for state in spec.cstates:
                assert (_hex(cstates.residency(cpu_id, state))
                        == expected.residency(cpu_id, state).hex())
        return runs

    @pytest.mark.parametrize("spec", [SPEC, SMT_SPEC],
                             ids=["i3-2120", "xeon-smt"])
    @given(data=st.data(), dt=dts)
    @settings(max_examples=30, deadline=None)
    def test_random_runs(self, spec, data, dt):
        quanta, move_at, frequency_hz = data.draw(ramps(spec, max_quanta=120))
        # Mostly one tick a quantum; a repeat ends a run before it.
        ticks = data.draw(st.lists(st.sampled_from([1, 1, 1, 1, 1, 2, 3]),
                                   min_size=len(quanta),
                                   max_size=len(quanta)))
        self._compare(spec, quanta, ticks, dt, move_at, frequency_hz)

    @staticmethod
    def _ramp(spec, n_quanta):
        """A fixed shape on every CPU, pid 7 twice on CPU 0 (one counter
        slot, two addends a tick), its busy fractions moving smoothly."""
        def thread(pid, cpu_id, busy, fp, working_set):
            return ThreadAssignment(
                pid=pid, cpu_id=cpu_id, busy_fraction=busy,
                mix=InstructionMix(fp_fraction=fp, branch_fraction=0.1),
                memory=MemoryProfile(mem_ops_per_instruction=0.3,
                                     working_set_bytes=working_set,
                                     locality=0.9))

        shape = [thread(7, 0, 0.4, 0.2, 2 ** 20), thread(7, 0, 0.35, 0.0,
                                                         2 ** 16)]
        shape += [thread(8 + cpu_id, cpu_id, 0.6 if cpu_id == 1 else 0.5,
                         0.1 * cpu_id, 2 ** 22)
                  for cpu_id in range(1, spec.num_threads)]
        quanta = []
        for index in range(n_quanta):
            wave = 0.5 + 0.45 * math.sin(index / 37.0)
            # CPU 1 saturates on some quanta: no idle cell there.
            quanta.append([replace(a, busy_fraction=min(
                1.0, a.busy_fraction * (
                    0.3 + wave if a.cpu_id == 0 else 2.0 * wave)))
                for a in shape])
        return quanta

    @pytest.mark.parametrize("spec", [SPEC, SMT_SPEC],
                             ids=["i3-2120", "xeon-smt"])
    def test_a_thousand_quanta(self, spec):
        """One run of 1 000 quanta: its two-addend cells take 2 000
        rows, more than ``FOLD_CHUNK_ROWS``."""
        quanta = self._ramp(spec, 1000)
        runs = self._compare(spec, quanta, [1] * len(quanta), 0.001)
        assert runs == [1000]
        assert 2 * 1000 > FOLD_CHUNK_ROWS

    def test_a_run_ends_at_fold_chunk_rows_quanta(self):
        quanta = self._ramp(SPEC, 2 * FOLD_CHUNK_ROWS + 300)
        runs = self._compare(SPEC, quanta, [1] * len(quanta), 0.002)
        assert runs == [FOLD_CHUNK_ROWS, FOLD_CHUNK_ROWS, 300]

    def test_a_p_state_move_and_a_repeat_end_runs(self):
        quanta = self._ramp(SPEC, 60)
        ticks = [1] * 60
        ticks[40] = 5
        runs = self._compare(SPEC, quanta, ticks, 0.001, move_at=25,
                             frequency_hz=SPEC.frequencies_hz[1])
        # 0-24 at the first target; 25 moves it; 26-39 up to the
        # repeated quantum 40, which is replayed as a program.
        assert runs == [25, 15, 19]


# -- the kernel ---------------------------------------------------------------

def _sleepy():
    """A tenant that sleeps for 3 ms now and then over its first 1.2 s
    (its row leaves the occupancy, which ends a run), then runs."""
    busy = Demand(utilization=0.6, mix=InstructionMix(fp_fraction=0.2),
                  memory=MemoryProfile(working_set_bytes=4 * 1024 ** 2))
    return PhasedWorkload([Phase(0.0173, busy),
                           Phase(0.003, Demand(utilization=0.0))] * 60
                          + [Phase(60.0, busy)])


class Rig:
    """A kernel with a SPECjbb ramp, random tenants and every stating
    subscriber: perf (a per-pid trio each, a rotating group, a
    machine-wide counter), procfs and the power oracle."""

    def __init__(self, every_tick, meter=False, oversubscribe_at_s=None):
        kernel = self.kernel = SimKernel(
            SPEC, governor_factory=OndemandGovernor, quantum_s=0.001)
        machine = self.machine = kernel.machine
        self.runs = _record_runs(machine)
        self.specjbb = kernel.spawn(SpecJbbWorkload(
            duration_s=60.0, threads=2, seed=3, gc_interval_s=0.9,
            gc_duration_s=0.2))
        self.random = kernel.spawn(RandomWorkload(60.0, seed=11,
                                                  mean_phase_s=2.0))
        self.sleepy = kernel.spawn(_sleepy())
        session = self.session = PerfSession(machine)
        for pid in (self.specjbb, self.random, self.sleepy):
            session.open_group(GENERIC_TRIO, pid=pid)
        # Six events on one pid rotate over the i3's four slots.
        session.open_group(ALL_EVENTS[:6], pid=self.random)
        session.open("instructions")
        self.oracle = TrueProcessPower(machine)
        self.spy = None
        if meter:
            self.spy = PowerSpy(machine, sample_rate_hz=400.0, seed=2)
            self.spy.connect()
        self.log = TickLog(machine, every_tick)
        if oversubscribe_at_s is not None:
            assign = kernel.scheduler.assign
            ramp = kernel.process(self.specjbb)

            def oversubscribing(demands):
                assignments = assign(demands)
                if ramp.wall_time_s > oversubscribe_at_s:
                    first = assignments[0]
                    assignments.append(replace(first, pid=first.pid + 1,
                                               busy_fraction=1.0))
                return assignments

            kernel.scheduler.assign = oversubscribing

    def bits(self):
        machine = self.machine
        procfs = self.kernel.procfs
        return dict(
            machine=[_hex(value) for value in (
                machine.time_s, machine.energy_j,
                machine.thermal.temperature_c)],
            bank=[[value.hex() for value in column]
                  for column in machine.counters._columns],
            residency=[(key, _hex(value)) for key, value
                       in machine.cstates.residency_table().items()],
            current=[machine.cstates.current_state(cpu_id)
                     for cpu_id in range(SPEC.num_threads)],
            perf=[(c.counter_id, [_hex(value) for value in c._values])
                  for c in self.session._counters.values()],
            rotation=dict(self.session._mux._rotation),
            procfs=(_hex(procfs.uptime_s()),
                    [(cpu_id, _hex(value))
                     for cpu_id, value in procfs._cpu_busy_s.items()],
                    [(pid, _hex(procfs.process_cpu_time_s(pid)))
                     for pid in procfs.known_pids()]),
            oracle=(_hex(self.oracle.duration_s),
                    [(pid, _hex(self.oracle.energy_j(pid)))
                     for pid in self.oracle.pids()]),
            last=_record_bits(machine.last_record),
            spy=[(s.time_s.hex(), s.power_w.hex())
                 for s in (self.spy.samples if self.spy else ())],
            live=self.kernel.live_pids,
        )


def _drive(spans, starve=(), **options):
    """The rig in spans of *spans* quanta, its twin in one-quantum
    spans; PMU starvation over the spans whose index is in *starve*."""
    rig, twin = Rig(False, **options), Rig(True, **options)
    for index, n_quanta in enumerate(spans):
        for machine in (rig, twin):
            machine.session.set_slot_override(0 if index in starve else None)
        rig.kernel.run_span(n_quanta)
        for _ in range(n_quanta):
            twin.kernel.run_span(1)
    assert twin.runs == []
    return rig, twin


#: Spans of 2 to 5 000 quanta over the ramp (the first 7.2 s of the
#: SPECjbb run); the PMU starves over the fourth and fifth.
SPANS = (2, 100, 1000, 5000, 100, 1000, 2)


class TestKernelRunsMatchOneQuantumSpans:
    def test_every_subscriber_bit_for_bit(self):
        rig, twin = _drive(SPANS, starve=(3, 4))
        assert rig.bits() == twin.bits()
        assert rig.log.matches(twin.log)
        # Runs formed, covering most quanta; some were cut at
        # FOLD_CHUNK_ROWS quanta.
        assert sum(rig.runs) > sum(SPANS) // 2
        assert max(rig.runs) == FOLD_CHUNK_ROWS
        # The governor moved P-states, each of the sleepy tenant's 60
        # naps ended a run, and the rotating group rotated.
        assert rig.machine.frequency.generation > 3
        assert len(rig.runs) > 60
        rotating = [c for c in rig.session._counters.values()
                    if c.pid == rig.random and c.event not in GENERIC_TRIO]
        assert all(0.0 < c.time_running_s < c.time_enabled_s
                   for c in rotating)

    def test_a_meter_forms_no_run(self):
        rig, twin = _drive((2, 100, 1000), meter=True)
        assert rig.runs == []
        assert rig.bits() == twin.bits()
        assert len(rig.spy.samples) > 100

    def test_an_oversubscribed_quantum_raises_with_the_twins_state(self):
        rig, twin = (Rig(every_tick, oversubscribe_at_s=0.7)
                     for every_tick in (False, True))
        with pytest.raises(ConfigurationError, match="oversubscribed"):
            rig.kernel.run_span(1000)
        with pytest.raises(ConfigurationError, match="oversubscribed"):
            for _ in range(1000):
                twin.kernel.run_span(1)
        assert rig.runs
        assert rig.bits() == twin.bits()


def test_one_quantum_spans_repeat_without_layout_work():
    """A steady quantum repeated over one-quantum spans is found by the
    key check alone: no compile and no layout key after the first."""
    kernel = SimKernel(SPEC, quantum_s=0.001)
    kernel.spawn(PhasedWorkload([Phase(1.0, Demand(utilization=0.7,
                                                   threads=2))]))
    engine = kernel.machine.engine
    calls = []
    for name in ("_compile", "_layout_key"):
        method = getattr(engine, name)
        setattr(engine, name, lambda *args, _method=method, _name=name:
                calls.append(_name) or _method(*args))
    for _ in range(50):
        kernel.run_span(1)
    assert calls == ["_compile", "_layout_key"]
