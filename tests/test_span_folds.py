"""Unit tests of the span machinery: replays and the clock's span bound.

An engine replay takes a batch of identical ticks in one call, so
replaying a program for *n* ticks must leave perf and procfs exactly
where *n* one-tick replays leave them.  The clock's span bound must name
the very quantum on which stepping one quantum at a time publishes,
float drift included.
"""

import pytest

from repro.actors.clock import VirtualClock
from repro.os.procfs import ProcFs
from repro.perf.counting import PerfSession
from repro.simcpu.caches import MemoryProfile
from repro.simcpu.engine import FOLD_CHUNK_ROWS
from repro.simcpu.machine import Machine, ThreadAssignment
from repro.simcpu.pipeline import InstructionMix
from repro.simcpu.spec import intel_i3_2120

SPEC = intel_i3_2120()
TICKS = (1, 2, 7, 13)


def _assignment(pid, cpu_id, busy):
    return ThreadAssignment(
        pid=pid, cpu_id=cpu_id, busy_fraction=busy,
        mix=InstructionMix(fp_fraction=0.1),
        memory=MemoryProfile(working_set_bytes=2 * 1024 ** 2))


@pytest.fixture(scope="module")
def record():
    """The occupancy replayed: pid 100 on cpus 0 and 1, pid 101
    part-time on cpu 2."""
    return [_assignment(100, 0, 1.0), _assignment(100, 1, 0.6),
            _assignment(101, 2, 0.35)]


def _fold(owner, record, n_ticks):
    """Replay *n_ticks* ticks of the *record* occupancy on *owner*'s
    machine."""
    machine = owner.machine if isinstance(owner, PerfSession) else (
        owner._machine)
    engine = machine.engine
    engine.replay(engine.program(record, 0.001), n_ticks)


def _session(setup):
    session = PerfSession(Machine(SPEC))
    setup(session)
    return session


def _fits(session):
    session.open_group(["instructions", "cycles", "cache-misses"], pid=100)
    session.open_group(["instructions", "branches"], pid=101)
    session.open("instructions")


def _rotates(session):
    session.open_group(["instructions", "cycles", "cache-misses",
                        "cache-references", "branches", "bus-cycles"],
                       pid=100)
    session.open_group(["instructions", "cycles"], pid=101, cpu=2)


def _starved(session):
    _rotates(session)
    session.set_slot_override(0)


def _disabled(session):
    _rotates(session)
    session.open("cycles", pid=101).disable()


def _dead(session):
    _fits(session)
    session.invalidate_pid(101)


def _state(session):
    return ([(c.counter_id, c.enabled, c.raw, c.time_enabled_s,
              c.time_running_s) for c in session._counters.values()],
            dict(session._mux._rotation))


class TestPerfFold:
    @pytest.mark.parametrize("setup", [_fits, _rotates, _starved, _disabled,
                                       _dead])
    @pytest.mark.parametrize("n_ticks", TICKS)
    def test_batch_equals_single_ticks(self, record, setup, n_ticks):
        batched, ticked = _session(setup), _session(setup)
        for _ in range(2):  # a second batch continues the rotation
            _fold(batched, record, n_ticks)
            for _ in range(n_ticks):
                _fold(ticked, record, 1)
        assert _state(batched) == _state(ticked)

    def test_rotating_group_over_chunks_folds_bit_for_bit(self, record):
        """A multi-chunk batch in which pid 100's six counters rotate
        over the PMU slots (each runs fewer ticks than it is enabled,
        one vector fold per distinct running count) while pid 101's
        fit and run every tick."""
        n_ticks = 2 * FOLD_CHUNK_ROWS + 3
        batched, ticked = _session(_rotates), _session(_rotates)
        _fold(batched, record, n_ticks)
        for _ in range(n_ticks):
            _fold(ticked, record, 1)
        counters = list(batched._counters.values())
        rotating = [c for c in counters if c.pid == 100]
        assert all(0.0 < c.time_running_s < c.time_enabled_s
                   for c in rotating)
        assert all(c.time_running_s == c.time_enabled_s
                   for c in counters if c.pid == 101)

        def bits(session):
            return [(c.raw.hex(), c.time_enabled_s.hex(),
                     c.time_running_s.hex())
                    for c in session._counters.values()]

        assert bits(batched) == bits(ticked)
        assert _state(batched) == _state(ticked)

    def test_rotating_group_shares_the_pmu(self, record):
        session = _session(_rotates)
        _fold(session, record, 12)
        counters = [c for c in session._counters.values() if c.pid == 100]
        assert {c.time_running_s for c in counters} == {
            counters[0].time_running_s}
        assert counters[0].time_running_s < counters[0].time_enabled_s

    def test_starved_counters_only_stay_enabled(self, record):
        session = _session(_starved)
        _fold(session, record, 5)
        for counter in session._counters.values():
            assert counter.time_enabled_s > 0.0
            assert counter.time_running_s == 0.0 == counter.raw

    def test_disabled_and_dead_counters_do_not_move(self, record):
        for setup in (_disabled, _dead):
            session = _session(setup)
            _fold(session, record, 5)
            idle = [c for c in session._counters.values() if not c.enabled]
            assert idle
            assert all(c.time_enabled_s == 0.0 == c.raw for c in idle)


class TestProcFsFold:
    @pytest.mark.parametrize("n_ticks", TICKS)
    def test_batch_equals_single_ticks(self, record, n_ticks):
        batched, ticked = ProcFs(Machine(SPEC)), ProcFs(Machine(SPEC))
        for _ in range(2):
            _fold(batched, record, n_ticks)
            for _ in range(n_ticks):
                _fold(ticked, record, 1)

        def state(procfs):
            return (procfs.uptime_s(),
                    [procfs.cpu_busy_time_s(cpu) for cpu in range(4)],
                    [(pid, procfs.process_cpu_time_s(pid))
                     for pid in procfs.known_pids()])

        assert state(batched) == state(ticked)
        assert batched.known_pids() == (100, 101)

    def test_machine_batch_folds_once(self):
        machine = Machine(SPEC)
        procfs = ProcFs(machine)
        calls = []
        machine.add_fold(lambda record, n_ticks, leaks, start_s:
                         calls.append(n_ticks))
        machine.run_batch([_assignment(100, 0, 1.0)], 40, dt_s=0.001)
        assert calls == [40]
        assert procfs.uptime_s() == pytest.approx(0.04)


class _Bus:
    def __init__(self):
        self.ticks = []

    def publish(self, message):
        self.ticks.append(message)


class TestClockSpanBound:
    @pytest.mark.parametrize("period_s,quantum_s", [
        (0.1, 0.01), (1.0, 0.001), (0.3, 0.1), (0.0125, 0.005),
        (0.0004, 0.001), (0.7, 0.0001), (1.0, 1.0)])
    def test_bound_lands_on_the_publishing_quantum(self, period_s,
                                                   quantum_s):
        n_quanta = 3000
        stepped = VirtualClock(_Bus(), period_s=period_s)
        publishing = [n for n in range(1, n_quanta + 1)
                      if stepped.advance(quantum_s)]

        spanned = VirtualClock(_Bus(), period_s=period_s)
        done, spans_ended = 0, []
        while done < n_quanta:
            span = spanned.quanta_until_tick(quantum_s, n_quanta - done)
            assert 1 <= span <= n_quanta - done
            done += span
            if spanned.advance(quantum_s, span):
                spans_ended.append(done)
        assert spans_ended == publishing
        assert spanned.bus.ticks == stepped.bus.ticks
        assert spanned._elapsed_s == stepped._elapsed_s

    def test_bound_respects_limit(self):
        clock = VirtualClock(_Bus(), period_s=1.0)
        assert clock.quanta_until_tick(0.001, 1) == 1
        assert clock.quanta_until_tick(0.001, 250) == 250
        assert clock.quanta_until_tick(0.001, 5000) == 1000
