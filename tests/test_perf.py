"""Unit tests for the perf layer: events, pfm resolution, counting."""

import itertools

import pytest

from repro.errors import (ConfigurationError, CounterInvalidError,
                          CounterStateError, ReproError, SampleLossError,
                          UnknownEventError)
from repro.perf.counting import PerfSession
from repro.perf.events import (EventType, all_events, available_on,
                               event_def, portable_events)
from repro.perf.multiplex import MultiplexScheduler
from repro.perf.pfm import resolve, resolve_many
from repro.simcpu import counters as ev
from repro.simcpu.caches import MemoryProfile
from repro.simcpu.machine import Machine, ThreadAssignment
from repro.simcpu.pipeline import InstructionMix
from repro.simcpu.spec import intel_i3_2120


class TestEventDefs:
    def test_known_event(self):
        definition = event_def(ev.INSTRUCTIONS)
        assert definition.perf_constant == "PERF_COUNT_HW_INSTRUCTIONS"
        assert definition.type is EventType.HARDWARE

    def test_unknown_event_raises(self):
        with pytest.raises(UnknownEventError):
            event_def("flux-capacitor-cycles")

    def test_portable_events_exclude_intel_only(self):
        portable = portable_events()
        assert ev.REF_CYCLES not in portable
        assert ev.BUS_CYCLES not in portable
        assert ev.INSTRUCTIONS in portable

    def test_generic_trio_is_portable(self):
        portable = set(portable_events())
        assert {ev.INSTRUCTIONS, ev.CACHE_REFERENCES,
                ev.CACHE_MISSES} <= portable

    def test_available_on_amd(self):
        amd = available_on("amd")
        assert ev.REF_CYCLES not in amd
        assert ev.INSTRUCTIONS in amd

    def test_all_events_covers_simulated_pmu(self):
        assert set(all_events()) == set(ev.ALL_EVENTS)


class TestPfmResolution:
    def test_canonical_passthrough(self):
        assert resolve("instructions") == ev.INSTRUCTIONS

    def test_case_and_separator_insensitive(self):
        assert resolve("Cache_Misses") == ev.CACHE_MISSES
        assert resolve("CACHE-REFERENCES") == ev.CACHE_REFERENCES

    def test_perf_constant(self):
        assert resolve("PERF_COUNT_HW_INSTRUCTIONS") == ev.INSTRUCTIONS

    def test_intel_mnemonic(self):
        assert resolve("INST_RETIRED:ANY_P") == ev.INSTRUCTIONS
        assert resolve("LONGEST_LAT_CACHE.MISS") == ev.CACHE_MISSES

    def test_amd_mnemonic(self):
        assert resolve("RETIRED_INSTRUCTIONS") == ev.INSTRUCTIONS

    def test_unknown_raises(self):
        with pytest.raises(UnknownEventError):
            resolve("NOT_A_COUNTER")

    def test_resolve_many_dedupes(self):
        names = ["instructions", "INST_RETIRED:ANY_P", "cache-misses"]
        assert resolve_many(names) == (ev.INSTRUCTIONS, ev.CACHE_MISSES)


def busy_assignment(pid=100, cpu=0):
    return ThreadAssignment(
        pid=pid, cpu_id=cpu, busy_fraction=1.0,
        mix=InstructionMix(),
        memory=MemoryProfile(working_set_bytes=8192, locality=0.99,
                             mem_ops_per_instruction=0.2))


class TestPerfCounter:
    @pytest.fixture
    def machine(self):
        machine = Machine(intel_i3_2120())
        machine.set_frequency(machine.spec.max_frequency_hz)
        return machine

    def test_counts_matching_pid(self, machine):
        session = PerfSession(machine)
        counter = session.open("instructions", pid=100)
        machine.run([busy_assignment(pid=100)], 0.1, dt_s=0.01)
        assert counter.read().raw > 0

    def test_ignores_other_pid(self, machine):
        session = PerfSession(machine)
        counter = session.open("instructions", pid=999)
        machine.run([busy_assignment(pid=100)], 0.1, dt_s=0.01)
        assert counter.read().raw == 0

    def test_cpu_filter(self, machine):
        session = PerfSession(machine)
        cpu0 = session.open("instructions", cpu=0)
        cpu1 = session.open("instructions", cpu=1)
        machine.run([busy_assignment(cpu=0)], 0.1, dt_s=0.01)
        assert cpu0.read().raw > 0
        assert cpu1.read().raw == 0

    def test_disabled_counter_freezes(self, machine):
        session = PerfSession(machine)
        counter = session.open("instructions")
        machine.run([busy_assignment()], 0.05, dt_s=0.01)
        frozen = counter.read().raw
        counter.disable()
        machine.run([busy_assignment()], 0.05, dt_s=0.01)
        assert counter.read().raw == frozen

    def test_reset(self, machine):
        session = PerfSession(machine)
        counter = session.open("instructions")
        machine.run([busy_assignment()], 0.05, dt_s=0.01)
        counter.reset()
        value = counter.read()
        assert value.raw == 0
        assert value.time_enabled_s == 0

    def test_closed_counter_raises(self, machine):
        session = PerfSession(machine)
        counter = session.open("instructions")
        counter.close()
        with pytest.raises(CounterStateError):
            counter.read()

    def test_open_resolves_aliases(self, machine):
        session = PerfSession(machine)
        counter = session.open("INST_RETIRED:ANY_P")
        assert counter.event == ev.INSTRUCTIONS

    def test_session_context_manager(self, machine):
        with PerfSession(machine) as session:
            counter = session.open("cycles")
            machine.run([busy_assignment()], 0.02, dt_s=0.01)
            assert counter.read().raw > 0
        # Session closed: machine no longer notifies it.
        assert counter.closed


def first_read_error(counters):
    """What reading *counters* one at a time raises first, as (type,
    message), or None."""
    for counter in counters:
        try:
            counter.read()
        except ReproError as exc:
            return type(exc), str(exc)
    return None


def group_read_error(session, counters):
    """What one group read of *counters* raises, as (type, message), or
    None."""
    try:
        session.read_group(counters)
    except ReproError as exc:
        return type(exc), str(exc)
    return None


class TestGroupRead:
    """``PerfSession.read_group``: every member's (raw, enabled, running)
    in one flat tuple, failing as the members' reads in order fail."""

    TRIO = ("instructions", "cache-references", "cache-misses")

    @pytest.fixture
    def machine(self):
        return Machine(intel_i3_2120())

    def test_flat_member_values(self, machine):
        session = PerfSession(machine)
        trio = session.open_group(self.TRIO, pid=100)
        # Six counters on one target rotate through the four slots.
        rotating = session.open_group(
            ("cycles", "branches", "branch-misses", "instructions",
             "cache-misses", "ref-cycles"), pid=100)
        machine.run([busy_assignment(pid=100)], 0.05, dt_s=0.01)
        for group in (trio, rotating, trio[1:2], ()):
            assert session.read_group(group) == tuple(
                value for counter in group for value in counter.read())
        assert {counter.time_running_s for counter in rotating} != {
            rotating[0].time_enabled_s}

    def test_closed_member_raises_counter_state_error(self, machine):
        session = PerfSession(machine)
        trio = session.open_group(self.TRIO, pid=100)
        trio[1].close()
        with pytest.raises(CounterStateError):
            session.read_group(trio)

    def test_esrch_raises_counter_invalid_error(self, machine):
        session = PerfSession(machine)
        trio = session.open_group(self.TRIO, pid=100)
        session.invalidate_pid(100)
        with pytest.raises(CounterInvalidError):
            session.read_group(trio)

    def test_sample_loss_raises_sample_loss_error(self, machine):
        session = PerfSession(machine)
        trio = session.open_group(self.TRIO, pid=100)
        session.set_sample_loss(True)
        with pytest.raises(SampleLossError):
            session.read_group(trio)
        session.set_sample_loss(False)
        assert session.read_group(trio) == (0.0,) * 9

    @pytest.mark.parametrize("loss", [False, True])
    def test_raises_what_the_first_failing_read_raises(self, machine, loss):
        """Every mix of open, closed and dead members, with and without
        sample loss: the same error type and message as reading the
        members one by one."""
        for states in itertools.product(("open", "closed", "dead"),
                                        repeat=3):
            session = PerfSession(machine)
            trio = session.open_group(self.TRIO, pid=100)
            for counter, state in zip(trio, states):
                if state == "closed":
                    counter.close()
                elif state == "dead":
                    counter.invalidate()
            session.set_sample_loss(loss)
            expected = first_read_error(trio)
            assert (expected is None) == (states == ("open",) * 3
                                          and not loss)
            assert group_read_error(session, trio) == expected, states
            session.close()


class TestMultiplexing:
    @pytest.fixture
    def machine(self):
        machine = Machine(intel_i3_2120())  # 4 counter slots
        machine.set_frequency(machine.spec.max_frequency_hz)
        return machine

    def test_within_slots_no_scaling(self, machine):
        session = PerfSession(machine)
        counters = session.open_group(["instructions", "cycles",
                                       "cache-references"])
        machine.run([busy_assignment()], 0.1, dt_s=0.01)
        for counter in counters:
            value = counter.read()
            assert not value.multiplexed
            assert value.scaled == pytest.approx(value.raw)

    def test_oversubscription_multiplexes(self, machine):
        session = PerfSession(machine)
        events = ["instructions", "cycles", "cache-references",
                  "cache-misses", "branches", "branch-misses"]
        counters = session.open_group(events)
        machine.run([busy_assignment()], 1.0, dt_s=0.01)
        assert any(counter.read().multiplexed for counter in counters)

    def test_scaling_approximates_truth(self, machine):
        session = PerfSession(machine)
        events = ["instructions", "cycles", "cache-references",
                  "cache-misses", "branches", "branch-misses"]
        counters = session.open_group(events)
        machine.run([busy_assignment()], 1.0, dt_s=0.01)
        instructions = next(c for c in counters if c.event == ev.INSTRUCTIONS)
        truth = machine.counters.read(ev.INSTRUCTIONS)
        assert instructions.read().scaled == pytest.approx(truth, rel=0.15)

    def test_separate_targets_do_not_contend(self, machine):
        session = PerfSession(machine)
        counters = [session.open("instructions", pid=pid)
                    for pid in range(100, 110)]
        machine.run([busy_assignment(pid=100)], 0.1, dt_s=0.01)
        assert not counters[0].read().multiplexed

    def test_scheduler_rejects_zero_slots(self):
        with pytest.raises(ConfigurationError):
            MultiplexScheduler(slots=0)

    def test_pressure_metric(self):
        scheduler = MultiplexScheduler(slots=2)

        class FakeCounter:
            def __init__(self, cid):
                self.counter_id = cid
                self.pid = -1
                self.cpu = -1
        counters = [FakeCounter(i) for i in range(6)]
        assert scheduler.pressure(counters) == pytest.approx(3.0)
        assert scheduler.pressure([]) == 0.0

    def test_rotation_covers_all_counters(self):
        scheduler = MultiplexScheduler(slots=1)

        class FakeCounter:
            def __init__(self, cid):
                self.counter_id = cid
                self.pid = -1
                self.cpu = -1
        counters = [FakeCounter(i) for i in range(3)]
        seen = set()
        for _ in range(3):
            seen |= scheduler.schedule(counters)
        assert seen == {0, 1, 2}
