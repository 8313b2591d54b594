"""Count tuples between the HPC sensor and the formula, held bit for bit
(``float.hex``) to the per-pid dicts they replace.

An :class:`HpcReport` carries ``events`` (the counters' canonical names,
in counter order) and, per pid, one tuple of counts aligned with them.

* The formula stage maps each frequency formula's coefficients onto the
  report's event indices and adds ``intercept + (((0.0 + w1 * (c1 / p))
  + w2 * (c2 / p)) + ...)`` per pid.  It is held to
  ``FrequencyFormula.predict({event: count / p})`` and to the sum
  ``predict`` made before it shared :func:`repro.core.model.linear_power`
  with the stage, over drawn coefficient orders, intercepts, clamped
  results, model events missing from the report and event lists that
  name one event twice (two aliases: the dict kept the later count).
* The sensor reads each pid's counters with one group read and turns it
  into one tuple of scaled deltas.  It is held to the per-counter
  ``CounterValue`` arithmetic, run on the same counters, under rotation,
  starvation, sample loss, a reopen after ESRCH and a lost pid.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.actors.clock import ClockTick
from repro.actors.system import ActorSystem
from repro.core.formula import HpcFormula
from repro.core.messages import HpcReport, PowerReport
from repro.core.model import FrequencyFormula, PowerModel
from repro.core.sensors import HpcSensor
from repro.core.stage import PipelineStage
from repro.errors import (CounterInvalidError, CounterStateError,
                          SampleLossError)
from repro.perf import pfm
from repro.perf.counting import CounterValue, PerfSession
from repro.simcpu.caches import MemoryProfile
from repro.simcpu.machine import Machine, ThreadAssignment
from repro.simcpu.pipeline import InstructionMix
from repro.simcpu.spec import intel_i3_2120
from repro.units import ghz, left_sum

#: Canonical events a model or a report may name.
EVENTS = ("instructions", "cache-references", "cache-misses", "cycles",
          "branches")
#: Spellings a sensor may open; the aliases resolve onto the first four.
SPELLINGS = EVENTS + ("INST_RETIRED:ANY_P", "RETIRED_INSTRUCTIONS",
                      "LONGEST_LAT_CACHE:MISS", "CPU_CLK_UNHALTED")


def _hex(value):
    assert type(value) is float, type(value)
    return value.hex()


class Collector(PipelineStage):
    """Keeps every message of the subscribed types, in order."""

    subscribes_to = (HpcReport, PowerReport)

    def __init__(self):
        super().__init__(component="collector")
        self.messages = []

    def handle(self, message):
        self.messages.append(message)


# -- the formula stage ------------------------------------------------------


def old_predict(formula, rates):
    """``FrequencyFormula.predict`` before it shared ``linear_power``."""
    power = formula.intercept_w + left_sum(
        weight * rates.get(event, 0.0)
        for event, weight in formula.coefficients.items())
    return max(0.0, power)


weights = st.one_of(st.floats(-1e-6, 1e-6), st.floats(-10.0, 10.0))
counts = st.one_of(st.floats(0.0, 1e10), st.sampled_from([0.0, 1.0, 3.0]))
periods = st.one_of(st.sampled_from([0.001, 0.01, 0.3, 0.5, 1.0]),
                    st.floats(1e-4, 10.0))


@st.composite
def formulas(draw, frequency_hz):
    events = draw(st.permutations(EVENTS))
    chosen = events[:draw(st.integers(1, len(events)))]
    return FrequencyFormula(
        frequency_hz, {event: draw(weights) for event in chosen},
        intercept_w=draw(st.one_of(st.just(0.0), st.floats(-20.0, 20.0))))


@st.composite
def reports(draw, frequencies):
    """A report over drawn events: model events may be missing, and an
    event may appear twice (two aliases of one counter)."""
    events = tuple(draw(st.lists(st.sampled_from(EVENTS), min_size=1,
                                 max_size=6)))
    pids = draw(st.lists(st.integers(1, 9_999), min_size=1, max_size=5,
                         unique=True))
    rows = {pid: tuple(draw(counts) for _ in events) for pid in pids}
    return HpcReport(time_s=1.0, period_s=draw(periods), pid=-1,
                     events=events, counters=rows,
                     frequency_hz=draw(st.sampled_from(frequencies)))


@st.composite
def formula_cases(draw):
    frequencies = draw(st.lists(st.integers(1, 40).map(lambda n: n * 10 ** 8),
                                min_size=1, max_size=3, unique=True))
    model = PowerModel(idle_w=10.0, formulas=[
        draw(formulas(frequency)) for frequency in frequencies])
    asked = frequencies + [frequency + 5 * 10 ** 7
                           for frequency in frequencies]
    return model, draw(st.lists(reports(asked), min_size=1, max_size=4))


def _estimate(model, report_list):
    """Every report through one stage: each report's ``by_pid``."""
    system = ActorSystem()
    collector = Collector()
    system.spawn(collector, "collector")
    system.spawn(HpcFormula(model), "formula")
    for report in report_list:
        system.event_bus.publish(report)
    system.dispatch()
    return [message.by_pid for message in collector.messages
            if isinstance(message, PowerReport)]


def _witness(coefficients, events, row, period_s, intercept_w=0.0):
    model = PowerModel(idle_w=0.0, formulas=[
        FrequencyFormula(ghz(1.0), coefficients, intercept_w=intercept_w)])
    return (model, [HpcReport(time_s=1.0, period_s=period_s, pid=-1,
                              events=events, counters={1: row},
                              frequency_hz=ghz(1.0))])


class TestFormulaStage:
    @given(case=formula_cases())
    @settings(max_examples=300, deadline=None)
    # ``w * (c / p)``, not ``(w * c) / p``.
    @example(case=_witness({"instructions": 3.0}, ("instructions",),
                           (0.1,), 3.0))
    # Coefficient order (a, b, c), not the report's (b, c, a).
    @example(case=_witness(
        {"cache-misses": 1.0, "instructions": 1.0, "cycles": 1.0},
        ("instructions", "cycles", "cache-misses"),
        (2.0 ** -53, 2.0 ** -53, 1.0), 1.0))
    # Two aliases of instructions: the later count wins.
    @example(case=_witness({"instructions": 1.0},
                           ("instructions", "instructions"), (1.0, 2.0), 1.0))
    # A model event the report lacks adds w * 0.0; a negative sum clamps.
    @example(case=_witness({"branches": -1.0, "cycles": 1.0}, ("cycles",),
                           (5.0,), 1.0, intercept_w=-6.0))
    def test_stage_matches_predict(self, case):
        model, report_list = case
        estimates = _estimate(model, report_list)
        assert len(estimates) == len(report_list)
        for report, by_pid in zip(report_list, estimates):
            formula = model.nearest_formula(report.frequency_hz)
            assert list(by_pid) == list(report.counters)
            for pid, row in report.counters.items():
                rates = {event: count / report.period_s
                         for event, count in zip(report.events, row)}
                expected = old_predict(formula, rates)
                assert _hex(formula.predict(rates)) == _hex(expected)
                assert _hex(by_pid[pid]) == _hex(expected), (pid, row)

    def test_terms_are_mapped_once_per_formula_and_events(self,
                                                          monkeypatch):
        mapped = []
        terms = FrequencyFormula.terms

        def counted(formula, events):
            mapped.append((formula.frequency_hz, tuple(events)))
            return terms(formula, events)

        monkeypatch.setattr(FrequencyFormula, "terms", counted)
        model = PowerModel(idle_w=0.0, formulas=[
            FrequencyFormula(ghz(1.0), {"instructions": 1.0}),
            FrequencyFormula(ghz(2.0), {"instructions": 2.0})])
        counts = {"instructions": 4.0, "cycles": 9.0}
        order = ("instructions", "cycles")
        asked = ((ghz(1.0), order), (ghz(2.0), order),
                 (ghz(1.0), order[::-1]), (ghz(1.1), tuple(list(order))))
        estimates = _estimate(model, [HpcReport(
            time_s=1.0, period_s=2.0, pid=-1, events=events,
            counters={7: tuple(counts[event] for event in events)},
            frequency_hz=frequency) for frequency, events in asked])
        assert [by_pid[7] for by_pid in estimates] == [2.0, 4.0, 2.0, 2.0]
        assert mapped == [(ghz(1.0), order), (ghz(2.0), order),
                          (ghz(1.0), order[::-1])]


# -- the sensor ------------------------------------------------------------

SPEC = intel_i3_2120()


def _assignment(pid, busy):
    return ThreadAssignment(
        pid=pid, cpu_id=pid, busy_fraction=busy, mix=InstructionMix(),
        memory=MemoryProfile(working_set_bytes=64 * 1024, locality=0.9,
                             mem_ops_per_instruction=0.2))


def old_sample(counters, values, previous, period_s):
    """The sensor's per-``CounterValue`` arithmetic before group reads:
    each counter's delta, and the dict it kept (the later of two
    counters of one event wins), or None when no counter ran."""
    per_counter = []
    deltas = {}
    ran = False
    for counter, (raw, _enabled, running), (prev_raw, _, prev_running) \
            in zip(counters, values, previous):
        d_running = running - prev_running
        if d_running > 1e-12:
            ran = True
            delta = max(0.0, raw - prev_raw) * (period_s / d_running)
        else:
            delta = 0.0
        per_counter.append(delta)
        deltas[counter.event] = delta
    return (per_counter, deltas) if ran else None


class OldReads:
    """The old sensor's bookkeeping over the new sensor's counters: one
    ``CounterValue`` read per counter, a zero baseline for counters it
    has not read (freshly opened or reopened)."""

    def __init__(self, sensor):
        self.sensor = sensor
        self.counters = {}
        self.previous = {}

    def sample(self, period_s):
        expected = {}
        for pid in self.sensor.pids:
            counters = self.sensor._counters.get(pid)
            if counters is None:
                continue
            if self.counters.get(pid) is not counters:
                self.counters[pid] = counters
                self.previous[pid] = [CounterValue(0.0, 0.0, 0.0)] * len(
                    counters)
            try:
                values = [counter.read() for counter in counters]
            except (SampleLossError, CounterInvalidError,
                    CounterStateError):
                continue
            result = old_sample(counters, values, self.previous[pid],
                                period_s)
            self.previous[pid] = values
            if result is not None:
                expected[pid] = result
        return expected


FAULTS = ("none", "none", "none", "starve", "one-slot", "sample-loss",
          "reopen", "lose-pid")


@st.composite
def sensor_cases(draw):
    spellings = draw(st.lists(st.sampled_from(SPELLINGS), min_size=1,
                              max_size=7))
    pids = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3,
                         unique=True))
    periods = draw(st.lists(st.tuples(
        st.integers(1, 4), st.sampled_from(FAULTS),
        st.lists(st.sampled_from([0.0, 0.3, 0.7, 1.0]), min_size=3,
                 max_size=3)), min_size=2, max_size=10))
    return spellings, pids, periods


class TestSensorDeltas:
    @given(case=sensor_cases())
    @settings(max_examples=120, deadline=None)
    # Seven counters on one target rotate through four slots; starvation,
    # sample loss and a reopen after ESRCH in turn.
    @example(case=(list(SPELLINGS[1:8]), [1, 2],
                   [(3, "none", [1.0, 0.7, 0.3]),
                    (2, "starve", [1.0, 1.0, 1.0]),
                    (3, "sample-loss", [0.7, 1.0, 1.0]),
                    (4, "none", [1.0, 0.3, 1.0]),
                    (1, "reopen", [1.0, 1.0, 1.0]),
                    (2, "none", [0.3, 1.0, 1.0]),
                    (3, "none", [1.0, 1.0, 1.0])]))
    def test_deltas_match_counter_value_arithmetic(self, case):
        spellings, pids, periods = case
        machine = Machine(SPEC)
        perf = PerfSession(machine)
        system = ActorSystem()
        collector = Collector()
        sensor = HpcSensor(machine, perf, pids, events=spellings)
        system.spawn(collector, "collector")
        system.spawn(sensor, "sensor")
        old = OldReads(sensor)
        canonical = tuple(pfm.resolve(name) for name in spellings)
        dt_s = 0.001
        for ticks, fault, busy in periods:
            perf.set_slot_override({"starve": 0, "one-slot": 1}.get(fault))
            machine.run_batch([_assignment(pid, busy[index])
                               for index, pid in enumerate(pids)],
                              ticks, dt_s)
            perf.set_slot_override(None)
            period_s = ticks * dt_s
            if fault == "sample-loss":
                perf.set_sample_loss(True)
            elif fault == "reopen" and pids[0] in sensor._counters:
                sensor._counters[pids[0]][-1].invalidate()
            elif fault == "lose-pid":
                perf.invalidate_pid(pids[-1])
            expected = old.sample(period_s)
            before = len(collector.messages)
            system.event_bus.publish(ClockTick(time_s=machine.time_s,
                                               period_s=period_s))
            system.dispatch()
            perf.set_sample_loss(False)
            published = collector.messages[before:]
            reports = [m for m in published if isinstance(m, HpcReport)]
            if not expected:
                assert reports == []
                continue
            (report,) = reports
            assert report.events == canonical
            assert list(report.counters) == list(expected)
            for pid, (per_counter, deltas) in expected.items():
                row = report.counters[pid]
                assert [_hex(count) for count in row] == [
                    _hex(delta) for delta in per_counter]
                assert {event: _hex(count) for event, count
                        in zip(report.events, row)} == {
                    event: _hex(delta) for event, delta in deltas.items()}
        system.shutdown()
        perf.close()
