"""Span replay against one-quantum spans: the live path's executable spec.

``PowerAPI.run`` cuts a run into kernel spans that end only on quanta the
actors must see (a clock tick, a fault falling due, a restart backoff
expiring, mail already on the bus), and ``SimKernel.run_span`` replays
each run of identical quanta with one engine call.  ``api.run(q)`` is a
span of exactly one quantum — the loop that dispatched after every
quantum — so ``api.run(n * q)`` must leave every observable exactly
where *n* calls of ``api.run(q)`` leave it: machine energy, time and
temperature, the counter bank, every perf counter, procfs, the reporter
rows, the health log and the fault and cap records.  With a meter
attached the engine replays tick-wise (the meter integrates each tick's
leakage power), so that path is held to the same contract.

All comparisons are exact ``==``, never ``approx``.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.actors.supervision import RestartStrategy
from repro.core.model import FrequencyFormula, PowerModel
from repro.core.monitor import PowerAPI
from repro.core.reporters import InMemoryReporter
from repro.os.governor import GOVERNORS, ConservativeGovernor
from repro.os.kernel import SimKernel
from repro.os.process import Demand
from repro.powermeter.powerspy import PowerSpy
from repro.simcpu.caches import MemoryProfile
from repro.simcpu.counters import ALL_EVENTS, GENERIC_TRIO
from repro.simcpu.pipeline import InstructionMix
from repro.simcpu.spec import intel_i3_2120
from repro.workloads import CpuStress, Phase, PhasedWorkload, SpecJbbWorkload
from tests.strategies import default_settings

SPEC = intel_i3_2120()
MODEL = PowerModel(
    idle_w=31.48,
    formulas=[FrequencyFormula(f, {"instructions": 3e-9,
                                   "cache-references": 2e-8,
                                   "cache-misses": 2e-7})
              for f in SPEC.frequencies_hz],
    name="span-model")
#: Events beyond the model's trio; with them a pid needs more counters
#: than the i3's four PMU slots, so its group rotates.
EXTRA_EVENTS = ("branches", "branch-misses", "bus-cycles", "ref-cycles")


@dataclass(frozen=True)
class Scenario:
    quantum_s: float
    period_s: float
    governor: str
    #: Per tenant: phases of (seconds, utilisation, threads, working set).
    tenants: Tuple[Tuple[Tuple[float, float, int, int], ...], ...]
    specjbb: bool
    meter: bool
    faults: str
    backoff_s: float
    extra_events: Tuple[str, ...]
    cap_w: Optional[float]
    #: (quanta, cap set after them) run segments; cap None = unchanged.
    segments: Tuple[Tuple[int, Optional[float]], ...]


phases = st.tuples(
    st.sampled_from([0.004, 0.013, 0.05, 0.2]),
    st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    st.integers(1, 2),
    st.sampled_from([16 * 1024, 2 * 1024 ** 2, 96 * 1024 ** 2]))


@st.composite
def scenarios(draw) -> Scenario:
    quantum = draw(st.sampled_from([0.001, 0.002, 0.005]))
    # Multiples of the quantum, periods that are not, and one shorter
    # than the quantum (a clock tick on every quantum).
    period = quantum * draw(st.sampled_from(
        [0.4, 1.0, 2.5, 7.0, 10.0, 13.3, 25.0]))
    segment_quanta = draw(st.lists(st.integers(1, 150), min_size=1,
                                   max_size=3))
    duration = quantum * sum(segment_quanta)
    at = st.floats(0.0, duration, allow_nan=False).map(lambda t: round(t, 4))
    faults = []
    if draw(st.booleans()):
        faults.append(f"crash@{draw(at)}:"
                      f"{draw(st.sampled_from(['formula-0', 'sensor-0']))}")
    if draw(st.booleans()):
        faults.append(f"starve@{draw(at)}:{draw(st.sampled_from([0.01, 0.037]))}"
                      f":{draw(st.integers(0, 2))}")
    if draw(st.booleans()):
        faults.append(f"hpc-loss@{draw(at)}:"
                      f"{draw(st.sampled_from([0.005, 0.03]))}")
    if draw(st.booleans()):
        faults.append(f"pid-exit@{draw(at)}:{draw(st.integers(0, 2))}")
    meter = draw(st.booleans())
    if meter and draw(st.booleans()):
        faults.append(f"meter-dropout@{draw(at)}:"
                      f"{draw(st.sampled_from([0.003, 0.02]))}")
    cap_w = draw(st.sampled_from([None, 38.0, 45.0]))
    caps = st.sampled_from([None, 35.0, 50.0])
    segments = tuple((quanta, draw(caps) if cap_w is not None else None)
                     for quanta in segment_quanta)
    return Scenario(
        quantum_s=quantum, period_s=period,
        governor=draw(st.sampled_from(
            ["performance", "ondemand", "conservative"])),
        tenants=tuple(draw(st.lists(st.lists(phases, min_size=1,
                                             max_size=4).map(tuple),
                                    min_size=1, max_size=3))),
        specjbb=draw(st.booleans()),
        meter=meter,
        faults=";".join(faults),
        backoff_s=draw(st.sampled_from([0.0, 0.0071, 0.05])),
        extra_events=tuple(draw(st.lists(st.sampled_from(EXTRA_EVENTS),
                                         max_size=3, unique=True))),
        cap_w=cap_w, segments=segments)


def _tenant(tenant) -> PhasedWorkload:
    return PhasedWorkload([
        Phase(seconds, Demand(
            utilization=utilization, threads=threads,
            mix=InstructionMix(fp_fraction=0.1),
            memory=MemoryProfile(working_set_bytes=working_set)))
        for seconds, utilization, threads, working_set in tenant])


def _start(scenario: Scenario):
    kernel = SimKernel(SPEC, governor_factory=GOVERNORS[scenario.governor],
                       quantum_s=scenario.quantum_s)
    pids = [kernel.spawn(_tenant(tenant)) for tenant in scenario.tenants]
    if scenario.specjbb:
        # A ramp and GC bursts: demand changes on most quanta.
        pids.append(kernel.spawn(SpecJbbWorkload(
            duration_s=2.0, threads=2, gc_interval_s=0.3,
            gc_duration_s=0.05)))
    api = PowerAPI(kernel, MODEL, period_s=scenario.period_s)
    api.system.strategy = RestartStrategy(backoff_base_s=scenario.backoff_s)
    if scenario.meter:
        api.attach_meter(PowerSpy(kernel.machine, sample_rate_hz=200.0,
                                  seed=1), name="meter")
    builder = (api.monitor(*pids).every(scenario.period_s)
               .with_events(GENERIC_TRIO + scenario.extra_events))
    if scenario.faults:
        builder = builder.with_faults(scenario.faults)
    if scenario.cap_w is not None:
        builder = builder.cap(scenario.cap_w)
    return api, builder.to(InMemoryReporter())


def _drive(scenario: Scenario, one_quantum: bool):
    api, handle = _start(scenario)
    quantum = scenario.quantum_s
    for quanta, cap_w in scenario.segments:
        if one_quantum:
            for _ in range(quanta):
                api.run(quantum)
        else:
            api.run(quanta * quantum)
        if cap_w is not None:
            handle.set_cap(cap_w)
    return api, handle


def observe(api, handle) -> dict:
    """Everything a span could get wrong, as exactly comparable values."""
    machine = api.kernel.machine
    bank = machine.counters
    procfs = api.kernel.procfs
    reporter = handle.reporter
    return {
        "energy_j": machine.energy_j,
        "time_s": machine.time_s,
        "temperature_c": machine.thermal.temperature_c,
        "bank": [bank.read(event, pid=pid) for event in ALL_EVENTS
                 for pid in (-1,) + bank.pids()],
        "perf": [(c.counter_id, c.event, c.pid, c.enabled, c.dead, c.raw,
                  c.time_enabled_s, c.time_running_s)
                 for c in api.perf._counters.values()],
        "procfs": (procfs.uptime_s(),
                   [procfs.cpu_busy_time_s(cpu)
                    for cpu in machine.topology.cpu_ids],
                   [(pid, procfs.process_cpu_time_s(pid))
                    for pid in procfs.known_pids()]),
        "reports": reporter.aggregated,
        "cap_events": reporter.cap_events,
        "health": handle.health.signature(),
        "applied": api.injector.applied if api.injector else [],
        "live_pids": api.kernel.live_pids,
        "meters": [meter.samples for meter in api.meters],
    }


STEADY = (((0.2, 1.0, 1, 16 * 1024),),)


class TestSpanEquivalence:
    @given(scenario=scenarios())
    @example(scenario=Scenario(  # SetCap waits on the bus: a 1-quantum span
        quantum_s=0.001, period_s=0.01, governor="performance",
        tenants=STEADY, specjbb=False, meter=False, faults="",
        backoff_s=0.0, extra_events=(), cap_w=45.0,
        segments=((23, 35.0), (40, None))))
    @example(scenario=Scenario(  # backoff and fault windows end mid-period
        quantum_s=0.001, period_s=0.025, governor="ondemand",
        tenants=STEADY, specjbb=True, meter=True,
        faults="crash@0.011:sensor-0;hpc-loss@0.0333:0.005;"
               "starve@0.04:0.01:0;meter-dropout@0.05:0.003",
        backoff_s=0.0071, extra_events=("branches", "bus-cycles"),
        cap_w=None, segments=((90, None),)))
    @example(scenario=Scenario(  # occupancy A, B, then A again mid-span
        quantum_s=0.001, period_s=0.01, governor="performance",
        tenants=(((0.013, 1.0, 1, 16 * 1024), (0.013, 0.3, 1, 16 * 1024),
                  (0.013, 1.0, 1, 16 * 1024)),),
        specjbb=False, meter=False, faults="", backoff_s=0.0,
        extra_events=(), cap_w=None, segments=((45, None),)))
    @default_settings
    def test_spans_match_one_quantum_spans(self, scenario):
        spans = observe(*_drive(scenario, one_quantum=False))
        quanta = observe(*_drive(scenario, one_quantum=True))
        assert spans == quanta

    def test_held_program_is_replayed_after_a_target_moves(self):
        """Conservative steps one P-state per quantum under a steady
        stress: the assignments repeat while targets move, so a span
        replayed with a program compiled after the move runs its
        earlier quanta at the wrong frequency."""
        def run(one_quantum):
            kernel = SimKernel(SPEC, governor_factory=ConservativeGovernor,
                               quantum_s=0.001)
            pid = kernel.spawn(CpuStress(utilization=1.0, threads=2,
                                         duration_s=5.0))
            api = PowerAPI(kernel, MODEL, period_s=0.05)
            handle = api.monitor(pid).every(0.05).to(InMemoryReporter())
            for _ in range(60 if one_quantum else 1):
                api.run(0.001 if one_quantum else 0.06)
            return observe(api, handle)

        assert run(one_quantum=False) == run(one_quantum=True)

    @pytest.mark.parametrize("max_duration_s", [0.5, 0.0503])
    def test_run_until_idle_matches_one_quantum_spans(self, max_duration_s):
        """Spans end at the last exit, or at the deadline if earlier."""
        def run(one_quantum):
            kernel = SimKernel(SPEC, quantum_s=0.001)
            pid = kernel.spawn(_tenant(((0.05, 1.0, 2, 16 * 1024),
                                        (0.0337, 0.3, 1, 96 * 1024 ** 2))))
            api = PowerAPI(kernel, MODEL, period_s=0.01)
            handle = api.monitor(pid).every(0.01).to(InMemoryReporter())
            api.run(0.0042)
            if one_quantum:
                deadline_s = kernel.time_s + max_duration_s
                while kernel.live_pids and kernel.time_s < deadline_s:
                    api.run(0.001)
            else:
                api.run_until_idle(max_duration_s=max_duration_s)
            return observe(api, handle)

        assert run(one_quantum=False) == run(one_quantum=True)

    def test_kernel_run_matches_ticks(self):
        def run(one_quantum):
            kernel = SimKernel(SPEC, governor_factory=ConservativeGovernor,
                               quantum_s=0.002)
            kernel.spawn(_tenant(((0.013, 1.0, 2, 16 * 1024),
                                  (0.05, 0.3, 1, 96 * 1024 ** 2))))
            kernel.spawn(CpuStress(utilization=0.7, duration_s=0.07))
            if one_quantum:
                record = [kernel.tick() for _ in range(50)][-1]
            else:
                record = kernel.run(0.1)
            return (record, kernel.machine.energy_j,
                    kernel.procfs.uptime_s(), kernel.live_pids)

        assert run(one_quantum=False) == run(one_quantum=True)
