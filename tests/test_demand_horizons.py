"""Demand horizons and governor fixed points against per-quantum polling.

``SimKernel.run_span`` polls once per steady run of quanta: it takes the
smallest ``demand_horizon`` over the polled processes and, when the
governor's update is a fixed point, accounts that many quanta after one
poll.  A one-quantum span never takes a horizon, so it stays the
reference.  The horizons are held to a brute-force loop of ``demand()``
polls, and multi-quantum spans to one-quantum spans, with exact ``==``.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.os.governor import (ConservativeGovernor, OndemandGovernor,
                               PerformanceGovernor, UserspaceGovernor)
from repro.os.kernel import SimKernel
from repro.os.process import Demand
from repro.simcpu.caches import MemoryProfile
from repro.simcpu.counters import ALL_EVENTS
from repro.simcpu.spec import intel_i3_2120
from repro.workloads import (ConstantWorkload, IdleWorkload, Phase,
                             PhasedWorkload, SpecJbbWorkload, cpu_demand)
from tests.strategies import default_settings

SPEC = intel_i3_2120()

#: Durations and quanta whose repeated sums drift off the decimal edges
#: (0.1 + 0.1 + 0.1 > 0.3), so a poll lands on either side of an edge.
DRIFTING = [0.1, 0.3, 0.7, 0.013, 1 / 3, 0.05, 0.2, 1.0, 0.004]
QUANTA = [0.001, 0.003, 0.01, 0.013, 0.05, 0.1, 1 / 3]
#: A small pool, so adjacent phases often ask for equal demands.
DEMANDS = [Demand(0.5), Demand(1.0), Demand(0.0), Demand(0.5, threads=2)]


def brute_horizon(workload, local_time_s, quantum_s, limit):
    """Poll ``demand()`` quantum by quantum, as the kernel would."""
    first = workload.demand(local_time_s)
    polls = 1
    while polls < limit:
        local_time_s += quantum_s
        if workload.demand(local_time_s) != first:
            break
        polls += 1
    return polls


@st.composite
def local_times(draw, quantum_s, span_s):
    """A poll time: *quantum_s* added up from 0, or any time at all."""
    if draw(st.booleans()):
        time = 0.0
        for _ in range(draw(st.integers(0, int(span_s / quantum_s)))):
            time += quantum_s
        return time
    return draw(st.floats(0.0, span_s, allow_nan=False))


class TestHorizonsMatchPolling:
    @given(data=st.data(),
           phases=st.lists(st.tuples(st.sampled_from(DRIFTING),
                                     st.sampled_from(DEMANDS)),
                           min_size=1, max_size=5),
           repeat=st.booleans(), quantum=st.sampled_from(QUANTA),
           limit=st.integers(1, 1500))
    @default_settings
    def test_phased(self, data, phases, repeat, quantum, limit):
        workload = PhasedWorkload([Phase(seconds, demand)
                                   for seconds, demand in phases],
                                  repeat=repeat)
        span_s = 3 * sum(seconds for seconds, _demand in phases)
        time = data.draw(local_times(quantum, span_s))
        assert (workload.demand_horizon(time, quantum, limit)
                == brute_horizon(workload, time, quantum, limit))

    def test_drift_moves_phase_edges(self):
        """0.1 added three times is past 0.3, and ten times short of 1.0:
        the fourth poll is in the second phase, and the cycle wraps one
        poll late."""
        workload = PhasedWorkload([Phase(0.3, DEMANDS[0]),
                                   Phase(0.7, DEMANDS[1])], repeat=True)
        assert workload.demand_horizon(0.0, 0.1, 100) == 3
        time = 0.0
        for _ in range(40):
            assert (workload.demand_horizon(time, 0.1, 100)
                    == brute_horizon(workload, time, 0.1, 100))
            time += 0.1

    @given(data=st.data(), seed=st.integers(0, 50),
           duration=st.sampled_from([2.0, 5.0, 7.3, 30.0]),
           ramp=st.sampled_from([0.0, 0.05, 0.12]),
           gc_interval=st.sampled_from([0.3, 1.3, 2.5, 47.0]),
           gc_duration=st.sampled_from([0.05, 0.2, 3.0]),
           quantum=st.sampled_from(QUANTA), limit=st.integers(1, 1500))
    @default_settings
    def test_specjbb(self, data, seed, duration, ramp, gc_interval,
                     gc_duration, quantum, limit):
        """Exact past the ramp (staircase, GC and whole-second jitter
        edges, the end of the trace); 1 inside it."""
        workload = SpecJbbWorkload(
            duration_s=duration, threads=2, seed=seed, ramp_fraction=ramp,
            gc_interval_s=gc_interval, gc_duration_s=gc_duration)
        time = data.draw(local_times(quantum, duration + 1.0))
        horizon = workload.demand_horizon(time, quantum, limit)
        if time < ramp * duration:
            assert horizon == 1
        else:
            assert horizon == brute_horizon(workload, time, quantum, limit)

    def test_specjbb_bursts_whose_offset_is_negative(self):
        """``in_gc`` only looks at the current cycle, so a burst drawn
        to start before its cycle is cut at the cycle edge; the horizon
        reproduces that.  Cycles of 2.3 s keep those edges off the whole
        seconds where the jitter edge would test the poll anyway."""
        workload = SpecJbbWorkload(duration_s=46.0, seed=42,
                                   ramp_fraction=0.0, gc_interval_s=2.3,
                                   gc_duration_s=3.0)
        cycles = [cycle for cycle in range(1, 20)
                  if workload._burst_start(cycle) < cycle * 2.3]
        assert cycles
        for cycle in cycles:
            time = 0.0
            while time < cycle * 2.3 - 0.25:
                time += 0.01
            assert (workload.demand_horizon(time, 0.01, 500)
                    == brute_horizon(workload, time, 0.01, 500))

    @given(data=st.data(), duration=st.sampled_from([None, 0.5, 1.3]),
           quantum=st.sampled_from(QUANTA), limit=st.integers(1, 1500))
    @default_settings
    def test_idle(self, data, duration, quantum, limit):
        workload = IdleWorkload(duration)
        time = data.draw(local_times(quantum, 3.0))
        assert (workload.demand_horizon(time, quantum, limit)
                == brute_horizon(workload, time, quantum, limit))


class PollCounter:
    """A plain program: no ``demand_horizon``, so polled every quantum."""

    def __init__(self):
        self.polls = 0

    def demand(self, local_time_s):
        self.polls += 1
        return cpu_demand(utilization=0.6)


def observe(kernel):
    """What a span could get wrong, as exactly comparable values."""
    machine = kernel.machine
    bank = machine.counters
    procfs = kernel.procfs
    governor = kernel.governor
    return {
        "energy_j": machine.energy_j,
        "time_s": machine.time_s,
        "temperature_c": machine.thermal.temperature_c,
        "record": machine.last_record,
        "bank": [bank.read(event, pid=pid) for event in ALL_EVENTS
                 for pid in (-1,) + bank.pids()],
        "procfs": [(pid, procfs.process_cpu_time_s(pid))
                   for pid in procfs.known_pids()],
        "processes": [(pid, kernel.process(pid).cpu_time_s,
                       kernel.process(pid).wall_time_s,
                       kernel.process(pid).state)
                      for pid in sorted(kernel._processes)],
        "targets": [machine.frequency.target(*core)
                    for core in machine.topology.cores()],
        "generation": machine.frequency.generation,
        "ladder": dict(getattr(governor, "_index", {})),
    }


def drive(governor_factory, programs, segments, one_quantum):
    """Run *segments* of (quanta, ceiling set after them) in spans or in
    one-quantum spans; returns the kernel and its governor's updates."""
    kernel = SimKernel(SPEC, governor_factory=governor_factory,
                       quantum_s=0.002)
    for program in programs():
        kernel.spawn(program)
    updates = []
    update = kernel.governor.update
    kernel.governor.update = lambda busy: (updates.append(1), update(busy))
    domain = kernel.machine.frequency
    for quanta, ceiling in segments:
        if one_quantum:
            for _ in range(quanta):
                kernel.run_span(1)
        else:
            kernel.run_span(quanta)
        domain.ceiling_hz = ceiling
    return kernel, len(updates)


def assert_spans_match(governor_factory, programs, segments):
    spans, span_updates = drive(governor_factory, programs, segments,
                                one_quantum=False)
    quanta, quantum_updates = drive(governor_factory, programs, segments,
                                    one_quantum=True)
    assert observe(spans) == observe(quanta)
    assert quantum_updates == sum(quanta for quanta, _ in segments)
    return span_updates


def steady_tenants():
    return [ConstantWorkload(cpu_demand(utilization=0.45)),
            PhasedWorkload([Phase(0.13, cpu_demand(1.0, threads=2)),
                            Phase(0.07, Demand(
                                0.3, memory=MemoryProfile(
                                    working_set_bytes=96 * 1024 ** 2)))],
                           repeat=True),
            SpecJbbWorkload(duration_s=3.0, threads=1, ramp_fraction=0.02,
                            gc_interval_s=0.25, gc_duration_s=0.05),
            IdleWorkload(duration_s=0.5)]


class TestSpansMatchOneQuantumSpans:
    def test_ondemand(self):
        """The busy map repeats once the targets settle: a fixed point."""
        updates = assert_spans_match(OndemandGovernor, steady_tenants,
                                     [(400, None), (137, None)])
        assert updates < 537 // 2

    def test_performance_and_userspace_under_a_cap(self):
        ceiling = SPEC.frequencies_hz[3]
        for factory in (PerformanceGovernor, lambda spec, topology, domain:
                        UserspaceGovernor(spec, topology, domain,
                                          SPEC.frequencies_hz[-1])):
            def capped(spec, topology, domain, factory=factory):
                domain.ceiling_hz = ceiling
                return factory(spec, topology, domain)
            updates = assert_spans_match(
                capped, steady_tenants,
                [(250, SPEC.frequencies_hz[1]), (250, None), (61, None)])
            assert updates < 561 // 2

    def test_plain_program_is_polled_every_quantum(self):
        counters = []

        def programs():
            counters.append(PollCounter())
            return [counters[-1], ConstantWorkload(cpu_demand(0.3))]

        assert_spans_match(PerformanceGovernor, programs, [(150, None)])
        assert [counter.polls for counter in counters] == [150, 150]

    def test_conservative_under_a_ceiling_that_is_lifted(self):
        """Under a ceiling the ladder index climbs while the granted
        target stays at the ceiling; a span that stopped updating once
        the generation held would leave the index low, and lifting the
        ceiling would then grant a lower P-state than per-quantum
        polling does."""
        def capped(spec, topology, domain):
            domain.ceiling_hz = SPEC.frequencies_hz[1]
            return ConservativeGovernor(spec, topology, domain)

        def programs():
            return [ConstantWorkload(cpu_demand(1.0, threads=4))]

        updates = assert_spans_match(capped, programs,
                                     [(300, None), (200, None)])
        assert updates < 500 // 2
