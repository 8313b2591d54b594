"""The simulated machine: clocking, execution, counters and wall power.

:class:`Machine` is the integration point of the ``simcpu`` package.  A
driver (normally the OS layer, :mod:`repro.os`) advances simulated time in
discrete steps: it hands the machine a list of :class:`ThreadAssignment`
records — which process runs on which logical CPU, how busy, with what
instruction mix and memory profile — and the machine

1. arbitrates effective core frequencies (DVFS/turbo),
2. runs the cache and pipeline models to retire instructions,
3. accumulates hardware performance counters,
4. accounts C-state residencies,
5. evaluates the hidden ground-truth power model.

Every step produces a :class:`TickRecord`.  Subscribers (perf counters,
procfs, power meters, the per-process power oracle) are folds that take
each engine replay at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, TopologyError
from repro.simcpu import counters as ev
from repro.simcpu.caches import CacheModel, MemoryProfile
from repro.simcpu.counters import CounterBank, EventDelta
from repro.simcpu.cstates import CStateController
from repro.simcpu.engine import BatchEngine
from repro.simcpu.frequency import FrequencyDomain
from repro.simcpu.pipeline import InstructionMix, PipelineModel
from repro.simcpu.power import GroundTruthPower, PowerBreakdown, ThermalModel
from repro.simcpu.spec import CpuSpec
from repro.simcpu.topology import Topology

#: Bus cycles tick at roughly one tenth of the core clock.
BUS_CYCLE_RATIO = 0.1


@dataclass(frozen=True)
class ThreadAssignment:
    """One process occupying (part of) one logical CPU for one step."""

    pid: int
    cpu_id: int
    busy_fraction: float
    mix: InstructionMix
    memory: MemoryProfile

    def __post_init__(self) -> None:
        if self.pid < 0:
            raise ConfigurationError("pid must be >= 0")
        if not 0.0 <= self.busy_fraction <= 1.0:
            raise ConfigurationError(
                f"busy_fraction must be within [0, 1], got {self.busy_fraction}")

    def __hash__(self) -> int:
        # The batched engine hashes every assignment on every step to key
        # its program cache; all fields are immutable, so compute the
        # (nested-dataclass) hash once and memoise it on the instance.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.pid, self.cpu_id, self.busy_fraction,
                           self.mix, self.memory))
            object.__setattr__(self, "_hash", cached)
        return cached


@dataclass(frozen=True)
class TickRecord:
    """Everything that happened during one simulation step."""

    #: Simulated time at the *end* of the step, seconds.
    time_s: float
    dt_s: float
    power: PowerBreakdown
    #: Per-(pid, cpu_id) event deltas for the step.
    events: Mapping[Tuple[int, int], EventDelta]
    #: Per-logical-CPU busy (C0) fraction.
    cpu_busy: Mapping[int, float]
    #: Effective frequency per (package_id, core_id).
    core_frequencies_hz: Mapping[Tuple[int, int], int]

    @property
    def wall_power_w(self) -> float:
        """Total wall power during the step, watts."""
        return self.power.total


TickObserver = Callable[[TickRecord], None]
#: ``fold(record, n_ticks, leaks, start_s)``: fold *n_ticks* ticks of one
#: program, of which *record* is the last, into the subscriber's own
#: state; ``leaks[i]`` is tick *i*'s leakage power and *start_s* the
#: machine time before the first tick.
TickFold = Callable[[TickRecord, int, Sequence[float], float], None]


class Machine:
    """A complete simulated multi-core machine."""

    def __init__(self, spec: CpuSpec) -> None:
        self.spec = spec
        self.topology = Topology(spec)
        self.frequency = FrequencyDomain(spec)
        self.cstates = CStateController(spec)
        self.caches = CacheModel(spec)
        self.pipeline = PipelineModel(spec)
        self.power_model = GroundTruthPower(spec, self.frequency)
        self.thermal = ThermalModel()
        self.counters = CounterBank()
        self._time_s = 0.0
        self._energy_j = 0.0
        self._folds: List[TickFold] = []
        self._observer_folds: Dict[TickObserver, TickFold] = {}
        #: The most recent tick record (None before the first step).
        self.last_record: Optional[TickRecord] = None
        # Hot-path lookups resolved once: the topology is immutable, and
        # step() consults these for every assignment of every tick.
        topology = self.topology
        self._cores: Tuple[Tuple[int, int], ...] = tuple(topology.cores())
        self._core_cpus: Dict[Tuple[int, int], Tuple[int, ...]] = {
            key: topology.core_cpus(*key) for key in self._cores}
        self._cpu_core_key: Dict[int, Tuple[int, int]] = {
            cpu.cpu_id: (cpu.package_id, cpu.core_id) for cpu in topology}
        self._other_siblings: Dict[int, Tuple[int, ...]] = {
            cpu.cpu_id: tuple(s for s in topology.siblings(cpu.cpu_id)
                              if s != cpu.cpu_id)
            for cpu in topology}
        self._zero_busy: Dict[int, float] = {
            cpu_id: 0.0 for cpu_id in topology.cpu_ids}
        self._line_bytes_cached = (spec.caches[-1].line_bytes
                                   if spec.caches else 64)
        #: Compiles occupancies into programs and replays them; the
        #: kernel holds a program across a run of identical quanta.
        self.engine = BatchEngine(self)

    # -- subscribers ---------------------------------------------------

    def add_fold(self, fold: TickFold) -> None:
        """Subscribe *fold* to every replay, called once per replay.

        A fold may read the record's ``dt_s``, ``events``, ``cpu_busy``,
        ``core_frequencies_hz`` and the non-leakage power components,
        which every tick of a replay shares (every replay of one program
        passes the same mapping objects); per-tick leakage comes in
        *leaks* and tick times are *start_s* plus repeated ``+ dt_s``.
        It must leave its state as *n_ticks* one-tick calls would.
        """
        self._folds.append(fold)

    def remove_fold(self, fold: TickFold) -> None:
        """Unsubscribe a fold; a no-op if it is not subscribed."""
        try:
            self._folds.remove(fold)
        except ValueError:
            pass

    def add_observer(self, observer: TickObserver) -> None:
        """Call *observer* with one record per tick, after each replay.

        A fold-backed adapter for per-tick consumers outside the package:
        the records are rebuilt from the fold's leak list after the
        replay has committed machine state.
        """
        def per_tick(record, n_ticks, leaks, start_s):
            time_s = start_s
            for leak in leaks:
                time_s += record.dt_s
                observer(replace(record, time_s=time_s,
                                 power=replace(record.power, leakage=leak)))

        self.remove_observer(observer)
        self._observer_folds[observer] = per_tick
        self.add_fold(per_tick)

    def remove_observer(self, observer: TickObserver) -> None:
        """Unsubscribe an observer; a no-op if it is not subscribed."""
        self.remove_fold(self._observer_folds.pop(observer, None))

    # -- state ----------------------------------------------------------

    @property
    def time_s(self) -> float:
        """Simulated wall-clock time, seconds."""
        return self._time_s

    @property
    def energy_j(self) -> float:
        """Total wall energy consumed since construction, joules."""
        return self._energy_j

    def set_frequency(self, frequency_hz: int) -> None:
        """Pin every core to *frequency_hz* (the userspace-governor path)."""
        self.frequency.set_all_targets(frequency_hz)

    # -- stepping ---------------------------------------------------------

    def step(self, assignments: Sequence[ThreadAssignment], dt_s: float) -> TickRecord:
        """Advance simulated time by *dt_s* with the given CPU occupancy.

        A thin façade over the batched engine: the occupancy is compiled
        once (cached across ticks while assignments, dt and P-state
        targets hold) and replayed for a single tick.
        """
        if dt_s <= 0:
            raise ConfigurationError(f"dt_s must be positive, got {dt_s}")
        program = self.engine.program(assignments, dt_s)
        return self.engine.replay(program, 1)

    def run_batch(self, assignments: Sequence[ThreadAssignment],
                  n_ticks: int, dt_s: float = 0.01) -> TickRecord:
        """Advance *n_ticks* of a steady occupancy in one engine replay.

        State (counters, residencies, thermal, energy, time) ends up
        bit-identical to calling :meth:`step` *n_ticks* times; the record
        returned is the final tick's.  Folds see the batch once.
        """
        if dt_s <= 0:
            raise ConfigurationError(f"dt_s must be positive, got {dt_s}")
        if n_ticks < 1:
            raise ConfigurationError(f"n_ticks must be >= 1, got {n_ticks}")
        program = self.engine.program(assignments, dt_s)
        return self.engine.replay(program, n_ticks)

    def dominant_frequency_hz(self) -> int:
        """Busy-weighted dominant core frequency of the last step.

        Before any step (or on a fully idle step) this is the frequency
        targeted on core 0, which is what a frequency-aware formula should
        assume for an idle machine.  Frequency-aware formulas ask once per
        sample, so the scan result is cached on the record (0 marks the
        all-idle case, whose fallback must track the live target).
        """
        record = self.last_record
        if record is None:
            return self.frequency.target(0, 0)
        cached = record.__dict__.get("_dominant_hz")
        if cached is None:
            weights: Dict[int, float] = {}
            for core_key in self._cores:
                frequency = record.core_frequencies_hz[core_key]
                busy = max(record.cpu_busy[cpu_id]
                           for cpu_id in self._core_cpus[core_key])
                weights[frequency] = weights.get(frequency, 0.0) + busy
            if not weights or max(weights.values()) == 0.0:
                cached = 0
            else:
                cached = max(weights, key=lambda frequency: weights[frequency])
            record.__dict__["_dominant_hz"] = cached
        if cached == 0:
            return self.frequency.target(0, 0)
        return cached

    # -- internals --------------------------------------------------------

    def _line_bytes(self) -> int:
        """Cache-line size of the last-level cache (DRAM transfer unit)."""
        return self._line_bytes_cached

    def _validate_occupancy(
            self, assignments: Sequence[ThreadAssignment]) -> Dict[int, float]:
        """Total busy fraction per logical CPU; reject oversubscription."""
        busy: Dict[int, float] = dict(self._zero_busy)
        for assignment in assignments:
            if assignment.cpu_id not in busy:
                raise TopologyError(f"cpu{assignment.cpu_id} does not exist")
            busy[assignment.cpu_id] += assignment.busy_fraction
            if busy[assignment.cpu_id] > 1.0 + 1e-9:
                raise ConfigurationError(
                    f"cpu{assignment.cpu_id} oversubscribed: "
                    f"{busy[assignment.cpu_id]:.3f} > 1")
        return {cpu_id: min(1.0, value) for cpu_id, value in busy.items()}

    def _effective_frequencies(
            self, cpu_busy: Mapping[int, float]) -> Dict[Tuple[int, int], int]:
        """Granted frequency per core, after turbo arbitration."""
        active_per_package: Dict[int, int] = {}
        for core_key in self._cores:
            if any(cpu_busy[cpu_id] > 0.0
                   for cpu_id in self._core_cpus[core_key]):
                package_id = core_key[0]
                active_per_package[package_id] = (
                    active_per_package.get(package_id, 0) + 1)
        frequencies: Dict[Tuple[int, int], int] = {}
        for package_id, core_id in self._cores:
            frequencies[(package_id, core_id)] = self.frequency.effective(
                package_id, core_id,
                active_cores_in_package=active_per_package.get(package_id, 0))
        return frequencies

    def _execute(self, assignment: ThreadAssignment,
                 cpu_busy: Mapping[int, float], frequency_hz: int,
                 dt_s: float) -> EventDelta:
        """Run one assignment through the cache and pipeline models."""
        cpu_id = assignment.cpu_id
        sibling_busy = max(
            (cpu_busy[sibling] for sibling in self._other_siblings[cpu_id]),
            default=0.0)

        package_id = self._cpu_core_key[cpu_id][0]
        coresident_sets = self._coresident_working_sets(assignment, package_id)
        behaviour = self.caches.behaviour(assignment.memory, coresident_sets)
        rates = self.pipeline.rates(assignment.mix, behaviour, sibling_busy)

        busy_seconds = assignment.busy_fraction * dt_s
        instructions = self.pipeline.instructions_in(rates, frequency_hz, busy_seconds)
        cycles = frequency_hz * busy_seconds

        # Every key is distinct and every count non-negative by
        # construction, so build the delta in one shot instead of going
        # through the validating add() path 14 times per assignment.
        return EventDelta({
            ev.INSTRUCTIONS: instructions,
            ev.CYCLES: cycles,
            ev.REF_CYCLES: self.spec.max_frequency_hz * busy_seconds,
            ev.BUS_CYCLES: cycles * BUS_CYCLE_RATIO,
            ev.BRANCHES: instructions * rates.branches_per_instruction,
            ev.BRANCH_MISSES:
                instructions * rates.branch_misses_per_instruction,
            ev.CACHE_REFERENCES: instructions * behaviour.llc_references,
            ev.CACHE_MISSES: instructions * behaviour.llc_misses,
            ev.LLC_LOADS: instructions * behaviour.llc_references,
            ev.LLC_LOAD_MISSES: instructions * behaviour.llc_misses,
            ev.L1_DCACHE_LOADS: instructions * behaviour.l1_references,
            ev.L1_DCACHE_LOAD_MISSES: instructions * behaviour.l1_misses,
            ev.STALLED_CYCLES_BACKEND: cycles * rates.backend_stall_fraction,
            ev.STALLED_CYCLES_FRONTEND:
                cycles * rates.frontend_stall_fraction,
        })

    def _coresident_working_sets(self, assignment: ThreadAssignment,
                                 package_id: int) -> List[int]:
        """Working sets of the other assignments on the same package."""
        sets: List[int] = []
        for other in self._current_assignments:
            if other is assignment:
                continue
            other_cpu = self.topology.cpu(other.cpu_id)
            if other_cpu.package_id == package_id and other.busy_fraction > 0.0:
                sets.append(other.memory.working_set_bytes)
        return sets

    # step() needs the full assignment list while executing each one (for
    # cache co-residency); stash it for the duration of the call.
    _current_assignments: Sequence[ThreadAssignment] = ()

    def run(self, assignments: Sequence[ThreadAssignment], duration_s: float,
            dt_s: float = 0.01) -> List[TickRecord]:
        """Step a fixed occupancy for *duration_s*; returns all tick records."""
        records: List[TickRecord] = []
        steps = max(1, int(round(duration_s / dt_s)))
        for _ in range(steps):
            records.append(self.step(assignments, dt_s))
        return records
