"""The simulated machine: clocking, execution, counters and wall power.

:class:`Machine` is the integration point of the ``simcpu`` package.  A
driver (normally the OS layer, :mod:`repro.os`) advances simulated time in
discrete steps: it hands the machine a
:class:`~repro.simcpu.occupancy.Placement` of running threads (or a list
of :class:`ThreadAssignment` records, which :meth:`Machine.placement`
converts) — which process runs on which logical CPU, how busy, with what
instruction mix and memory profile — and the machine

1. arbitrates effective core frequencies (DVFS/turbo),
2. runs the cache and pipeline models to retire instructions,
3. accumulates hardware performance counters,
4. accounts C-state residencies,
5. evaluates the hidden ground-truth power model.

Every step produces a :class:`TickRecord`.  Subscribers take each
engine replay at once: perf counters, procfs and the per-process power
oracle state the cells they add into, and the engine adds them (over a
ramp run's :class:`RunRecord`, whose moving values are columns); power
meters are folds over the replay's per-tick leakage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (Any, Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from repro.errors import ConfigurationError, TopologyError
from repro.simcpu.caches import CacheModel
from repro.simcpu.counters import CounterBank, EventDelta
from repro.simcpu.cstates import CStateController
from repro.simcpu.engine import BatchEngine
from repro.simcpu.frequency import FrequencyDomain
from repro.simcpu.occupancy import Placement, ThreadAssignment
from repro.simcpu.pipeline import PipelineModel
from repro.simcpu.power import GroundTruthPower, PowerBreakdown, ThermalModel
from repro.simcpu.spec import CpuSpec
from repro.simcpu.topology import Topology


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


@dataclass(frozen=True)
class RunRecord:
    """A ramp run's replay: ticks of one layout whose values move.

    The fields of :class:`TickRecord`, but every value that moves from
    tick to tick is a numpy column with one value per tick: each event
    count in ``events`` ((pid, cpu_id) -> event -> column), each CPU's
    ``cpu_busy`` and the ``power`` terms (``idle`` is a float).
    ``dt_s`` and ``core_frequencies_hz`` hold for every tick, and
    *start_s* is the machine time before the first.
    """

    start_s: float
    dt_s: float
    power: PowerBreakdown
    events: Mapping[Tuple[int, int], Mapping[str, Any]]
    cpu_busy: Mapping[int, Any]
    core_frequencies_hz: Mapping[Tuple[int, int], int]

    def ticks(self) -> Iterator[TickRecord]:
        """Each tick's own record, in order, with Python floats."""
        power = self.power
        terms = zip(*[column.tolist() for column in (
            power.cores, power.uncore, power.dram, power.leakage,
            power.wakeup)])
        cpus = list(self.cpu_busy)
        busy = zip(*[column.tolist() for column in self.cpu_busy.values()])
        events = [(key, list(delta),
                   zip(*[column.tolist() for column in delta.values()]))
                  for key, delta in self.events.items()]
        time_s = self.start_s
        for cores, uncore, dram, leakage, wakeup in terms:
            time_s += self.dt_s
            yield TickRecord(
                time_s=time_s,
                dt_s=self.dt_s,
                power=PowerBreakdown(idle=power.idle, cores=cores,
                                     uncore=uncore, dram=dram,
                                     leakage=leakage, wakeup=wakeup),
                events={key: EventDelta(zip(names, next(counts)))
                        for key, names, counts in events},
                cpu_busy=dict(zip(cpus, next(busy))),
                core_frequencies_hz=self.core_frequencies_hz,
            )


TickObserver = Callable[[TickRecord], None]
#: ``fold(record, n_ticks, leaks, start_s)``: take *n_ticks* ticks of one
#: program, of which *record* is the last, after the engine has added
#: every stated cell; ``leaks[i]`` is tick *i*'s leakage power and
#: *start_s* the machine time before the first tick.
TickFold = Callable[[TickRecord, int, Sequence[float], float], None]
#: ``state(record, n_ticks) -> (cells, ticks)``: the ``(container, key,
#: addend)`` cells a subscriber adds into on each tick of the replay
#: ending in *record*, in the order one tick adds them, and None or each
#: cell's ticks, the indices 0 to *n_ticks* - 1 it adds on (None: every
#: tick; a multiplexed counter's running ticks, shared by every entry of
#: one cell).  The engine keeps its grouping while both lists are the
#: same objects: state a new list to change one.  A ramp run's replay
#: passes a :class:`RunRecord` instead, once for all its ticks: an addend
#: that moves is then a column with one value per tick (the same
#: arithmetic on the record's columns gives it).
CellState = Callable[[Union[TickRecord, RunRecord], int],
                     Tuple[list, Optional[list]]]


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
        self._cell_states: List[CellState] = []
        self._observer_folds: Dict[TickObserver, TickFold] = {}
        #: The most recent tick record (None before the first step).
        self.last_record: Optional[TickRecord] = None
        # (core frequencies, cpu busy, answer) of the last
        # dominant_frequency_hz scan; 0 marks the all-idle case.
        self._dominant: tuple = (None, None, 0)
        # Lookups resolved once: the topology is immutable, and the
        # engine consults these on every compile.
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
        #: Compiles placements into programs and replays them; the
        #: kernel holds its quanta there, and a run of quanta that share
        #: one layout is replayed at once.
        self.engine = BatchEngine(self)

    # -- subscribers ---------------------------------------------------

    def add_cells(self, state: CellState) -> None:
        """Have every replay add *state*'s cells (see :data:`CellState`):
        the engine calls it once per replay, before any fold, and adds
        *n_ticks* rounds of each cell's addends itself.  A ramp run's
        replay calls it once for the whole run, with a
        :class:`RunRecord`."""
        self._cell_states.append(state)

    def remove_cells(self, state: CellState) -> None:
        """Stop adding *state*'s cells; a no-op if it is not subscribed."""
        try:
            self._cell_states.remove(state)
        except ValueError:
            pass

    def add_fold(self, fold: TickFold) -> None:
        """Subscribe *fold* to every replay, called once per replay.

        The engine calls it after it has committed machine state and
        added every stated cell.  A fold may read the record's ``dt_s``,
        ``events``, ``cpu_busy``, ``core_frequencies_hz`` and the
        non-leakage power components, which every tick of a replay
        shares (every replay of one program passes the same mapping
        objects); per-tick leakage comes in *leaks* and tick times are
        *start_s* plus repeated ``+ dt_s``.  It must leave its state as
        *n_ticks* one-tick calls would; a constant per-tick addition
        belongs in :meth:`add_cells` instead.
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
        once (the engine keeps it while the placement, dt and P-state
        targets hold) and replayed for a single tick.
        """
        if dt_s <= 0:
            raise ConfigurationError(f"dt_s must be positive, got {dt_s}")
        engine = self.engine
        return engine.replay(engine.program(self.placement(assignments, ()),
                                            dt_s), 1)

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
        engine = self.engine
        return engine.replay(engine.program(self.placement(assignments, ()),
                                            dt_s), n_ticks)

    def placement(self, assignments: Sequence[ThreadAssignment],
                  pids: Sequence[int]) -> Placement:
        """*assignments* as the engine takes them: a placement of the
        running threads.

        Validated as a whole (:meth:`_validate_occupancy`: an unknown CPU
        raises :class:`TopologyError`, an oversubscribed one
        :class:`ConfigurationError`), then every assignment with a busy
        fraction of 0 is dropped: it runs nothing, so no layout, event
        map or counter slot holds it.  ``granted`` gives each of *pids*
        its summed busy fraction.
        """
        cpu_busy = self._validate_occupancy(assignments)
        running = [a for a in assignments if a.busy_fraction > 0.0]
        by_pid: Dict[int, float] = {}
        for a in running:
            by_pid[a.pid] = by_pid.get(a.pid, 0.0) + a.busy_fraction
        return Placement(
            tuple([(a.pid, a.cpu_id, a.mix, a.memory) for a in running]),
            [a.busy_fraction for a in running],
            [by_pid.get(pid, 0.0) for pid in pids], cpu_busy)

    def dominant_frequency_hz(self) -> int:
        """Busy-weighted dominant core frequency of the last step.

        Before any step (or on a fully idle step) this is the frequency
        targeted on core 0, which is what a frequency-aware formula should
        assume for an idle machine.  Frequency-aware formulas ask once per
        sample, so the scan's answer is remembered while the records keep
        the same ``core_frequencies_hz`` and ``cpu_busy`` objects, which
        a kept program hands to every record it replays (0 marks the
        all-idle case, whose fallback must track the live target).
        """
        record = self.last_record
        if record is None:
            return self.frequency.target(0, 0)
        frequencies, cpu_busy = record.core_frequencies_hz, record.cpu_busy
        last_frequencies, last_busy, dominant = self._dominant
        if last_frequencies is not frequencies or last_busy is not cpu_busy:
            weights: Dict[int, float] = {}
            for core_key in self._cores:
                frequency = frequencies[core_key]
                busy = max(cpu_busy[cpu_id]
                           for cpu_id in self._core_cpus[core_key])
                weights[frequency] = weights.get(frequency, 0.0) + busy
            if not weights or max(weights.values()) == 0.0:
                dominant = 0
            else:
                dominant = max(weights,
                               key=lambda frequency: weights[frequency])
            self._dominant = (frequencies, cpu_busy, dominant)
        if dominant == 0:
            return self.frequency.target(0, 0)
        return dominant

    # -- internals --------------------------------------------------------

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

    def run(self, assignments: Sequence[ThreadAssignment], duration_s: float,
            dt_s: float = 0.01) -> List[TickRecord]:
        """Step a fixed occupancy for *duration_s*; returns all tick records."""
        records: List[TickRecord] = []
        steps = max(1, int(round(duration_s / dt_s)))
        for _ in range(steps):
            records.append(self.step(assignments, dt_s))
        return records
