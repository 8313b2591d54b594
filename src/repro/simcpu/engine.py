"""Batched struct-of-arrays stepping engine — the simulator's hot path.

Tick-at-a-time stepping spends almost all of its wall time on Python
object churn: one :class:`~repro.simcpu.counters.EventDelta` dict per
assignment per tick, a fresh ``Dict[Tuple[int, int], ...]`` events map
per tick, a dict-based counter fold per assignment per tick, and a full
re-derivation of cache behaviour, execution rates and the power
breakdown even though every one of those is a pure function of the
(occupancy, dt, P-state targets) triple — which is constant for
thousands of consecutive ticks in every campaign, soak and monitor run.

This module splits the step into the two halves the tick loop conflates:

* **compile** — :meth:`BatchEngine.program` derives everything that is a
  loop invariant of a steady occupancy into a :class:`TickProgram`:
  the per-(pid, cpu) event deltas, the shared events/busy/frequency
  mappings of the eventual :class:`~repro.simcpu.machine.TickRecord`,
  the constant components of the power breakdown, and a flat list of
  *accumulation cells* — ``(container, index, addend)`` triples, in the
  order one tick adds them, over the struct-of-arrays
  :class:`~repro.simcpu.counters.CounterBank` columns and the C-state
  residency table.
* **replay** — :meth:`BatchEngine.replay` advances N ticks by replaying
  only the data-dependent state updates: the first-order thermal
  relaxation, the energy and time integrals, and one float addition per
  accumulation cell per tick.

Bit-identity is the hard contract (the golden dataset tests pin it):
replaying a program performs exactly the float operations, in exactly
the order, that N calls of the tick-at-a-time step would — repeated
addition per cell rather than a single ``n * delta`` fold, the same
association order in the power total, the same two data-dependent
thermal lines per tick.  There is one replay path: the scalar
recurrences run tick by tick, the counter cells are added column-wise
(one tight loop per cell; cells are independent memory locations, so
the order across cells is free), and only the final record is built.

Every subscriber is a *fold* (``Machine.add_fold``), called once per
replay as ``fold(record, n_ticks, leaks, start_s)``: the final record,
the tick count, each tick's leakage power (the one per-tick value a
program does not fix — it follows the temperature recurrence) and the
machine time the replay started from.  A fold performs the per-tick
additions itself, in the order a tick-at-a-time loop would, so its state
ends bit-identical to *n_ticks* one-tick calls.
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.simcpu import counters as ev
from repro.simcpu.counters import EventDelta
from repro.simcpu.power import CoreActivity, PowerBreakdown

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (machine -> engine)
    from repro.simcpu.machine import Machine, ThreadAssignment, TickRecord


def fold_add(value: float, addends: Sequence[float], n_ticks: int) -> float:
    """*value* after *n_ticks* rounds of adding each of *addends* in order.

    The float additions *n_ticks* one-tick folds make — never a single
    ``n * addend`` — so a fold over a batch rounds exactly like a loop
    over its ticks.
    """
    if len(addends) == 1:
        addend = addends[0]
        for _ in repeat(None, n_ticks):
            value += addend
        return value
    if addends:
        for _ in repeat(None, n_ticks):
            for addend in addends:
                value += addend
    return value


class TickProgram:
    """Everything about one steady (occupancy, dt, P-states) combination
    that does not change from tick to tick."""

    __slots__ = (
        "dt_s", "cpu_busy", "core_freqs", "events", "cells",
        "grouped_cells", "current_states", "has_counters", "idle_w",
        "cores_w", "uncore_w", "dram_w", "wakeup_w", "base_w", "dynamic_w",
    )


class BatchEngine:
    """Compiles steady occupancies into tick programs and replays them."""

    def __init__(self, machine: "Machine") -> None:
        self._machine = machine
        self._key: tuple = ()
        self._program: Optional[TickProgram] = None

    # -- compilation ---------------------------------------------------

    def program(self, assignments: Sequence["ThreadAssignment"],
                dt_s: float) -> TickProgram:
        """The compiled program for (*assignments*, *dt_s*).

        The engine keeps the last program only: asked again with equal
        assignments, the same dt and the same frequency-domain change
        generation, it returns that very object, so a caller can tell a
        changed quantum by identity.  A governor request that moves a
        P-state target bumps the generation; re-requests of the current
        target (what every governor does each quantum in steady state) do
        not.  An occupancy that recurs after another is compiled afresh.
        """
        key = (tuple(assignments), dt_s, self._machine.frequency.generation)
        if key != self._key:
            self._program = self._compile(key[0], dt_s)
            self._key = key
        return self._program

    def _compile(self, assignments: Tuple["ThreadAssignment", ...],
                 dt_s: float) -> TickProgram:
        """Run the full per-tick derivation once and freeze the invariants."""
        machine = self._machine
        cpu_busy = machine._validate_occupancy(assignments)
        core_freqs = machine._effective_frequencies(cpu_busy)

        events: Dict[Tuple[int, int], EventDelta] = {}
        llc_refs = 0.0
        dram_bytes = 0.0
        core_weights: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
        raw_cells: list = []
        line_bytes = machine._line_bytes_cached

        machine._current_assignments = assignments
        try:
            for assignment in assignments:
                if assignment.busy_fraction == 0.0:
                    continue
                core_key = machine._cpu_core_key[assignment.cpu_id]
                frequency_hz = core_freqs[core_key]
                delta = machine._execute(assignment, cpu_busy, frequency_hz,
                                         dt_s)
                key = (assignment.pid, assignment.cpu_id)
                existing = events.get(key)
                events[key] = (delta if existing is None
                               else existing.merged_with(delta))
                raw_cells.extend(machine.counters.accumulation_cells(
                    assignment.pid, assignment.cpu_id, delta))
                llc_refs += delta.get(ev.CACHE_REFERENCES, 0.0)
                dram_bytes += delta.get(ev.CACHE_MISSES, 0.0) * line_bytes
                core_weights.setdefault(core_key, []).append(
                    (assignment.busy_fraction, assignment.mix.power_weight()))
        finally:
            machine._current_assignments = ()

        has_counters = bool(raw_cells)
        activities, cstate_cells, current_states = self._activities(
            cpu_busy, core_freqs, core_weights, dt_s)
        raw_cells.extend(cstate_cells)

        breakdown = machine.power_model.wall_power(
            activities,
            llc_references_per_s=llc_refs / dt_s,
            dram_bytes_per_s=dram_bytes / dt_s,
            thermal=None,
        )

        program = TickProgram()
        program.dt_s = dt_s
        program.cpu_busy = cpu_busy
        program.core_freqs = core_freqs
        program.events = events
        program.cells = raw_cells
        program.grouped_cells = None  # grouped on the first longer replay
        program.current_states = current_states
        program.has_counters = has_counters
        program.idle_w = breakdown.idle
        program.cores_w = breakdown.cores
        program.uncore_w = breakdown.uncore
        program.dram_w = breakdown.dram
        program.wakeup_w = breakdown.wakeup
        # The exact association orders GroundTruthPower and PowerBreakdown
        # use, frozen here so the replay loop reproduces them bit-for-bit.
        program.dynamic_w = (breakdown.cores + breakdown.uncore
                             + breakdown.dram + breakdown.wakeup)
        program.base_w = (((breakdown.idle + breakdown.cores)
                           + breakdown.uncore) + breakdown.dram)
        return program

    def _activities(self, cpu_busy, core_freqs, core_weights, dt_s):
        """Per-core activity records plus compiled C-state accounting.

        The side-effect-free half of what the tick loop used to do in
        ``Machine._core_activities``: the governor's idle-state choice is
        a pure function of the expected idle window, so it compiles to
        residency cells and a final per-CPU state name.
        """
        machine = self._machine
        cstates = machine.cstates
        activities: List[CoreActivity] = []
        cells: list = []
        current_states: Dict[int, str] = {}
        for core_key in machine._cores:
            core_cpus = machine._core_cpus[core_key]
            thread_busy = tuple(cpu_busy[cpu_id] for cpu_id in core_cpus)
            weights = core_weights.get(core_key, [])
            total_busy = sum(busy for busy, _weight in weights)
            if total_busy > 0:
                weight = sum(busy * w for busy, w in weights) / total_busy
            else:
                weight = 1.0
            busiest = max(thread_busy, default=0.0)
            expected_idle_s = (1.0 - busiest) * dt_s
            idle_fraction = cstates.idle_power_fraction(expected_idle_s)
            for cpu_id in core_cpus:
                cpu_cells, state_name = cstates.accounting_cells(
                    cpu_id, cpu_busy[cpu_id], dt_s, expected_idle_s)
                cells.extend(cpu_cells)
                current_states[cpu_id] = state_name
            activities.append(CoreActivity(
                frequency_hz=core_freqs[core_key],
                thread_busy=thread_busy,
                power_weight=weight,
                idle_power_fraction=idle_fraction,
            ))
        return activities, cells, current_states

    @staticmethod
    def _group_cells(raw_cells):
        """Group (container, index, addend) triples by cell, keeping order.

        Cells are independent memory locations, so replay order *across*
        cells is free; order of repeated addends *within* one cell (two
        assignments sharing a (pid, cpu) slot, or busy and idle residency
        both landing in C0) is exactly the order the tick loop folds
        them, preserved here so the float rounding matches.
        """
        grouped: Dict[Tuple[int, object], list] = {}
        order: List[list] = []
        for container, index, addend in raw_cells:
            group_key = (id(container), index)
            entry = grouped.get(group_key)
            if entry is None:
                entry = [container, index, []]
                grouped[group_key] = entry
                order.append(entry)
            entry[2].append(addend)
        return [(container, index, tuple(addends))
                for container, index, addends in order]

    # -- replay --------------------------------------------------------

    def replay(self, program: TickProgram, n_ticks: int) -> "TickRecord":
        """Advance *n_ticks* of the program; returns the final tick's record.

        The thermal, energy and time recurrences run tick by tick and
        record each tick's leakage.  A one-tick replay then adds the raw
        cells in compile order; a longer one adds each grouped cell in
        its own ``fold_add`` loop, the identical additions in a
        cell-local order.  Each fold then sees the final record once.
        """
        from repro.simcpu.machine import TickRecord

        machine = self._machine
        thermal = machine.thermal
        dt = program.dt_s
        target_c, decay, leak_per_c, ambient_c = thermal.batch_constants(
            program.dynamic_w, dt)
        temp = thermal.temperature_c
        energy = machine._energy_j
        start_s = time_s = machine._time_s
        base_w = program.base_w
        wakeup_w = program.wakeup_w
        leaks = []
        leak = 0.0
        for _ in repeat(None, n_ticks):
            temp += (target_c - temp) * decay
            rise_c = temp - ambient_c
            leak = leak_per_c * (rise_c if rise_c > 0.0 else 0.0)
            leaks.append(leak)
            energy += ((base_w + leak) + wakeup_w) * dt
            time_s += dt
        thermal.temperature_c = temp
        machine._energy_j = energy
        machine._time_s = time_s

        if n_ticks == 1:
            for container, index, addend in program.cells:
                container[index] += addend
        else:
            cells = program.grouped_cells
            if cells is None:
                cells = program.grouped_cells = self._group_cells(
                    program.cells)
            for container, index, addends in cells:
                container[index] = fold_add(container[index], addends,
                                            n_ticks)
        if program.has_counters:
            machine.counters.mark_dirty()
        for cpu_id, state_name in program.current_states.items():
            machine.cstates.set_current_state(cpu_id, state_name)

        record = TickRecord(
            time_s=time_s,
            dt_s=dt,
            power=PowerBreakdown(
                idle=program.idle_w, cores=program.cores_w,
                uncore=program.uncore_w, dram=program.dram_w,
                leakage=leak, wakeup=wakeup_w),
            events=program.events,
            cpu_busy=program.cpu_busy,
            core_frequencies_hz=program.core_freqs,
        )
        machine.last_record = record
        for fold in machine._folds:
            fold(record, n_ticks, leaks, start_s)
        return record
