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
  the constant components of the power breakdown, and the addends one
  tick makes into the struct-of-arrays
  :class:`~repro.simcpu.counters.CounterBank` columns and the C-state
  residency table.
* **replay** — :meth:`BatchEngine.replay` advances N ticks by replaying
  only the data-dependent state updates: the first-order thermal
  relaxation, the energy and time integrals, and one float addition per
  accumulation cell per tick.

The engine takes a quantum as a :class:`~repro.simcpu.occupancy.Placement`
of running threads (``Machine.placement`` converts a list of
assignments).  A compile itself comes in two parts.  The *layout*
(:class:`_Layout`) is what the placement's rows fix: which threads run
where, the counter slot and columns each one adds into, its SMT
siblings, its cache behaviour next to the other working sets on its
package, the granted core frequencies and the instruction power weights.
The *values* are what the busy fractions and dt fix: each thread's 14
event counts, the C-state cells and the power breakdown.  The engine
keeps one layout, keyed on the placement's rows and the frequency
generation, so a quantum whose demand moved without moving its shape
fills in values only.

A SPECjbb ramp moves its demand on every quantum without moving its
shape, so the kernel holds its quanta here (:meth:`BatchEngine.hold`)
rather than compiling each.  A held quantum is laid out at its hold,
which freezes its frequencies, and valued only when the held run ends
(:meth:`BatchEngine.flush`).  A *ramp run* is consecutive one-tick
quanta with one dt whose placements have equal rows: each later quantum
joins as a placement, and at the run's end (the rows, dt or generation
change, a quantum repeats, :data:`FOLD_CHUNK_ROWS` quanta, or the end of
the span) one :meth:`BatchEngine.replay_run` fills the values of every
quantum at once as numpy columns (:meth:`BatchEngine._fill`, the column
twin of the scalar compile) and replays them.  A run of one quantum is
compiled by :meth:`BatchEngine.program`, which is cheaper for one
quantum (a fresh machine in the learning campaign, a one-quantum span)
and keeps its last program for a quantum that repeats.

Bit-identity is the hard contract (the golden dataset tests pin it):
replaying a program performs exactly the float operations, in exactly
the order, that N calls of the tick-at-a-time step would — repeated
addition per cell rather than a single ``n * delta`` fold, the same
association order in the power total, the same two data-dependent
thermal lines per tick.  The scalar recurrences run tick by tick; only
the final record is built.  A run's columns hold the same floats: numpy
rounds elementwise ``+ - * /``, ``minimum`` and ``maximum`` as Python
does, each expression keeps Python's association, every branch is an
``np.where`` and ``gtps ** 0.85`` stays one Python power per tick
(``np.power`` rounds differently).

The replay is the one adder.  Besides its own counter and residency
cells it adds every cell a subscriber *states* (``Machine.add_cells``):
perf's counters, procfs's times and the power oracle's energies, each a
``(container, key, addend)`` in the order one tick adds them, plus the
ticks each cell adds on while a counter group rotates or is starved.  A
one-tick replay adds them in one flat loop; a longer one groups them by
target once per program and stated lists, and advances each group of
one width and tick count in one ``numpy.add.accumulate``
(:func:`vector_fold`; it adds each cell strictly left to right, and
cells are independent memory locations, so the order across cells is
free).  A run's subscribers state its cells once, over a
:class:`~repro.simcpu.machine.RunRecord` whose moving values are
columns; a cell that adds on some ticks only adds +0.0 on the others,
and each shape's table holds one block per tick (:func:`tick_fold`).
Then every *fold* (``Machine.add_fold``: the meters, RAPL's package
energy, the per-tick observer adapter) is called once as
``fold(record, n_ticks, leaks, start_s)``: the final record, the tick
count, each tick's leakage power (the one per-tick value a program does
not fix — it follows the temperature recurrence) and the machine time
the replay started from, after every cell is committed.  Folds see only
programs: while one is attached no run forms.
"""

from __future__ import annotations

from itertools import repeat
from operator import is_
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simcpu import counters as ev
from repro.simcpu.counters import EventDelta
from repro.simcpu.occupancy import Placement
from repro.simcpu.power import CoreActivity, PowerBreakdown
from repro.units import left_sum

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (machine -> engine)
    from repro.simcpu.machine import Machine, TickRecord

#: Bus cycles tick at roughly one tenth of the core clock.
BUS_CYCLE_RATIO = 0.1

#: The events one running assignment produces, in the key order of its
#: :class:`EventDelta` and of its layout row's counter columns.
ROW_EVENTS: Tuple[str, ...] = (
    ev.INSTRUCTIONS, ev.CYCLES, ev.REF_CYCLES, ev.BUS_CYCLES, ev.BRANCHES,
    ev.BRANCH_MISSES, ev.CACHE_REFERENCES, ev.CACHE_MISSES, ev.LLC_LOADS,
    ev.LLC_LOAD_MISSES, ev.L1_DCACHE_LOADS, ev.L1_DCACHE_LOAD_MISSES,
    ev.STALLED_CYCLES_BACKEND, ev.STALLED_CYCLES_FRONTEND,
)


#: Most rows one accumulate pass holds: a longer fold runs in chunks of
#: this many rows (ticks times the table's width), so its buffer stays
#: bounded however many ticks a replay covers.  A ramp run ends at this
#: many quanta, which bounds its buffers the same way.
FOLD_CHUNK_ROWS = 1024


def addend_table(cells: Sequence[Sequence[float]]) -> np.ndarray:
    """The (width x cells) table of each cell's per-tick addends.

    Column *j* holds cell *j*'s addends in the order one tick adds them;
    every cell has the same number of addends (the replay groups cells
    by width).
    """
    width = len(cells[0]) if cells else 0
    return np.array(cells, dtype=float).reshape(len(cells), width).T


def vector_fold(start: Sequence[float], table: np.ndarray,
                n_ticks: int) -> List[float]:
    """Each cell of *start* after *n_ticks* rounds of its *table* column.

    ``numpy.add.accumulate`` adds strictly left to right along the tick
    axis, so every cell makes the float additions *n_ticks* one-tick
    folds would, never a single ``n * addend``; cells are independent,
    so all of them advance in one pass.  Returns Python floats.
    """
    width, cells = table.shape
    if not width or not n_ticks:
        return list(start)
    per_chunk = max(1, FOLD_CHUNK_ROWS // width)
    block = np.empty((min(n_ticks, per_chunk) * width + 1, cells))
    row = start
    while n_ticks:
        ticks = min(n_ticks, per_chunk)
        rows = block[:ticks * width + 1]
        rows[0] = row
        rows[1:].reshape(ticks, width, cells)[:] = table
        np.add.accumulate(rows, axis=0, out=rows)
        row = rows[-1]
        n_ticks -= ticks
    return row.tolist()


def tick_fold(start: Sequence[float], addends: Sequence[Sequence],
              n_ticks: int) -> List[float]:
    """Each cell of *start* after *n_ticks* ticks whose addends move.

    ``addends[j]`` holds cell *j*'s addends in the order one tick adds
    them, each a column of one value per tick or a float every tick
    adds; every cell has as many.  The table holds one block per tick,
    and ``numpy.add.accumulate`` adds each cell's values strictly in
    tick order, as *n_ticks* one-tick replays would.  Returns Python
    floats.
    """
    cells, width = len(addends), len(addends[0])
    body = np.empty((cells, n_ticks, width))
    for cell, cell_addends in zip(body, addends):
        for slot, addend in enumerate(cell_addends):
            cell[:, slot] = addend
    rows = np.empty((cells, n_ticks * width + 1))
    rows[:, 0] = start
    rows[:, 1:] = body.reshape(cells, n_ticks * width)
    np.add.accumulate(rows, axis=1, out=rows)
    return rows[:, -1].tolist()


class TickProgram:
    """Everything about one steady (placement, dt, P-states) combination
    that does not change from tick to tick."""

    __slots__ = (
        "dt_s", "cpu_busy", "core_freqs", "events", "rows", "residency",
        "residency_cells", "current_states", "layout", "has_counters",
        "idle_w", "cores_w", "uncore_w", "dram_w", "wakeup_w", "base_w",
        "dynamic_w",
    )


class _Row:
    """One running thread's place in a layout."""

    __slots__ = (
        "index", "key", "others", "sibling_columns", "frequency_hz", "mix",
        "behaviour", "weight", "columns", "slot",
    )


class _Layout:
    """What a placement's rows and the frequency targets fix; ``key`` is
    ``(placement.rows, generation)``."""

    __slots__ = ("key", "rows", "cores", "core_freqs")


class BatchEngine:
    """Compiles placements into tick programs and replays them; holds
    ramp runs and replays each once."""

    def __init__(self, machine: "Machine") -> None:
        self._machine = machine
        self._key: tuple = ()
        self._program: Optional[TickProgram] = None
        self._layout: Optional[_Layout] = None
        # The program rows and statements of the last longer replay,
        # and their cells grouped by target and shape.
        self._cells_key: list = []
        self._groups: tuple = ()
        #: Column of each CPU's busy fraction, in the occupancy's order.
        self._cpu_column = {
            cpu_id: column for column, cpu_id in enumerate(machine._zero_busy)}
        # The held run: its placements (every one but the last one tick
        # long), the layout laid out at its first hold (None: nothing
        # held), its dt and the ticks of the quantum held last.
        self._run: List[Placement] = []
        self._held: Optional[_Layout] = None
        self._dt = 0.0
        self._ticks = 0

    # -- compilation ---------------------------------------------------

    def program(self, placement: Placement, dt_s: float,
                layout: Optional[_Layout] = None) -> TickProgram:
        """The compiled program for (*placement*, *dt_s*) on *layout*.

        By default the layout is the one of the placement's rows at the
        current P-state targets; :meth:`flush` passes a held quantum's,
        frozen at its hold.  The engine keeps the last program only:
        asked again for equal busy fractions and the same dt on the same
        layout, it returns that very object, so a caller can tell a
        changed quantum by identity.  A governor request that moves a
        P-state target bumps the frequency generation, and so the
        layout; re-requests of the current target (what every governor
        does each quantum in steady state) do not.  A placement that
        recurs after another is compiled afresh.
        """
        if layout is None:
            layout = self._layout_of(placement)
        key = (layout, placement.busy, dt_s)
        if key != self._key:
            self._program = self._compile(layout, placement, dt_s)
            self._key = key
        return self._program

    def _layout_of(self, placement: Placement) -> _Layout:
        """The kept layout if its rows equal *placement*'s at the current
        generation, else a new one, kept from now on."""
        key = (placement.rows, self._machine.frequency.generation)
        layout = self._layout
        if layout is None or layout.key != key:
            layout = self._layout = self._lay_out(placement, key)
        return layout

    def _compile(self, layout: _Layout, placement: Placement,
                 dt_s: float) -> TickProgram:
        """Fill *placement*'s values into *layout*."""
        machine = self._machine
        busy, cpu_busy = placement.busy, placement.cpu_busy
        events: Dict[Tuple[int, int], EventDelta] = {}
        llc_refs = 0.0
        dram_bytes = 0.0
        line_bytes = machine._line_bytes_cached
        rows = []
        for row in layout.rows:
            delta = self._row_values(row, busy[row.index], cpu_busy, dt_s)
            existing = events.get(row.key)
            events[row.key] = (delta if existing is None
                               else existing.merged_with(delta))
            rows.append((row.columns, row.slot, delta))
            llc_refs += delta[ev.CACHE_REFERENCES]
            dram_bytes += delta[ev.CACHE_MISSES] * line_bytes

        program = TickProgram()
        activities = self._activities(program, layout, busy, cpu_busy, dt_s)
        breakdown = machine.power_model.wall_power(
            activities,
            llc_references_per_s=llc_refs / dt_s,
            dram_bytes_per_s=dram_bytes / dt_s,
            thermal=None,
        )

        program.dt_s = dt_s
        program.cpu_busy = cpu_busy
        program.core_freqs = layout.core_freqs
        program.events = events
        program.rows = rows
        program.layout = layout
        program.has_counters = bool(rows)
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

    def _lay_out(self, placement: Placement, key: tuple) -> _Layout:
        """Derive what *key* fixes: rows, per-core groups, frequencies.

        A thread's co-residents are the other threads on its package, in
        placement order; its counter slot is created here, in the order
        the threads run.
        """
        machine = self._machine
        core_freqs = machine._effective_frequencies(placement.cpu_busy)
        cpu_core_key = machine._cpu_core_key
        cpu_column = self._cpu_column
        zero_row = dict.fromkeys(ROW_EVENTS, 0.0)
        threads = placement.rows
        rows: List[_Row] = []
        core_rows: Dict[Tuple[int, int], List[_Row]] = {}
        for index, (pid, cpu_id, mix, memory) in enumerate(threads):
            core_key = cpu_core_key[cpu_id]
            coresident_sets = [
                other_memory.working_set_bytes
                for other_index, (_pid, other_cpu, _mix, other_memory)
                in enumerate(threads)
                if other_index != index
                and cpu_core_key[other_cpu][0] == core_key[0]]
            cells = machine.counters.accumulation_cells(pid, cpu_id, zero_row)
            row = _Row()
            row.index = index
            row.key = (pid, cpu_id)
            row.others = machine._other_siblings[cpu_id]
            row.sibling_columns = [cpu_column[other] for other in row.others]
            row.frequency_hz = core_freqs[core_key]
            row.mix = mix
            row.behaviour = machine.caches.behaviour(memory, coresident_sets)
            row.weight = mix.power_weight()
            row.columns = tuple(column for column, _slot, _zero in cells)
            row.slot = cells[0][1]
            rows.append(row)
            core_rows.setdefault(core_key, []).append(row)

        layout = _Layout()
        layout.key = key
        layout.rows = tuple(rows)
        layout.cores = tuple(
            (machine._core_cpus[core_key], core_freqs[core_key],
             tuple(core_rows.get(core_key, ())))
            for core_key in machine._cores)
        layout.core_freqs = core_freqs
        return layout

    def _row_values(self, row: _Row, busy: float,
                    cpu_busy: Dict[int, float], dt_s: float) -> EventDelta:
        """One assignment's event counts for a tick of *dt_s*; execution
        rates follow the busiest SMT sibling."""
        machine = self._machine
        sibling_busy = max([cpu_busy[sibling] for sibling in row.others],
                           default=0.0)
        rates = machine.pipeline.rates(row.mix, row.behaviour, sibling_busy)
        behaviour = row.behaviour
        frequency_hz = row.frequency_hz
        busy_seconds = busy * dt_s
        instructions = machine.pipeline.instructions_in(
            rates, frequency_hz, busy_seconds)
        cycles = frequency_hz * busy_seconds
        return EventDelta({
            ev.INSTRUCTIONS: instructions,
            ev.CYCLES: cycles,
            ev.REF_CYCLES: machine.spec.max_frequency_hz * busy_seconds,
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

    def _activities(self, program: TickProgram, layout: _Layout,
                    fractions: List[float], cpu_busy,
                    dt_s) -> List[CoreActivity]:
        """Per-core activity records; fills the program's C-state cells.

        The governor's idle-state choice is a pure function of the
        expected idle window, so it compiles to residency cells and a
        final per-CPU state name.
        """
        cstates = self._machine.cstates
        activities: List[CoreActivity] = []
        cells: list = []
        current_states: Dict[int, str] = {}
        for core_cpus, frequency_hz, core_rows in layout.cores:
            thread_busy = tuple([cpu_busy[cpu_id] for cpu_id in core_cpus])
            weights = [(fractions[row.index], row.weight)
                       for row in core_rows]
            total_busy = left_sum(busy for busy, _weight in weights)
            if total_busy > 0:
                weight = left_sum(busy * w for busy, w in weights) / total_busy
            else:
                weight = 1.0
            busiest = max(thread_busy, default=0.0)
            expected_idle_s = (1.0 - busiest) * dt_s
            state = cstates.deepest_for(expected_idle_s)
            for cpu_id, busy in zip(core_cpus, thread_busy):
                cells.append(((cpu_id, "C0"), busy * dt_s))
                idle_s = (1.0 - busy) * dt_s
                if idle_s <= 0.0:
                    current_states[cpu_id] = "C0"
                else:
                    cells.append(((cpu_id, state.name), idle_s))
                    current_states[cpu_id] = state.name
            activities.append(CoreActivity(
                frequency_hz=frequency_hz,
                thread_busy=thread_busy,
                power_weight=weight,
                idle_power_fraction=state.power_fraction,
            ))
        program.residency = cstates.residency_table()
        program.residency_cells = cells
        program.current_states = current_states
        return activities

    # -- ramp runs -----------------------------------------------------

    def hold(self, placement: Placement, dt_s: float) -> Dict[int, float]:
        """Hold one more quantum of *placement*; returns its per-CPU busy
        map (the same object while the quantum repeats).

        A quantum whose rows equal the last one's (compared by identity
        first), with the same dt and frequency generation, repeats it if
        its busy fractions are equal too; otherwise it joins the held run
        while the run's quanta each last one tick, the run is shorter
        than :data:`FOLD_CHUNK_ROWS` and no fold is attached.  Any other
        quantum ends the held run (:meth:`flush`) and is held alone, laid
        out now, so its frequencies are the current targets'.  Nothing is
        valued before :meth:`flush`; :meth:`extend` gives the quantum
        held last its ticks.
        """
        run = self._run
        if run:
            last = run[-1]
            rows = placement.rows
            if ((rows is last.rows or rows == last.rows)
                    and dt_s == self._dt
                    and self._machine.frequency.generation
                    == self._held.key[1]):
                if placement.busy == last.busy:
                    return last.cpu_busy
                if (self._ticks == 1 and len(run) < FOLD_CHUNK_ROWS
                        and not self._machine._folds):
                    run.append(placement)
                    self._ticks = 0
                    return placement.cpu_busy
            self.flush()
        self._held = self._layout_of(placement)
        self._dt = dt_s
        self._run.append(placement)
        return placement.cpu_busy

    def extend(self, n_ticks: int) -> None:
        """Give the quantum held last *n_ticks* more ticks.

        A later quantum of a run lasts one tick: one that gets more ends
        the run before it and is held alone, on the run's layout (no
        P-state moves between a quantum's hold and its extend).
        """
        self._ticks += n_ticks
        run = self._run
        if self._ticks > 1 and len(run) > 1:
            ticks, layout = self._ticks, self._held
            last = run.pop()
            self._ticks = 1
            self.flush()
            self._run.append(last)
            self._held, self._ticks = layout, ticks

    def flush(self) -> None:
        """Value and replay the held run, and hold nothing.

        Both paths value on the layout laid out at the run's first hold.
        A run of one quantum goes through :meth:`program` (whose kept
        program spares a quantum repeated over one-quantum spans its
        compile) and is replayed for its ticks; a longer one, one tick a
        quantum, is valued as columns in one :meth:`replay_run`.
        """
        run, layout, ticks = self._run, self._held, self._ticks
        if not run:
            return
        self._run, self._held, self._ticks = [], None, 0
        if len(run) > 1:
            if not ticks:  # the last quantum got none
                run.pop()
            ticks = 1
        if len(run) > 1:
            self.replay_run(run, self._dt, layout)
        elif ticks:
            self.replay(self.program(run[0], self._dt, layout), ticks)

    def _fill(self, layout: _Layout, dt_s: float, busy: np.ndarray,
              cpu_busy: np.ndarray) -> tuple:
        """The values of one tick per row of *busy* (ticks x the
        layout's rows) and *cpu_busy* (ticks x CPUs), as numpy columns.

        The column twin of :meth:`_compile`: each value is the float the
        scalar compile derives for that tick, in the same association
        orders, sums from 0.0 left to right, ``np.maximum`` and
        ``np.minimum`` for ``max`` and ``min``, ``np.where`` for each
        branch.  Returns ``(counts, events, residency_cells,
        current_states, power)``: each row's 14 counts (in
        :data:`ROW_EVENTS` order), the counts per (pid, cpu) summed in
        row order, the C-state cells (an idle cell adds +0.0 on the
        ticks its state was not chosen), the last tick's states and the
        ``[cores, uncore, dram, wakeup]`` watts.
        """
        machine = self._machine
        pipeline = machine.pipeline
        ticks = len(busy)
        max_hz = machine.spec.max_frequency_hz
        line_bytes = machine._line_bytes_cached
        counts = []
        events: Dict[Tuple[int, int], np.ndarray] = {}
        llc_refs = dram_bytes = np.zeros(ticks)
        for row in layout.rows:
            columns = row.sibling_columns
            sibling_busy = None
            for column in columns:
                sibling_busy = (cpu_busy[:, column] if sibling_busy is None
                                else np.maximum(sibling_busy,
                                                cpu_busy[:, column]))
            ipc, branches, branch_misses, backend, frontend = (
                pipeline.rate_columns(row.mix, row.behaviour, sibling_busy))
            busy_s = busy[:, row.index] * dt_s
            instructions = ipc * row.frequency_hz * busy_s
            cycles = row.frequency_hz * busy_s
            behaviour = row.behaviour
            refs = instructions * behaviour.llc_references
            misses = instructions * behaviour.llc_misses
            delta = np.array([
                instructions, cycles, max_hz * busy_s,
                cycles * BUS_CYCLE_RATIO, instructions * branches,
                instructions * branch_misses, refs, misses, refs, misses,
                instructions * behaviour.l1_references,
                instructions * behaviour.l1_misses,
                cycles * backend, cycles * frontend])
            counts.append(delta)
            existing = events.get(row.key)
            events[row.key] = delta if existing is None else existing + delta
            llc_refs = llc_refs + refs
            dram_bytes = dram_bytes + misses * line_bytes

        cstates = machine.cstates
        states = cstates.states
        cpu_column = self._cpu_column
        cores = []
        cells: list = []
        current_states: Dict[int, str] = {}
        for core_cpus, frequency_hz, core_rows in layout.cores:
            thread_busy = cpu_busy[:, [cpu_column[cpu_id]
                                       for cpu_id in core_cpus]]
            weight = 1.0
            if core_rows:
                total_busy = weighted = 0.0
                for row in core_rows:
                    total_busy = total_busy + busy[:, row.index]
                    weighted = weighted + busy[:, row.index] * row.weight
                weight = np.divide(weighted, total_busy, out=np.ones(ticks),
                                   where=total_busy > 0)
            expected_idle_s = (1.0 - thread_busy.max(axis=1)) * dt_s
            chosen = np.zeros(ticks, dtype=int)
            for index, state in enumerate(states):
                chosen = np.where(expected_idle_s >= state.target_residency_s,
                                  index, chosen)
            last = chosen[-1].item()
            for cpu_id, thread in zip(core_cpus, thread_busy.T):
                cells.append(((cpu_id, "C0"), thread * dt_s))
                idle_s = (1.0 - thread) * dt_s
                idles = idle_s > 0.0
                for index in np.unique(chosen[idles]).tolist():
                    cells.append(((cpu_id, states[index].name), np.where(
                        idles & (chosen == index), idle_s, 0.0)))
                current_states[cpu_id] = (states[last].name if idles[-1]
                                          else "C0")
            fractions = np.array([state.power_fraction for state in states])
            cores.append((frequency_hz, thread_busy, weight,
                          fractions[chosen]))
        power = machine.power_model.power_columns(
            cores, llc_refs / dt_s, dram_bytes / dt_s)
        return counts, events, cells, current_states, power

    def replay_run(self, placements: List[Placement], dt_s: float,
                   layout: _Layout) -> "TickRecord":
        """Advance one tick per placement: a run of quanta with equal rows
        laid out as *layout*, one dt and each its own busy fractions.
        Returns the last tick's record.

        The values are filled as columns (:meth:`_fill`); the thermal
        and energy recurrences run tick by tick on each tick's own
        terms.  Each cell-stating subscriber then states the run's cells
        in one call, given a :class:`~repro.simcpu.machine.RunRecord`
        whose per-tick values are columns; a cell stated with some ticks
        only adds +0.0 on the others, and every cell is added with one
        :func:`tick_fold` per shape.  A run never forms while a fold
        is attached (:meth:`hold`), so no fold sees one.
        """
        from repro.simcpu.machine import RunRecord, TickRecord

        machine = self._machine
        ticks = len(placements)
        last_busy = placements[-1].cpu_busy
        cpu_busy = np.array([list(placement.cpu_busy.values())
                             for placement in placements])
        busy = np.array([placement.busy for placement in placements])
        counts, events, residency_cells, current_states, power = self._fill(
            layout, dt_s, busy, cpu_busy)
        cores_w, uncore_w, dram_w, wakeup_w = power
        idle_w = machine.spec.power.idle_w
        dynamic_w = ((cores_w + uncore_w) + dram_w) + wakeup_w
        base_w = ((idle_w + cores_w) + uncore_w) + dram_w

        thermal = machine.thermal
        _target, decay, leak_per_c, ambient_c = thermal.batch_constants(
            0.0, dt_s)
        targets = ambient_c + thermal.c_per_watt * dynamic_w
        temp = thermal.temperature_c
        energy = machine._energy_j
        start_s = time_s = machine._time_s
        leaks = []
        leak = 0.0
        for target_c, tick_base_w, tick_wakeup_w in zip(
                targets.tolist(), base_w.tolist(), wakeup_w.tolist()):
            temp += (target_c - temp) * decay
            rise_c = temp - ambient_c
            leak = leak_per_c * (rise_c if rise_c > 0.0 else 0.0)
            leaks.append(leak)
            energy += ((tick_base_w + leak) + tick_wakeup_w) * dt_s
            time_s += dt_s
        thermal.temperature_c = temp
        machine._energy_j = energy
        machine._time_s = time_s

        cpus = list(last_busy)
        run = RunRecord(
            start_s=start_s,
            dt_s=dt_s,
            power=PowerBreakdown(
                idle=idle_w, cores=cores_w, uncore=uncore_w, dram=dram_w,
                leakage=np.array(leaks), wakeup=wakeup_w),
            events={key: dict(zip(ROW_EVENTS, delta))
                    for key, delta in events.items()},
            cpu_busy=dict(zip(cpus, cpu_busy.T)),
            core_frequencies_hz=layout.core_freqs,
        )
        residency = machine.cstates.residency_table()
        entries = [(column, row.slot, addend, None)
                   for row, delta in zip(layout.rows, counts)
                   for column, addend in zip(row.columns, delta)]
        entries += [(residency, key, addend, None)
                    for key, addend in residency_cells]
        masks: Dict[int, np.ndarray] = {}
        for cells, stated_ticks in [state(run, ticks)
                                    for state in machine._cell_states]:
            if stated_ticks is None:
                entries += [cell + (None,) for cell in cells]
                continue
            for (container, index, addend), cell_ticks in zip(
                    cells, stated_ticks):
                if cell_ticks is not None:
                    if not cell_ticks:
                        continue
                    mask = masks.get(id(cell_ticks))
                    if mask is None:
                        mask = masks[id(cell_ticks)] = np.zeros(ticks, bool)
                        mask[list(cell_ticks)] = True
                    addend = np.where(mask, addend, 0.0)
                entries.append((container, index, addend, None))
        for cells in self._shapes(entries).values():
            targets = [cell[0] for cell in cells]
            values = tick_fold([container[index]
                                for container, index in targets],
                               [cell[2:] for cell in cells], ticks)
            for (container, index), value in zip(targets, values):
                container[index] = value
        if layout.rows:
            machine.counters.mark_dirty()
        machine.cstates.set_current_states(current_states)

        record = machine.last_record = TickRecord(
            time_s=time_s,
            dt_s=dt_s,
            power=PowerBreakdown(
                idle=idle_w, cores=cores_w[-1].item(),
                uncore=uncore_w[-1].item(), dram=dram_w[-1].item(),
                leakage=leak, wakeup=wakeup_w[-1].item()),
            events={key: EventDelta(zip(ROW_EVENTS, delta[:, -1].tolist()))
                    for key, delta in events.items()},
            cpu_busy=last_busy,
            core_frequencies_hz=layout.core_freqs,
        )
        return record

    # -- grouping ------------------------------------------------------

    @staticmethod
    def _shapes(entries) -> Dict[tuple, list]:
        """*entries* ``(container, index, addend, count)`` grouped by
        target into cells ``[(container, index), count, addends...]``,
        then by shape (addends per tick, tick count); a count of 0 is
        left out.

        Cells are independent memory locations, so replay order
        *across* cells is free; order of repeated addends *within* one
        cell (two assignments sharing a (pid, cpu) slot, busy and idle
        residency both landing in C0, a machine-wide counter covering
        several deltas) is exactly the order the tick loop adds them,
        preserved here as the cell's addends.
        """
        grouped: Dict[Tuple[int, object], list] = {}
        for container, index, addend, count in entries:
            key = (id(container), index)
            cell = grouped.get(key)
            if cell is None:
                grouped[key] = [(container, index), count, addend]
            else:
                cell.append(addend)
        shapes: Dict[tuple, list] = {}
        for cell in grouped.values():
            shape = (len(cell), cell[1])
            if shape in shapes:
                shapes[shape].append(cell)
            elif cell[1] != 0:
                shapes[shape] = [cell]
        return shapes

    @classmethod
    def _group_cells(cls, program: TickProgram, statements: list) -> tuple:
        """The (container, index) targets a program's replay adds into,
        ordered by shape, and per shape a (start, end, count, table)
        slice of them (:meth:`_shapes`)."""
        residency = program.residency
        entries = [(column, slot, addend, None)
                   for columns, slot, delta in program.rows
                   for column, addend in zip(columns, delta.values())]
        entries += [(residency, key, addend, None)
                    for key, addend in program.residency_cells]
        for cells, ticks in statements:
            entries += [cell + (None if cell_ticks is None
                                else len(cell_ticks),)
                        for cell, cell_ticks
                        in zip(cells, ticks or repeat(None))]
        targets: list = []
        groups = []
        for (_size, count), cells in cls._shapes(entries).items():
            start = len(targets)
            targets += [cell[0] for cell in cells]
            groups.append((start, len(targets), count,
                           addend_table([cell[2:] for cell in cells])))
        return targets, groups

    # -- replay --------------------------------------------------------

    def replay(self, program: TickProgram, n_ticks: int) -> "TickRecord":
        """Advance *n_ticks* of the program; returns the final tick's record.

        The thermal, energy and time recurrences run tick by tick and
        record each tick's leakage.  Each cell-stating subscriber then
        states its cells for the record; a one-tick replay adds the
        program's rows, its residency addends and every stated cell in
        one flat pass, a longer one makes one :func:`vector_fold` per
        shape (:meth:`_group_cells`).  Each fold then sees the final
        record once.
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
        statements = [state(record, n_ticks) for state in machine._cell_states]
        if n_ticks == 1:
            for columns, slot, delta in program.rows:
                for column, addend in zip(columns, delta.values()):
                    column[slot] += addend
            residency = program.residency
            for key, addend in program.residency_cells:
                residency[key] += addend
            for cells, ticks in statements:
                if ticks is None:
                    for container, key, addend in cells:
                        container[key] += addend
                    continue
                for (container, key, addend), cell_ticks in zip(cells, ticks):
                    if cell_ticks is None or cell_ticks:
                        container[key] += addend
        else:
            # Grouped while the program and the stated lists hold; the
            # program's rows list stands for it without keeping it alive.
            key = [program.rows]
            for statement in statements:
                key += statement
            held = self._cells_key
            if len(held) != len(key) or not all(map(is_, held, key)):
                self._groups = self._group_cells(program, statements)
                self._cells_key = key
            targets, groups = self._groups
            values = [container[index] for container, index in targets]
            for start, end, count, table in groups:
                values[start:end] = vector_fold(
                    values[start:end], table,
                    n_ticks if count is None else count)
            for (container, index), value in zip(targets, values):
                container[index] = value
        if program.has_counters:
            machine.counters.mark_dirty()
        machine.cstates.set_current_states(program.current_states)

        machine.last_record = record
        for fold in machine._folds:
            fold(record, n_ticks, leaks, start_s)
        return record
