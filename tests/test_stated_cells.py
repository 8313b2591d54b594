"""Every machine subscriber at once, replayed in long spans, against a
twin stepped one tick at a time.

The engine is the one adder: perf, procfs and the power oracle state the
cells one tick adds into (``Machine.add_cells``), a replay adds them with
its own, and only then calls the folds (PowerSpy, RAPL, any per-tick
observer).  Here one machine carries all of them at once — a fitting
per-pid group, a group that rotates over the PMU slots, a machine-wide
counter covering several (pid, cpu) deltas per tick, a per-CPU counter
and a PMU-starvation window — and replays spans longer than
``FOLD_CHUNK_ROWS`` rows, across a P-state move and a counter opened
while its program is held.  Its twin steps the same occupancy one tick
at a time (``Machine.step``); every accumulated value must match bit for
bit (``float.hex``), and a fold must see the cells already added.
"""

from collections import Counter

from repro.os.procfs import ProcFs
from repro.perf.counting import PerfSession
from repro.powermeter.powerspy import PowerSpy
from repro.powermeter.rapl import RaplInterface
from repro.simcpu import engine as engine_module
from repro.simcpu.attribution import TrueProcessPower
from repro.simcpu.caches import MemoryProfile
from repro.simcpu.engine import FOLD_CHUNK_ROWS
from repro.simcpu.machine import Machine, ThreadAssignment
from repro.simcpu.pipeline import InstructionMix
from repro.simcpu.spec import intel_i3_2120
from tests.test_machine import reachable_ids

SPEC = intel_i3_2120()
DT = 0.001


def _assignment(pid, cpu_id, busy, fp=0.1):
    return ThreadAssignment(
        pid=pid, cpu_id=cpu_id, busy_fraction=busy,
        mix=InstructionMix(fp_fraction=fp),
        memory=MemoryProfile(working_set_bytes=2 * 1024 ** 2))


#: pid 100 on two CPUs, pid 101 on the other two, so the machine-wide
#: counter covers four deltas per tick and each per-pid counter two.
SPREAD = [_assignment(100, 0, 1.0), _assignment(100, 1, 0.6),
          _assignment(101, 2, 0.35), _assignment(101, 3, 0.8, fp=0.3)]
#: The same shape with other busy fractions: values change, layout holds.
MOVED = [_assignment(100, 0, 0.7), _assignment(100, 1, 0.6),
         _assignment(101, 2, 0.9), _assignment(101, 3, 0.25, fp=0.3)]


class Rig:
    """One machine with every kind of subscriber attached."""

    def __init__(self):
        machine = self.machine = Machine(SPEC)
        session = self.session = PerfSession(machine)
        session.open_group(["instructions", "cycles", "cache-misses"],
                           pid=100)
        session.open_group(["instructions", "cycles", "cache-misses",
                            "cache-references", "branches", "bus-cycles"],
                           pid=101)
        self.machine_wide = session.open("instructions")
        session.open("cycles", cpu=2)
        self.procfs = ProcFs(machine)
        self.oracle = TrueProcessPower(machine)
        self.spy = PowerSpy(machine, sample_rate_hz=1.0 / (DT * 97.5),
                            noise_fraction=0.008, seed=5)
        self.spy.connect()
        self.rapl = RaplInterface(machine)
        # What a fold sees: the cells must already be added.
        self.seen = []
        machine.add_fold(lambda record, n_ticks, leaks, start_s:
                         self.seen.append(self._committed()))

    def _committed(self):
        return (self.procfs.uptime_s().hex(),
                self.machine_wide.read().raw.hex(),
                self.oracle.duration_s.hex())

    def bits(self):
        machine = self.machine
        return dict(
            machine=(machine.time_s.hex(), machine.energy_j.hex(),
                     machine.thermal.temperature_c.hex()),
            bank=[[value.hex() for value in column]
                  for column in machine.counters._columns],
            residency=[(key, value.hex()) for key, value
                       in machine.cstates.residency_table().items()],
            perf=[(c.counter_id, c.raw.hex(), c.time_enabled_s.hex(),
                   c.time_running_s.hex())
                  for c in self.session._counters.values()],
            rotation=dict(self.session._mux._rotation),
            procfs=(self.procfs.uptime_s().hex(),
                    self.procfs.machine_load().hex(),
                    [(cpu_id, value.hex()) for cpu_id, value
                     in self.procfs._cpu_busy_s.items()],
                    [(pid, self.procfs.process_cpu_time_s(pid).hex())
                     for pid in self.procfs.known_pids()]),
            oracle=(self.oracle.duration_s.hex(),
                    [(pid, self.oracle.energy_j(pid).hex())
                     for pid in self.oracle.pids()]),
            spy=[(s.time_s.hex(), s.power_w.hex()) for s in self.spy.samples],
            rapl=[value.hex() for value in self.rapl._energy_j.values()],
        )


def _schedule():
    """(action, assignments, ticks) segments; each action runs on both
    machines before the segment."""
    long = FOLD_CHUNK_ROWS + 37

    def open_mid_program(rig):
        rig.session.open("branches", pid=100)

    def starve(rig):
        rig.session.set_slot_override(0)

    def move_p_state(rig):
        rig.session.set_slot_override(None)
        rig.machine.set_frequency(SPEC.frequencies_hz[2])

    return [
        (None, SPREAD, long),
        (open_mid_program, SPREAD, FOLD_CHUNK_ROWS // 2 + 5),
        (starve, SPREAD, 300),
        (move_p_state, SPREAD, long),
        (None, MOVED, 1),
        (None, MOVED, long),
        (None, SPREAD, 3),
    ]


def _drive(replay):
    rig, twin = Rig(), Rig()
    span_ends = []
    for action, assignments, n_ticks in _schedule():
        if action is not None:
            action(rig)
            action(twin)
        replay(rig, assignments, n_ticks)
        for _ in range(n_ticks):
            twin.machine.step(assignments, DT)
        span_ends.append(len(twin.seen) - 1)
    return rig, twin, span_ends


class TestEverySubscriberAtOnce:
    def test_long_spans_match_one_tick_steps_bit_for_bit(self):
        rig, twin, span_ends = _drive(
            lambda rig, assignments, n_ticks:
            rig.machine.run_batch(assignments, n_ticks, DT))
        batched, ticked = rig.bits(), twin.bits()
        assert batched.keys() == ticked.keys()
        for part in batched:
            assert batched[part] == ticked[part], part
        # Each fold saw the state the twin had after the span's last tick.
        assert rig.seen == [twin.seen[end] for end in span_ends]

    def test_the_rig_exercises_every_case(self):
        rig, _twin, _ends = _drive(
            lambda rig, assignments, n_ticks:
            rig.machine.run_batch(assignments, n_ticks, DT))
        counters = list(rig.session._counters.values())
        rotating = [c for c in counters if c.pid == 101]
        assert all(0.0 < c.time_running_s < c.time_enabled_s
                   for c in rotating)
        assert rig.machine_wide.time_running_s < (
            rig.machine_wide.time_enabled_s)  # the starvation window
        assert len(rig.spy.samples) > 10
        assert rig.oracle.pids() == (100, 101)
        assert rig.procfs.known_pids() == (100, 101)


def test_the_kept_grouping_holds_no_older_program():
    """The engine keeps its grouping of a longer replay's cells, but not
    the program: once another program compiles and replays, nothing the
    engine owns references the first."""
    rig = Rig()
    engine = rig.machine.engine
    first = engine.program(rig.machine.placement(SPREAD, ()), DT)
    engine.replay(first, 40)
    second = engine.program(rig.machine.placement(MOVED, ()), DT)
    engine.replay(second, 1)
    owned = reachable_ids(engine)
    assert id(second) in owned
    assert id(first) not in owned


def _expected_shapes(program, statements, n_ticks):
    """The distinct (addends per tick, tick count) over a replay's
    cells; a cell stated with no ticks adds nothing."""
    cells = [(column, slot, n_ticks)
             for columns, slot, _delta in program.rows for column in columns]
    cells += [(program.residency, key, n_ticks)
              for key, _addend in program.residency_cells]
    for stated, ticks in statements:
        cells += [(container, key, n_ticks if ticks is None
                   or ticks[i] is None else len(ticks[i]))
                  for i, (container, key, _addend) in enumerate(stated)]
    widths = Counter((id(container), key) for container, key, _c in cells)
    count_of = {(id(container), key): count
                for container, key, count in cells}
    return sorted({(widths[target], count_of[target]) for target in widths
                   if count_of[target] != 0})


def test_one_vector_fold_per_distinct_shape(monkeypatch):
    """Each replay makes one ``vector_fold`` per distinct (addends per
    tick, tick count) of the cells it adds, and none for a one-tick
    replay."""
    folds, statements = [], []
    vector_fold = engine_module.vector_fold

    def counted(start, table, n_ticks):
        folds.append((table.shape[0], n_ticks))
        return vector_fold(start, table, n_ticks)

    monkeypatch.setattr(engine_module, "vector_fold", counted)

    def recorded(state):
        def stated(record, n_ticks):
            statements.append(state(record, n_ticks))
            return statements[-1]
        return stated

    def replay(rig, assignments, n_ticks):
        machine = rig.machine
        states = list(machine._cell_states)
        machine._cell_states[:] = [recorded(state) for state in states]
        program = machine.engine.program(machine.placement(assignments, ()),
                                         DT)
        del folds[:], statements[:]
        machine.engine.replay(program, n_ticks)
        machine._cell_states[:] = states
        if n_ticks == 1:
            assert folds == []
        else:
            assert sorted(folds) == _expected_shapes(program, statements,
                                                     n_ticks)
        shapes.append(sorted(folds))

    shapes = []
    _drive(replay)
    # Widths 1, 2 (a pid on two CPUs) and 4 (the machine-wide counter)
    # on the first span; the rotating group adds more counts.
    long = FOLD_CHUNK_ROWS + 37
    assert {(1, long), (2, long), (4, long)} <= set(shapes[0])
    assert len(shapes[0]) > 3
