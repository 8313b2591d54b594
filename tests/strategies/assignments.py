"""Generators for machine occupancies, schedules and counter deltas."""

from dataclasses import replace

from hypothesis import strategies as st

from repro.simcpu.caches import MemoryProfile
from repro.simcpu.counters import ALL_EVENTS, EventDelta
from repro.simcpu.machine import ThreadAssignment
from repro.simcpu.pipeline import InstructionMix

_fractions = st.floats(min_value=0.0, max_value=1.0,
                       allow_nan=False, allow_infinity=False)


@st.composite
def instruction_mixes(draw):
    fp = draw(st.floats(0.0, 0.5, allow_nan=False))
    branch = draw(st.floats(0.0, min(0.4, 1.0 - fp), allow_nan=False))
    return InstructionMix(fp_fraction=fp, branch_fraction=branch)


@st.composite
def memory_profiles(draw):
    return MemoryProfile(
        mem_ops_per_instruction=draw(_fractions),
        working_set_bytes=draw(st.integers(0, 256 * 1024 ** 2)),
        locality=draw(st.floats(0.01, 1.0, allow_nan=False)),
    )


@st.composite
def thread_assignments(draw, spec, cpu_id=None, max_busy=1.0, pids=None):
    """One assignment on a valid CPU with busy fraction <= *max_busy*."""
    if cpu_id is None:
        cpu_id = draw(st.integers(0, spec.num_threads - 1))
    pid = draw(pids if pids is not None else st.integers(1, 50))
    return ThreadAssignment(
        pid=pid,
        cpu_id=cpu_id,
        busy_fraction=draw(st.floats(0.0, max_busy, allow_nan=False)),
        mix=draw(instruction_mixes()),
        memory=draw(memory_profiles()),
    )


@st.composite
def assignment_lists(draw, spec, pids=None):
    """A non-oversubscribed occupancy: per CPU, up to two assignments
    whose busy fractions sum to at most 1."""
    assignments = []
    for cpu_id in range(spec.num_threads):
        count = draw(st.integers(0, 2))
        headroom = 1.0
        for _ in range(count):
            assignment = draw(thread_assignments(
                spec, cpu_id=cpu_id, max_busy=headroom, pids=pids))
            headroom -= assignment.busy_fraction
            assignments.append(assignment)
    return assignments


#: Tick durations spanning calibration-fine to soak-coarse resolutions.
dts = st.sampled_from([0.001, 0.005, 0.01, 0.02, 0.05, 0.1])


@st.composite
def schedules(draw, spec, max_segments=4, max_ticks=12):
    """(assignments, n_ticks) segments with pid churn across segments."""
    segments = []
    for _ in range(draw(st.integers(1, max_segments))):
        segments.append((
            draw(assignment_lists(spec)),
            draw(st.integers(1, max_ticks)),
        ))
    return segments


@st.composite
def ramps(draw, spec, max_quanta=12):
    """One occupancy shape whose busy fractions move on every quantum.

    Returns ``(quanta, move_at, frequency_hz)``: ``quanta`` holds 2 to
    *max_quanta* assignment lists that share one
    :func:`assignment_lists` draw's (pid, cpu, mix, memory) in order,
    each with fresh busy fractions within its CPU's headroom (0
    included, so a row may stop and restart), and the P-state target
    moves to ``frequency_hz`` just before quantum ``move_at``.  Pids
    come from a small range, so two assignments on one CPU sometimes
    share a (pid, cpu) counter slot.
    """
    shape = draw(assignment_lists(spec, pids=st.integers(1, 4)))
    quanta = []
    for _ in range(draw(st.integers(2, max_quanta))):
        headroom = [1.0] * spec.num_threads
        quantum = []
        for assignment in shape:
            busy = draw(st.floats(0.0, headroom[assignment.cpu_id],
                                  allow_nan=False))
            headroom[assignment.cpu_id] -= busy
            quantum.append(replace(assignment, busy_fraction=busy))
        quanta.append(quantum)
    move_at = draw(st.integers(0, len(quanta) - 1))
    frequency_hz = draw(st.sampled_from(spec.all_frequencies_hz))
    return quanta, move_at, frequency_hz


@st.composite
def event_deltas(draw, max_events=6):
    """A valid EventDelta over a random subset of the known events."""
    events = draw(st.lists(st.sampled_from(ALL_EVENTS), min_size=1,
                           max_size=max_events, unique=True))
    delta = EventDelta()
    for event in events:
        delta.add(event, draw(st.floats(0.0, 1e9, allow_nan=False)))
    return delta
