"""CPU-time conservation: the kernel's and procfs's ledgers agree.

The kernel accounts each process's granted CPU time quantum by quantum
(``SimProcess.cpu_time_s``).  Procfs adds, per engine replay, each
(pid, CPU) cell's cycles over its core's frequency and each CPU's busy
time (``ProcFs``).  Both follow one placement, so each pid's two times
agree, and the CPUs' busy times add up to the pids' total, up to float
rounding: a sum of n non-negative addends is within n roundings
(``sys.float_info.epsilon`` of the total each) of the exact sum, and
each procfs addend is a few roundings from the kernel's.  The bound
here allows two roundings per addition on either side.  The kernel sums
a pid's busy fractions before multiplying by the quantum, procfs adds
per (pid, CPU) cell, so a pid with several threads is off by rounding.

Neither ledger may depend on how the run is cut into spans: a SPECjbb
ramp (held placements, replayed as ramp runs) next to three random
tenants (steady phases, replayed as batches) run in spans of 1, 7, 100
and 1 000 quanta must leave the same bits.
"""

import sys

import pytest

from repro.os.kernel import SimKernel
from repro.simcpu.spec import intel_i3_2120
from repro.workloads import RandomWorkload, SpecJbbWorkload

SPEC = intel_i3_2120()
QUANTA = 7000
SPANS = (1, 7, 100, 1000)
#: The SPECjbb tenant's threads; each random tenant has one.
THREADS = (2, 1, 1, 1)


def _bound(total, additions):
    return 2 * additions * sys.float_info.epsilon * total


def _run(span):
    """The tenants run for :data:`QUANTA` quanta in spans of *span*;
    also counts the engine's ramp runs and batches and the placements
    that kept the last one's shape."""
    kernel = SimKernel(SPEC, quantum_s=0.001)
    pids = [kernel.spawn(SpecJbbWorkload(duration_s=20.0, threads=2,
                                         seed=5))]
    pids += [kernel.spawn(RandomWorkload(20.0, seed=seed, mean_phase_s=1.0))
             for seed in (1, 2, 3)]
    engine, scheduler = kernel.machine.engine, kernel.scheduler
    seen = {"runs": 0, "batches": 0, "held": 0}
    replay_run, replay, assign = (engine.replay_run, engine.replay,
                                  scheduler.assign)
    rows = [None]

    def counted_run(first, busy, cpu_busy):
        seen["runs"] += 1
        return replay_run(first, busy, cpu_busy)

    def counted_replay(program, n_ticks):
        seen["batches"] += n_ticks > 1
        return replay(program, n_ticks)

    def counted_assign(demands):
        placement = assign(demands)
        seen["held"] += placement.rows is rows[0]
        rows[0] = placement.rows
        return placement

    engine.replay_run, engine.replay = counted_run, counted_replay
    scheduler.assign = counted_assign
    ran = 0
    while ran < QUANTA:
        ran += kernel.run_span(min(span, QUANTA - ran))
    return kernel, pids, seen


@pytest.fixture(scope="module")
def runs():
    return {span: _run(span) for span in SPANS}


@pytest.mark.parametrize("span", SPANS)
def test_each_pid_has_one_cpu_time(runs, span):
    kernel, pids, _seen = runs[span]
    for pid, threads in zip(pids, THREADS):
        kernel_s = kernel.process(pid).cpu_time_s
        procfs_s = kernel.procfs.process_cpu_time_s(pid)
        assert kernel_s > 0.0
        assert abs(kernel_s - procfs_s) <= _bound(
            kernel_s, QUANTA * (1 + threads))


@pytest.mark.parametrize("span", SPANS)
def test_cpu_busy_adds_up_to_the_pids_total(runs, span):
    kernel, pids, _seen = runs[span]
    procfs = kernel.procfs
    busy_s = [procfs.cpu_busy_time_s(cpu_id)
              for cpu_id in range(SPEC.num_threads)]
    pids_s = [procfs.process_cpu_time_s(pid) for pid in pids]
    total = sum(pids_s)
    additions = QUANTA * (SPEC.num_threads + sum(THREADS)) + len(busy_s)
    assert abs(sum(busy_s) - total) <= _bound(total, additions)


def test_the_ledgers_do_not_depend_on_the_spans(runs):
    def bits(kernel, pids):
        procfs = kernel.procfs
        return ([kernel.process(pid).cpu_time_s.hex() for pid in pids],
                [procfs.process_cpu_time_s(pid).hex() for pid in pids],
                [procfs.cpu_busy_time_s(cpu_id).hex()
                 for cpu_id in range(SPEC.num_threads)])

    one = bits(*runs[1][:2])
    for span in SPANS[1:]:
        assert bits(*runs[span][:2]) == one


def test_the_run_covers_ramp_runs_batches_and_held_placements(runs):
    _kernel, _pids, seen = runs[1000]
    assert seen["runs"] and seen["batches"]
    assert seen["held"] > QUANTA // 10
