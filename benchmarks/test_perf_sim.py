"""Simulator performance microbenchmark.

Records the numbers the ROADMAP's "as fast as the hardware allows" goal
is tracked by:

* ``ticks_per_sec`` — single-process :meth:`Machine.step` throughput on
  a fully loaded i3-2120 (the hot path under every campaign and monitor),
* ``batched_ticks_per_sec`` — :meth:`Machine.run_batch` throughput for
  the same occupancy, the path campaigns and soaks advance thousands of
  ticks per Python-level call on,
* ``campaign_wall_by_workers`` — wall time of the default Figure 1
  sampling campaign (840 runs) at 1, 2 and 4 pool workers, with the
  chunked per-worker dispatch.

Results are written to ``BENCH_sim.json`` at the repository root so
future PRs can diff the perf trajectory (``benchmarks/diff_bench.py``
does exactly that in CI).  Marked ``perf``: the tier-1 suite
(``testpaths = ["tests"]``) never collects it; run it explicitly with
``PYTHONPATH=src python -m pytest benchmarks/test_perf_sim.py -q``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro.core.sampling import SamplingCampaign
from repro.simcpu import (InstructionMix, Machine, MemoryProfile,
                          ThreadAssignment, intel_i3_2120)

pytestmark = pytest.mark.perf

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_sim.json"

#: Steps for the Machine.step throughput measurement.
STEP_TICKS = 4000
#: Steps for the Machine.run_batch throughput measurement.
BATCH_TICKS = 200_000


def _full_load_assignments(spec):
    """One busy thread per logical CPU with mixed cpu/memory profiles."""
    assignments = []
    for cpu_id in range(spec.num_threads):
        memory_bound = cpu_id % 2 == 1
        assignments.append(ThreadAssignment(
            pid=100 + cpu_id, cpu_id=cpu_id, busy_fraction=0.9,
            mix=InstructionMix(fp_fraction=0.1 if memory_bound else 0.05),
            memory=MemoryProfile(
                mem_ops_per_instruction=0.4 if memory_bound else 0.15,
                working_set_bytes=(32 * 1024 * 1024 if memory_bound
                                   else 8 * 1024),
                locality=0.75 if memory_bound else 0.99),
        ))
    return assignments


def test_perf_sim_microbench():
    spec = intel_i3_2120()

    # -- Machine.step throughput (tick-at-a-time façade) ---------------
    machine = Machine(spec)
    assignments = _full_load_assignments(spec)
    for _ in range(200):  # warm every memo cache before timing
        machine.step(assignments, dt_s=0.01)
    start = time.perf_counter()
    for _ in range(STEP_TICKS):
        machine.step(assignments, dt_s=0.01)
    step_elapsed = time.perf_counter() - start
    ticks_per_sec = STEP_TICKS / step_elapsed

    # -- Machine.run_batch throughput (batched engine) -----------------
    machine = Machine(spec)
    machine.run_batch(assignments, 200, dt_s=0.01)  # warm the program
    start = time.perf_counter()
    machine.run_batch(assignments, BATCH_TICKS, dt_s=0.01)
    batch_elapsed = time.perf_counter() - start
    batched_ticks_per_sec = BATCH_TICKS / batch_elapsed

    # -- default campaign wall time at 1/2/4 workers --------------------
    campaign = SamplingCampaign(spec, window_s=1.0, windows_per_run=2)
    wall_by_workers = {}
    datasets = {}
    for workers in (1, 2, 4):
        start = time.perf_counter()
        datasets[workers] = campaign.run(workers=workers)
        wall_by_workers[str(workers)] = round(time.perf_counter() - start, 3)
    assert len(datasets[1]) == len(datasets[2]) == len(datasets[4]) > 0
    assert ticks_per_sec > 0

    results = {
        "ticks_per_sec": round(ticks_per_sec, 1),
        "batched_ticks_per_sec": round(batched_ticks_per_sec, 1),
        "batch_ticks_timed": BATCH_TICKS,
        "campaign_wall_s": wall_by_workers["4"],
        "campaign_wall_serial_s": wall_by_workers["1"],
        "campaign_wall_by_workers": wall_by_workers,
        "campaign_workers": 4,
        "campaign_runs": len(campaign.run_plan()),
        "host_cpus": os.cpu_count(),
        "step_ticks_timed": STEP_TICKS,
        "python": platform.python_version(),
    }
    BENCH_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\nticks/sec: {ticks_per_sec:,.0f}  "
          f"batched: {batched_ticks_per_sec:,.0f}  "
          f"campaign workers 1/2/4: "
          f"{wall_by_workers['1']}/{wall_by_workers['2']}/"
          f"{wall_by_workers['4']}s  -> {BENCH_PATH.name}")
