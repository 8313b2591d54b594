"""Simulator performance microbenchmark.

Records the numbers the ROADMAP's "as fast as the hardware allows" goal
is tracked by:

* ``steady_quanta_per_sec`` — :meth:`SimKernel.run` quanta per wall
  second at the live runs' 1 ms quantum on a steady 4-thread
  :class:`CpuStress`: one poll per steady run and one engine replay,
* ``ramp_quanta_per_sec`` — the same on a 2-thread
  :class:`SpecJbbWorkload` inside its ramp, where the demand moves on
  every quantum: each quantum pays a poll and a placement, and the
  engine holds the quanta that share one layout as a ramp run, filled
  as numpy columns and replayed once per run (one 5 000-quantum span,
  so runs end at ``FOLD_CHUNK_ROWS`` quanta; the ramp is most of the
  canonical live run's wall time),
* ``campaign_wall_by_workers`` — wall time of the default Figure 1
  sampling campaign (840 runs) at 1, 2 and 4 pool workers, with the
  chunked per-worker dispatch.

Every region is timed ``REPEATS`` times, each time on a fresh kernel
(or the same campaign) bracketed by its own host-speed probes
(``perf/hostspeed.py``): its seconds are divided by its own host factor,
as the repo benchmark does, so a trend compares code rather than hosts.
Each figure is the median of those runs, and ``spread`` records their
min and max next to it: single runs of unchanged code read
``ramp_quanta_per_sec`` anywhere from 12 416 to 14 790.
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
import statistics
from pathlib import Path
from typing import Callable, Dict, List

import pytest
from conftest import HostSpeed, probed_seconds

from repro.core.sampling import SamplingCampaign
from repro.os.kernel import SimKernel
from repro.simcpu import intel_i3_2120
from repro.workloads import CpuStress, SpecJbbWorkload, Workload

pytestmark = pytest.mark.perf

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_sim.json"

#: The live runs' scheduling quantum.
QUANTUM_S = 0.001
#: Simulated seconds timed on the steady tenant.
STEADY_S = 100.0
#: Simulated seconds timed on the ramping tenant; its ramp lasts 12% of
#: its 180 s trace (21.6 s), so the whole window ramps.
RAMP_S = 5.0
#: Timed runs per region; a figure is their median.
REPEATS = 5


def _timed(run: Callable[[], object], factors: List[float]) -> float:
    """Wall seconds of ``run()`` at the reference host speed; appends
    the run's own host factor to *factors*."""
    host = HostSpeed()
    seconds = probed_seconds(host, run)
    factors.append(host.factor)
    return seconds / host.factor


def _kernel_run(make_workload: Callable[[], Workload], duration_s: float):
    """A fresh kernel with one tenant, set up; returns its timed run."""
    kernel = SimKernel(intel_i3_2120(), quantum_s=QUANTUM_S)
    kernel.spawn(make_workload())
    kernel.run(10 * QUANTUM_S)  # lazy set-up happens before timing
    return lambda: kernel.run(duration_s)


def _summary(values: List[float], digits: int) -> Dict[str, float]:
    return {"median": round(statistics.median(values), digits),
            "min": round(min(values), digits),
            "max": round(max(values), digits)}


def test_perf_sim_microbench():
    factors: List[float] = []

    def rates(make_workload, duration_s):
        return _summary([
            round(duration_s / QUANTUM_S)
            / _timed(_kernel_run(make_workload, duration_s), factors)
            for _ in range(REPEATS)], 1)

    steady = rates(lambda: CpuStress(threads=4), STEADY_S)
    ramp = rates(lambda: SpecJbbWorkload(duration_s=180.0, threads=2),
                 RAMP_S)

    # -- default campaign wall time at 1/2/4 workers --------------------
    campaign = SamplingCampaign(intel_i3_2120(), window_s=1.0,
                                windows_per_run=2)
    walls = {}
    datasets = {}
    for workers in (1, 2, 4):
        def run(workers=workers):
            datasets[workers] = campaign.run(workers=workers)
        walls[str(workers)] = _summary(
            [_timed(run, factors) for _ in range(REPEATS)], 3)
    assert len(datasets[1]) == len(datasets[2]) == len(datasets[4]) > 0
    assert steady["min"] > 0 and ramp["min"] > 0

    results = {
        "steady_quanta_per_sec": steady["median"],
        "ramp_quanta_per_sec": ramp["median"],
        "steady_sim_s_timed": STEADY_S,
        "ramp_sim_s_timed": RAMP_S,
        "quantum_s": QUANTUM_S,
        "campaign_wall_s": walls["4"]["median"],
        "campaign_wall_serial_s": walls["1"]["median"],
        "campaign_wall_by_workers": {
            workers: wall["median"] for workers, wall in walls.items()},
        "campaign_workers": 4,
        "campaign_runs": len(campaign.run_plan()),
        "repeats": REPEATS,
        "spread": {
            "steady_quanta_per_sec": [steady["min"], steady["max"]],
            "ramp_quanta_per_sec": [ramp["min"], ramp["max"]],
            "campaign_wall_by_workers": {
                workers: [wall["min"], wall["max"]]
                for workers, wall in walls.items()},
        },
        "host_cpus": os.cpu_count(),
        "host_factor": round(statistics.median(factors), 4),
        "python": platform.python_version(),
    }
    BENCH_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    by_workers = results["campaign_wall_by_workers"]
    print(f"\nmedians of {REPEATS}: quanta/sec steady: "
          f"{steady['median']:,.0f}  ramp: {ramp['median']:,.0f}  "
          f"campaign workers 1/2/4: "
          f"{by_workers['1']}/{by_workers['2']}/{by_workers['4']}s  "
          f"(host factor {results['host_factor']:.3f}) "
          f"-> {BENCH_PATH.name}")
