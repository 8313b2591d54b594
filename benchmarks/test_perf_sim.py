"""Simulator performance microbenchmark.

Records the numbers the ROADMAP's "as fast as the hardware allows" goal
is tracked by:

* ``steady_quanta_per_sec`` — :meth:`SimKernel.run` quanta per wall
  second at the live runs' 1 ms quantum on a steady 4-thread
  :class:`CpuStress`: one poll per steady run and one engine replay,
* ``ramp_quanta_per_sec`` — the same on a 2-thread
  :class:`SpecJbbWorkload` inside its ramp, where the demand moves on
  every quantum, so each quantum pays a poll, a placement, a compile and
  a one-tick replay (most of the canonical live run's wall time),
* ``campaign_wall_by_workers`` — wall time of the default Figure 1
  sampling campaign (840 runs) at 1, 2 and 4 pool workers, with the
  chunked per-worker dispatch.

Every timed region is bracketed by host-speed probes
(``perf/hostspeed.py``), and every figure is at the reference host
speed: measured seconds are divided by the recorded ``host_factor``, as
the repo benchmark does, so a trend compares code rather than hosts.
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
from pathlib import Path

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


def _run_seconds(workload: Workload, duration_s: float,
                 host: HostSpeed) -> float:
    """Wall seconds of one :meth:`SimKernel.run` on one tenant."""
    kernel = SimKernel(intel_i3_2120(), quantum_s=QUANTUM_S)
    kernel.spawn(workload)
    kernel.run(10 * QUANTUM_S)  # lazy set-up happens before timing
    return probed_seconds(host, lambda: kernel.run(duration_s))


def test_perf_sim_microbench():
    host = HostSpeed()
    steady_s = _run_seconds(CpuStress(threads=4), STEADY_S, host)
    ramp_s = _run_seconds(SpecJbbWorkload(duration_s=180.0, threads=2),
                          RAMP_S, host)

    # -- default campaign wall time at 1/2/4 workers --------------------
    campaign = SamplingCampaign(intel_i3_2120(), window_s=1.0,
                                windows_per_run=2)
    seconds_by_workers = {}
    datasets = {}
    for workers in (1, 2, 4):
        def run(workers=workers):
            datasets[workers] = campaign.run(workers=workers)
        seconds_by_workers[workers] = probed_seconds(host, run)
    assert len(datasets[1]) == len(datasets[2]) == len(datasets[4]) > 0

    factor = host.factor
    steady = round(STEADY_S / QUANTUM_S) / (steady_s / factor)
    ramp = round(RAMP_S / QUANTUM_S) / (ramp_s / factor)
    wall_by_workers = {str(workers): round(seconds / factor, 3)
                       for workers, seconds in seconds_by_workers.items()}
    assert steady > 0 and ramp > 0

    results = {
        "steady_quanta_per_sec": round(steady, 1),
        "ramp_quanta_per_sec": round(ramp, 1),
        "steady_sim_s_timed": STEADY_S,
        "ramp_sim_s_timed": RAMP_S,
        "quantum_s": QUANTUM_S,
        "campaign_wall_s": wall_by_workers["4"],
        "campaign_wall_serial_s": wall_by_workers["1"],
        "campaign_wall_by_workers": wall_by_workers,
        "campaign_workers": 4,
        "campaign_runs": len(campaign.run_plan()),
        "host_cpus": os.cpu_count(),
        "host_factor": round(factor, 4),
        "python": platform.python_version(),
    }
    BENCH_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\nquanta/sec steady: {steady:,.0f}  ramp: {ramp:,.0f}  "
          f"campaign workers 1/2/4: "
          f"{wall_by_workers['1']}/{wall_by_workers['2']}/"
          f"{wall_by_workers['4']}s  (host factor {factor:.3f}) "
          f"-> {BENCH_PATH.name}")
