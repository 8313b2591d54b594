"""Monitoring overhead vs sampling period (the paper's Section 5 axis).

PowerAPI's pitch is "runtime overhead proportional to the sampling
frequency": the paper reports sub-1% CPU overhead at 1 Hz and a few
percent at millisecond periods.  This harness measures the analogue in
the simulator: wall time of driving the kernel bare (``kernel.run``)
vs driving the same workload through the full Figure-2 monitoring
pipeline, at sampling periods from 1 ms to 1 s.

Per period the result records ``bare_wall_s``, ``monitored_wall_s``
and ``overhead_pct``.  The ratio divides by the bare run, which gets
nearly free whenever the simulator gets faster, so each period also
records the monitor's cost in its own terms, as the RAPL-overhead study
(arXiv:2604.26815) states it: ``core_share``, the monitor's wall
seconds ``monitored - bare`` per simulated second (the share of one
core it would take on a host running in real time), and
``monitor_us_per_period``, those seconds per report (one pid here).
Two more rows monitor 8 and 64 one-thread ``CpuStress`` pids at 1 ms,
each against a bare run of the same pids, because the monitor's
per-period cost grows with the pids it covers
(``core_share_8pids_at_1ms``, ``core_share_64pids_at_1ms``; the 64-pid
row runs a shorter span).  Each also records
``monitor_us_per_pid_period``, its cost per report divided by its pids.
Every timed run is bracketed by host-speed probes
(``perf/hostspeed.py``), and every time is at the reference host speed:
measured seconds are divided by the recorded ``host_factor``, as the
repo benchmark does (the overhead ratio is unaffected).  The headlines
``overhead_at_1s_pct`` / ``overhead_at_1ms_pct`` and
``core_share_at_1s`` / ``core_share_at_1ms`` /
``core_share_8pids_at_1ms`` / ``core_share_64pids_at_1ms`` are diffed by
CI against the committed ``BENCH_overhead.json`` baseline.  Marked ``perf``: run
explicitly with
``PYTHONPATH=src python -m pytest benchmarks/test_bench_overhead.py -q``.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import pytest
from conftest import HostSpeed, probed_seconds

from repro.core.model import FrequencyFormula, PowerModel
from repro.core.monitor import PowerAPI
from repro.core.reporters import InMemoryReporter
from repro.os.kernel import SimKernel
from repro.simcpu.spec import intel_i3_2120
from repro.workloads.stress import CpuStress

pytestmark = pytest.mark.perf

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_overhead.json"

#: Sampling periods swept, seconds (1 ms up to the paper's 1 s default).
PERIODS_S = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0)
#: Simulated duration per measurement.
DURATION_S = 20.0
#: Kernel quantum: fine enough to honour the 1 ms sampling period.
QUANTUM_S = 0.001
#: Repetitions per period (median taken) to tame scheduler noise.
REPEATS = 3
#: The multi-pid rows, monitored at 1 ms: one-thread pids, and the
#: simulated seconds each row runs.
MANY_PIDS_ROWS = ((8, DURATION_S), (64, 2.5))
MANY_PIDS_PERIOD_S = 0.001


def frequency_model(spec):
    formulas = []
    for frequency in spec.frequencies_hz:
        scale = (frequency / spec.max_frequency_hz) ** 3
        formulas.append(FrequencyFormula(frequency, {
            "instructions": 2.8e-9 * scale,
            "cache-references": 3.8e-8 * scale,
            "cache-misses": 3.5e-7 * scale,
        }))
    return PowerModel(idle_w=31.48, formulas=formulas,
                      name="bench-overhead")


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def spawn_workload(kernel, pids=1):
    """One 4-thread ``CpuStress``, or *pids* one-thread ones."""
    if pids == 1:
        return [kernel.spawn(CpuStress(utilization=1.0, threads=4,
                                       duration_s=DURATION_S * 2),
                             name="workload")]
    return [kernel.spawn(CpuStress(utilization=1.0, threads=1,
                                   duration_s=DURATION_S * 2),
                         name=f"workload-{index}")
            for index in range(pids)]


def run_bare(host, pids=1, duration_s=DURATION_S):
    kernel = SimKernel(intel_i3_2120(), quantum_s=QUANTUM_S)
    spawn_workload(kernel, pids)
    return probed_seconds(host, lambda: kernel.run(duration_s))


def run_monitored(model, period_s, host, pids=1, duration_s=DURATION_S):
    kernel = SimKernel(intel_i3_2120(), quantum_s=QUANTUM_S)
    monitored = spawn_workload(kernel, pids)
    api = PowerAPI(kernel, model, period_s=period_s)
    memory = InMemoryReporter()
    api.monitor(*monitored).every(period_s).to(memory)
    elapsed = probed_seconds(host, lambda: api.run(duration_s))
    reports = len(memory.total_series())
    api.shutdown()
    return elapsed, reports


def test_monitoring_overhead_curve(save_result):
    model = frequency_model(intel_i3_2120())
    host = HostSpeed()
    bare_raw_s = _median([run_bare(host) for _ in range(REPEATS)])
    monitored = {}
    for period_s in PERIODS_S:
        samples = [run_monitored(model, period_s, host)
                   for _ in range(REPEATS)]
        monitored[period_s] = (_median([wall for wall, _ in samples]),
                               samples[0][1])
    many_raw = []
    for pids, duration_s in MANY_PIDS_ROWS:
        many_bare_raw_s = _median([run_bare(host, pids, duration_s)
                                   for _ in range(REPEATS)])
        samples = [run_monitored(model, MANY_PIDS_PERIOD_S, host, pids,
                                 duration_s) for _ in range(REPEATS)]
        many_raw.append((pids, duration_s, many_bare_raw_s, samples))
    factor = host.factor
    bare_wall_s = bare_raw_s / factor

    curve = []
    lines = [f"bare kernel: {bare_wall_s:.3f}s wall for {DURATION_S:.0f}s "
             f"simulated (quantum {QUANTUM_S * 1000:.0f} ms), at the "
             f"reference host speed (host factor {factor:.3f})",
             "",
             f"{'period':>8} {'monitored s':>12} {'overhead %':>11} "
             f"{'reports':>8} {'core share':>11} {'us/period':>10}"]
    for period_s in PERIODS_S:
        monitored_raw_s, reports = monitored[period_s]
        monitored_wall_s = monitored_raw_s / factor
        monitor_s = monitored_wall_s - bare_wall_s
        overhead_pct = monitor_s / bare_wall_s * 100.0
        core_share = monitor_s / DURATION_S
        monitor_us = monitor_s / reports * 1e6
        # Sanity, not timing: every sampling period produced a report.
        assert reports >= int(DURATION_S / period_s) - 2
        curve.append({
            "period_s": period_s,
            "monitored_wall_s": round(monitored_wall_s, 4),
            "overhead_pct": round(overhead_pct, 2),
            "reports": reports,
            "core_share": round(core_share, 6),
            "monitor_us_per_period": round(monitor_us, 2),
        })
        lines.append(f"{period_s * 1000:>6.0f}ms {monitored_wall_s:>12.3f} "
                     f"{overhead_pct:>11.2f} {reports:>8} "
                     f"{core_share:>11.6f} {monitor_us:>10.2f}")

    lines.append("")
    many_pids = []
    for pids, duration_s, many_bare_raw_s, samples in many_raw:
        many_bare_s = many_bare_raw_s / factor
        many_monitored_s = _median([wall for wall, _ in samples]) / factor
        many_reports = samples[0][1]
        assert many_reports >= int(duration_s / MANY_PIDS_PERIOD_S) - 2
        many_share = (many_monitored_s - many_bare_s) / duration_s
        many_us = (many_monitored_s - many_bare_s) / many_reports * 1e6
        many_pids.append({
            "pids": pids,
            "period_s": MANY_PIDS_PERIOD_S,
            "duration_s": duration_s,
            "bare_wall_s": round(many_bare_s, 4),
            "monitored_wall_s": round(many_monitored_s, 4),
            "reports": many_reports,
            "core_share": round(many_share, 6),
            "monitor_us_per_period": round(many_us, 2),
            "monitor_us_per_pid_period": round(many_us / pids, 3),
        })
        lines.append(f"{pids} one-thread pids at "
                     f"{MANY_PIDS_PERIOD_S * 1000:.0f} ms over "
                     f"{duration_s:g} s: bare {many_bare_s:.3f}s, monitored "
                     f"{many_monitored_s:.3f}s, core share "
                     f"{many_share:.6f}, {many_us:.2f} us/period, "
                     f"{many_us / pids:.3f} us/pid/period")
    share_of = {row["pids"]: row["core_share"] for row in many_pids}

    # The paper's proportionality claim: cost rises monotonically-ish as
    # the period shrinks; enforce only the endpoints (timing noise).
    at = {point["period_s"]: point["overhead_pct"] for point in curve}
    share = {point["period_s"]: point["core_share"] for point in curve}
    results = {
        "machine": platform.machine(),
        "python": platform.python_version(),
        "duration_s": DURATION_S,
        "quantum_s": QUANTUM_S,
        "bare_wall_s": round(bare_wall_s, 4),
        "host_factor": round(factor, 4),
        "overhead_at_1s_pct": at[1.0],
        "overhead_at_1ms_pct": at[0.001],
        "core_share_at_1s": share[1.0],
        "core_share_at_1ms": share[0.001],
        "core_share_8pids_at_1ms": share_of[8],
        "core_share_64pids_at_1ms": share_of[64],
        "curve": curve,
        "many_pids": many_pids,
    }
    BENCH_PATH.write_text(json.dumps(results, indent=2, sort_keys=True)
                          + "\n")
    lines.append("")
    lines.append(f"overhead 1 s: {at[1.0]:.2f}%, 1 ms: {at[0.001]:.2f}%; "
                 f"core share 1 s: {share[1.0]:.6f}, "
                 f"1 ms: {share[0.001]:.6f}, 8 and 64 pids at 1 ms: "
                 f"{share_of[8]:.6f}, {share_of[64]:.6f} -> "
                 f"{BENCH_PATH.name}")
    save_result("bench_overhead", "\n".join(lines))
