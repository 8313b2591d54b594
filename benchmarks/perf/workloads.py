"""The benchmark's four workloads, each run inside its own instance process.

``bench.py`` starts one process per instance and reads back the JSON it
writes.  An instance builds its inputs from ``--seed`` (tenants are
seeded :class:`~repro.workloads.Workload` objects handed to the kernel),
times the run from outside the program, and checks the program's
outputs:

* every CSV row's per-pid estimates plus idle equal its total;
* there is one report per period, none of them a gap;
* every telemetry frame published reaches the subscriber exactly once;
* at seed 0 and full length, the reporter bytes (or the learned model)
  hash to the digest in ``expected.json``.

Live workloads all run the paper's i3-2120 spec and load the committed
``model_i3_2120.json``, which the ``learn`` workload produces at seed 0.
"""

from __future__ import annotations

import csv
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.model import PowerModel
from repro.core.monitor import PowerAPI
from repro.core.reporters import CallbackReporter
from repro.core.sampling import SamplingCampaign, learn_power_model
from repro.os.kernel import SimKernel
from repro.simcpu.spec import intel_i3_2120
from repro.workloads import RandomWorkload, SpecJbbWorkload, Workload

from hostspeed import HostSpeed
from tracer import Tracer, install

HERE = Path(__file__).resolve().parent
MODEL_PATH = HERE / "model_i3_2120.json"
EXPECTED_PATH = HERE / "expected.json"

#: Control-loop actions that move the operating point.
ACTUATIONS = ("step-down", "step-up", "throttle", "unthrottle")
#: Kernel quanta per slice of a live run; host probes go between slices.
SLICE_QUANTA = 100
#: Probes taken right after set-up, to scale the set-up time.
SETUP_PROBES = 20

Tenants = List[Tuple[str, Workload]]


def _tenant_seeds(seed: int, count: int) -> List[int]:
    rng = np.random.default_rng(seed)
    return [int(value) for value in rng.integers(0, 2 ** 31 - 1, count)]


def specjbb_and_random(seed: int, duration_s: float) -> Tenants:
    """A 2-thread SPECjbb-like tenant plus three random-phase tenants."""
    seeds = _tenant_seeds(seed, 4)
    tenants: Tenants = [("specjbb", SpecJbbWorkload(
        duration_s=duration_s, threads=2, seed=seeds[0]))]
    tenants.extend((f"random-{i}", RandomWorkload(duration_s, seed=value))
                   for i, value in enumerate(seeds[1:]))
    return tenants


def random_tenants(count: int) -> Callable[[int, float], Tenants]:
    """*count* single-thread random-phase tenants."""
    def build(seed: int, duration_s: float) -> Tenants:
        return [(f"random-{i}", RandomWorkload(duration_s, seed=value))
                for i, value in enumerate(_tenant_seeds(seed, count))]
    return build


@dataclass(frozen=True)
class Live:
    """One live-monitoring workload: kernel, pipeline and its extras."""

    quantum_s: float
    period_s: float
    duration_s: float
    tenants: Callable[[int, float], Tenants]
    cap_w: Optional[float] = None
    telemetry: bool = False


LIVE: Dict[str, Live] = {
    "live-default": Live(0.001, 1.0, 180.0, specjbb_and_random),
    "live-1ms": Live(0.001, 0.001, 40.0, random_tenants(8)),
    "capped-telemetry": Live(0.001, 0.01, 30.0, random_tenants(4),
                             cap_w=45.0, telemetry=True),
}


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Region:
    """Wall and CPU seconds of one timed region, host probes excluded.

    One probe on each side brackets even a region too short for any
    probe between its slices.
    """

    def __init__(self, host: HostSpeed) -> None:
        self.host = host

    def __enter__(self) -> "_Region":
        self.host.sample(1)
        self._probed = self.host.probe_s
        self._cpu = _cpu_s()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        probed = self.host.probe_s - self._probed
        self.wall_s = time.perf_counter() - self._start - probed
        self.cpu_s = _cpu_s() - self._cpu - probed
        self.host.sample(1)


def _setup_factor() -> float:
    """Host factor right after set-up, before anything is timed."""
    host = HostSpeed()
    host.sample(SETUP_PROBES)
    return host.factor


def _run_sliced(run: Callable[[float], object], quantum_s: float,
                duration_s: float, host: HostSpeed) -> None:
    """``run(duration_s)`` as whole slices of quanta, probing between.

    ``PowerAPI.run`` and ``SimKernel.run`` step ``round(d / quantum)``
    quanta per call, so the slices step exactly the quanta one call would.
    """
    slices, rest = divmod(int(round(duration_s / quantum_s)), SLICE_QUANTA)
    for _ in range(slices):
        run(SLICE_QUANTA * quantum_s)
        host.between_slices()
    if rest:
        run(rest * quantum_s)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _expected_digest(workload: str, key: str) -> Optional[str]:
    expected = json.loads(EXPECTED_PATH.read_text())
    return expected.get(workload, {}).get(key)


def _tenant_duration(duration_s: float) -> float:
    # Tenants outlive the run so no pid exits (and loses its counters)
    # on the last quantum.
    return duration_s + 1.0


class _Truth:
    """True mean wall power per period from ``machine.energy_j`` deltas.

    Registered as a :class:`CallbackReporter`: report ``T`` reaches it
    one period late, so each call records the energy integral at the
    current kernel time, which is the end of a later period.  A report
    is scored when the energy at both ends of its period is known (all
    but the first two).
    """

    def __init__(self, kernel: SimKernel) -> None:
        self.kernel = kernel
        self.energy_j: Dict[int, float] = {0: 0.0}
        self.errors_pct: List[float] = []

    def _key(self, time_s: float) -> int:
        return round(time_s / self.kernel.quantum_s)

    def __call__(self, report) -> None:
        self.energy_j[self._key(self.kernel.time_s)] = \
            self.kernel.machine.energy_j
        end_key = self._key(report.time_s)
        end = self.energy_j.get(end_key)
        start = self.energy_j.get(self._key(report.time_s - report.period_s))
        if end is not None and start is not None:
            true_w = (end - start) / report.period_s
            self.errors_pct.append(
                float(abs(report.total_w - true_w) / true_w * 100.0))
        for key in [key for key in self.energy_j if key < end_key]:
            del self.energy_j[key]


class _Subscriber:
    """One telemetry subscriber in a child process over loopback."""

    def __init__(self, port: int, out: Path) -> None:
        self.out = out
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "bench.py"), "_subscribe",
             "--port", str(port), "--out", str(out)])

    def finish(self, timeout_s: float = 60.0) -> List[Tuple[int, float]]:
        """Wait for the child (it exits when the server closes)."""
        try:
            self.process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            return []
        if self.process.returncode != 0 or not self.out.exists():
            return []
        return [tuple(entry)
                for entry in json.loads(self.out.read_text())["received"]]


def subscribe(port: int, out: Path) -> None:
    """Child-process body: record (seq, receipt time) until the stream ends."""
    from repro.telemetry.client import TelemetryClient
    received = []
    with TelemetryClient("127.0.0.1", port, read_timeout_s=None) as client:
        for event in client.events():
            received.append((event.seq, time.monotonic()))
    out.write_text(json.dumps({"received": received}))


def _check_csv(path: Path, period_s: float, expected: int,
               pids: int) -> Tuple[Dict[str, bool], int, int]:
    """(checks, gap periods, missing or surplus reports) of one CSV."""
    # Values are printed to 4 decimals, so each may be off by 5e-5.
    tolerance = 5e-5 * (pids + 2) + 1e-9
    sums_ok = regular = True
    gaps = rows = 0
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        for row in reader:
            rows += 1
            total, idle = float(row[1]), float(row[2])
            by_pid = sum(float(value) for value in row[3:3 + pids])
            sums_ok &= abs(total - idle - by_pid) <= tolerance
            regular &= round(float(row[0]) / period_s) == rows
            gaps += row[3 + pids] != "0"
    checks = {"pid-estimates-plus-idle-equal-total": sums_ok,
              "one-report-per-period": regular}
    return checks, gaps, abs(expected - rows)


def _latency_ms(publish_times: List[float],
                received: List[Tuple[int, float]]) -> List[float]:
    return sorted((at - publish_times[seq]) * 1000.0
                  for seq, at in received if seq < len(publish_times))


def run_live(name: str, seed: int, scale: float, out: Path,
             tracer=None, setup_only: bool = False) -> dict:
    config = LIVE[name]
    duration_s = config.duration_s * scale
    kernel = SimKernel(intel_i3_2120(), quantum_s=config.quantum_s)
    pids = [kernel.spawn(workload, name=tenant) for tenant, workload
            in config.tenants(seed, _tenant_duration(duration_s))]
    model = PowerModel.from_json(MODEL_PATH.read_text())
    api = PowerAPI(kernel, model, period_s=config.period_s)
    truth = _Truth(kernel)
    builder = api.monitor(*pids).every(config.period_s)
    if config.cap_w is not None:
        builder.cap(config.cap_w)
    if config.telemetry:
        builder.with_telemetry(overflow="block")
    report_path = out / "report.csv"
    spec = builder.spec().with_reporter(
        "csv", path=str(report_path), control=config.cap_w is not None)
    handle = api.start_pipeline(spec, reporters=(CallbackReporter(truth),))
    server = api.telemetry_servers[0] if config.telemetry else None
    subscriber = None
    try:
        if server is not None:
            subscriber = _Subscriber(server.port, out / "subscriber.json")
            if not server.wait_for_subscribers(1, timeout=60.0):
                raise RuntimeError("telemetry subscriber never connected")
        ready = time.monotonic()
        setup_factor = _setup_factor()
        if setup_only:
            return {"ready": ready, "setup_factor": setup_factor}
        host = HostSpeed()
        if tracer is not None:
            tracer.reset()
        published = 0
        with _Region(host) as region:
            _run_sliced(api.run, config.quantum_s, duration_s, host)
            if server is not None:
                # Publish the final period and let it drain before the
                # server closes, so every frame has a chance to arrive.
                api.flush()
                stats = server.stats()
                published = (stats["reports_published"]
                             + stats["health_published"]
                             + stats["gaps_published"])
                server.wait_until_sent(published, timeout=60.0)
            api.shutdown()
        rss_mb = _rss_mb()
    finally:
        api.shutdown()
        received = subscriber.finish() if subscriber is not None else []

    expected = int(round(duration_s / config.period_s))
    checks, gaps, missing = _check_csv(report_path, config.period_s,
                                       expected, len(pids))
    seqs = [seq for seq, _at in received]
    undelivered = published - len(set(seqs))
    if server is not None:
        checks["telemetry-exactly-once"] = sorted(seqs) == list(
            range(published))
    digest = _sha256(report_path)
    if seed == 0 and scale == 1.0:
        checks["report-digest"] = digest == _expected_digest(
            name, "report_sha256")
    result = {
        "ready": ready, "setup_factor": setup_factor,
        "wall_s": region.wall_s, "cpu_s": region.cpu_s,
        "host_factor": host.factor, "sim_s": kernel.time_s, "rss_mb": rss_mb,
        "median_ape_pct": statistics.median(truth.errors_pct),
        "attempted": expected + published + len(checks),
        "failed": gaps + missing + undelivered
        + sum(not ok for ok in checks.values()),
        "checks": checks, "digests": {"report_sha256": digest},
    }
    if tracer is not None:
        layers = tracer_layers(tracer, region.wall_s)
        if handle.control is not None:
            layers["control.actuations"] = sum(
                event.action in ACTUATIONS for event in handle.control.events)
        if server is not None:
            latency = _latency_ms(tracer.publish_times, received)
            layers.update({
                "telemetry.frames_published": published,
                "telemetry.frames_delivered": len(seqs),
                "telemetry.stalls": server.stalls,
                "telemetry.deliver_samples": len(latency),
            })
            if latency:
                layers["telemetry.deliver_p50_ms"] = statistics.median(
                    latency)
                layers["telemetry.deliver_p99_ms"] = latency[
                    int(0.99 * (len(latency) - 1))]
        result["layers"] = layers
    if all(checks.values()):
        report_path.unlink()
    return result


def run_learn(seed: int, scale: float, out: Path, tracer=None,
              setup_only: bool = False) -> dict:
    """The Figure 1 campaign: full grid, 4 windows, NNLS, one worker."""
    spec = intel_i3_2120()
    window_s, windows, settle_s, idle_s = 1.0 * scale, 4, 0.5 * scale, \
        20.0 * scale
    campaign = SamplingCampaign(
        spec, window_s=window_s, windows_per_run=windows, settle_s=settle_s,
        quantum_s=0.01, meter_seed=1234 + seed)
    runs = len(campaign.run_plan())
    ready = time.monotonic()
    setup_factor = _setup_factor()
    if setup_only:
        return {"ready": ready, "setup_factor": setup_factor}
    if tracer is not None:
        tracer.reset()
    host = HostSpeed()
    # The campaign is one call; its kernel runs are where probes fit.
    kernel_run = SimKernel.run

    def run_then_probe(kernel, duration_s):
        host.between_slices()
        return kernel_run(kernel, duration_s)

    SimKernel.run = run_then_probe
    try:
        with _Region(host) as region:
            learned = learn_power_model(spec, method="nnls",
                                        campaign=campaign,
                                        idle_duration_s=idle_s, workers=1)
    finally:
        SimKernel.run = kernel_run
    rss_mb = _rss_mb()

    model = learned.model
    model_path = out / "model.json"
    model_path.write_text(model.to_json() + "\n")
    errors = [abs(model.predict_total(point.frequency_hz, point.rates)
                  - point.power_w) / point.power_w * 100.0
              for point in learned.dataset.points]
    expected = runs * windows
    checks = {
        "formula-per-frequency":
            model.frequencies_hz == tuple(sorted(spec.all_frequencies_hz)),
        "coefficients-non-negative": all(
            weight >= 0.0 for frequency in model.frequencies_hz
            for weight in model.formula(frequency).coefficients.values()),
    }
    digest = _sha256(model_path)
    if seed == 0 and scale == 1.0:
        checks["model-digest"] = digest == _expected_digest(
            "learn", "model_sha256")
    result = {
        "ready": ready, "setup_factor": setup_factor,
        "wall_s": region.wall_s, "cpu_s": region.cpu_s,
        "host_factor": host.factor,
        "sim_s": runs * (settle_s + windows * window_s) + idle_s,
        "rss_mb": rss_mb,
        "median_ape_pct": statistics.median(errors),
        "attempted": expected + len(checks),
        "failed": abs(expected - len(learned.dataset))
        + sum(not ok for ok in checks.values()),
        "checks": checks, "digests": {"model_sha256": digest},
    }
    if tracer is not None:
        result["layers"] = tracer_layers(tracer, region.wall_s)
    return result


def run_bare(name: str, seed: int, scale: float) -> dict:
    """The live workload's tenants on a bare kernel (``SimKernel.run``)."""
    config = LIVE[name]
    duration_s = config.duration_s * scale
    kernel = SimKernel(intel_i3_2120(), quantum_s=config.quantum_s)
    for tenant, workload in config.tenants(
            seed, _tenant_duration(duration_s)):
        kernel.spawn(workload, name=tenant)
    ready = time.monotonic()
    host = HostSpeed()
    with _Region(host) as region:
        _run_sliced(kernel.run, config.quantum_s, duration_s, host)
    return {"ready": ready, "wall_s": region.wall_s,
            "host_factor": host.factor}


def tracer_layers(tracer, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics common to every workload, from one traced run."""
    stats, counts = tracer.stats, tracer.counts

    def calls(name: str) -> int:
        return stats.get(name, (0, 0.0))[0]

    def total(name: str) -> float:
        return stats.get(name, (0, 0.0))[1]

    program_calls = calls("simcpu.program")
    dispatches = calls("actors.dispatch")
    self_seconds = tracer.self_seconds()
    layers: Dict[str, float] = dict(self_seconds)
    layers.update({
        "simcpu.ticks": counts.get("simcpu.ticks", 0),
        "simcpu.step_calls": calls("simcpu.step") + calls("simcpu.run_batch"),
        "simcpu.compiles": counts.get("simcpu.compiles", 0),
        "simcpu.program_hit_ratio": (
            1.0 - counts.get("simcpu.compiles", 0) / program_calls
            if program_calls else 0.0),
        "simcpu.machines_built": calls("simcpu.machine_init"),
        "os.ticks": calls("os.tick"),
        "os.pstate_changes": tracer.pstate_changes(),
        "os.procfs_observer_calls": calls("os.procfs_observer"),
        "perf.observer_calls": calls("perf.observer"),
        "perf.reads": calls("perf.read"),
        "powermeter.observer_calls": calls("powermeter.observer"),
        "actors.dispatch_calls": dispatches,
        "actors.messages": counts.get("actors.messages", 0),
        "actors.publishes": calls("actors.publish"),
        "actors.clock_ticks": counts.get("actors.clock_ticks", 0),
        "actors.empty_dispatch_ratio": (
            counts.get("actors.empty_dispatches", 0) / dispatches
            if dispatches else 0.0),
        "core.sensors.messages": calls("core.sensors"),
        "core.formula.messages": calls("core.formula"),
        "core.aggregators.messages": calls("core.aggregators"),
        "core.reporters.messages": calls("core.reporters"),
        "faults.messages": calls("faults"),
        "control.messages": calls("control"),
        "control.actuations": 0,
        "telemetry.bytes_encoded": counts.get("telemetry.bytes_encoded", 0),
        "telemetry.frames_published": 0,
        "telemetry.frames_delivered": 0,
        "telemetry.stalls": 0,
        "telemetry.deliver_samples": 0,
        "telemetry.deliver_p50_ms": 0.0,
        "telemetry.deliver_p99_ms": 0.0,
        "core.sampling.runs": calls("os.run"),
        "core.sampling.kernel_run_s": total("os.run"),
        "core.calibration.idle_s": total("core.calibration"),
        "trace.unattributed_s": wall_s - sum(self_seconds.values()),
    })
    return layers


def run(workload: str, seed: int, scale: float, out: Path, trace: bool,
        setup_only: bool, bare: bool) -> dict:
    """One instance: what ``bench.py _instance`` runs and records."""
    tracer = None
    if trace:
        tracer = Tracer()
        install(tracer)
    if bare:
        return run_bare(workload, seed, scale)
    if workload == "learn":
        result = run_learn(seed, scale, out, tracer, setup_only)
    else:
        result = run_live(workload, seed, scale, out, tracer, setup_only)
    if tracer is not None and not setup_only:
        tracer.write_spans(out / f"trace-{workload}.jsonl")
    return result
