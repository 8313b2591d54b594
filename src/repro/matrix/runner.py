"""Execute matrix cells and whole campaigns.

One cell = one seeded virtual-time pipeline: a fresh
:class:`~repro.os.kernel.SimKernel` on the cell's CPU preset and
governor, the cell's workload spawned on it, a monitoring pipeline at
the cell's period with the cell's fault plan and power cap, and — for
telemetry variants — a loopback TCP telemetry session whose subscriber
socket is wrapped by the cell's
:class:`~repro.faults.network.NetworkFaultInjector` driven by the
*kernel's* virtual clock, so network chaos lands at deterministic
points of the run.

The sim side is deterministic end to end (same seed → bit-identical
reports, health log and cap events; the ``determinism`` invariant
re-runs it to prove that per cell).  The telemetry side crosses real
threads and sockets, so frame *identity* under chaos can vary run to
run — but the invariant verdicts are designed to be stable: a reset
against a no-replay stream always silently loses at least one frame,
and a replay-enabled stream always recovers every frame.

Campaigns fan cells out over :func:`repro.core.parallel.run_tasks`
worker processes and assemble one JSON-ready report; failing cells are
handed to :mod:`repro.matrix.shrink` for delta-debugging.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.messages import HealthEvent
from repro.core.model import FrequencyFormula, PowerModel
from repro.core.monitor import PowerAPI
from repro.core.parallel import run_tasks
from repro.core.reporters import InMemoryReporter
from repro.errors import ReproError
from repro.faults.network import NetworkFaultInjector, NetworkFaultPlan
from repro.matrix.invariants import (CellObservations, ReceivedFrame,
                                     TelemetryObservations, Violation,
                                     evaluate, net_plan_summary)
from repro.matrix.spec import MatrixCell, MatrixSpec
from repro.os.governor import GOVERNORS
from repro.os.kernel import SimKernel
from repro.simcpu.spec import preset
from repro.workloads import WORKLOADS

#: The fixed per-frequency calibration every cell's estimator uses
#: (the fault-suite fixture model): cells compare *configurations*,
#: not model quality, so a learned model would only add noise.
MODEL_COEFFS = {"instructions": 3e-9, "cache-references": 2e-8,
                "cache-misses": 2e-7}
MODEL_IDLE_W = 31.48

_SENTINEL_KIND = "matrix-sentinel"


def _model_for(cpu: str) -> PowerModel:
    frequencies = preset(cpu).frequencies_hz
    return PowerModel(
        idle_w=MODEL_IDLE_W,
        formulas=[FrequencyFormula(f, dict(MODEL_COEFFS))
                  for f in frequencies],
        name=f"matrix-{cpu}")


def _poll(predicate: Callable[[], bool], timeout_s: float) -> bool:
    """Busy-wait (1 ms steps) until *predicate* holds; False on timeout."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.001)
    return predicate()


@dataclass
class _SimArtifacts:
    """What one simulation pass produced (telemetry excluded)."""

    reports: Tuple[Tuple[float, float, float, bool], ...]
    cap_events: Tuple[Tuple[float, str, float], ...]
    health: Tuple[Tuple[float, str, str, str], ...]
    applied: Tuple[Tuple[float, str], ...]
    energy_j: float
    telemetry: Optional[TelemetryObservations] = None

    def digest(self) -> str:
        """A stable content hash of the deterministic artifacts.

        Telemetry observations are excluded on purpose: thread and
        socket timing make delivery details run-dependent, while the
        virtual-time sim artifacts must be bit-identical per seed.
        """
        payload = json.dumps({
            "reports": [list(r) for r in self.reports],
            "cap_events": [list(e) for e in self.cap_events],
            "health": [list(h) for h in self.health],
            "applied": [list(a) for a in self.applied],
        }, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


def _execute(cell: MatrixCell, with_telemetry: bool) -> _SimArtifacts:
    """Run one cell's pipeline to completion and collect artifacts."""
    kernel = SimKernel(preset(cell.cpu),
                       governor_factory=GOVERNORS[cell.governor])
    api = PowerAPI(kernel, _model_for(cell.cpu), period_s=cell.period_s)
    try:
        pid = kernel.spawn(WORKLOADS[cell.workload](cell.duration_s),
                           name=f"{cell.workload}-0")
        builder = api.monitor(pid).every(cell.period_s)
        if cell.faults:
            builder = builder.with_faults(cell.faults)
        if cell.cap_w > 0:
            builder = builder.cap(cell.cap_w)
        memory = InMemoryReporter()
        handle = builder.to(memory)
        session = None
        if with_telemetry and cell.pipeline.telemetry:
            session = _TelemetrySession(api, kernel, cell, pid)
        if session is None:
            api.run(cell.duration_s)
            api.flush()
        else:
            with session:
                session.drive()
        telemetry = session.observations() if session is not None else None
        return _SimArtifacts(
            reports=tuple((r.time_s, r.period_s, r.total_w, r.gap)
                          for r in memory.aggregated),
            cap_events=tuple((e.time_s, e.action, e.estimate_w)
                             for e in memory.cap_events),
            health=tuple(handle.health.signature()),
            applied=tuple(api.injector.applied) if api.injector else (),
            energy_j=sum(r.total_w * r.period_s
                         for r in memory.aggregated),
            telemetry=telemetry)
    finally:
        api.shutdown()


class _TelemetrySession:
    """A loopback subscriber under network chaos, driven in lock-step.

    The main thread advances virtual time one period at a time and
    waits (bounded) for the subscriber to drain what was published, so
    the set of frames in flight when a fault fires stays small and the
    verdict (lost vs. recovered) deterministic.  After the run a
    sentinel health frame is re-published until the subscriber sees
    one — its stream seq then bounds the set of frames that *must*
    have been delivered for exactly-once to hold.
    """

    def __init__(self, api: PowerAPI, kernel: SimKernel, cell: MatrixCell,
                 pid: int) -> None:
        from repro.telemetry.client import ReconnectPolicy, TelemetryClient

        self._api = api
        self._kernel = kernel
        self._cell = cell
        self._server = api.serve_telemetry(
            host="127.0.0.1", port=0, pids=(pid,),
            replay_window=cell.pipeline.replay_window)
        plan = (NetworkFaultPlan.parse(cell.net_faults)
                if cell.net_faults else NetworkFaultPlan())
        # Virtual clock + no-op sleep: chaos fires at exact sim times.
        self._injector = NetworkFaultInjector(
            plan, clock=lambda: kernel.time_s, sleep=lambda _s: None)
        self._tmp = tempfile.TemporaryDirectory(prefix="repro-matrix-")
        self._client = TelemetryClient(
            "127.0.0.1", self._server.port,
            reconnect=ReconnectPolicy(base_s=0.002, factor=1.5,
                                      max_s=0.02),
            connect_timeout_s=2.0, read_timeout_s=2.0,
            spool=self._tmp.name, transport=self._injector.wrap)
        self._received: List[ReceivedFrame] = []
        self._declared: List[Tuple[int, int]] = []
        self._sentinel_seq: Optional[int] = None
        self._collector = threading.Thread(target=self._collect,
                                           daemon=True)
        self._collector.start()

    def __enter__(self) -> "_TelemetrySession":
        return self

    def __exit__(self, *exc_info) -> None:
        self._client.close()
        self._collector.join(timeout=5.0)
        self._tmp.cleanup()

    # -- subscriber side -----------------------------------------------

    def _collect(self) -> None:
        from repro.errors import TelemetryError
        from repro.telemetry.wire import (GapTelemetry, Heartbeat,
                                          HealthTelemetry, ReportEvent)
        try:
            for event in self._client.events():
                epoch = self._client.stream_epoch or ""
                if isinstance(event, ReportEvent):
                    self._received.append(ReceivedFrame(
                        event.seq, "report", epoch))
                elif isinstance(event, HealthTelemetry):
                    if event.event.kind == _SENTINEL_KIND:
                        self._sentinel_seq = event.seq
                        return
                    self._received.append(ReceivedFrame(
                        event.seq, "health", epoch))
                elif isinstance(event, GapTelemetry):
                    if event.evicted_from is not None:
                        self._declared.append((event.evicted_from,
                                               event.evicted_through))
                    self._received.append(ReceivedFrame(
                        event.seq, "gap", epoch))
                elif isinstance(event, Heartbeat):
                    continue
        except TelemetryError:
            return

    # -- driver side ---------------------------------------------------

    def _published(self) -> int:
        server = self._server
        return (server.reports_published + server.health_published
                + server.gaps_published)

    def drive(self) -> None:
        cell = self._cell
        periods = max(1, int(round(cell.duration_s / cell.period_s)))
        for _ in range(periods):
            # Lock-step pacing: wait for a live subscriber, advance one
            # period, then give the stream a bounded chance to drain.
            # Both waits are bounded, not barriers: a partitioned
            # subscriber cannot reconnect until virtual time moves, so
            # the driver must keep advancing through its absence.
            self._server.wait_for(
                lambda: self._server.subscriber_count >= 1, timeout=0.35)
            self._api.run(cell.period_s)
            target = self._published()
            _poll(lambda: len(self._received) >= target
                  or self._server.subscriber_count == 0, 0.2)
        self._api.flush()
        deadline = time.monotonic() + 5.0
        while self._sentinel_seq is None and time.monotonic() < deadline:
            self._server.publish_health(HealthEvent(
                time_s=self._kernel.time_s, component="matrix",
                kind=_SENTINEL_KIND, detail=cell.cell_id))
            _poll(lambda: self._sentinel_seq is not None, 0.02)

    def observations(self) -> TelemetryObservations:
        return TelemetryObservations(
            received=tuple(self._received),
            sentinel_seq=self._sentinel_seq,
            declared_lost=tuple(self._declared),
            reconnects=self._client.reconnects,
            injected=tuple(self._injector.injected))


@dataclass
class CellResult:
    """One cell's verdict, JSON-ready."""

    cell_id: str
    index: int
    axes: Dict[str, object]
    ok: bool
    xfail: bool
    violations: List[Dict[str, object]]
    metrics: Dict[str, object]
    wall_s: float
    shrunk: Optional[Dict[str, object]] = None

    @property
    def unexpected(self) -> bool:
        """Failing without an xfail mark, or passing with one."""
        return self.ok == self.xfail

    @property
    def outcome(self) -> str:
        if self.ok:
            return "xpass" if self.xfail else "pass"
        return "xfail" if self.xfail else "fail"

    def to_dict(self) -> Dict[str, object]:
        payload = {
            "cell_id": self.cell_id,
            "index": self.index,
            "axes": self.axes,
            "ok": self.ok,
            "xfail": self.xfail,
            "outcome": self.outcome,
            "unexpected": self.unexpected,
            "violations": self.violations,
            "metrics": self.metrics,
            "wall_s": self.wall_s,
        }
        if self.shrunk is not None:
            payload["shrunk"] = self.shrunk
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CellResult":
        return cls(cell_id=payload["cell_id"], index=payload["index"],
                   axes=payload["axes"], ok=payload["ok"],
                   xfail=payload["xfail"],
                   violations=payload["violations"],
                   metrics=payload["metrics"], wall_s=payload["wall_s"],
                   shrunk=payload.get("shrunk"))


def observe_cell(cell: MatrixCell) -> CellObservations:
    """Run one cell (and its determinism re-run) into observations."""
    primary = _execute(cell, with_telemetry=True)
    rerun_digest = None
    if cell.invariants.rerun and "determinism" in cell.invariants.suite:
        rerun_digest = _execute(cell, with_telemetry=False).digest()
    return CellObservations(
        duration_s=cell.duration_s, period_s=cell.period_s,
        cap_w=cell.cap_w, faults=cell.faults,
        net_faults=cell.net_faults, reports=primary.reports,
        cap_events=primary.cap_events, health=primary.health,
        applied=primary.applied, telemetry=primary.telemetry,
        digest=primary.digest(), rerun_digest=rerun_digest)


def run_cell(cell: MatrixCell) -> CellResult:
    """Run one cell and judge it against its invariant suite."""
    started = time.monotonic()
    try:
        obs = observe_cell(cell)
        violations = evaluate(obs, cell.invariants)
        metrics = _metrics(obs)
    except ReproError as exc:
        # A cell whose pipeline cannot even run is a failing cell, not
        # a crashed campaign: surface it as a synthetic violation.
        violations = [Violation(
            "harness", f"cell raised {type(exc).__name__}: {exc}")]
        metrics = {}
    return CellResult(
        cell_id=cell.cell_id, index=cell.index, axes=cell.axes(),
        ok=not violations, xfail=cell.xfail,
        violations=[v.to_dict() for v in violations], metrics=metrics,
        wall_s=round(time.monotonic() - started, 4))


def _metrics(obs: CellObservations) -> Dict[str, object]:
    metrics: Dict[str, object] = {
        "frames": len(obs.reports),
        "gap_frames": sum(1 for r in obs.reports if r[3]),
        "health_events": len(obs.health),
        "faults_applied": len(obs.applied),
        "cap_events": len(obs.cap_events),
        "energy_j": round(sum(r[1] * r[2] for r in obs.reports), 6),
    }
    telemetry = obs.telemetry
    if telemetry is not None:
        metrics["telemetry"] = {
            "published": telemetry.sentinel_seq,
            "received": len(telemetry.received),
            "reconnects": telemetry.reconnects,
            "net_faults_injected": len(telemetry.injected),
            "declared_lost": sum(hi - lo + 1
                                 for lo, hi in telemetry.declared_lost),
            "plan": net_plan_summary(obs.net_faults),
        }
    return metrics


def _run_cell_task(payload: Tuple[Dict[str, object], int]
                   ) -> Dict[str, object]:
    """Worker entry point: rebuild the cell from the spec dict (cells
    hold live variant/invariant objects; the dict form is what travels
    across the process boundary)."""
    spec_dict, index = payload
    spec = MatrixSpec.from_dict(spec_dict)
    return run_cell(spec.cells()[index]).to_dict()


def run_matrix(spec: MatrixSpec, workers: int = 1, shrink: bool = True,
               cell_filter: Optional[str] = None,
               max_shrink_cells: int = 4, shrink_budget: int = 48,
               log: Optional[Callable[[str], None]] = None
               ) -> Dict[str, object]:
    """Run a campaign and return the JSON-ready report.

    *cell_filter* is an fnmatch pattern over cell ids (run a subset);
    failing cells (up to *max_shrink_cells*) are delta-debugged into
    minimal repros when *shrink* is set.
    """
    from fnmatch import fnmatch

    from repro.matrix.shrink import shrink_cell

    cells = spec.cells()
    if cell_filter:
        cells = tuple(c for c in cells
                      if fnmatch(c.cell_id, cell_filter)
                      or str(c.index) == cell_filter)
    say = log if log is not None else (lambda _msg: None)
    say(f"matrix {spec.name!r}: {len(cells)} cell(s), "
        f"{workers or 'auto'} worker(s)")
    started = time.monotonic()
    spec_dict = spec.to_dict()
    payloads = [(spec_dict, cell.index) for cell in cells]
    results = [CellResult.from_dict(raw) for raw in
               run_tasks(_run_cell_task, payloads, workers=workers)]
    wall_s = time.monotonic() - started
    by_index = {cell.index: cell for cell in cells}
    shrunk_count = 0
    for result in results:
        if result.ok or shrunk_count >= max_shrink_cells:
            continue
        if not shrink:
            continue
        target = result.violations[0]["invariant"]
        say(f"shrinking {result.cell_id} (violates {target})")
        result.shrunk = shrink_cell(
            spec, by_index[result.index], target, budget=shrink_budget)
        shrunk_count += 1
    outcomes = {"pass": 0, "fail": 0, "xfail": 0, "xpass": 0}
    for result in results:
        outcomes[result.outcome] += 1
    expected = outcomes["pass"] + outcomes["xfail"]
    report = {
        "name": spec.name,
        "seed": spec.seed,
        "duration_s": spec.duration_s,
        "period_s": spec.period_s,
        "axis_sizes": spec.axis_sizes(),
        "cells_total": len(spec.cells()),
        "cells_run": len(results),
        "outcomes": outcomes,
        "unexpected": sum(1 for r in results if r.unexpected),
        "pass_rate": round(expected / len(results), 4) if results else 1.0,
        "wall_s": round(wall_s, 3),
        "cells": [result.to_dict() for result in results],
    }
    say(f"{len(results)} cell(s) in {wall_s:.1f}s: "
        + ", ".join(f"{n} {o}" for o, n in outcomes.items() if n))
    return report


def bench_headline(report: Dict[str, object]) -> Dict[str, object]:
    """The BENCH_matrix.json trending summary of one campaign report."""
    return {
        "cells_run": report["cells_run"],
        "pass_rate": report["pass_rate"],
        "unexpected": report["unexpected"],
        "wall_s": report["wall_s"],
    }
