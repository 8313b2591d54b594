"""Per-layer tracer for the benchmark: wraps public entry points of ``src/``.

The tracer never edits the program.  :func:`install` replaces functions
on classes and modules inside the benchmark's own process with timing
wrappers, so the code under test runs unchanged.  Two wrapper kinds
exist:

* a **span** pushes a frame on a thread-local stack; when it returns,
  its duration is added to the parent frame's child time, so
  ``self = duration - child spans``.  Every span belongs to exactly one
  self-time bucket, which makes the buckets plus the time spent outside
  any span (``trace.unattributed_s``) add up to the traced wall time;
* a **timer** only records count and inclusive time.  It does not touch
  the stack, so it can sit around spans (``SimKernel.run``,
  ``calibrate_idle_power``) without taking their self time.

Raw spans are kept in memory for the first simulated second and written
out as JSON lines when the run ends; spans of one kernel quantum share
its ``tick`` number.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: Simulated seconds whose raw spans are kept for the JSONL dump.
RECORD_SIM_S = 1.0

#: Span name -> the self-time metric it is accounted under.
SELF_BUCKETS = {
    "simcpu.step": "simcpu.self_s",
    "simcpu.run_batch": "simcpu.self_s",
    "simcpu.program": "simcpu.self_s",
    "simcpu.machine_init": "simcpu.self_s",
    "os.tick": "os.self_s",
    "os.scheduler": "os.scheduler_s",
    "os.governor": "os.governor_s",
    "os.procfs_observer": "os.procfs_observer_s",
    "perf.observer": "perf.observer_s",
    "perf.read": "perf.read_s",
    "powermeter.observer": "powermeter.observer_s",
    "actors.dispatch": "actors.self_s",
    "actors.publish": "actors.self_s",
    "actors.clock": "actors.self_s",
    "core.sensors": "core.sensors.busy_s",
    "core.formula": "core.formula.busy_s",
    "core.aggregators": "core.aggregators.busy_s",
    "core.reporters": "core.reporters.busy_s",
    "faults": "faults.busy_s",
    "control": "control.busy_s",
    "telemetry.bridge": "telemetry.bridge_busy_s",
    "telemetry.publish": "telemetry.publish_s",
    "core.regression.fit": "core.regression.fit_s",
}

#: Inclusive-only timers (not part of the self-time partition).
TIMERS = ("os.run", "core.calibration")

#: Module of a pipeline stage's class -> its span name.
STAGE_GROUPS = {
    "repro.core.sensors": "core.sensors",
    "repro.core.formula": "core.formula",
    "repro.core.aggregators": "core.aggregators",
    "repro.core.reporters": "core.reporters",
    "repro.faults.health": "faults",
    "repro.control.actor": "control",
}


class _Stack(threading.local):
    def __init__(self) -> None:
        self.frames: List[list] = []


class Tracer:
    """Span stack, per-name statistics and the raw-span buffer."""

    def __init__(self) -> None:
        self._local = _Stack()
        self._lock = threading.Lock()
        #: name -> [calls, inclusive seconds, self seconds]
        self.stats: Dict[str, list] = {}
        #: free-form counters (ticks, compiles, bytes encoded, ...)
        self.counts: Dict[str, float] = {}
        self.spans: List[tuple] = []
        self.recording = True
        self.sim_s = 0.0
        self._next_id = 0
        self._origin = time.perf_counter()
        #: [FrequencyDomain, generation at reset] per machine built.
        self.domains: List[list] = []
        #: time.monotonic() of each telemetry publish, in seq order.
        self.publish_times: List[float] = []

    # -- bookkeeping ----------------------------------------------------

    def stat(self, name: str) -> list:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        return entry

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def advance_sim(self, seconds: float, ticks: int) -> None:
        """Account simulated time; stop keeping raw spans after 1 s."""
        self.add("simcpu.ticks", ticks)
        self.sim_s += seconds
        if self.recording and self.sim_s >= RECORD_SIM_S:
            self.recording = False

    def reset(self) -> None:
        """Forget everything measured so far (set-up); keep the wrappers."""
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]  # wrappers hold these lists
        self.counts.clear()
        self.spans.clear()
        self.recording = True
        self.sim_s = 0.0
        self._origin = time.perf_counter()
        for entry in self.domains:
            entry[1] = entry[0].generation

    def pstate_changes(self) -> int:
        return sum(domain.generation - base for domain, base in self.domains)

    # -- wrappers -------------------------------------------------------

    def span(self, name: Optional[str], fn: Callable,
             name_of: Optional[Callable[[Any], str]] = None,
             on_call: Optional[Callable] = None,
             on_return: Optional[Callable] = None) -> Callable:
        """Wrap *fn* in a span called *name* (or ``name_of(first_arg)``)."""
        fixed = None if name is None else self.stat(name)
        local = self._local
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stats = fixed if fixed is not None else tracer.stat(
                name_of(args[0]))
            frames = local.frames
            frame = [0.0, 0, 0]
            if tracer.recording:
                tracer._next_id += 1
                frame[1] = tracer._next_id
                frame[2] = tracer.counts.get("simcpu.ticks", 0)
            frames.append(frame)
            start = clock()
            try:
                if on_call is not None:
                    on_call(*args, **kwargs)
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(result)
                return result
            finally:
                end = clock()
                frames.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if frames:
                    frames[-1][0] += elapsed
                if frame[1]:
                    tracer.spans.append((
                        frame[1], frames[-1][1] if frames else 0,
                        name or name_of(args[0]), frame[2], start, end))

        return traced

    def timer(self, name: str, fn: Callable) -> Callable:
        """Wrap *fn* to record calls and inclusive time only."""
        stats = self.stat(name)
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stats[0] += 1
                stats[1] += clock() - start

        return timed

    # -- output ---------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        """Self time per bucket metric, every span name accounted."""
        buckets = {metric: 0.0 for metric in SELF_BUCKETS.values()}
        for name, (_calls, _total, self_s) in self.stats.items():
            if name in SELF_BUCKETS:
                buckets[SELF_BUCKETS[name]] += self_s
            elif name not in TIMERS:
                raise KeyError(f"span {name!r} has no self-time bucket")
        return buckets

    def write_spans(self, path: Path) -> None:
        with path.open("w") as handle:
            for span_id, parent, name, tick, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "tick": tick, "start_s": start - self._origin,
                    "end_s": end - self._origin}) + "\n")


def _own_classes(base: type, attr: str) -> List[type]:
    """*base* and every subclass that defines *attr* itself."""
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if attr in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the program in this process."""
    import repro.core.sampling as sampling
    import repro.os.actuation  # noqa: F401 - CeilingGovernor subclass
    from repro.actors.clock import VirtualClock
    from repro.actors.eventbus import EventBus
    from repro.actors.system import ActorSystem
    from repro.core.stage import PipelineStage
    from repro.os.governor import Governor
    from repro.os.kernel import SimKernel
    from repro.os.procfs import ProcFs
    from repro.os.scheduler import Scheduler
    from repro.perf.counting import PerfCounter, PerfSession
    from repro.powermeter.base import PowerMeter
    from repro.simcpu.engine import BatchEngine
    from repro.simcpu.machine import Machine
    from repro.simcpu.power import GroundTruthPower
    from repro.telemetry import wire
    from repro.telemetry.server import TelemetryBridge, TelemetryServer

    # -- simcpu --------------------------------------------------------
    run_batch = Machine.run_batch

    def counted_batch(machine, assignments, n_ticks, dt_s=0.01):
        record = run_batch(machine, assignments, n_ticks, dt_s)
        tracer.advance_sim(dt_s * n_ticks, n_ticks)
        return record

    Machine.step = tracer.span(
        "simcpu.step", Machine.step,
        on_return=lambda record: tracer.advance_sim(record.dt_s, 1))
    Machine.run_batch = tracer.span("simcpu.run_batch", counted_batch)
    BatchEngine.program = tracer.span("simcpu.program", BatchEngine.program)
    machine_init = Machine.__init__

    def remember_domain(machine, spec):
        machine_init(machine, spec)
        tracer.domains.append([machine.frequency, 0])

    Machine.__init__ = tracer.span("simcpu.machine_init", remember_domain)
    wall_power = GroundTruthPower.wall_power

    def compile_counted(*args, **kwargs):
        # The engine evaluates ground-truth power once per compile.
        tracer.add("simcpu.compiles")
        return wall_power(*args, **kwargs)

    GroundTruthPower.wall_power = compile_counted

    # -- machine observers: named by the class that owns them ------------
    wrapped: Dict[Any, Callable] = {}
    add_observer = Machine.add_observer
    remove_observer = Machine.remove_observer

    def observer_name(observer) -> Optional[str]:
        owner = getattr(observer, "__self__", None)
        if isinstance(owner, ProcFs):
            return "os.procfs_observer"
        if isinstance(owner, PerfSession):
            return "perf.observer"
        if isinstance(owner, PowerMeter):
            return "powermeter.observer"
        return None

    def traced_add(machine, observer):
        name = observer_name(observer)
        if name is not None:
            observer = wrapped.setdefault(
                observer, tracer.span(name, observer))
        add_observer(machine, observer)

    def traced_remove(machine, observer):
        remove_observer(machine, wrapped.pop(observer, observer))

    Machine.add_observer = traced_add
    Machine.remove_observer = traced_remove

    # -- os --------------------------------------------------------------
    SimKernel.tick = tracer.span("os.tick", SimKernel.tick)
    SimKernel.run = tracer.timer("os.run", SimKernel.run)
    for cls in _own_classes(Scheduler, "assign"):
        cls.assign = tracer.span("os.scheduler", cls.assign)
    for cls in _own_classes(Governor, "update"):
        cls.update = tracer.span("os.governor", cls.update)

    # -- perf --------------------------------------------------------------
    PerfCounter.read = tracer.span("perf.read", PerfCounter.read)

    # -- actors ----------------------------------------------------------
    def on_dispatch(handled):
        tracer.add("actors.messages", handled)
        tracer.add("actors.empty_dispatches", handled == 0)

    ActorSystem.dispatch = tracer.span(
        "actors.dispatch", ActorSystem.dispatch, on_return=on_dispatch)
    EventBus.publish = tracer.span("actors.publish", EventBus.publish)
    VirtualClock.advance = tracer.span(
        "actors.clock", VirtualClock.advance,
        on_return=lambda published: tracer.add("actors.clock_ticks",
                                               published))

    # -- pipeline stages, grouped by the module of their class -------------
    groups: Dict[type, str] = {}

    def stage_group(stage) -> str:
        cls = type(stage)
        group = groups.get(cls)
        if group is None:
            group = groups[cls] = STAGE_GROUPS.get(cls.__module__,
                                                   cls.__module__)
        return group

    PipelineStage.receive = tracer.span(None, PipelineStage.receive,
                                        name_of=stage_group)

    # -- telemetry -------------------------------------------------------
    def on_publish(server, kind, payload):
        # The bridge is the only publisher, so the n-th publish carries
        # stream seq n; the subscriber stamps receipt by seq.
        tracer.publish_times.append(time.monotonic())

    TelemetryBridge.receive = tracer.span("telemetry.bridge",
                                          TelemetryBridge.receive)
    TelemetryServer.publish_frame = tracer.span(
        "telemetry.publish", TelemetryServer.publish_frame,
        on_call=on_publish)
    encode_frame = wire.encode_frame

    def counted_encode(*args, **kwargs):
        data = encode_frame(*args, **kwargs)
        tracer.add("telemetry.bytes_encoded", len(data))
        return data

    wire.encode_frame = counted_encode

    # -- learning campaign -----------------------------------------------
    sampling.fit = tracer.span("core.regression.fit", sampling.fit)
    sampling.calibrate_idle_power = tracer.timer(
        "core.calibration", sampling.calibrate_idle_power)
