"""The PowerAPI facade: assembling and driving a monitoring pipeline.

This is the toolkit's public entry point.  It wires the Figure 2
architecture — clock, Sensor(s), Formula, Aggregator(s), Reporter(s) — on
one actor system, and co-drives the simulated kernel and the actors:

    kernel = SimKernel(intel_i3_2120())
    pid = kernel.spawn(SpecJbbWorkload(), name="specjbb")
    api = PowerAPI(kernel, model)
    handle = api.monitor(pid).every(1.0).to(InMemoryReporter())
    api.run(duration_s=120)
    print(handle.reporter.total_series())

The fluent builder mirrors PowerAPI's published DSL; under the hood it
assembles a declarative :class:`~repro.core.pipeline.PipelineSpec` and
hands it to :meth:`PowerAPI.start_pipeline` — the exact same road a
spec loaded from a JSON/TOML config file travels:

    spec = PipelineSpec.from_file("pipeline.toml")
    handle = api.start_pipeline(spec)
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.actors.actor import Actor, ActorRef
from repro.actors.clock import VirtualClock
from repro.actors.system import ActorSystem
from repro.core.aggregators import PidAggregator
from repro.core.messages import FlushAggregates, HealthEvent, SetCap
from repro.core.model import PowerModel
from repro.core.pipeline import (ControlSpec, DegradationSpec,
                                 PipelineBuilder, PipelineSpec, StageSpec,
                                 TelemetrySpec)
from repro.core.sensors import PipelineMode, PowerMeterSensor
from repro.errors import ConfigurationError
from repro.faults.health import HealthLog
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.os.kernel import SimKernel
from repro.perf.counting import PerfSession
from repro.powermeter.base import PowerMeter


class MonitorHandle:
    """A running pipeline: its actors, reporters, health log and mode."""

    def __init__(self, pids: Sequence[int], reporter: Actor,
                 actor_refs: Sequence[ActorRef],
                 pid_aggregator: Optional[PidAggregator],
                 health: Optional[HealthLog] = None,
                 mode: Optional[PipelineMode] = None,
                 reporters: Optional[Sequence[Actor]] = None,
                 spec: Optional[PipelineSpec] = None,
                 control: Optional[Actor] = None) -> None:
        self.pids = tuple(pids)
        self.reporter = reporter
        #: Every reporter attached to the pipeline, spawn order.
        self.reporters = (tuple(reporters) if reporters is not None
                          else (reporter,))
        self._refs = list(actor_refs)
        self.pid_aggregator = pid_aggregator
        #: Record of degradations, recoveries and injected faults.
        self.health = health if health is not None else HealthLog()
        #: Current estimation mode ("hpc" or "cpu-load"), when the
        #: pipeline has a degradation ladder; None otherwise.
        self.mode = mode
        #: The declarative description this pipeline was built from.
        self.spec = spec
        #: The pipeline's :class:`~repro.control.actor.PowerCapActor`
        #: when a ``[control]`` section / ``.cap(...)`` armed one.
        self.control = control
        self._system: Optional[ActorSystem] = None

    def _attach(self, system: ActorSystem) -> None:
        self._system = system

    @property
    def degraded(self) -> bool:
        """Whether the pipeline currently runs on the fallback formula."""
        return self.mode is not None and self.mode.degraded

    def set_cap(self, cap_w: Optional[float]) -> None:
        """Change (or with None remove) the power cap mid-run.

        Publishes a :class:`~repro.core.messages.SetCap` on the bus;
        the cap actor picks it up on the next dispatch.  Requires the
        pipeline to have been started with a control section.
        """
        if self.control is None:
            raise ConfigurationError(
                "this pipeline has no control loop; start it with "
                ".cap(...) or a [control] spec section")
        if self._system is None:
            raise ConfigurationError("pipeline is not attached to a system")
        self._system.event_bus.publish(SetCap(cap_w=cap_w))

    def stop(self) -> None:
        """Tear the pipeline down (idempotent; queued messages dropped)."""
        if self._system is None:
            return
        for ref in self._refs:
            self._system.stop(ref)
        self._refs.clear()


class MonitorBuilder:
    """Fluent configuration of one monitoring pipeline.

    A thin front-end over :class:`~repro.core.pipeline.PipelineSpec`:
    each call records one aspect of the description, :meth:`to` builds
    the spec and starts it.  :meth:`spec` exposes the description
    without starting anything (e.g. to save it as a config file).
    """

    def __init__(self, api: "PowerAPI", pids: Sequence[int]) -> None:
        if not pids:
            raise ConfigurationError("monitor() needs at least one pid")
        self._api = api
        self._pids = tuple(pids)
        self._period_s: Optional[float] = None
        self._formula = "hpc"
        self._events: Optional[Tuple[str, ...]] = None
        self._degradation: Optional[DegradationSpec] = DegradationSpec()
        self._reporter_specs: List[StageSpec] = []
        self._faults: Optional[str] = None
        self._telemetry = None
        self._control: Optional[ControlSpec] = None

    def every(self, period_s: float) -> "MonitorBuilder":
        """Set the monitoring period (seconds)."""
        if period_s <= 0:
            raise ConfigurationError("period must be positive")
        self._period_s = period_s
        return self

    def with_formula(self, formula: str) -> "MonitorBuilder":
        """Choose the estimation formula: ``"hpc"`` or ``"cpu-load"``."""
        if formula not in ("hpc", "cpu-load"):
            raise ConfigurationError(
                f"unknown formula {formula!r}; use 'hpc' or 'cpu-load'")
        self._formula = formula
        return self

    def with_events(self, events: Sequence[str]) -> "MonitorBuilder":
        """Override the HPC events the sensor collects."""
        if not events:
            raise ConfigurationError("at least one event required")
        self._events = tuple(events)
        return self

    def with_degradation(self, degrade_after: int = 3,
                         recover_after: int = 2) -> "MonitorBuilder":
        """Tune the HPC → cpu-load fallback thresholds (hpc formula only)."""
        self._degradation = DegradationSpec(degrade_after, recover_after)
        return self

    def without_degradation(self) -> "MonitorBuilder":
        """Disable the cpu-load fallback: missing HPC periods stay gaps."""
        self._degradation = None
        return self

    def with_faults(self, plan: str) -> "MonitorBuilder":
        """Arm a :meth:`FaultPlan.parse` spec string with the pipeline."""
        FaultPlan.parse(plan)  # fail at description time, not start time
        self._faults = plan
        return self

    def with_telemetry(self, host: str = "127.0.0.1", port: int = 0,
                       **fields: Any) -> "MonitorBuilder":
        """Publish this pipeline's stream over TCP when it starts.

        Extra keyword arguments are :class:`TelemetrySpec` fields —
        ``batch_max_frames``/``batch_max_bytes``/``batch_max_latency_s``
        for wire batching, ``max_subscribers`` for the connection cap,
        and ``uplinks=("host:port", ...)`` to also relay an upstream
        tree into the same stream.
        """
        self._telemetry = TelemetrySpec(host=host, port=port, **fields)
        return self

    def cap(self, watts: float, policy: str = "deadband",
            grace_periods: int = 1, throttle: bool = True,
            **params: Any) -> "MonitorBuilder":
        """Hold estimated package power at or below *watts*.

        *policy* names a registered control policy (``"deadband"`` or
        ``"pi"``); extra keyword arguments configure it (e.g.
        ``.cap(50.0, policy="pi", kp=0.5)``).
        """
        self._control = ControlSpec(
            cap_w=watts, policy=StageSpec(policy, params),
            grace_periods=grace_periods, throttle=throttle)
        return self

    def spec(self) -> PipelineSpec:
        """The declarative description accumulated so far."""
        if self._formula == "hpc":
            params = {} if self._events is None else {"events": self._events}
            sensor = StageSpec("hpc", params)
            formula = StageSpec("hpc")
            degradation = self._degradation
        else:
            sensor = StageSpec("procfs")
            formula = StageSpec("cpu-load")
            degradation = None
        return PipelineSpec(
            pids=self._pids,
            period_s=self._period_s,
            sensor=sensor,
            formula=formula,
            reporters=tuple(self._reporter_specs),
            degradation=degradation,
            faults=self._faults,
            telemetry=self._telemetry,
            control=self._control,
        )

    def to(self, reporter: Union[Actor, str],
           **params: Any) -> MonitorHandle:
        """Attach a reporter and start the pipeline.

        Accepts either a pre-built reporter actor, or a registered
        reporter name with its config (``.to("csv", path="out.csv")``).
        """
        extra: Tuple[Actor, ...] = ()
        if isinstance(reporter, str):
            self._reporter_specs.append(StageSpec(reporter, params))
        else:
            if params:
                raise ConfigurationError(
                    "reporter params only apply to by-name reporters")
            extra = (reporter,)
        return self._api.start_pipeline(self.spec(), reporters=extra)


class PowerAPI:
    """The middleware toolkit: owns the actor system and the clock."""

    def __init__(self, kernel: SimKernel, model: PowerModel,
                 period_s: float = 1.0) -> None:
        self.kernel = kernel
        self.model = model
        self.system = ActorSystem("powerapi")
        self.clock = VirtualClock(self.system.event_bus, period_s=period_s)
        self.perf = PerfSession(kernel.machine)
        self._meters: List[PowerMeter] = []
        self._handles: List[MonitorHandle] = []
        self._telemetry_servers: List = []
        self._telemetry_relays: List = []
        self._injector: Optional[FaultInjector] = None
        self._pipeline_count = 0
        self._shut_down = False
        # Supervision outcomes (restarts, stops) land on the health log.
        self.system.on_lifecycle_event = self._on_actor_lifecycle

    def _on_actor_lifecycle(self, name: str, kind: str, detail: str) -> None:
        self.system.event_bus.publish(HealthEvent(
            time_s=self.system.clock_s, component=name, kind=kind,
            detail=detail))

    # -- pipeline assembly ---------------------------------------------

    def monitor(self, *pids: int) -> MonitorBuilder:
        """Begin configuring a pipeline for *pids*."""
        return MonitorBuilder(self, pids)

    def attach_meter(self, meter: PowerMeter,
                     name: Optional[str] = None) -> ActorRef:
        """Also publish a physical meter's samples on the bus."""
        meter.connect()
        self._meters.append(meter)
        component = name or f"meter-{len(self._meters) - 1}"
        return self.system.spawn(PowerMeterSensor(meter, component=component),
                                 name=name)

    @property
    def meters(self) -> Tuple[PowerMeter, ...]:
        """Meters attached via :meth:`attach_meter`."""
        return tuple(self._meters)

    def monitored_pids(self) -> Tuple[int, ...]:
        """Every pid under monitoring across running pipelines, ascending."""
        pids = set()
        for handle in self._handles:
            if handle._refs:
                pids.update(handle.pids)
        return tuple(sorted(pids))

    def _check_period(self, period_s: Optional[float]) -> None:
        if (period_s is not None
                and abs(period_s - self.clock.period_s) > 1e-12):
            # One clock per API instance: every pipeline shares its
            # period.  Retuning is only legal before the first pipeline
            # starts; afterwards it would silently change the sampling
            # rate of every already-running pipeline.
            running = [h for h in self._handles if h._refs]
            if running:
                raise ConfigurationError(
                    f"cannot set period {period_s}s: this PowerAPI's "
                    f"clock already drives {len(running)} pipeline(s) "
                    f"at {self.clock.period_s}s (one clock per API "
                    "instance; use a separate PowerAPI for a "
                    "different period)")
            self.clock.period_s = period_s

    def start_pipeline(self, spec: PipelineSpec,
                       reporters: Sequence[Actor] = (),
                       registry=None) -> MonitorHandle:
        """Assemble and start the pipeline a :class:`PipelineSpec`
        describes.

        The single assembly road: the fluent DSL, ``--pipeline`` config
        files and programmatic callers all end up here.  *reporters*
        are pre-built reporter actors appended after the spec's
        declarative ones (at least one of the two must be present).
        The spec's fault plan is armed and its telemetry export
        started as part of pipeline start-up; if either fails (a busy
        telemetry port, say) the pipeline is torn down again before the
        error propagates, so nothing is left half-started.
        """
        self._check_period(spec.period_s)
        built = PipelineBuilder(registry).build(
            self, spec, extra_reporters=reporters)
        handle = MonitorHandle(
            spec.pids, built.reporters[0], built.refs,
            built.pid_aggregator, health=built.health, mode=built.mode,
            reporters=built.reporters, spec=spec, control=built.control)
        handle._attach(self.system)
        self._handles.append(handle)
        injector = self._injector
        try:
            if spec.faults is not None:
                self.install_faults(FaultPlan.parse(spec.faults))
            if spec.telemetry is not None:
                self.serve_telemetry(
                    host=spec.telemetry.host, port=spec.telemetry.port,
                    pids=spec.pids, spec=spec,
                    **spec.telemetry.server_kwargs())
        except BaseException:
            handle.stop()
            self._handles.remove(handle)
            self._injector = injector
            raise
        return handle

    def _full_load_estimate(self) -> float:
        """Rough all-cores-busy power for the CPU-load formula's slope.

        Estimated from the model itself: idle plus the TDP envelope is the
        best architecture-independent guess a load-based model has.
        """
        return self.model.idle_w + self.kernel.machine.spec.power.tdp_w * 0.5

    # -- telemetry service ------------------------------------------------

    def serve_telemetry(self, host: str = "127.0.0.1", port: int = 0,
                        pids: Optional[Sequence[int]] = None,
                        name: Optional[str] = None,
                        spec: Optional[PipelineSpec] = None,
                        uplinks: Optional[Sequence[Tuple[str, int]]] = None,
                        **server_kwargs):
        """Stream this API's live reports to TCP subscribers.

        Starts a :class:`~repro.telemetry.server.TelemetryServer` and
        spawns the bridge actor forwarding every
        :class:`~repro.core.messages.AggregatedPowerReport`,
        :class:`~repro.core.messages.HealthEvent` and
        :class:`~repro.core.messages.GapMarker` on the bus to it.  Pass
        ``pids=handle.pids`` to scope the stream to one pipeline, and
        ``spec=`` to advertise the running pipeline's description to
        subscribers in the handshake.  ``uplinks`` is a sequence of
        upstream ``(host, port)`` pairs to relay into the same stream
        (a tree junction: local pipeline frames and upstream frames
        merge into one fan-out).  Extra keyword arguments
        (``overflow``, ``queue_capacity``, ``host_label``, ``batch``,
        ``max_subscribers``, ``heartbeat_every``) configure the
        server; :meth:`shutdown` stops it.
        """
        # Imported here so the socket layer stays an optional part of
        # the core monitoring path.
        from repro.telemetry.server import TelemetryBridge, TelemetryServer
        server = TelemetryServer(host=host, port=port, **server_kwargs)
        if spec is not None:
            server.advertise_spec(spec.to_dict())
        server.start()
        self._telemetry_servers.append(server)
        n = len(self._telemetry_servers) - 1
        self.system.spawn(TelemetryBridge(server, pids=pids),
                          name=name or f"telemetry-bridge-{n}")
        if uplinks:
            from repro.telemetry.relay import TelemetryRelay
            relay = TelemetryRelay(tuple(uplinks), server=server)
            relay.start()
            self._telemetry_relays.append(relay)
        return server

    @property
    def telemetry_servers(self) -> Tuple:
        """Servers started via :meth:`serve_telemetry`."""
        return tuple(self._telemetry_servers)

    @property
    def telemetry_relays(self) -> Tuple:
        """Relays grafted onto servers via ``uplinks=``."""
        return tuple(self._telemetry_relays)

    # -- fault injection --------------------------------------------------

    def install_faults(self, plan: FaultPlan) -> FaultInjector:
        """Arm a fault plan; it fires as :meth:`run` advances virtual time."""
        self._injector = FaultInjector(plan, self)
        return self._injector

    @property
    def injector(self) -> Optional[FaultInjector]:
        """The armed fault injector (``install_faults`` or a spec's
        ``faults`` key), or None; ``injector.applied`` is the ground
        truth of what actually fired."""
        return self._injector

    # -- driving ----------------------------------------------------------

    def _step(self) -> None:
        self.kernel.tick()
        # Faults and restart backoffs are resolved against the fresh
        # kernel time *before* the clock tick reaches the sensors, so a
        # fault at t is visible to the samples taken at t.
        self.system.advance_time(self.kernel.time_s)
        if self._injector is not None:
            self._injector.advance(self.kernel.time_s)
        self.clock.advance(self.kernel.quantum_s)
        self.system.dispatch()

    def run(self, duration_s: float) -> None:
        """Advance kernel, clock and actors together for *duration_s*."""
        if duration_s < 0:
            raise ConfigurationError("duration must be >= 0")
        steps = int(round(duration_s / self.kernel.quantum_s))
        for _step in range(steps):
            self._step()

    def run_until_idle(self, max_duration_s: float = 3600.0) -> None:
        """Run until every monitored process exits."""
        while self.kernel.live_pids and self.kernel.time_s < max_duration_s:
            self._step()

    def flush(self) -> None:
        """Force aggregators to emit partial/summary reports."""
        self.system.event_bus.publish(FlushAggregates())
        self.system.dispatch()

    def shutdown(self) -> None:
        """Stop all actors, close perf, disconnect meters (idempotent)."""
        if self._shut_down:
            return
        self._shut_down = True
        self.flush()
        self.system.shutdown()
        self.perf.close()
        for meter in self._meters:
            meter.disconnect()
        # Relays first: their uplink threads publish into the servers.
        for relay in self._telemetry_relays:
            relay.stop()
        for server in self._telemetry_servers:
            server.stop()
