"""Declarative pipeline descriptions and their assembly.

A :class:`PipelineSpec` is a frozen, serializable description of one
Figure 2 monitoring pipeline: which pids, at what period, through which
sensor/formula/aggregator/reporter components (by registry name), with
which degradation ladder, fault plan and telemetry export.  The fluent
``PowerAPI.monitor(...).every(...).to(...)`` DSL builds one of these
under the hood; config files hold the same description as JSON or TOML:

    [[reporters]]
    type = "csv"
    path = "power.csv"

    pids = [1]
    period_s = 1.0
    [sensor]
    type = "hpc"

Both roads meet in :class:`PipelineBuilder`, which validates a spec
against a :class:`~repro.core.components.ComponentRegistry` and
instantiates the actor graph — so a pipeline assembled from a config
file is *the same pipeline*, actor for actor, as its fluent twin.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import (Any, Dict, List, Mapping, Optional, Sequence, Tuple)

from repro.actors.actor import Actor, ActorRef
from repro.configio import dumps_toml, loads_toml
from repro.core.components import (BuildContext, ComponentRegistry,
                                   default_registry)
from repro.core.messages import HealthEvent
from repro.core.sensors import PipelineMode
from repro.errors import ConfigurationError
from repro.faults.health import HealthLog
from repro.faults.plan import FaultPlan


def _freeze_param(value: Any) -> Any:
    """Normalize one param value so spec equality survives JSON."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_param(item) for item in value)
    return value


def _thaw_param(value: Any) -> Any:
    """The JSON-friendly form of a frozen param value."""
    if isinstance(value, tuple):
        return [_thaw_param(item) for item in value]
    return value


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage: a registered component name plus its config."""

    type: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.type or not isinstance(self.type, str):
            raise ConfigurationError(
                f"stage type must be a non-empty string, got {self.type!r}")
        frozen = {str(key): _freeze_param(value)
                  for key, value in dict(self.params).items()}
        object.__setattr__(self, "params", frozen)

    def to_dict(self) -> Dict[str, Any]:
        """Flat dict form: ``type`` plus the params inline."""
        if "type" in self.params:
            raise ConfigurationError(
                "stage params cannot use the reserved key 'type'")
        data: Dict[str, Any] = {"type": self.type}
        for key, value in self.params.items():
            data[key] = _thaw_param(value)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StageSpec":
        if "type" not in data:
            raise ConfigurationError(
                f"stage entry {dict(data)!r} is missing 'type'")
        params = {key: value for key, value in data.items()
                  if key != "type"}
        return cls(type=str(data["type"]), params=params)


@dataclass(frozen=True)
class DegradationSpec:
    """The HPC → cpu-load fallback thresholds (periods)."""

    degrade_after: int = 3
    recover_after: int = 2

    def __post_init__(self) -> None:
        if self.degrade_after < 1 or self.recover_after < 1:
            raise ConfigurationError(
                "degrade_after and recover_after must be >= 1")

    def to_dict(self) -> Dict[str, Any]:
        return {"degrade_after": self.degrade_after,
                "recover_after": self.recover_after}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DegradationSpec":
        unknown = sorted(set(data) - {"degrade_after", "recover_after"})
        if unknown:
            raise ConfigurationError(
                f"unknown degradation key(s): {', '.join(unknown)}")
        return cls(degrade_after=int(data.get("degrade_after", 3)),
                   recover_after=int(data.get("recover_after", 2)))


def parse_uplink(spec: str) -> Tuple[str, int]:
    """Parse one ``"host:port"`` uplink entry into a dialable pair."""
    host, sep, port = str(spec).rpartition(":")
    if not sep or not host:
        raise ConfigurationError(
            f"bad uplink {spec!r}; expected HOST:PORT")
    try:
        return (host, int(port))
    except ValueError:
        raise ConfigurationError(f"bad uplink port in {spec!r}") from None


@dataclass(frozen=True)
class TelemetrySpec:
    """The pipeline's telemetry server: where it listens and how it
    fans out.

    Every field except ``host``/``port``/``uplinks`` is optional; None
    means the :class:`~repro.telemetry.server.TelemetryServer` default.
    ``replay_window`` sizes the server's RESUME replay ring, the
    ``batch_*`` knobs form its BATCH flush policy for v2 subscribers,
    ``max_subscribers`` caps connections, and ``uplinks`` lists
    upstream ``"host:port"`` servers relayed into the same stream (the
    tree-junction topology).  The server's own rules check the fields
    when the spec is built.
    """

    host: str = "127.0.0.1"
    port: int = 0
    overflow: Optional[str] = None
    queue_capacity: Optional[int] = None
    heartbeat_every: Optional[int] = None
    host_label: Optional[str] = None
    replay_window: Optional[int] = None
    batch_max_frames: Optional[int] = None
    batch_max_bytes: Optional[int] = None
    batch_max_latency_s: Optional[float] = None
    max_subscribers: Optional[int] = None
    uplinks: Tuple[str, ...] = ()

    _OPTIONAL = ("overflow", "queue_capacity", "heartbeat_every",
                 "host_label", "replay_window",
                 "batch_max_frames", "batch_max_bytes",
                 "batch_max_latency_s", "max_subscribers")
    #: The fields ``check_server_config`` rules on.
    _CHECKED = ("overflow", "queue_capacity", "heartbeat_every",
                "replay_window", "max_subscribers")

    def __post_init__(self) -> None:
        object.__setattr__(self, "uplinks", tuple(self.uplinks))
        # Imported lazily: the socket layer stays optional for callers
        # that never export telemetry.
        from repro.telemetry.server import check_server_config
        settings = self.server_kwargs()  # builds BatchPolicy, parses uplinks
        check_server_config(**{key: settings[key] for key in self._CHECKED
                               if key in settings})

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"host": self.host, "port": self.port}
        for key in self._OPTIONAL:
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        if self.uplinks:
            data["uplinks"] = list(self.uplinks)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TelemetrySpec":
        known = {"host", "port", "uplinks"} | set(cls._OPTIONAL)
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown telemetry key(s): {', '.join(unknown)}")
        kwargs = {key: data[key] for key in known if key in data}
        return cls(**kwargs)

    def server_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for ``PowerAPI.serve_telemetry`` (or, with
        no uplinks, for a ``TelemetryServer``/``TelemetryRelay``).

        Unset fields are left out so the server defaults apply.  The
        ``batch_*`` knobs collapse into one ``BatchPolicy``; ``uplinks``
        become dialable ``(host, port)`` pairs.
        """
        kwargs: Dict[str, Any] = {}
        for key in self._CHECKED + ("host_label",):
            value = getattr(self, key)
            if value is not None:
                kwargs[key] = value
        if (self.batch_max_frames is not None
                or self.batch_max_bytes is not None
                or self.batch_max_latency_s is not None):
            from repro.telemetry.server import BatchPolicy
            defaults = BatchPolicy()
            kwargs["batch"] = BatchPolicy(
                max_frames=(defaults.max_frames
                            if self.batch_max_frames is None
                            else self.batch_max_frames),
                max_bytes=(defaults.max_bytes
                           if self.batch_max_bytes is None
                           else self.batch_max_bytes),
                max_latency_s=(defaults.max_latency_s
                               if self.batch_max_latency_s is None
                               else self.batch_max_latency_s))
        if self.uplinks:
            kwargs["uplinks"] = tuple(
                parse_uplink(uplink) for uplink in self.uplinks)
        return kwargs


@dataclass(frozen=True)
class ControlSpec:
    """The closed-loop power-cap section of a pipeline description.

    ``policy`` is a registry-validated :class:`StageSpec` of kind
    ``policy`` (``deadband`` or ``pi``); ``grace_periods`` is how many
    aggregated reports the cap actor skips after each actuation before
    re-measuring; ``throttle`` enables the scheduler hook (nice-based
    throttling of the hungriest process at the frequency floor).
    """

    cap_w: float
    policy: StageSpec = StageSpec("deadband")
    grace_periods: int = 1
    throttle: bool = True

    def __post_init__(self) -> None:
        if self.cap_w <= 0:
            raise ConfigurationError("cap must be positive watts")
        if self.grace_periods < 0:
            raise ConfigurationError("grace_periods must be >= 0")

    def to_dict(self) -> Dict[str, Any]:
        return {"cap_w": self.cap_w, "policy": self.policy.to_dict(),
                "grace_periods": self.grace_periods,
                "throttle": self.throttle}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ControlSpec":
        known = {"cap_w", "policy", "grace_periods", "throttle"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown control key(s): {', '.join(unknown)}")
        if "cap_w" not in data:
            raise ConfigurationError("control config is missing 'cap_w'")
        kwargs: Dict[str, Any] = {"cap_w": float(data["cap_w"])}
        if "policy" in data:
            kwargs["policy"] = StageSpec.from_dict(data["policy"])
        if "grace_periods" in data:
            kwargs["grace_periods"] = int(data["grace_periods"])
        if "throttle" in data:
            kwargs["throttle"] = bool(data["throttle"])
        return cls(**kwargs)


_DEFAULT_AGGREGATORS = (StageSpec("timestamp"), StageSpec("pid"))


@dataclass(frozen=True)
class PipelineSpec:
    """A complete, serializable description of one monitoring pipeline.

    ``period_s=None`` means "the owning PowerAPI's clock period".
    ``faults`` is a :meth:`repro.faults.plan.FaultPlan.parse` spec
    string (``"crash@5:formula-0;pid-exit@8"``), kept in its textual
    form so the description stays a plain value.
    """

    pids: Tuple[int, ...]
    period_s: Optional[float] = None
    sensor: StageSpec = StageSpec("hpc")
    formula: StageSpec = StageSpec("hpc")
    aggregators: Tuple[StageSpec, ...] = _DEFAULT_AGGREGATORS
    reporters: Tuple[StageSpec, ...] = ()
    degradation: Optional[DegradationSpec] = DegradationSpec()
    faults: Optional[str] = None
    telemetry: Optional[TelemetrySpec] = None
    control: Optional[ControlSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "pids",
                           tuple(int(pid) for pid in self.pids))
        object.__setattr__(self, "aggregators", tuple(self.aggregators))
        object.__setattr__(self, "reporters", tuple(self.reporters))
        if not self.pids:
            raise ConfigurationError("a pipeline needs at least one pid")
        if self.period_s is not None and self.period_s <= 0:
            raise ConfigurationError("period must be positive")

    # -- validation -----------------------------------------------------

    def validate(self, registry: Optional[ComponentRegistry] = None,
                 require_reporter: bool = True) -> None:
        """Check every referenced component and its params against
        *registry*; raises :class:`ConfigurationError` naming the
        available components on an unknown name."""
        registry = registry or default_registry()
        stages = [("sensor", self.sensor), ("formula", self.formula)]
        stages.extend(("aggregator", agg) for agg in self.aggregators)
        stages.extend(("reporter", rep) for rep in self.reporters)
        if self.control is not None:
            stages.append(("policy", self.control.policy))
        for kind, stage in stages:
            component = registry.get(kind, stage.type)
            component.validate_params(stage.params)
        if require_reporter and not self.reporters:
            raise ConfigurationError(
                "a pipeline needs at least one reporter "
                f"(available: {', '.join(registry.names('reporter'))})")
        if self.faults is not None:
            FaultPlan.parse(self.faults)  # fail early, at description time

    # -- dict form ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The JSON/TOML-ready nested-dict form (None fields omitted)."""
        data: Dict[str, Any] = {"pids": list(self.pids)}
        if self.period_s is not None:
            data["period_s"] = self.period_s
        if self.faults is not None:
            data["faults"] = self.faults
        data["sensor"] = self.sensor.to_dict()
        data["formula"] = self.formula.to_dict()
        data["aggregators"] = [agg.to_dict() for agg in self.aggregators]
        data["reporters"] = [rep.to_dict() for rep in self.reporters]
        if self.degradation is not None:
            data["degradation"] = self.degradation.to_dict()
        if self.telemetry is not None:
            data["telemetry"] = self.telemetry.to_dict()
        if self.control is not None:
            data["control"] = self.control.to_dict()
        return data

    _KNOWN_KEYS = frozenset((
        "pids", "period_s", "sensor", "formula", "aggregators",
        "reporters", "degradation", "faults", "telemetry", "control"))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PipelineSpec":
        unknown = sorted(set(data) - cls._KNOWN_KEYS)
        if unknown:
            raise ConfigurationError(
                f"unknown pipeline key(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(cls._KNOWN_KEYS))}")
        if "pids" not in data:
            raise ConfigurationError("pipeline config is missing 'pids'")
        kwargs: Dict[str, Any] = {"pids": tuple(data["pids"])}
        if "period_s" in data:
            kwargs["period_s"] = float(data["period_s"])
        if "sensor" in data:
            kwargs["sensor"] = StageSpec.from_dict(data["sensor"])
        if "formula" in data:
            kwargs["formula"] = StageSpec.from_dict(data["formula"])
        if "aggregators" in data:
            kwargs["aggregators"] = tuple(
                StageSpec.from_dict(entry) for entry in data["aggregators"])
        if "reporters" in data:
            kwargs["reporters"] = tuple(
                StageSpec.from_dict(entry) for entry in data["reporters"])
        kwargs["degradation"] = (
            DegradationSpec.from_dict(data["degradation"])
            if "degradation" in data else None)
        if "faults" in data:
            kwargs["faults"] = str(data["faults"])
        if "telemetry" in data:
            kwargs["telemetry"] = TelemetrySpec.from_dict(data["telemetry"])
        if "control" in data:
            kwargs["control"] = ControlSpec.from_dict(data["control"])
        return cls(**kwargs)

    # -- serialization --------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "PipelineSpec":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(f"bad JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigurationError("pipeline JSON must be an object")
        return cls.from_dict(data)

    def to_toml(self) -> str:
        return dumps_toml(self.to_dict())

    @classmethod
    def from_toml(cls, text: str) -> "PipelineSpec":
        return cls.from_dict(loads_toml(text))

    @classmethod
    def from_file(cls, path: Any) -> "PipelineSpec":
        """Load a spec from a ``.json`` or ``.toml`` file."""
        import os
        with open(os.fspath(path), "r", encoding="utf-8") as handle:
            text = handle.read()
        name = os.fspath(path).lower()
        if name.endswith(".json"):
            return cls.from_json(text)
        if name.endswith(".toml"):
            return cls.from_toml(text)
        stripped = text.lstrip()
        if stripped.startswith("{"):
            return cls.from_json(text)
        return cls.from_toml(text)

    def with_reporter(self, type: str, **params: Any) -> "PipelineSpec":
        """A copy with one more reporter stage appended."""
        return replace(self, reporters=self.reporters
                       + (StageSpec(type, params),))


@dataclass
class BuiltPipeline:
    """What :meth:`PipelineBuilder.build` hands back to the facade."""

    index: int
    refs: List[ActorRef]
    reporters: List[Actor]
    pid_aggregator: Optional[Actor]
    health: HealthLog
    mode: Optional[PipelineMode]
    #: The PowerCapActor instance when the spec has a [control] section.
    control: Optional[Actor] = None


class PipelineBuilder:
    """Turns a validated :class:`PipelineSpec` into live actors.

    Spawns Figure 2's graph under stable actor names (``sensor-{n}``,
    ``formula-{n}``, ``ts-aggregator-{n}``, ``pid-aggregator-{n}``,
    ``reporter-{n}``, ...) in a fixed order, so pipelines built from
    config files are indistinguishable from fluently-built ones, fault
    plans that address actors by name included.
    """

    def __init__(self, registry: Optional[ComponentRegistry] = None) -> None:
        self.registry = registry or default_registry()

    @staticmethod
    def _aggregator_name(stage_type: str, index: int) -> str:
        prefix = "ts" if stage_type == "timestamp" else stage_type
        return f"{prefix}-aggregator-{index}"

    def build(self, api: Any, spec: PipelineSpec,
              extra_reporters: Sequence[Actor] = ()) -> BuiltPipeline:
        """Instantiate and spawn the actor graph on *api*'s system.

        *extra_reporters* are pre-constructed reporter actors (from the
        fluent ``.to(...)`` path) spawned after the spec's declarative
        reporters.
        """
        spec.validate(self.registry,
                      require_reporter=not extra_reporters)

        n = api._pipeline_count
        api._pipeline_count += 1
        num_cpus = len(api.kernel.machine.topology)
        active_range = max(0.0,
                           api._full_load_estimate() - api.model.idle_w)

        policy = spec.degradation if spec.sensor.type == "hpc" else None
        context = BuildContext(
            kernel=api.kernel, machine=api.kernel.machine, perf=api.perf,
            model=api.model, pids=spec.pids,
            period_s=(spec.period_s if spec.period_s is not None
                      else api.clock.period_s),
            num_cpus=num_cpus, active_range_w=active_range,
            policy=policy, index=n)

        sensor = self.registry.create("sensor", spec.sensor.type, context,
                                      spec.sensor.params)
        formula = self.registry.create("formula", spec.formula.type,
                                       context, spec.formula.params)

        refs: List[ActorRef] = []
        refs.append(api.system.spawn(sensor, name=f"sensor-{n}"))
        refs.append(api.system.spawn(formula, name=f"formula-{n}"))

        pid_aggregator: Optional[Actor] = None
        for stage in spec.aggregators:
            aggregator = self.registry.create("aggregator", stage.type,
                                              context, stage.params)
            if stage.type == "pid":
                pid_aggregator = aggregator
            refs.append(api.system.spawn(
                aggregator, name=self._aggregator_name(stage.type, n)))

        # Not an actor: the log records each HealthEvent as published.
        health = HealthLog(name=f"health-{n}")
        api.system.event_bus.subscribe(HealthEvent, health)

        control: Optional[Actor] = None
        if spec.control is not None:
            # Imported lazily (like serve_telemetry's bridge) so the
            # observation-only pipeline never pays for the control layer.
            from repro.control.actor import PowerCapActor
            policy_obj = self.registry.create(
                "policy", spec.control.policy.type, context,
                spec.control.policy.params)
            control = PowerCapActor(
                api.kernel, cap_w=spec.control.cap_w, policy=policy_obj,
                grace_periods=spec.control.grace_periods,
                throttle=spec.control.throttle)
            refs.append(api.system.spawn(control, name=f"power-cap-{n}"))

        reporters: List[Actor] = [
            self.registry.create("reporter", stage.type, context,
                                 stage.params)
            for stage in spec.reporters]
        reporters.extend(extra_reporters)
        for j, reporter in enumerate(reporters):
            name = f"reporter-{n}" if j == 0 else f"reporter-{n}-{j}"
            refs.append(api.system.spawn(reporter, name=name))

        return BuiltPipeline(index=n, refs=refs, reporters=reporters,
                             pid_aggregator=pid_aggregator, health=health,
                             mode=getattr(sensor, "mode", None),
                             control=control)
