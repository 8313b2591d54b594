"""The component registry: pluggable pipeline stages by name.

PowerAPI is "a consistent set of modules that can be assembled" per
deployment (paper, Figure 2).  This module is the assembly catalogue:
sensors, formulas, aggregators and reporters register a *factory* under
a short name together with their declared config parameters, so a
:class:`~repro.core.pipeline.PipelineSpec` can be validated and
instantiated without the core ever naming concrete classes — and
third-party stages plug in without touching core code::

    from repro.core.components import Param, default_registry

    def make_udp_reporter(ctx, host, port=9999):
        return UdpReporter(host, int(port), pids=ctx.pids)

    default_registry().register(
        "reporter", "udp", make_udp_reporter,
        params=(Param("host", str, required=True),
                Param("port", int, default=9999)),
        description="datagram-per-report UDP exporter")

Factories receive a :class:`BuildContext` — everything the enclosing
:class:`~repro.core.monitor.PowerAPI` knows about the machine, model and
pipeline being assembled — plus the validated config parameters as
keyword arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.core.aggregators import PidAggregator, TimestampAggregator
from repro.core.formula import CpuLoadFormula, HpcFormula
from repro.core.reporters import (ConsoleReporter, CsvReporter,
                                  InMemoryReporter, JsonlReporter,
                                  PrometheusReporter)
from repro.core.sensors import HpcSensor, ProcFsSensor
from repro.errors import ConfigurationError
from repro.simcpu.counters import GENERIC_TRIO

#: The stage kinds a pipeline is assembled from, in pipeline order.
#: ``policy`` entries are control-loop policies for the ``[control]``
#: section rather than Figure-2 stages, but they validate and plug in
#: the same way.
KINDS: Tuple[str, ...] = ("sensor", "formula", "aggregator", "reporter",
                          "policy")


@dataclass
class BuildContext:
    """Everything a component factory may need from the host pipeline.

    Handed to every factory as its first positional argument.
    ``policy`` is only set while building an ``hpc`` sensor with a
    degradation ladder; ``index`` is the pipeline's ordinal within its
    :class:`~repro.core.monitor.PowerAPI` (used for stable actor names).
    """

    kernel: Any = None
    machine: Any = None
    perf: Any = None
    model: Any = None
    pids: Tuple[int, ...] = ()
    period_s: float = 1.0
    num_cpus: int = 1
    active_range_w: float = 0.0
    policy: Any = None
    index: int = 0

    @property
    def procfs(self):
        return None if self.kernel is None else self.kernel.procfs


@dataclass(frozen=True)
class Param:
    """One declared config parameter of a registered component."""

    name: str
    #: Expected scalar type (``str``/``int``/``float``/``bool``) or
    #: ``list`` for homogeneous string lists (e.g. HPC event names).
    type: type = str
    default: Any = None
    required: bool = False
    help: str = ""

    def coerce(self, value: Any) -> Any:
        """Validate/convert one config value to the declared type."""
        try:
            if self.type is list:
                if isinstance(value, (str, bytes)) or not isinstance(
                        value, (list, tuple)):
                    raise TypeError("expected a list")
                return tuple(str(item) for item in value)
            if self.type is bool:
                if not isinstance(value, bool):
                    raise TypeError("expected a bool")
                return value
            if self.type is float and isinstance(value, int) \
                    and not isinstance(value, bool):
                return float(value)
            if self.type in (int, float) and isinstance(value, bool):
                raise TypeError("expected a number")
            if not isinstance(value, self.type):
                raise TypeError(f"expected {self.type.__name__}")
            return value
        except TypeError as exc:
            raise ConfigurationError(
                f"parameter {self.name!r}: {exc} "
                f"(got {type(value).__name__} {value!r})") from None


@dataclass(frozen=True)
class Component:
    """A registered pipeline stage: factory plus declared parameters."""

    kind: str
    name: str
    factory: Callable[..., Any]
    params: Tuple[Param, ...] = ()
    description: str = ""

    def validate_params(self, config: Mapping[str, Any]) -> Dict[str, Any]:
        """Check *config* against the declaration; returns coerced kwargs."""
        declared = {param.name: param for param in self.params}
        unknown = sorted(set(config) - set(declared))
        if unknown:
            known = ", ".join(sorted(declared)) or "(none)"
            raise ConfigurationError(
                f"{self.kind} {self.name!r} got unknown parameter(s) "
                f"{', '.join(repr(name) for name in unknown)}; "
                f"declared: {known}")
        coerced: Dict[str, Any] = {}
        for param in self.params:
            if param.name in config:
                coerced[param.name] = param.coerce(config[param.name])
            elif param.required:
                raise ConfigurationError(
                    f"{self.kind} {self.name!r} requires parameter "
                    f"{param.name!r}")
        return coerced


class ComponentRegistry:
    """Named factories for each stage kind, with config validation."""

    def __init__(self) -> None:
        self._components: Dict[str, Dict[str, Component]] = {
            kind: {} for kind in KINDS}

    # -- registration -------------------------------------------------

    def register(self, kind: str, name: str, factory: Callable[..., Any],
                 params: Sequence[Param] = (), description: str = "",
                 replace: bool = False) -> Component:
        """Register *factory* as ``kind/name``; returns the entry."""
        table = self._table(kind)
        if not name or not isinstance(name, str):
            raise ConfigurationError(
                f"component name must be a non-empty string, got {name!r}")
        if name in table and not replace:
            raise ConfigurationError(
                f"{kind} {name!r} is already registered "
                "(pass replace=True to override)")
        component = Component(kind=kind, name=name, factory=factory,
                              params=tuple(params),
                              description=description)
        table[name] = component
        return component

    def _table(self, kind: str) -> Dict[str, Component]:
        try:
            return self._components[kind]
        except KeyError:
            raise ConfigurationError(
                f"unknown component kind {kind!r}; "
                f"use one of {', '.join(KINDS)}") from None

    # -- lookup -------------------------------------------------------

    def names(self, kind: str) -> Tuple[str, ...]:
        """Registered component names of one kind, sorted."""
        return tuple(sorted(self._table(kind)))

    def get(self, kind: str, name: str) -> Component:
        """The registered entry, or a ConfigurationError naming the
        available components of that kind."""
        table = self._table(kind)
        try:
            return table[name]
        except KeyError:
            available = ", ".join(sorted(table)) or "(none)"
            raise ConfigurationError(
                f"unknown {kind} {name!r}; available {kind}s: "
                f"{available}") from None

    def create(self, kind: str, name: str, context: BuildContext,
               config: Optional[Mapping[str, Any]] = None) -> Any:
        """Validate *config* and invoke the factory."""
        component = self.get(kind, name)
        kwargs = component.validate_params(config or {})
        return component.factory(context, **kwargs)

    def describe(self, kind: Optional[str] = None
                 ) -> List[Tuple[str, str, str, str]]:
        """(kind, name, params, description) rows for docs and the CLI."""
        rows = []
        for each_kind in (KINDS if kind is None else (kind,)):
            for name in self.names(each_kind):
                component = self.get(each_kind, name)
                params = ", ".join(
                    param.name + ("*" if param.required else "")
                    for param in component.params)
                rows.append((each_kind, name, params,
                             component.description))
        return rows


# -- built-in components ---------------------------------------------------

def _hpc_sensor(ctx: BuildContext, events: Sequence[str] = GENERIC_TRIO):
    return HpcSensor(ctx.machine, ctx.perf, ctx.pids, events=tuple(events),
                     policy=ctx.policy, procfs=ctx.procfs,
                     active_range_w=ctx.active_range_w,
                     component=f"hpc-sensor-{ctx.index}")


def _procfs_sensor(ctx: BuildContext):
    return ProcFsSensor(ctx.procfs, ctx.pids)


def _hpc_formula(ctx: BuildContext):
    return HpcFormula(ctx.model)


def _cpu_load_formula(ctx: BuildContext,
                      active_range_w: Optional[float] = None):
    range_w = ctx.active_range_w if active_range_w is None else active_range_w
    return CpuLoadFormula(active_range_w=range_w, num_cpus=ctx.num_cpus)


def _timestamp_aggregator(ctx: BuildContext):
    return TimestampAggregator(idle_w=ctx.model.idle_w)


def _pid_aggregator(ctx: BuildContext):
    return PidAggregator()


def _memory_reporter(ctx: BuildContext):
    return InMemoryReporter()


def _console_reporter(ctx: BuildContext):
    return ConsoleReporter()


def _csv_reporter(ctx: BuildContext, path: str, flush_every: int = 1,
                  fsync: bool = False, control: bool = False):
    return CsvReporter(path, pids=ctx.pids, flush_every=flush_every,
                       fsync=fsync, control=control)


def _jsonl_reporter(ctx: BuildContext, path: str, flush_every: int = 1,
                    fsync: bool = False, control: bool = False):
    return JsonlReporter(path, flush_every=flush_every, fsync=fsync,
                         control=control)


def _prometheus_reporter(ctx: BuildContext, path: str):
    return PrometheusReporter(path)


def _deadband_policy(ctx: BuildContext, band_w: float = 2.0,
                     up_patience: int = 2):
    from repro.control.policy import DeadBandPolicy
    return DeadBandPolicy(band_w=band_w, up_patience=up_patience)


def _pi_policy(ctx: BuildContext, kp: float = 0.4, ki: float = 0.15,
               step_w: Optional[float] = None, band_w: float = 1.0,
               max_step: int = 2, windup_w: float = 30.0):
    from repro.control.policy import PIPolicy
    if step_w is None:
        # Watts per ladder rung, estimated from the machine's active
        # range spread across its DVFS table.
        rungs = max(1, len(ctx.machine.spec.all_frequencies_hz) - 1)
        step_w = max(0.5, ctx.active_range_w / rungs)
    return PIPolicy(step_w=step_w, kp=kp, ki=ki, band_w=band_w,
                    max_step=max_step, windup_w=windup_w)


def _register_builtins(registry: ComponentRegistry) -> ComponentRegistry:
    registry.register(
        "sensor", "hpc", _hpc_sensor,
        params=(Param("events", list,
                      help="HPC event names (default: the generic trio)"),),
        description="per-process hardware performance counters via perf")
    registry.register(
        "sensor", "procfs", _procfs_sensor,
        description="per-process CPU-time accounting from procfs")
    registry.register(
        "formula", "hpc", _hpc_formula,
        description="learned frequency-aware HPC power model")
    registry.register(
        "formula", "cpu-load", _cpu_load_formula,
        params=(Param("active_range_w", float,
                      help="idle-to-full-load span in watts "
                           "(default: estimated from the model)"),),
        description="Versick-style CPU-time-share linear model")
    registry.register(
        "aggregator", "timestamp", _timestamp_aggregator,
        description="one machine-level report per period, idle included")
    registry.register(
        "aggregator", "pid", _pid_aggregator,
        description="cumulative per-process energy over the run")
    registry.register(
        "reporter", "memory", _memory_reporter,
        description="in-memory report lists (tests, programmatic use)")
    registry.register(
        "reporter", "console", _console_reporter,
        description="one human-readable line per period on stdout")
    registry.register(
        "reporter", "csv", _csv_reporter,
        params=(Param("path", str, required=True),
                Param("flush_every", int, default=1),
                Param("fsync", bool, default=False),
                Param("control", bool, default=False)),
        description="one CSV row per period")
    registry.register(
        "reporter", "jsonl", _jsonl_reporter,
        params=(Param("path", str, required=True),
                Param("flush_every", int, default=1),
                Param("fsync", bool, default=False),
                Param("control", bool, default=False)),
        description="one JSON object per period")
    registry.register(
        "reporter", "prometheus", _prometheus_reporter,
        params=(Param("path", str, required=True),),
        description="atomic Prometheus textfile-collector exposition")
    registry.register(
        "policy", "deadband", _deadband_policy,
        params=(Param("band_w", float, default=2.0),
                Param("up_patience", int, default=2)),
        description="threshold stepping with asymmetric hysteresis")
    registry.register(
        "policy", "pi", _pi_policy,
        params=(Param("kp", float, default=0.4),
                Param("ki", float, default=0.15),
                Param("step_w", float,
                      help="watts per ladder rung (default: estimated "
                           "from the machine's active range)"),
                Param("band_w", float, default=1.0),
                Param("max_step", int, default=2),
                Param("windup_w", float, default=30.0)),
        description="PI controller quantised to ladder steps, anti-windup")
    return registry


_DEFAULT = _register_builtins(ComponentRegistry())


def default_registry() -> ComponentRegistry:
    """The process-wide registry with every built-in stage installed."""
    return _DEFAULT
