"""Messages exchanged on the PowerAPI event bus (Figure 2).

The pipeline is: Sensors publish :class:`SensorReport` subclasses →
Formulas publish :class:`PowerReport` → Aggregators publish
:class:`AggregatedPowerReport` → Reporters render.  Messages are frozen
dataclasses: actors never share mutable state.  Each stage passes one
message per period that carries every monitored pid, keyed in the
sensor's pid order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.units import left_sum


@dataclass(frozen=True)
class SensorReport:
    """Base class of everything a Sensor publishes."""

    #: End of the monitoring period this report covers, seconds.
    time_s: float
    #: Length of the covered period, seconds.
    period_s: float
    #: Monitored process, or -1 for machine-wide reports.
    pid: int

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ConfigurationError("report period must be positive")


@dataclass(frozen=True)
class HpcReport(SensorReport):
    """Hardware-counter deltas of every sampled process over one period
    (``pid`` is -1)."""

    #: The counters' canonical event names, in counter order (an event
    #: opened under two spellings appears twice).
    events: Tuple[str, ...] = ()
    #: pid -> counts during the period (not cumulative), aligned with
    #: ``events``.
    counters: Mapping[int, Tuple[float, ...]] = field(default_factory=dict)
    #: Dominant core frequency during the period, hertz.
    frequency_hz: int = 0


@dataclass(frozen=True)
class ProcFsReport(SensorReport):
    """CPU-time accounting of every process over one period (``pid`` is
    -1)."""

    #: pid -> CPU seconds consumed during the period.
    cpu_time_delta_s: Mapping[int, float] = field(default_factory=dict)


@dataclass(frozen=True)
class PowerMeterReport(SensorReport):
    """A physical power-meter reading (machine-wide; pid is -1)."""

    power_w: float = 0.0


@dataclass(frozen=True)
class GapMarker(SensorReport):
    """A period for which a sensor had no valid data.

    Sensors publish a marker instead of silently skipping the period, so
    downstream series show explicit holes and health tooling can count
    them.  ``source`` names the failing acquisition path ("hpc",
    "meter", ...).
    """

    source: str = ""

    def to_wire(self) -> Dict[str, object]:
        """JSON-safe dict for the telemetry wire protocol."""
        return {"time_s": self.time_s, "period_s": self.period_s,
                "pid": self.pid, "source": self.source}

    @classmethod
    def from_wire(cls, payload: Mapping[str, object]) -> "GapMarker":
        """Rebuild a marker from :meth:`to_wire` output."""
        return cls(time_s=float(payload["time_s"]),
                   period_s=float(payload["period_s"]),
                   pid=int(payload.get("pid", -1)),
                   source=str(payload.get("source", "")))


@dataclass(frozen=True)
class FlushAggregates:
    """Ask every flushable stage to publish/persist its pending state.

    *time_s* is the kernel time the run reached (None: not known): a
    stage that marks missing periods marks the ones that ended by then.
    Historically defined in :mod:`repro.core.aggregators`; it lives with
    the other bus messages so the shared stage lifecycle
    (:mod:`repro.core.stage`) can route it without import cycles.
    """

    time_s: Optional[float] = None


@dataclass(frozen=True)
class SeriesEnd:
    """A sensor's series ended at *time_s*: every pid it samples is lost
    (its counters went invalid and cannot be reopened) and nothing
    estimates them instead, so it publishes nothing from then on.

    The periods from *time_s* on are past the end of the series, not
    missing: a :class:`FlushAggregates` marks none of them.
    """

    time_s: float


@dataclass(frozen=True)
class HealthEvent:
    """A pipeline health transition (degradation, recovery, fault, ...).

    Published on the event bus by sensors, the supervision layer and the
    fault injector; collected per pipeline on
    :class:`~repro.faults.health.HealthLog` (``MonitorHandle.health``).
    """

    time_s: float
    #: Component that observed the transition ("hpc-sensor", "meter", ...).
    component: str
    #: Machine-readable transition kind ("degraded", "recovered",
    #: "meter-dropout", "actor-restarted", ...).
    kind: str
    detail: str = ""

    def to_wire(self) -> Dict[str, object]:
        """JSON-safe dict for the telemetry wire protocol."""
        return {"time_s": self.time_s, "component": self.component,
                "kind": self.kind, "detail": self.detail}

    @classmethod
    def from_wire(cls, payload: Mapping[str, object]) -> "HealthEvent":
        """Rebuild an event from :meth:`to_wire` output."""
        return cls(time_s=float(payload["time_s"]),
                   component=str(payload["component"]),
                   kind=str(payload["kind"]),
                   detail=str(payload.get("detail", "")))


@dataclass(frozen=True)
class SetCap:
    """Runtime request to change (or remove) a pipeline's power cap.

    Published on the event bus (``MonitorHandle.set_cap``); the
    :class:`~repro.control.actor.PowerCapActor` picks it up on the next
    dispatch.  ``cap_w=None`` removes the cap: actuation unwinds (nice
    restored, frequency ceiling released) over the following periods.
    """

    cap_w: Optional[float] = None

    def __post_init__(self) -> None:
        if self.cap_w is not None and self.cap_w <= 0:
            raise ConfigurationError("cap must be positive watts (or None)")


@dataclass(frozen=True)
class CapEvent:
    """One control-loop actuation (or explicit non-action) under a cap.

    Published on the event bus by the power-cap actor whenever it acts:
    frequency steps, process throttles, cap changes, and the explicit
    ``unattainable`` verdict when the cap lies below the reachable
    floor.  Reporters surface the latest control state; a
    :class:`HealthEvent` mirror (kind ``cap-<action>``) carries the same
    transition onto the health log and over telemetry.
    """

    time_s: float
    #: "step-down", "step-up", "throttle", "unthrottle", "cap-set",
    #: "cap-removed" or "unattainable".
    action: str
    #: Cap in effect, watts (None after removal).
    cap_w: Optional[float]
    #: The estimate that triggered the decision, watts.
    estimate_w: float
    #: DVFS ceiling after the action, hertz.
    frequency_hz: int
    #: Ladder index of the ceiling (0 = lowest P-state).
    level: int
    #: Process acted on (throttle/unthrottle), else -1.
    pid: int = -1
    detail: str = ""

    def to_wire(self) -> Dict[str, object]:
        """JSON-safe dict (mirrors the shape of the other bus messages)."""
        return {"time_s": self.time_s, "action": self.action,
                "cap_w": self.cap_w, "estimate_w": self.estimate_w,
                "frequency_hz": self.frequency_hz, "level": self.level,
                "pid": self.pid, "detail": self.detail}

    @classmethod
    def from_wire(cls, payload: Mapping[str, object]) -> "CapEvent":
        cap = payload.get("cap_w")
        return cls(time_s=float(payload["time_s"]),
                   action=str(payload["action"]),
                   cap_w=None if cap is None else float(cap),
                   estimate_w=float(payload["estimate_w"]),
                   frequency_hz=int(payload["frequency_hz"]),
                   level=int(payload["level"]),
                   pid=int(payload.get("pid", -1)),
                   detail=str(payload.get("detail", "")))


@dataclass(frozen=True)
class PowerReport:
    """A Formula's power estimation for every process of one period."""

    time_s: float
    period_s: float
    #: pid -> estimated *active* power attributable to the pid, watts.
    by_pid: Mapping[int, float]
    #: Name of the formula that produced the estimate.
    formula: str

    def __post_init__(self) -> None:
        if any(power_w < 0 for power_w in self.by_pid.values()):
            raise ConfigurationError("estimated power cannot be negative")


@dataclass(frozen=True)
class AggregatedPowerReport:
    """Aggregator output: per-pid and total power for one timestamp."""

    time_s: float
    period_s: float
    #: pid -> active watts.
    by_pid: Mapping[int, float]
    #: Idle power added to the total, watts.
    idle_w: float
    formula: str
    #: True when no formula produced data for this period (sensors only
    #: published :class:`GapMarker` messages); ``by_pid`` is then empty.
    gap: bool = False

    @property
    def active_w(self) -> float:
        """Sum of per-process active power."""
        return left_sum(self.by_pid.values())

    @property
    def total_w(self) -> float:
        """Machine estimate: idle + per-process active power."""
        return self.idle_w + self.active_w

    def pids(self) -> Tuple[int, ...]:
        """Monitored pids present in this report, ascending."""
        return tuple(sorted(self.by_pid))

    def to_wire(self) -> Dict[str, object]:
        """JSON-safe dict for the telemetry wire protocol.

        ``by_pid`` keys become strings (JSON objects cannot have integer
        keys); :meth:`from_wire` restores them.
        """
        return {
            "time_s": self.time_s,
            "period_s": self.period_s,
            "by_pid": {str(pid): watts for pid, watts in self.by_pid.items()},
            "idle_w": self.idle_w,
            "formula": self.formula,
            "gap": self.gap,
        }

    @classmethod
    def from_wire(cls, payload: Mapping[str, object]
                  ) -> "AggregatedPowerReport":
        """Rebuild a report from :meth:`to_wire` output."""
        return cls(
            time_s=float(payload["time_s"]),
            period_s=float(payload["period_s"]),
            by_pid={int(pid): float(watts)
                    for pid, watts in dict(payload["by_pid"]).items()},
            idle_w=float(payload["idle_w"]),
            formula=str(payload["formula"]),
            gap=bool(payload.get("gap", False)),
        )
