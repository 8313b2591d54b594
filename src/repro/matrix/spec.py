"""Declarative scenario matrices: one TOML, a cartesian product of cells.

A :class:`MatrixSpec` names the axes of a robustness campaign — CPU
presets, governors, workloads, fault plans, network-fault plans,
pipeline variants and power caps — and expands them into the full
cartesian product of :class:`MatrixCell` runs.  Each cell is a seeded,
virtual-time pipeline run evaluated against the invariant suite in
:mod:`repro.matrix.invariants`; :mod:`repro.matrix.runner` executes
cells (fanned out over :func:`repro.core.parallel.run_tasks` workers)
and :mod:`repro.matrix.shrink` reduces failing cells to minimal repros.

The spec follows the same conventions as
:class:`~repro.core.pipeline.PipelineSpec`: frozen values, lossless
TOML/JSON round-trips through :mod:`repro.configio`, and unknown keys
rejected loudly so typos never silently change a campaign.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import configio
from repro.errors import ConfigurationError
from repro.faults.network import (ConnectionReset, NetworkFaultPlan,
                                  Partition, SlowReader)
from repro.faults.plan import FaultPlan
from repro.os.governor import GOVERNORS
from repro.simcpu.spec import PRESETS
from repro.workloads import WORKLOADS

#: Governor names a matrix axis may use.  ``userspace`` is not among
#: them: it needs an explicit pinned frequency, which is not an axis
#: value.
GOVERNOR_NAMES = tuple(GOVERNORS)

#: Workload names a matrix axis may use (the CLI's workload set).
WORKLOAD_NAMES = tuple(WORKLOADS)

#: The built-in invariants, in evaluation order.
DEFAULT_SUITE = (
    "frame-conservation",
    "gap-accounting",
    "monotonic-seq",
    "exactly-once",
    "zero-loss",
    "cap-adherence",
    "health-consistency",
    "determinism",
)


def _require_keys(payload: Dict[str, object], known: Sequence[str],
                  what: str) -> None:
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ConfigurationError(
            f"unknown {what} key(s): {', '.join(unknown)}; "
            f"known keys: {', '.join(sorted(known))}")


@dataclass(frozen=True)
class PipelineVariant:
    """One named pipeline configuration a matrix sweeps over.

    ``replay_window=None`` runs the cell simulation-only (no telemetry
    session); any integer — including 0, which disables the replay
    ring and therefore RESUME — runs a loopback TCP telemetry session
    with the network-fault plan armed on the subscriber's socket.
    """

    name: str
    replay_window: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("pipeline variant needs a name")
        if self.replay_window is not None and self.replay_window < 0:
            raise ConfigurationError(
                f"pipeline variant {self.name!r}: replay_window "
                f"must be >= 0, got {self.replay_window}")

    @property
    def telemetry(self) -> bool:
        return self.replay_window is not None

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"name": self.name}
        if self.replay_window is not None:
            payload["replay_window"] = self.replay_window
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "PipelineVariant":
        _require_keys(payload, ("name", "replay_window"),
                      "pipeline variant")
        window = payload.get("replay_window")
        return cls(name=str(payload.get("name", "")),
                   replay_window=None if window is None else int(window))


@dataclass(frozen=True)
class InvariantConfig:
    """Which invariants run per cell, and their tolerances."""

    suite: Tuple[str, ...] = DEFAULT_SUITE
    #: Cap overshoot allowed after settling, percent of the cap.
    cap_tolerance_pct: float = 10.0
    #: Reporting periods at the *end* of the run cap-adherence judges
    #: (the converged tail; everything earlier is settling time).
    cap_settle_periods: int = 6
    #: Seconds after a fault window within which a gap marker is still
    #: "explained" by that fault.
    gap_window_s: float = 2.0
    #: Whether the determinism invariant re-runs the cell simulation
    #: under the same seed and compares digests.
    rerun: bool = True

    def __post_init__(self) -> None:
        from repro.matrix.invariants import INVARIANTS
        unknown = sorted(set(self.suite) - set(INVARIANTS))
        if unknown:
            raise ConfigurationError(
                f"unknown invariant(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(INVARIANTS))}")
        if self.cap_tolerance_pct < 0:
            raise ConfigurationError("cap_tolerance_pct must be >= 0")
        if self.cap_settle_periods < 0:
            raise ConfigurationError("cap_settle_periods must be >= 0")
        if self.gap_window_s < 0:
            raise ConfigurationError("gap_window_s must be >= 0")

    def to_dict(self) -> Dict[str, object]:
        return {
            "suite": list(self.suite),
            "cap_tolerance_pct": self.cap_tolerance_pct,
            "cap_settle_periods": self.cap_settle_periods,
            "gap_window_s": self.gap_window_s,
            "rerun": self.rerun,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "InvariantConfig":
        _require_keys(payload, ("suite", "cap_tolerance_pct",
                                "cap_settle_periods", "gap_window_s",
                                "rerun"), "invariants")
        kwargs: Dict[str, object] = {}
        if "suite" in payload:
            kwargs["suite"] = tuple(str(n) for n in payload["suite"])
        if "cap_tolerance_pct" in payload:
            kwargs["cap_tolerance_pct"] = float(payload["cap_tolerance_pct"])
        if "cap_settle_periods" in payload:
            kwargs["cap_settle_periods"] = int(payload["cap_settle_periods"])
        if "gap_window_s" in payload:
            kwargs["gap_window_s"] = float(payload["gap_window_s"])
        if "rerun" in payload:
            kwargs["rerun"] = bool(payload["rerun"])
        return cls(**kwargs)


@dataclass(frozen=True)
class MatrixCell:
    """One fully-resolved point of the cartesian product."""

    index: int
    cell_id: str
    cpu: str
    governor: str
    workload: str
    faults: str
    net_faults: str
    pipeline: PipelineVariant
    cap_w: float
    seed: int
    duration_s: float
    period_s: float
    invariants: InvariantConfig = field(default_factory=InvariantConfig)
    xfail: bool = False

    def axes(self) -> Dict[str, object]:
        """The cell's coordinates, JSON-ready (for reports and repros)."""
        return {
            "cpu": self.cpu,
            "governor": self.governor,
            "workload": self.workload,
            "faults": self.faults,
            "net_faults": self.net_faults,
            "pipeline": self.pipeline.to_dict(),
            "cap_w": self.cap_w,
        }


class MatrixSpec:
    """An immutable scenario matrix, loadable from one TOML file."""

    _KEYS = ("name", "seed", "duration_s", "period_s", "xfail", "axes",
             "pipelines", "invariants")
    _AXIS_KEYS = ("cpu", "governor", "workload", "faults", "net_faults",
                  "cap_w")

    def __init__(self, name: str = "matrix", seed: int = 0,
                 duration_s: float = 8.0, period_s: float = 0.5,
                 cpus: Sequence[str] = ("i3-2120",),
                 governors: Sequence[str] = ("performance",),
                 workloads: Sequence[str] = ("cpu",),
                 faults: Sequence[str] = ("",),
                 net_faults: Sequence[str] = ("",),
                 pipelines: Sequence[PipelineVariant] = (
                     PipelineVariant("sim"),),
                 caps_w: Sequence[float] = (0.0,),
                 invariants: Optional[InvariantConfig] = None,
                 xfail: Sequence[str] = ()) -> None:
        self.name = name
        self.seed = int(seed)
        self.duration_s = float(duration_s)
        self.period_s = float(period_s)
        self.cpus = tuple(cpus)
        self.governors = tuple(governors)
        self.workloads = tuple(workloads)
        self.faults = tuple(faults)
        self.net_faults = tuple(net_faults)
        self.pipelines = tuple(pipelines)
        self.caps_w = tuple(float(c) for c in caps_w)
        self.invariants = (invariants if invariants is not None
                           else InvariantConfig())
        self.xfail = tuple(xfail)
        self._validate()

    # -- validation -----------------------------------------------------

    def _validate(self) -> None:
        if not self.name:
            raise ConfigurationError("matrix needs a name")
        if self.duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")
        if self.period_s <= 0 or self.period_s > self.duration_s:
            raise ConfigurationError(
                "period_s must be positive and <= duration_s")
        for axis, values in (("cpu", self.cpus),
                             ("governor", self.governors),
                             ("workload", self.workloads),
                             ("faults", self.faults),
                             ("net_faults", self.net_faults),
                             ("pipelines", self.pipelines),
                             ("cap_w", self.caps_w)):
            if not values:
                raise ConfigurationError(f"axis {axis!r} must not be empty")
            if len(set(values)) != len(values):
                raise ConfigurationError(
                    f"axis {axis!r} has duplicate values")
        for cpu in self.cpus:
            if cpu not in PRESETS:
                raise ConfigurationError(
                    f"unknown cpu preset {cpu!r}; known: "
                    f"{', '.join(sorted(PRESETS))}")
        for governor in self.governors:
            if governor not in GOVERNOR_NAMES:
                raise ConfigurationError(
                    f"unknown governor {governor!r}; known: "
                    f"{', '.join(GOVERNOR_NAMES)}")
        for workload in self.workloads:
            if workload not in WORKLOAD_NAMES:
                raise ConfigurationError(
                    f"unknown workload {workload!r}; known: "
                    f"{', '.join(WORKLOAD_NAMES)}")
        names = [variant.name for variant in self.pipelines]
        if len(set(names)) != len(names):
            raise ConfigurationError("pipeline variant names must be unique")
        for cap in self.caps_w:
            if cap < 0:
                raise ConfigurationError(
                    f"cap_w values must be >= 0 (0 disables), got {cap}")
        for spec in self.faults:
            FaultPlan.parse(spec)  # raises ConfigurationError on bad specs
        for spec in self.net_faults:
            self._validate_net(spec)

    def _validate_net(self, spec: str) -> None:
        """Network plans must resolve inside the virtual run.

        The injector is driven by the kernel's virtual clock, which
        stops advancing when the run ends: a one-shot scheduled at or
        after ``duration_s``, or a window reaching past it, would hang
        the post-run drain forever instead of firing.
        """
        plan = NetworkFaultPlan.parse(spec)
        for event in plan:
            end = event.at_s + getattr(event, "duration_s", 0.0)
            if isinstance(event, (Partition, SlowReader)):
                if end > self.duration_s:
                    raise ConfigurationError(
                        f"network fault window {event.describe()!r} "
                        f"reaches past the run ({end:g}s > "
                        f"{self.duration_s:g}s duration)")
            elif event.at_s >= self.duration_s:
                raise ConfigurationError(
                    f"network fault {event.describe()!r} is scheduled "
                    f"at/after the end of the run "
                    f"({self.duration_s:g}s duration)")

    # -- expansion ------------------------------------------------------

    def axis_sizes(self) -> Dict[str, int]:
        return {
            "cpu": len(self.cpus),
            "governor": len(self.governors),
            "workload": len(self.workloads),
            "faults": len(self.faults),
            "net_faults": len(self.net_faults),
            "pipeline": len(self.pipelines),
            "cap_w": len(self.caps_w),
        }

    def __len__(self) -> int:
        count = 1
        for size in self.axis_sizes().values():
            count *= size
        return count

    @staticmethod
    def _plan_label(prefix: str, index: int, spec: str) -> str:
        return "none" if not spec.strip() else f"{prefix}{index}"

    def cell_id(self, cpu: str, governor: str, workload: str,
                fault_index: int, net_index: int,
                variant: PipelineVariant, cap_w: float) -> str:
        return "/".join((
            f"cpu={cpu}",
            f"gov={governor}",
            f"wl={workload}",
            f"faults={self._plan_label('f', fault_index, self.faults[fault_index])}",
            f"net={self._plan_label('n', net_index, self.net_faults[net_index])}",
            f"pipe={variant.name}",
            f"cap={cap_w:g}",
        ))

    def cells(self) -> Tuple[MatrixCell, ...]:
        """Expand the axes into the full cartesian product.

        Cell order (and therefore each cell's ``seed = matrix seed +
        index``) is the deterministic product order of the declared
        axis values; re-expanding the same spec always yields the
        identical cells.
        """
        expanded: List[MatrixCell] = []
        product = itertools.product(
            self.cpus, self.governors, self.workloads,
            range(len(self.faults)), range(len(self.net_faults)),
            self.pipelines, self.caps_w)
        for index, (cpu, governor, workload, fi, ni, variant,
                    cap_w) in enumerate(product):
            cell_id = self.cell_id(cpu, governor, workload, fi, ni,
                                   variant, cap_w)
            expanded.append(MatrixCell(
                index=index, cell_id=cell_id, cpu=cpu, governor=governor,
                workload=workload, faults=self.faults[fi],
                net_faults=self.net_faults[ni], pipeline=variant,
                cap_w=cap_w, seed=self.seed + index,
                duration_s=self.duration_s, period_s=self.period_s,
                invariants=self.invariants,
                xfail=self.expected_to_fail(cell_id)))
        return tuple(expanded)

    def expected_to_fail(self, cell_id: str) -> bool:
        """Whether *cell_id* matches any declared ``xfail`` pattern."""
        return any(fnmatch(cell_id, pattern) for pattern in self.xfail)

    # -- round-trips ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "period_s": self.period_s,
            "xfail": list(self.xfail),
            "axes": {
                "cpu": list(self.cpus),
                "governor": list(self.governors),
                "workload": list(self.workloads),
                "faults": list(self.faults),
                "net_faults": list(self.net_faults),
                "cap_w": list(self.caps_w),
            },
            "pipelines": [variant.to_dict() for variant in self.pipelines],
            "invariants": self.invariants.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "MatrixSpec":
        _require_keys(payload, cls._KEYS, "matrix")
        axes = dict(payload.get("axes", {}))
        _require_keys(axes, cls._AXIS_KEYS, "matrix axes")
        kwargs: Dict[str, object] = {}
        if "name" in payload:
            kwargs["name"] = str(payload["name"])
        if "seed" in payload:
            kwargs["seed"] = int(payload["seed"])
        if "duration_s" in payload:
            kwargs["duration_s"] = float(payload["duration_s"])
        if "period_s" in payload:
            kwargs["period_s"] = float(payload["period_s"])
        if "xfail" in payload:
            kwargs["xfail"] = tuple(str(p) for p in payload["xfail"])
        if "cpu" in axes:
            kwargs["cpus"] = tuple(str(v) for v in axes["cpu"])
        if "governor" in axes:
            kwargs["governors"] = tuple(str(v) for v in axes["governor"])
        if "workload" in axes:
            kwargs["workloads"] = tuple(str(v) for v in axes["workload"])
        if "faults" in axes:
            kwargs["faults"] = tuple(str(v) for v in axes["faults"])
        if "net_faults" in axes:
            kwargs["net_faults"] = tuple(str(v) for v in axes["net_faults"])
        if "cap_w" in axes:
            kwargs["caps_w"] = tuple(float(v) for v in axes["cap_w"])
        if "pipelines" in payload:
            kwargs["pipelines"] = tuple(
                PipelineVariant.from_dict(dict(entry))
                for entry in payload["pipelines"])
        if "invariants" in payload:
            kwargs["invariants"] = InvariantConfig.from_dict(
                dict(payload["invariants"]))
        return cls(**kwargs)

    def to_toml(self) -> str:
        return configio.dumps_toml(self.to_dict())

    @classmethod
    def from_toml(cls, text: str) -> "MatrixSpec":
        return cls.from_dict(configio.loads_toml(text))

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "MatrixSpec":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read matrix file {path}: {exc}") from None
        return cls.from_toml(text)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatrixSpec):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (f"MatrixSpec(name={self.name!r}, cells={len(self)}, "
                f"seed={self.seed})")


def single_cell_spec(cell: MatrixCell, name: str) -> MatrixSpec:
    """A standalone one-cell matrix reproducing *cell* exactly.

    Fault specs are flattened through ``parse().to_spec()`` first so a
    seeded ``random:`` campaign reproduces as its explicit events and
    the repro no longer depends on the original cell's seed or index.
    """
    faults = FaultPlan.parse(cell.faults).to_spec() if cell.faults else ""
    nets = (NetworkFaultPlan.parse(cell.net_faults).to_spec()
            if cell.net_faults else "")
    return MatrixSpec(
        name=name, seed=cell.seed, duration_s=cell.duration_s,
        period_s=cell.period_s, cpus=(cell.cpu,),
        governors=(cell.governor,), workloads=(cell.workload,),
        faults=(faults,), net_faults=(nets,), pipelines=(cell.pipeline,),
        caps_w=(cell.cap_w,), invariants=cell.invariants)


def replace_cell(cell: MatrixCell, **changes: object) -> MatrixCell:
    """``dataclasses.replace`` for cells, recomputing nothing: the
    shrinker keeps the original id/seed so a reduced candidate is
    traceable back to the failing cell it came from."""
    return replace(cell, **changes)
