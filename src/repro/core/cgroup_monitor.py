"""Container-level power aggregation over the PowerAPI pipeline.

:class:`CgroupAggregator` subscribes to the
:class:`~repro.core.messages.PowerReport` stream and re-keys its
per-process estimates by cgroup, publishing one
:class:`CgroupPowerReport` per timestamp — the container view
powerapi-ng and Kepler expose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.core.stage import PipelineStage
from repro.core.messages import PowerReport
from repro.errors import ConfigurationError
from repro.os.cgroups import CgroupTree
from repro.units import left_sum


@dataclass(frozen=True)
class CgroupPowerReport:
    """Per-container power for one monitoring period."""

    time_s: float
    period_s: float
    #: cgroup name -> active watts.
    by_group: Mapping[str, float]
    idle_w: float
    formula: str

    @property
    def active_w(self) -> float:
        """Sum of per-container active power, watts."""
        return left_sum(self.by_group.values())

    @property
    def total_w(self) -> float:
        """Machine estimate: idle + per-container active power."""
        return self.idle_w + self.active_w

    def groups(self) -> Tuple[str, ...]:
        """Container names present in this report, sorted."""
        return tuple(sorted(self.by_group))


class CgroupAggregator(PipelineStage):
    """Re-keys per-process power reports by cgroup, per timestamp."""

    subscribes_to = (PowerReport,)

    def __init__(self, tree: CgroupTree, idle_w: float) -> None:
        super().__init__(component="cgroup-aggregator")
        if idle_w < 0:
            raise ConfigurationError("idle_w must be >= 0")
        self.tree = tree
        self.idle_w = idle_w
        self._pending_time = -1.0
        self._pending_period = 1.0
        self._pending_formula = ""
        self._pending: Dict[str, float] = {}
        #: Cumulative active energy per group over the whole run.
        self.energy_by_group_j: Dict[str, float] = {}

    def flush(self) -> None:
        if self._pending:
            self.publish(CgroupPowerReport(
                time_s=self._pending_time,
                period_s=self._pending_period,
                by_group=dict(self._pending),
                idle_w=self.idle_w,
                formula=self._pending_formula,
            ))
            self._pending.clear()

    def handle(self, message) -> None:
        if not isinstance(message, PowerReport):
            return
        if self._pending and message.time_s > self._pending_time + 1e-12:
            self.flush()
        self._pending_time = message.time_s
        self._pending_period = period_s = message.period_s
        self._pending_formula = message.formula
        pending, energy_j = self._pending, self.energy_by_group_j
        for pid, power_w in message.by_pid.items():
            group = self.tree.group_of(pid)
            pending[group] = pending.get(group, 0.0) + power_w
            energy_j[group] = energy_j.get(group, 0.0) + power_w * period_s


class InMemoryCgroupReporter(PipelineStage):
    """Collects CgroupPowerReports for tests and analysis."""

    subscribes_to = (CgroupPowerReport,)

    def __init__(self) -> None:
        super().__init__(component="cgroup-reporter")
        self.reports: list = []

    def handle(self, message) -> None:
        if isinstance(message, CgroupPowerReport):
            self.reports.append(message)

    def group_series(self, group: str) -> list:
        """Active watts of one group per period."""
        return [report.by_group.get(group, 0.0) for report in self.reports]
