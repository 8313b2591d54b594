"""Aggregator actors: combining per-process estimations.

An Aggregator "aggregates the power estimations according to a dimension,
like the PID or the timestamp" (paper, Section 3):

* :class:`TimestampAggregator` — groups :class:`PowerReport` messages by
  timestamp and publishes one machine-level
  :class:`AggregatedPowerReport` per period (idle + per-process power),
* :class:`PidAggregator` — integrates per-process energy over the whole
  run; on a :class:`FlushAggregates` message it publishes a
  :class:`PidEnergyReport` with cumulative joules per pid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping

from repro.core.messages import (AggregatedPowerReport, FlushAggregates,
                                 GapMarker, PowerReport, SeriesEnd)
from repro.core.stage import PipelineStage
from repro.errors import ConfigurationError
from repro.units import left_sum

__all__ = ["FlushAggregates", "PidAggregator", "PidEnergyReport",
           "TimestampAggregator"]


@dataclass(frozen=True)
class PidEnergyReport:
    """Cumulative per-process energy over a monitoring run."""

    time_s: float
    duration_s: float
    #: pid -> joules of *active* energy attributed.
    energy_by_pid_j: Mapping[int, float]
    formula: str

    def total_j(self) -> float:
        """Sum of attributed energy over all pids, joules."""
        return left_sum(self.energy_by_pid_j.values())


class TimestampAggregator(PipelineStage):
    """One AggregatedPowerReport per timestamp, idle power included.

    Reports for timestamp T are held until the first report for a later
    timestamp arrives (all of T's reports are then known, because message
    delivery preserves publication order within the single-threaded
    system).

    Periods for which sensors published only :class:`GapMarker`
    messages (no formula produced an estimate) are emitted as explicit
    gap reports (``gap=True``, empty ``by_pid``) so the downstream
    series shows a marked hole instead of a silent one.  So are periods
    no message reached at all (a stage suspended by a restart backoff
    sits them out, or a formula crashed on the period's report), once a
    later period's message arrives: when the time moves more than one
    period past the last report, each skipped period gets a
    ``gap:missing`` report.  The periods after the last message of a run
    (a backoff that outlasts it, a stopped formula) get theirs on a
    :class:`FlushAggregates` that carries the kernel time: each later
    period that ended by then, and before the series did.  A sensor that
    lost every pid ends the series (:class:`SeriesEnd`); the periods
    after that are not missing, and get no report.
    """

    subscribes_to = (PowerReport, GapMarker, SeriesEnd)

    def __init__(self, idle_w: float) -> None:
        super().__init__(component="timestamp-aggregator")
        if idle_w < 0:
            raise ConfigurationError("idle_w must be >= 0")
        self.idle_w = idle_w
        self._pending_time: float = -1.0
        self._pending_period: float = 1.0
        self._pending_formula = ""
        self._pending: Dict[int, float] = {}
        self._pending_gaps: set = set()
        self._end_s = math.inf

    def flush(self) -> None:
        if self._pending:
            self.publish(AggregatedPowerReport(
                time_s=self._pending_time,
                period_s=self._pending_period,
                by_pid=dict(self._pending),
                idle_w=self.idle_w,
                formula=self._pending_formula,
            ))
        elif self._pending_gaps:
            self._publish_gap(self._pending_time, self._pending_period,
                              "+".join(sorted(self._pending_gaps)))
        self._pending.clear()
        self._pending_gaps.clear()

    def _publish_gap(self, time_s: float, period_s: float,
                     sources: str) -> None:
        self.publish(AggregatedPowerReport(
            time_s=time_s,
            period_s=period_s,
            by_pid={},
            idle_w=self.idle_w,
            formula="gap:" + sources,
            gap=True,
        ))

    def _advance_to(self, time_s: float, period_s: float) -> None:
        last_s = self._pending_time
        if ((self._pending or self._pending_gaps)
                and time_s > last_s + 1e-12):
            self.flush()
        if last_s >= 0.0:
            skipped = round((time_s - last_s) / period_s) - 1
            for index in range(1, skipped + 1):
                self._publish_gap(last_s + index * period_s, period_s,
                                  "missing")
        self._pending_time = time_s
        self._pending_period = period_s

    def receive(self, message) -> None:
        super().receive(message)
        if isinstance(message, FlushAggregates) and message.time_s is not None:
            self._mark_missing_until(message.time_s)

    def _mark_missing_until(self, time_s: float) -> None:
        """A ``gap:missing`` report for each period after the last one
        whose end (``last + k * period``) is at or before *time_s*, and
        before the end of the series."""
        last_s, period_s = self._pending_time, self._pending_period
        if last_s < 0.0:
            return
        until_s = min(time_s + 1e-12, self._end_s - 1e-12)
        index = 1
        while last_s + index * period_s <= until_s:
            self._publish_gap(last_s + index * period_s, period_s, "missing")
            index += 1
        self._pending_time = last_s + (index - 1) * period_s

    def handle(self, message) -> None:
        if isinstance(message, SeriesEnd):
            self._end_s = message.time_s
            return
        if isinstance(message, GapMarker):
            self._advance_to(message.time_s, message.period_s)
            self._pending_gaps.add(message.source or "sensor")
            return
        if not isinstance(message, PowerReport):
            return
        self._advance_to(message.time_s, message.period_s)
        self._pending_formula = message.formula
        pending = self._pending
        for pid, power_w in message.by_pid.items():
            pending[pid] = pending.get(pid, 0.0) + power_w


class PidAggregator(PipelineStage):
    """Integrates active energy per pid across the run."""

    subscribes_to = (PowerReport,)

    def __init__(self, formula: str = "") -> None:
        super().__init__(component="pid-aggregator")
        self._energy_j: Dict[int, float] = {}
        self._duration_s = 0.0
        self._last_time_s = 0.0
        self._formula = formula

    @property
    def energy_by_pid_j(self) -> Dict[int, float]:
        """Snapshot of accumulated energy per pid."""
        return dict(self._energy_j)

    def flush(self) -> None:
        self.publish(PidEnergyReport(
            time_s=self._last_time_s,
            duration_s=self._duration_s,
            energy_by_pid_j=dict(self._energy_j),
            formula=self._formula,
        ))

    def handle(self, message) -> None:
        if not isinstance(message, PowerReport):
            return
        period_s = message.period_s
        energy_j = self._energy_j
        for pid, power_w in message.by_pid.items():
            energy_j[pid] = energy_j.get(pid, 0.0) + power_w * period_s
        if message.time_s > self._last_time_s:
            self._duration_s += period_s
            self._last_time_s = message.time_s
        if not self._formula:
            self._formula = message.formula
