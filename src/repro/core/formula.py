"""Formula actors: turning sensor reports into power estimations.

A Formula "gets the sensor messages from the event bus in order to
estimate the power consumption of a given process" (paper, Section 3).

* :class:`HpcFormula` — applies a learned
  :class:`~repro.core.model.PowerModel` to HPC rates; this is PowerAPI's
  own formula,
* :class:`CpuLoadFormula` — the CPU-load linear model of Versick et al.,
  kept here because it plugs into the same pipeline and the ablations
  compare the two metric choices.

Each estimates every pid of a report at once: a formula exception loses
the whole period.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.messages import HpcReport, PowerReport, ProcFsReport
from repro.core.model import PowerModel, Terms, linear_power
from repro.core.stage import PipelineStage
from repro.errors import ConfigurationError


class HpcFormula(PipelineStage):
    """Per-process power from HPC rates via a frequency-aware model.

    Each pid's power is :func:`~repro.core.model.linear_power` of its
    count tuple over the period, with the float operations
    ``FrequencyFormula.predict({event: count / period_s})`` makes.
    """

    subscribes_to = (HpcReport,)

    def __init__(self, model: PowerModel) -> None:
        super().__init__(component="hpc-formula")
        self.model = model
        #: (formula frequency, report events) -> the formula's terms
        #: over those events.
        self._terms: Dict[Tuple[int, Tuple[str, ...]], Terms] = {}

    def handle(self, message) -> None:
        if not isinstance(message, HpcReport):
            return
        # One frequency per report: resolve its formula once.
        formula = self.model.nearest_formula(message.frequency_hz)
        key = (formula.frequency_hz, message.events)
        terms = self._terms.get(key)
        if terms is None:
            terms = self._terms[key] = formula.terms(message.events)
        intercept_w = formula.intercept_w
        period_s = message.period_s
        self.publish(PowerReport(
            time_s=message.time_s,
            period_s=period_s,
            by_pid={pid: linear_power(intercept_w, terms, counts, period_s)
                    for pid, counts in message.counters.items()},
            formula=self.model.name,
        ))


def cpu_load_w(cpu_time_delta_s: float, period_s: float, num_cpus: int,
               active_range_w: float) -> float:
    """A process's power from its CPU-time share of one period: the
    fraction of total CPU capacity it used, times the active range."""
    share = cpu_time_delta_s / (period_s * num_cpus)
    return max(0.0, share) * active_range_w


class CpuLoadFormula(PipelineStage):
    """Per-process power proportional to CPU-time share (Versick-style).

    ``active_range_w`` is the machine's measured span between idle and
    all-cores-busy; a process consuming a fraction of total CPU capacity
    is attributed that fraction of the span.
    """

    subscribes_to = (ProcFsReport,)

    def __init__(self, active_range_w: float, num_cpus: int) -> None:
        super().__init__(component="cpu-load")
        if active_range_w < 0:
            raise ConfigurationError("active_range_w must be >= 0")
        if num_cpus < 1:
            raise ConfigurationError("num_cpus must be >= 1")
        self.active_range_w = active_range_w
        self.num_cpus = num_cpus

    def handle(self, message) -> None:
        if not isinstance(message, ProcFsReport):
            return
        period_s = message.period_s
        self.publish(PowerReport(
            time_s=message.time_s,
            period_s=period_s,
            by_pid={pid: cpu_load_w(delta_s, period_s, self.num_cpus,
                                    self.active_range_w)
                    for pid, delta_s in message.cpu_time_delta_s.items()},
            formula="cpu-load",
        ))
