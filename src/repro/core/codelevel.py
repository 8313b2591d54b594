"""Code-level energy: per-region profiling and energy unit tests.

The paper's abstract promises "fine-grained power estimations at process
and *code-level*", and its reference [7] (Noureddine et al.) introduces
unit testing of software energy consumption.  This module delivers both
on top of the PowerAPI pipeline:

* :class:`RegionProfiler` — attributes a process's estimated power to
  the named code region active at each monitoring period (workloads
  declare regions on their phases), producing an energy profile like a
  profiler's flat view but in joules,
* :func:`measure_energy` — runs one workload to completion under live
  monitoring and returns its estimated active energy,
* :class:`EnergyBudget` / :func:`assert_energy_within` — the
  energy-unit-test primitive: fail when a workload exceeds its joule
  budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.core.messages import PowerReport
from repro.core.model import PowerModel
from repro.core.monitor import PowerAPI
from repro.core.reporters import InMemoryReporter
from repro.core.sampling import learn_power_model
from repro.core.stage import PipelineStage
from repro.errors import ConfigurationError
from repro.os.kernel import SimKernel
from repro.simcpu.spec import CpuSpec
from repro.workloads.base import Workload


class RegionProfiler(PipelineStage):
    """Accumulates per-region energy for monitored processes.

    Subscribes to the pipeline's :class:`PowerReport` stream; for each
    process in a report it asks the process's workload which region was
    active at that local time and integrates the estimated power there.
    """

    subscribes_to = (PowerReport,)

    def __init__(self, kernel: SimKernel,
                 workloads: Mapping[int, Workload]) -> None:
        super().__init__(component="region-profiler")
        if not workloads:
            raise ConfigurationError("RegionProfiler needs pid -> workload")
        self.kernel = kernel
        self.workloads = dict(workloads)
        self._energy_j: Dict[Tuple[int, str], float] = {}

    def handle(self, message) -> None:
        if not isinstance(message, PowerReport):
            return
        period_s = message.period_s
        for pid, power_w in message.by_pid.items():
            workload = self.workloads.get(pid)
            if workload is None:
                continue
            local_time = self.kernel.process(pid).wall_time_s
            # The report covers the period that just ended; sample its
            # middle.
            region = workload.region(max(0.0, local_time - period_s / 2))
            key = (pid, region or "<untagged>")
            self._energy_j[key] = (self._energy_j.get(key, 0.0)
                                   + power_w * period_s)

    # -- queries ------------------------------------------------------------

    def regions(self, pid: int) -> Tuple[str, ...]:
        """Region names with attributed energy for *pid*, by energy desc."""
        entries = [(region, joules) for (p, region), joules
                   in self._energy_j.items() if p == pid]
        entries.sort(key=lambda item: -item[1])
        return tuple(region for region, _joules in entries)

    def energy_j(self, pid: int, region: str) -> float:
        """Estimated active energy of (pid, region), joules."""
        return self._energy_j.get((pid, region), 0.0)

    def profile(self, pid: int) -> Dict[str, float]:
        """Full region -> joules map for one pid."""
        return {region: joules for (p, region), joules
                in self._energy_j.items() if p == pid}


@dataclass(frozen=True)
class EnergyMeasurement:
    """Result of :func:`measure_energy`."""

    #: Estimated active energy of the workload, joules.
    active_energy_j: float
    #: Wall-clock (simulated) runtime, seconds.
    duration_s: float
    #: Estimated mean active power, watts.
    mean_active_power_w: float
    #: Per-region energy (empty when the workload declares no regions).
    by_region_j: Dict[str, float]


def measure_energy(workload: Workload, spec: CpuSpec, model: PowerModel,
                   period_s: float = 0.5, quantum_s: float = 0.01,
                   max_duration_s: float = 600.0) -> EnergyMeasurement:
    """Run *workload* to completion and return its estimated energy.

    The workload must terminate (``total_duration_s`` not None or a
    program that eventually returns None) within *max_duration_s*.
    """
    kernel = SimKernel(spec, quantum_s=quantum_s)
    pid = kernel.spawn(workload, name=workload.name)
    api = PowerAPI(kernel, model, period_s=period_s)
    handle = api.monitor(pid).every(period_s).to(InMemoryReporter())
    profiler = RegionProfiler(kernel, {pid: workload})
    api.system.spawn(profiler, name="region-profiler")

    api.run_until_idle(max_duration_s=max_duration_s)
    api.flush()
    if kernel.live_pids:
        raise ConfigurationError(
            f"workload {workload.name!r} did not finish within "
            f"{max_duration_s} s")

    energy = handle.pid_aggregator.energy_by_pid_j.get(pid, 0.0)
    duration = kernel.time_s
    api.shutdown()
    return EnergyMeasurement(
        active_energy_j=energy,
        duration_s=duration,
        mean_active_power_w=energy / duration if duration > 0 else 0.0,
        by_region_j=profiler.profile(pid),
    )


@dataclass(frozen=True)
class EnergyBudget:
    """A pass/fail energy budget for one workload (ref [7]'s unit test)."""

    max_active_energy_j: float
    #: Optional cap on mean active power, watts.
    max_mean_power_w: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_active_energy_j <= 0:
            raise ConfigurationError("energy budget must be positive")


class EnergyBudgetExceeded(AssertionError):
    """Raised when a workload blows its energy budget."""


def assert_energy_within(workload: Workload, budget: EnergyBudget,
                         spec: CpuSpec, model: Optional[PowerModel] = None,
                         **measure_kwargs) -> EnergyMeasurement:
    """Energy unit test: run *workload*, fail if it exceeds *budget*.

    Returns the measurement on success so tests can record it.  When no
    model is given, one is learned first (slow — prefer passing a model).
    """
    if model is None:
        model = learn_power_model(spec).model
    measurement = measure_energy(workload, spec, model, **measure_kwargs)
    if measurement.active_energy_j > budget.max_active_energy_j:
        raise EnergyBudgetExceeded(
            f"{workload.name}: {measurement.active_energy_j:.1f} J exceeds "
            f"the {budget.max_active_energy_j:.1f} J budget")
    if (budget.max_mean_power_w is not None
            and measurement.mean_active_power_w > budget.max_mean_power_w):
        raise EnergyBudgetExceeded(
            f"{workload.name}: mean {measurement.mean_active_power_w:.2f} W "
            f"exceeds the {budget.max_mean_power_w:.2f} W cap")
    return measurement
