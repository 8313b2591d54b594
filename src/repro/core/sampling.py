"""The power-model learning pipeline (Figure 1 of the paper).

The process, exactly as the paper describes it:

1. *Workloads* — CPU- and memory-intensive stressors cover the space of
   processor activities (step 1 in the figure),
2. they are *executed for each frequency* made available by the processor
   (including turbo bins when present), pinned there with the userspace
   governor,
3. during each run the *PowerSpy* meter records wall power while the
   *HPCs* are read through the perf layer (steps 2–3),
4. samples are fed to a *multivariate regression*, one model per
   frequency (step 4), with the idle constant coming from a separate
   calibration run.

The result is a :class:`~repro.core.model.PowerModel`.  Steps 2–3 are
:func:`run_windows`, the one window loop: the baseline models of
:mod:`repro.baselines` learn and are scored through it as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.calibration import calibrate_idle_power
from repro.core.model import FrequencyFormula, PowerModel
from repro.core.parallel import chunk_tasks, resolve_workers, run_tasks
from repro.core.regression import RegressionResult, fit
from repro.errors import ConfigurationError, InsufficientDataError
from repro.os.governor import UserspaceGovernor
from repro.os.kernel import SimKernel
from repro.perf.counting import PerfSession
from repro.powermeter.powerspy import PowerSpy
from repro.simcpu.counters import CYCLES, GENERIC_TRIO
from repro.simcpu.spec import CpuSpec
from repro.workloads.base import Workload
from repro.workloads.stress import stress_matrix

#: Feature name under which the SMT-overlap rate is exposed.
SMT_OVERLAP = "smt-overlap-cycles"


@dataclass(frozen=True)
class EvalWindow:
    """One observation window of a :func:`run_windows` run."""

    time_s: float
    frequency_hz: int
    #: Machine-wide event rates plus any derived features, events/second.
    features: Dict[str, float]
    power_w: float
    workload: str


def smt_overlap_rate(per_cpu_cycles: Dict[int, float],
                     siblings: Sequence[Tuple[int, ...]],
                     window_s: float) -> float:
    """Cycles/second during which both hyperthreads of a core were busy.

    For each physical core the overlap is the *minimum* of its threads'
    cycle counts — the portion of time the second thread ran concurrently
    and therefore drew less than a full core's power.
    """
    overlap = 0.0
    for core in siblings:
        counts = [per_cpu_cycles.get(cpu_id, 0.0) for cpu_id in core]
        if len(counts) > 1:
            overlap += min(counts)
    return overlap / window_s


def run_windows(spec: CpuSpec, workloads: Sequence[Workload],
                frequency_hz: Optional[int] = None,
                events: Sequence[str] = GENERIC_TRIO,
                duration_s: float = 60.0,
                window_s: float = 1.0,
                settle_s: float = 0.0,
                quantum_s: float = 0.05,
                meter_seed: int = 4321,
                with_smt_overlap: bool = False,
                pin_each_to_core: bool = False,
                governor_factory=None) -> List[EvalWindow]:
    """Run *workloads* together and collect one EvalWindow per window.

    The one window loop: the Figure 1 campaign and every baseline model
    and comparison measure through it, so all of them are scored on
    identical observations — per window, the machine-wide rates of
    *events*, optionally the SMT-overlap rate, and the PowerSpy power.

    With *frequency_hz* set, cores are pinned there (userspace governor);
    otherwise the performance governor applies.  *pin_each_to_core*
    affinity-pins consecutive workloads onto the same physical core until
    its hyperthreads are full, then moves to the next core — the
    co-location setup of the SMT experiments (workloads 0 and 1 share
    core 0 on a 2-way SMT part).  *window_s* must be a whole number of
    kernel quanta, so each window closes exactly one meter sample.
    """
    if duration_s <= 0 or window_s <= 0 or quantum_s <= 0:
        raise ConfigurationError("durations must be positive")
    quanta = window_s / quantum_s
    if abs(quanta - round(quanta)) > 1e-9 * quanta:
        raise ConfigurationError(
            f"window_s={window_s} is not a whole number of "
            f"quantum_s={quantum_s} quanta")
    if frequency_hz is not None:
        governor = lambda s, t, d: UserspaceGovernor(s, t, d, frequency_hz)
        kernel = SimKernel(spec, governor_factory=governor,
                           quantum_s=quantum_s)
    elif governor_factory is not None:
        kernel = SimKernel(spec, governor_factory=governor_factory,
                           quantum_s=quantum_s)
    else:
        kernel = SimKernel(spec, quantum_s=quantum_s)

    cores = kernel.machine.topology.cores()
    smt_ways = spec.threads_per_core
    for index, workload in enumerate(workloads):
        affinity = None
        if pin_each_to_core:
            package_id, core_id = cores[(index // smt_ways) % len(cores)]
            affinity = set(kernel.machine.topology.core_cpus(
                package_id, core_id))
        kernel.spawn(workload, name=workload.name, affinity=affinity)

    meter = PowerSpy(kernel.machine, sample_rate_hz=1.0 / window_s,
                     seed=meter_seed)
    perf = PerfSession(kernel.machine)
    counters = perf.open_group(events)
    cpu_cycle_counters = {
        cpu_id: perf.open(CYCLES, cpu=cpu_id)
        for cpu_id in kernel.machine.topology.cpu_ids
    } if with_smt_overlap else {}
    sibling_groups = [kernel.machine.topology.core_cpus(p, c)
                      for p, c in cores]
    name = "+".join(workload.name for workload in workloads)

    windows: List[EvalWindow] = []
    with meter:
        if settle_s > 0:
            kernel.run(settle_s)
        meter.clear()
        previous = {counter.event: counter.read().scaled
                    for counter in counters}
        previous_cycles = {cpu_id: counter.read().scaled
                           for cpu_id, counter in cpu_cycle_counters.items()}
        steps = int(round(duration_s / window_s))
        for _window in range(steps):
            kernel.run(window_s)
            sample = meter.last_sample()
            if sample is None:
                continue
            current = {counter.event: counter.read().scaled
                       for counter in counters}
            features = {event: (current[event] - previous[event]) / window_s
                        for event in previous}
            previous = current
            if with_smt_overlap:
                current_cycles = {
                    cpu_id: counter.read().scaled
                    for cpu_id, counter in cpu_cycle_counters.items()}
                deltas = {cpu_id: current_cycles[cpu_id] - previous_cycles[cpu_id]
                          for cpu_id in current_cycles}
                previous_cycles = current_cycles
                features[SMT_OVERLAP] = smt_overlap_rate(
                    deltas, sibling_groups, window_s)
            windows.append(EvalWindow(
                time_s=kernel.time_s,
                frequency_hz=kernel.machine.dominant_frequency_hz(),
                features=features,
                power_w=sample.power_w,
                workload=name,
            ))
    perf.close()
    return windows


@dataclass(frozen=True)
class SamplePoint:
    """One (counter rates, power) observation at a pinned frequency."""

    frequency_hz: int
    workload: str
    #: Machine-wide counter rates, events/second.
    rates: Dict[str, float]
    #: Mean wall power over the window, watts.
    power_w: float


class SamplingDataset:
    """All sample points of one campaign."""

    def __init__(self, points: Sequence[SamplePoint],
                 events: Sequence[str]) -> None:
        self.points: List[SamplePoint] = list(points)
        self.events: Tuple[str, ...] = tuple(events)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def frequencies_hz(self) -> Tuple[int, ...]:
        """Distinct frequencies present, ascending."""
        return tuple(sorted({point.frequency_hz for point in self.points}))

    def at_frequency(self, frequency_hz: int) -> List[SamplePoint]:
        """Points sampled at one frequency."""
        return [point for point in self.points
                if point.frequency_hz == frequency_hz]

    def feature_matrix(self, frequency_hz: Optional[int] = None
                       ) -> Tuple[List[Dict[str, float]], List[float]]:
        """(feature dicts, power targets) for regression."""
        points = (self.points if frequency_hz is None
                  else self.at_frequency(frequency_hz))
        return ([point.rates for point in points],
                [point.power_w for point in points])


class SamplingCampaign:
    """Runs the Figure 1 grid: workloads x frequencies x windows."""

    def __init__(self, spec: CpuSpec,
                 events: Sequence[str] = GENERIC_TRIO,
                 workloads: Optional[Sequence[Workload]] = None,
                 frequencies_hz: Optional[Sequence[int]] = None,
                 thread_counts: Optional[Sequence[int]] = None,
                 window_s: float = 1.0,
                 windows_per_run: int = 4,
                 settle_s: float = 0.5,
                 quantum_s: float = 0.05,
                 meter_seed: int = 1234) -> None:
        if window_s <= 0 or settle_s < 0 or windows_per_run < 1:
            raise ConfigurationError("invalid campaign timing parameters")
        self.spec = spec
        self.events = tuple(events)
        self._explicit_workloads = list(workloads) if workloads else None
        self.frequencies_hz = tuple(frequencies_hz if frequencies_hz
                                    else spec.all_frequencies_hz)
        for frequency in self.frequencies_hz:
            spec.validate_frequency(frequency)
        if thread_counts is None:
            thread_counts = sorted({1, spec.num_cores, spec.num_threads})
        self.thread_counts = tuple(thread_counts)
        self.window_s = window_s
        self.windows_per_run = windows_per_run
        self.settle_s = settle_s
        self.quantum_s = quantum_s
        self.meter_seed = meter_seed

    @staticmethod
    def _workload_threads(workload: Workload) -> int:
        """Thread count a workload actually demands (grid metadata)."""
        try:
            demand = workload.demand(0.0)
        except Exception:
            return 1
        return demand.threads if demand is not None else 1

    def _workloads(self) -> List[Tuple[Workload, int]]:
        """(workload, thread count) pairs forming the grid."""
        if self._explicit_workloads is not None:
            return [(workload, self._workload_threads(workload))
                    for workload in self._explicit_workloads]
        grid: List[Tuple[Workload, int]] = []
        for threads in self.thread_counts:
            for workload in stress_matrix(threads=threads):
                grid.append((workload, threads))
        return grid

    def run_plan(self) -> List[Tuple[int, Workload, int]]:
        """The grid as (frequency_hz, workload, run_index) tuples.

        ``run_index`` is the 1-based position in grid order; it seeds the
        run's meter, so the plan fully determines every run's result.
        """
        plan: List[Tuple[int, Workload, int]] = []
        run_index = 0
        grid = self._workloads()
        for frequency_hz in self.frequencies_hz:
            for workload, _threads in grid:
                run_index += 1
                plan.append((frequency_hz, workload, run_index))
        return plan

    def run(self, workers: int = 1) -> SamplingDataset:
        """Execute the whole grid; returns every collected sample point.

        ``workers > 1`` fans the independent (frequency, workload) runs
        out across a process pool (``0``/``None`` = one per CPU).  Every
        run builds its own kernel and meter seeded from its grid index,
        and results are reassembled in grid order, so the dataset is
        identical for any worker count; when the pool is unavailable the
        campaign silently degrades to the serial loop.

        Runs are dispatched as one contiguous chunk per worker: the
        campaign (and each chunk's workloads) crosses the process
        boundary once per worker rather than once per run, which is what
        lets short runs actually scale instead of drowning in per-task
        pickling and IPC.
        """
        plan = self.run_plan()
        worker_count = min(resolve_workers(workers), max(1, len(plan)))
        payloads = [(self, chunk)
                    for chunk in chunk_tasks(plan, worker_count)]
        results = run_tasks(_execute_campaign_chunk, payloads,
                            workers=worker_count, chunksize=1)
        points: List[SamplePoint] = []
        for chunk_points in results:
            points.extend(chunk_points)
        return SamplingDataset(points, self.events)

    def _one_run(self, frequency_hz: int, workload: Workload,
                 run_index: int) -> List[SamplePoint]:
        """One workload pinned at one frequency; one point per window."""
        windows = run_windows(
            self.spec, [workload], frequency_hz=frequency_hz,
            events=self.events,
            duration_s=self.windows_per_run * self.window_s,
            window_s=self.window_s, settle_s=self.settle_s,
            quantum_s=self.quantum_s,
            meter_seed=self.meter_seed + run_index)
        return [SamplePoint(frequency_hz=frequency_hz,
                            workload=workload.name,
                            rates=window.features, power_w=window.power_w)
                for window in windows]


def _execute_campaign_chunk(
        payload: Tuple["SamplingCampaign",
                       List[Tuple[int, Workload, int]]]) -> List[SamplePoint]:
    """Worker entry point: one worker's contiguous chunk of the run plan.

    Deserialising the campaign once and looping the chunk's runs inside
    the worker keeps the per-run dispatch path free of setup cost; each
    run still seeds from its own grid index, so chunk boundaries cannot
    change any result.
    """
    campaign, runs = payload
    points: List[SamplePoint] = []
    for frequency_hz, workload, run_index in runs:
        points.extend(campaign._one_run(frequency_hz, workload, run_index))
    return points


@dataclass(frozen=True)
class LearningReport:
    """Everything produced by :func:`learn_power_model`."""

    model: PowerModel
    dataset: SamplingDataset
    idle_w: float
    #: Per-frequency regression diagnostics.
    regressions: Dict[int, RegressionResult] = field(default_factory=dict)


def learn_power_model(spec: CpuSpec,
                      events: Sequence[str] = GENERIC_TRIO,
                      method: str = "nnls",
                      campaign: Optional[SamplingCampaign] = None,
                      idle_duration_s: float = 20.0,
                      name: str = "powerapi-learned",
                      workers: int = 1) -> LearningReport:
    """The full Figure 1 pipeline: sample, calibrate idle, regress.

    One regression per frequency over (counter rates -> power - idle);
    the default NNLS backend keeps coefficients physically non-negative,
    matching the published formula's shape.  ``workers`` parallelises
    the sampling campaign (see :meth:`SamplingCampaign.run`) without
    changing the dataset or the learned coefficients.
    """
    if campaign is None:
        campaign = SamplingCampaign(spec, events=events)
    dataset = campaign.run(workers=workers)
    idle_w = calibrate_idle_power(spec, duration_s=idle_duration_s)

    formulas: List[FrequencyFormula] = []
    regressions: Dict[int, RegressionResult] = {}
    for frequency_hz in dataset.frequencies_hz:
        features, targets = dataset.feature_matrix(frequency_hz)
        if len(features) < len(events) + 1:
            raise InsufficientDataError(
                f"only {len(features)} samples at {frequency_hz} Hz")
        active = [max(0.0, power - idle_w) for power in targets]
        result = fit(features, active, list(events), method=method,
                     fit_intercept=False)
        regressions[frequency_hz] = result
        formulas.append(FrequencyFormula(
            frequency_hz=frequency_hz,
            coefficients=dict(result.coefficients),
        ))
    model = PowerModel(idle_w=idle_w, formulas=formulas, name=name)
    return LearningReport(model=model, dataset=dataset, idle_w=idle_w,
                          regressions=regressions)
