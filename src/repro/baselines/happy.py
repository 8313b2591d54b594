"""The hyperthread-aware model (HAPPY — Zhai et al., USENIX ATC'14).

Zhai et al. observe that two hyperthreads sharing a physical core draw
far less than two threads on separate cores, and add hyperthread
awareness to the power model, reporting a 7.5 % average error where
SMT-oblivious models do worse.  The paper notes their model "cannot be
reproduced" (private Google benchmarks) — here the mechanism is rebuilt
from its published idea:

* per-logical-CPU cycle counters yield, per core, the cycles during which
  *both* siblings were busy (the :data:`SMT_OVERLAP` feature),
* the regression learns a *negative* weight for overlap cycles (OLS, not
  NNLS — the correction term must be allowed below zero), quantifying the
  power saved by co-location that aggregate counters cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.calibration import calibrate_idle_power
from repro.core.model import FrequencyFormula, PowerModel
from repro.core.regression import RegressionResult, fit
from repro.core.sampling import SMT_OVERLAP, EvalWindow, run_windows
from repro.errors import ConfigurationError, InsufficientDataError
from repro.simcpu.counters import CYCLES, GENERIC_TRIO
from repro.simcpu.spec import CpuSpec
from repro.workloads.base import Workload
from repro.workloads.stress import CpuStress, MemoryStress

#: Events the hyperthread-aware model regresses on (plus SMT overlap).
HAPPY_BASE_EVENTS = GENERIC_TRIO + (CYCLES,)


@dataclass(frozen=True)
class HappyLearningReport:
    """Result of :func:`learn_happy_model`."""

    model: PowerModel
    windows: List[EvalWindow]
    idle_w: float
    regressions: Dict[int, RegressionResult]


def _training_placements(num_threads: int
                         ) -> List[Tuple[List[Workload], bool]]:
    """(workload set, pin-to-cores flag) pairs spanning the co-location space.

    All workloads are single-threaded so the pinning flag fully controls
    placement: pinned sets fill each core's hyperthreads pairwise (SMT
    overlap), unpinned sets spread across physical cores (no overlap).
    The grid covers one core up to the whole package in both modes, so
    the regression can separate the overlap term from plain utilisation
    without extrapolating.
    """
    def cpus(count: int, utilization: float = 1.0) -> List[Workload]:
        return [CpuStress(utilization=utilization) for _ in range(count)]

    def mems(count: int) -> List[Workload]:
        return [MemoryStress(utilization=1.0,
                             working_set_bytes=32 * 1024 ** 2)
                for _ in range(count)]

    half = max(2, num_threads // 2)
    placements: List[Tuple[List[Workload], bool]] = [
        (cpus(1), True),                      # one thread, one core
        (cpus(2), True),                      # one core, both hyperthreads
        (cpus(2), False),                     # two cores, spread
        (cpus(half), False),                  # all cores, spread
        (cpus(num_threads), True),            # whole package, co-located
        (cpus(num_threads, 0.5), True),       # co-located at half load
        (mems(1), True),
        (mems(half), False),
        (mems(num_threads), True),            # memory-bound, co-located
        (cpus(1) + mems(1), True),            # asymmetric sharing one core
    ]
    return placements


def learn_happy_model(spec: CpuSpec,
                      frequencies_hz: Optional[Sequence[int]] = None,
                      duration_per_run_s: float = 8.0,
                      settle_s: float = 90.0,
                      window_s: float = 1.0,
                      quantum_s: float = 0.05,
                      idle_duration_s: float = 20.0) -> HappyLearningReport:
    """Fit the hyperthread-aware model over the co-location grid.

    Uses steady-state settling like the other strong baseline so the
    comparison isolates the SMT term, not the sampling methodology.
    """
    if not spec.smt_enabled:
        raise ConfigurationError(
            "the hyperthread-aware model needs an SMT-capable spec")
    if frequencies_hz is None:
        frequencies_hz = spec.frequencies_hz
    features = list(HAPPY_BASE_EVENTS) + [SMT_OVERLAP]

    all_windows: List[EvalWindow] = []
    run_index = 0
    for frequency_hz in frequencies_hz:
        for placement, pinned in _training_placements(spec.num_threads):
            run_index += 1
            all_windows.extend(run_windows(
                spec, placement,
                frequency_hz=frequency_hz,
                events=HAPPY_BASE_EVENTS,
                duration_s=duration_per_run_s,
                window_s=window_s,
                settle_s=settle_s,
                quantum_s=quantum_s,
                meter_seed=7000 + run_index,
                with_smt_overlap=True,
                pin_each_to_core=pinned,
            ))

    idle_w = calibrate_idle_power(spec, duration_s=idle_duration_s)
    formulas: List[FrequencyFormula] = []
    regressions: Dict[int, RegressionResult] = {}
    for frequency_hz in sorted({w.frequency_hz for w in all_windows}):
        at_frequency = [w for w in all_windows
                        if w.frequency_hz == frequency_hz]
        if len(at_frequency) < len(features) + 1:
            raise InsufficientDataError(
                f"only {len(at_frequency)} windows at {frequency_hz} Hz")
        samples = [w.features for w in at_frequency]
        targets = [max(0.0, w.power_w - idle_w) for w in at_frequency]
        # OLS with a free intercept: the SMT-overlap correction must be
        # able to go negative, and the intercept absorbs the package-awake
        # (uncore) offset every active placement pays.
        result = fit(samples, targets, features, method="ols",
                     fit_intercept=True)
        regressions[frequency_hz] = result
        formulas.append(FrequencyFormula(
            frequency_hz=frequency_hz,
            coefficients=dict(result.coefficients),
            intercept_w=result.intercept,
        ))
    model = PowerModel(idle_w=idle_w, formulas=formulas,
                       name="happy-hyperthread-aware")
    return HappyLearningReport(model=model, windows=all_windows,
                               idle_w=idle_w, regressions=regressions)
