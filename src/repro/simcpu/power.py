"""The hidden ground-truth power model of the simulated machine.

This is the "physics" the learning pipeline tries to approximate — the
simulated counterpart of the real silicon the paper measures with a
PowerSpy.  Nothing in :mod:`repro.core` may import the internals of this
module: the learner sees only (HPC values, wall-power samples).

The ground truth deliberately contains effects that a linear model over the
three generic counters cannot express, so the learned model exhibits a
realistic residual error (the paper reports a 15 % median error on
SPECjbb2013):

* per-instruction energy depends on the instruction mix (FP/SIMD weight),
* two SMT threads on one core draw much less than twice one thread,
* voltage scaling makes power superlinear in frequency (handled by the
  per-frequency model structure, invisible within one frequency),
* uncore and DRAM power depend on cache/memory traffic non-linearly,
* C-states make idle power depend on utilisation patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.simcpu.frequency import FrequencyDomain
from repro.simcpu.spec import CpuSpec
from repro.units import left_sum

#: Fraction of a core's active power drawn by the second SMT thread
#: (the first thread "pays" for the shared front-end and caches).
SMT_SECOND_THREAD_FACTOR = 0.35

#: Watts per 10^9 last-level-cache references per second (uncore activity).
UNCORE_W_PER_GREF = 2.0

#: Thermal time constant of the package + heatsink, seconds.  Short
#: calibration windows never heat the silicon; sustained benchmarks do.
THERMAL_TAU_S = 45.0

#: Leakage power at thermal equilibrium as a fraction of the sustained
#: dynamic power (leakage grows with temperature, which tracks activity).
LEAKAGE_EQUILIBRIUM_FRACTION = 0.30

#: Peak per-core wakeup power at 50 % duty cycle, watts.  Every C-state
#: exit burns energy the retired-instruction counters never see.
WAKEUP_PEAK_W = 1.6


@dataclass(frozen=True)
class CoreActivity:
    """Aggregate activity of one physical core during one step.

    ``thread_busy`` holds the C0 (busy) fraction of each hardware thread;
    ``power_weight`` the activity-weighted mean instruction power weight;
    ``frequency_hz`` the granted effective frequency;
    ``idle_power_fraction`` the C-state power fraction of the idle time.
    """

    frequency_hz: int
    thread_busy: Tuple[float, ...]
    power_weight: float = 1.0
    idle_power_fraction: float = 0.03

    def __post_init__(self) -> None:
        for busy in self.thread_busy:
            if not 0.0 <= busy <= 1.0:
                raise ConfigurationError("thread busy fraction out of [0, 1]")
        if self.power_weight < 0:
            raise ConfigurationError("power_weight must be >= 0")


@dataclass(frozen=True)
class PowerBreakdown:
    """Wall power decomposed into its ground-truth components (watts)."""

    idle: float
    cores: float
    uncore: float
    dram: float
    #: Temperature-dependent leakage (slow thermal dynamics).
    leakage: float = 0.0
    #: C-state transition (wakeup) overhead at partial load.
    wakeup: float = 0.0

    @property
    def total(self) -> float:
        """Total wall power: the sum of every component, watts."""
        return (self.idle + self.cores + self.uncore + self.dram
                + self.leakage + self.wakeup)


class ThermalModel:
    """First-order package temperature and the leakage power it drives.

    Temperature relaxes toward a level proportional to the dynamic power
    with time constant :data:`THERMAL_TAU_S`; leakage is proportional to
    the temperature rise.  The constants are arranged so that sustained
    dynamic power P eventually adds ``LEAKAGE_EQUILIBRIUM_FRACTION * P``
    of leakage — a real silicon effect that no retirement counter can
    observe, and one reason short-calibration power models underestimate
    long hot runs.
    """

    def __init__(self, ambient_c: float = 35.0,
                 c_per_watt: float = 1.5) -> None:
        self.ambient_c = ambient_c
        self.c_per_watt = c_per_watt
        self.temperature_c = ambient_c

    def step(self, dynamic_power_w: float, dt_s: float) -> float:
        """Advance temperature by *dt_s*; returns the leakage power, watts."""
        if dt_s < 0 or dynamic_power_w < 0:
            raise ConfigurationError("thermal step inputs must be >= 0")
        target_c = self.ambient_c + self.c_per_watt * dynamic_power_w
        decay = 1.0 - pow(2.718281828, -dt_s / THERMAL_TAU_S)
        self.temperature_c += (target_c - self.temperature_c) * decay
        rise_c = max(0.0, self.temperature_c - self.ambient_c)
        leak_per_c = LEAKAGE_EQUILIBRIUM_FRACTION / self.c_per_watt
        return leak_per_c * rise_c

    def batch_constants(self, dynamic_power_w: float,
                        dt_s: float) -> Tuple[float, float, float, float]:
        """``(target_c, decay, leak_per_c, ambient_c)`` for a steady batch.

        These are exactly the intermediates :meth:`step` derives on every
        call; for a constant dynamic power and dt they are loop
        invariants, so the batched engine hoists them and replays only
        the two data-dependent lines (the temperature relaxation and the
        leakage readout) per tick — the identical float operations in the
        identical order, keeping batched thermal state bit-identical to
        tick-at-a-time stepping.
        """
        if dt_s < 0 or dynamic_power_w < 0:
            raise ConfigurationError("thermal step inputs must be >= 0")
        target_c = self.ambient_c + self.c_per_watt * dynamic_power_w
        decay = 1.0 - pow(2.718281828, -dt_s / THERMAL_TAU_S)
        leak_per_c = LEAKAGE_EQUILIBRIUM_FRACTION / self.c_per_watt
        return target_c, decay, leak_per_c, self.ambient_c


class GroundTruthPower:
    """Computes the machine's instantaneous wall power."""

    def __init__(self, spec: CpuSpec, frequency_domain: FrequencyDomain) -> None:
        self.spec = spec
        self._freq = frequency_domain

    def core_power(self, activity: CoreActivity) -> float:
        """Power of one physical core (watts).

        With SMT, the busiest thread draws the full per-thread cost and the
        sibling only :data:`SMT_SECOND_THREAD_FACTOR` of it — the overlap in
        shared structures that SMT-oblivious models mis-attribute.
        """
        busy = sorted(activity.thread_busy, reverse=True)
        primary = busy[0] if busy else 0.0
        secondary = left_sum(busy[1:])
        effective_busy = primary + SMT_SECOND_THREAD_FACTOR * secondary
        scale = self._freq.dynamic_scale(activity.frequency_hz)
        active_w = (self.spec.power.core_active_w * scale
                    * effective_busy * activity.power_weight)
        idle_fraction = max(0.0, 1.0 - primary)
        idle_w = (self.spec.power.core_active_w
                  * self._freq.dynamic_scale(self.spec.min_frequency_hz)
                  * idle_fraction * activity.idle_power_fraction)
        return active_w + idle_w

    def wakeup_power(self, activity: CoreActivity) -> float:
        """C-state transition overhead of one core, watts.

        Peaks at 50 % duty cycle (maximum wake/sleep churn) and vanishes
        at both idle and full load; invisible to retirement counters.
        """
        busiest = max(activity.thread_busy, default=0.0)
        return WAKEUP_PEAK_W * 4.0 * busiest * (1.0 - busiest)

    def wall_power(self, core_activities: Sequence[CoreActivity],
                   llc_references_per_s: float,
                   dram_bytes_per_s: float,
                   thermal: Optional["ThermalModel"] = None,
                   dt_s: float = 0.0) -> PowerBreakdown:
        """Total wall power of the machine during one step.

        When *thermal* is given (with a positive *dt_s*) the breakdown
        includes temperature-driven leakage, advancing the thermal state.
        """
        if llc_references_per_s < 0 or dram_bytes_per_s < 0:
            raise ConfigurationError("traffic rates must be >= 0")
        cores_w = left_sum(self.core_power(activity)
                           for activity in core_activities)
        wakeup_w = left_sum(self.wakeup_power(activity)
                            for activity in core_activities)

        any_busy = max(
            (max(activity.thread_busy, default=0.0)
             for activity in core_activities), default=0.0)
        uncore_w = (self.spec.power.uncore_active_w * any_busy
                    + UNCORE_W_PER_GREF * llc_references_per_s / 1e9)

        # DRAM power grows sublinearly at high bandwidth (row-buffer
        # locality improves under load), another non-linearity the linear
        # model absorbs into its cache-miss coefficient.
        gtps = dram_bytes_per_s / 64.0 / 1e9  # giga-transfers (lines) per second
        dram_w = self.spec.power.dram_w_per_gtps * gtps ** 0.85

        leakage_w = 0.0
        if thermal is not None and dt_s > 0:
            dynamic_w = cores_w + uncore_w + dram_w + wakeup_w
            leakage_w = thermal.step(dynamic_w, dt_s)

        return PowerBreakdown(
            idle=self.spec.power.idle_w,
            cores=cores_w,
            uncore=uncore_w,
            dram=dram_w,
            leakage=leakage_w,
            wakeup=wakeup_w,
        )

    def power_columns(self, cores: Sequence[tuple],
                      llc_references_per_s: np.ndarray,
                      dram_bytes_per_s: np.ndarray) -> List[np.ndarray]:
        """:meth:`wall_power`'s terms over columns of ticks.

        *cores* holds, per core, ``(frequency_hz, thread_busy,
        power_weight, idle_power_fraction)``: ``thread_busy`` a (ticks x
        threads) array, the last two columns (or floats).  Returns the
        ``[cores, uncore, dram, wakeup]`` watts columns.  Elementwise,
        each value is the float :meth:`wall_power` computes for that
        tick: the same association orders, sums from 0.0 left to right,
        ``np.maximum`` for ``max``, and ``gtps ** 0.85`` as one Python
        float power per tick (``np.power`` rounds differently).
        """
        power = self.spec.power
        idle_scale = self._freq.dynamic_scale(self.spec.min_frequency_hz)
        cores_w = wakeup_w = any_busy = 0.0
        for frequency_hz, thread_busy, weight, idle_power_fraction in cores:
            busy = np.sort(thread_busy, axis=1)[:, ::-1]
            primary = busy[:, 0]
            secondary = 0.0
            for column in busy.T[1:]:
                secondary = secondary + column
            effective_busy = primary + SMT_SECOND_THREAD_FACTOR * secondary
            scale = self._freq.dynamic_scale(frequency_hz)
            active_w = (power.core_active_w * scale * effective_busy * weight)
            idle_w = (power.core_active_w * idle_scale
                      * np.maximum(0.0, 1.0 - primary) * idle_power_fraction)
            cores_w = cores_w + (active_w + idle_w)
            wakeup_w = (wakeup_w
                        + WAKEUP_PEAK_W * 4.0 * primary * (1.0 - primary))
            any_busy = np.maximum(any_busy, primary)
        uncore_w = (power.uncore_active_w * any_busy
                    + UNCORE_W_PER_GREF * llc_references_per_s / 1e9)
        gtps = dram_bytes_per_s / 64.0 / 1e9
        dram_w = np.array([power.dram_w_per_gtps * value ** 0.85
                           for value in gtps.tolist()])
        return [cores_w, uncore_w, dram_w, wakeup_w]
