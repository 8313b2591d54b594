"""DVFS model: per-core P-states, voltage scaling and the turbo ladder.

Each physical core has its own clock domain (as on Sandy Bridge parts, the
package actually shares a domain, but per-core state lets us model the
"highest request wins" arbitration explicitly).  Voltage scales roughly
linearly with frequency across the DVFS range, which makes dynamic power
scale close to f·V² — the superlinear shape real silicon exhibits and the
reason per-frequency power models (one regression per P-state) beat a single
global linear model.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import FrequencyError
from repro.simcpu.spec import CpuSpec


class FrequencyDomain:
    """Per-core frequency state plus package-level turbo arbitration."""

    #: Voltage at the lowest P-state, volts.
    V_MIN = 0.80
    #: Voltage at the highest sustained P-state, volts.
    V_MAX = 1.20
    #: Extra voltage per turbo bin above the sustained maximum.
    V_TURBO_STEP = 0.03

    def __init__(self, spec: CpuSpec) -> None:
        self.spec = spec
        self._target_hz: Dict[Tuple[int, int], int] = {}
        for package_id in range(spec.packages):
            for core_id in range(spec.cores_per_package):
                self._target_hz[(package_id, core_id)] = spec.min_frequency_hz
        # The spec (and thus the f -> V and f -> f.V^2 maps) is immutable,
        # and dynamic_scale() is evaluated per core per tick by the hidden
        # power model: memoise both per validated frequency.
        self._voltage_cache: Dict[int, float] = {}
        self._scale_cache: Dict[int, float] = {}
        self._generation = 0
        #: Upper bound on every granted target, hertz (None = unbounded):
        #: the power cap's DVFS ceiling.  Moving it leaves the current
        #: targets alone; the governor's next request, made every
        #: quantum, is granted against the new bound.
        self.ceiling_hz: Optional[int] = None

    @property
    def generation(self) -> int:
        """Counter bumped whenever any target actually changes.

        The batched stepping engine keys its compiled tick programs on
        this, so governors that re-request the same P-state every quantum
        (the common steady case) keep the compiled program valid.
        """
        return self._generation

    # -- requests ----------------------------------------------------------

    def _granted(self, frequency_hz: int) -> int:
        """A validated request, lowered to the ceiling if above it."""
        self.spec.validate_frequency(frequency_hz)
        ceiling = self.ceiling_hz
        if ceiling is not None and frequency_hz > ceiling:
            return ceiling
        return frequency_hz

    def set_target(self, package_id: int, core_id: int, frequency_hz: int) -> None:
        """Request a P-state for one core (what a cpufreq governor does).

        The core is granted ``min(frequency_hz, ceiling_hz)``.
        """
        frequency_hz = self._granted(frequency_hz)
        key = (package_id, core_id)
        if key not in self._target_hz:
            raise FrequencyError(f"no such core pkg{package_id}/core{core_id}")
        if self._target_hz[key] != frequency_hz:
            self._target_hz[key] = frequency_hz
            self._generation += 1

    def set_all_targets(self, frequency_hz: int) -> None:
        """Request the same P-state on every core (ceiling applies)."""
        frequency_hz = self._granted(frequency_hz)
        changed = False
        for key, current in self._target_hz.items():
            if current != frequency_hz:
                self._target_hz[key] = frequency_hz
                changed = True
        if changed:
            self._generation += 1

    def target(self, package_id: int, core_id: int) -> int:
        """The requested (pre-arbitration) frequency of a core."""
        try:
            return self._target_hz[(package_id, core_id)]
        except KeyError:
            raise FrequencyError(
                f"no such core pkg{package_id}/core{core_id}") from None

    # -- effective frequency -----------------------------------------------

    def effective(self, package_id: int, core_id: int,
                  active_cores_in_package: int) -> int:
        """The frequency a core actually runs at this instant.

        Sustained P-states are granted as requested.  A turbo request is
        granted a bin that shrinks with the number of simultaneously active
        cores in the package (the classic per-active-core turbo derating):
        with all cores busy only the lowest turbo bin is available.
        """
        requested = self.target(package_id, core_id)
        if requested <= self.spec.max_frequency_hz:
            return requested
        ladder = self.spec.turbo_frequencies_hz
        # Index the ladder from the top: 1 active core gets the requested
        # bin, each extra active core drops one bin, floored at ladder[0].
        requested_index = ladder.index(requested)
        derate = max(0, active_cores_in_package - 1)
        granted_index = max(0, requested_index - derate)
        return ladder[granted_index]

    def voltage(self, frequency_hz: int) -> float:
        """Core voltage at *frequency_hz* (linear across the DVFS range)."""
        cached = self._voltage_cache.get(frequency_hz)
        if cached is not None:
            return cached
        self.spec.validate_frequency(frequency_hz)
        f_min = self.spec.min_frequency_hz
        f_max = self.spec.max_frequency_hz
        if frequency_hz <= f_max:
            if f_max == f_min:
                volts = self.V_MAX
            else:
                ratio = (frequency_hz - f_min) / (f_max - f_min)
                volts = self.V_MIN + ratio * (self.V_MAX - self.V_MIN)
        else:
            bin_index = self.spec.turbo_frequencies_hz.index(frequency_hz)
            volts = self.V_MAX + (bin_index + 1) * self.V_TURBO_STEP
        self._voltage_cache[frequency_hz] = volts
        return volts

    def dynamic_scale(self, frequency_hz: int) -> float:
        """Relative dynamic power factor f·V² normalised to the max P-state.

        This is the superlinearity the hidden ground-truth power model
        applies per frequency.
        """
        cached = self._scale_cache.get(frequency_hz)
        if cached is not None:
            return cached
        f_max = self.spec.max_frequency_hz
        v_max = self.voltage(f_max)
        v = self.voltage(frequency_hz)
        scale = (frequency_hz / f_max) * (v / v_max) ** 2
        self._scale_cache[frequency_hz] = scale
        return scale
