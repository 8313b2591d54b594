"""cpufreq governors: choosing P-states from observed utilisation.

The sampling pipeline of the paper requires executing its workloads "for
each frequency made available by the processor" — that is the
:class:`UserspaceGovernor`.  The others model the standard Linux policies
so examples and the energy-aware-scheduling ablation can explore the
frequency/energy trade-off.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

from repro.errors import ConfigurationError, FrequencyError
from repro.simcpu.frequency import FrequencyDomain
from repro.simcpu.spec import CpuSpec
from repro.simcpu.topology import Topology


class Governor:
    """Base class: called on each polled quantum with per-CPU utilisation."""

    def __init__(self, spec: CpuSpec, topology: Topology,
                 domain: FrequencyDomain) -> None:
        self.spec = spec
        self.topology = topology
        self.domain = domain

    def update(self, cpu_busy: Mapping[int, float]) -> None:
        """Adjust per-core frequency targets for the next quantum."""
        raise NotImplementedError

    def is_fixed_point(self, cpu_busy: Mapping[int, float]) -> bool:
        """Whether ``update(cpu_busy)`` would change nothing.

        True only if no target and no state of the governor's own would
        move, so every later update with the same busy map is a no-op
        too; the kernel then accounts a steady run without calling
        :meth:`update` again.  This base says False, so a governor that
        does not override it is updated every quantum.
        """
        return False

    def _holds(self, requests: Iterable[Tuple[Tuple[int, int], int]]
               ) -> bool:
        """Whether each core already has what its request is granted.

        *requests* yields ``((package_id, core_id), frequency_hz)``; the
        grant is the request lowered to the domain's ceiling, as
        :meth:`~repro.simcpu.frequency.FrequencyDomain.set_target` does.
        """
        domain = self.domain
        ceiling = domain.ceiling_hz
        for (package_id, core_id), frequency_hz in requests:
            if ceiling is not None and frequency_hz > ceiling:
                frequency_hz = ceiling
            if domain.target(package_id, core_id) != frequency_hz:
                return False
        return True

    def _holds_everywhere(self, frequency_hz: int) -> bool:
        """:meth:`_holds` for one request made on every core."""
        return self._holds((core, frequency_hz)
                           for core in self.topology.cores())

    def _core_utilisation(self, cpu_busy: Mapping[int, float]
                          ) -> Dict[Tuple[int, int], float]:
        """Max thread utilisation per physical core."""
        result: Dict[Tuple[int, int], float] = {}
        for package_id, core_id in self.topology.cores():
            cpus = self.topology.core_cpus(package_id, core_id)
            result[(package_id, core_id)] = max(
                cpu_busy.get(cpu_id, 0.0) for cpu_id in cpus)
        return result


class PerformanceGovernor(Governor):
    """Always run at the maximum sustained frequency (turbo if present)."""

    def _target(self) -> int:
        return (self.spec.turbo_frequencies_hz[-1]
                if self.spec.turbo_enabled else self.spec.max_frequency_hz)

    def update(self, cpu_busy: Mapping[int, float]) -> None:
        self.domain.set_all_targets(self._target())

    def is_fixed_point(self, cpu_busy: Mapping[int, float]) -> bool:
        return self._holds_everywhere(self._target())


class PowersaveGovernor(Governor):
    """Always run at the minimum frequency."""

    def update(self, cpu_busy: Mapping[int, float]) -> None:
        self.domain.set_all_targets(self.spec.min_frequency_hz)

    def is_fixed_point(self, cpu_busy: Mapping[int, float]) -> bool:
        return self._holds_everywhere(self.spec.min_frequency_hz)


class UserspaceGovernor(Governor):
    """Pin all cores to an explicitly chosen frequency."""

    def __init__(self, spec: CpuSpec, topology: Topology,
                 domain: FrequencyDomain, frequency_hz: int) -> None:
        super().__init__(spec, topology, domain)
        self.set_frequency(frequency_hz)

    def set_frequency(self, frequency_hz: int) -> None:
        """Change the pinned frequency.

        A frequency outside the topology's DVFS table is a user
        configuration mistake, not a simulation-internal inconsistency,
        so it surfaces as :class:`ConfigurationError` (the same way a
        bad pipeline spec does) rather than the internal FrequencyError.
        """
        try:
            self.spec.validate_frequency(frequency_hz)
        except FrequencyError as exc:
            raise ConfigurationError(str(exc)) from None
        self._frequency_hz = frequency_hz

    def update(self, cpu_busy: Mapping[int, float]) -> None:
        self.domain.set_all_targets(self._frequency_hz)

    def is_fixed_point(self, cpu_busy: Mapping[int, float]) -> bool:
        return self._holds_everywhere(self._frequency_hz)


class OndemandGovernor(Governor):
    """Linux ondemand: jump to max when busy, decay proportionally when not.

    A core above ``up_threshold`` utilisation is immediately raised to the
    maximum frequency; below it, the target scales with utilisation (with a
    floor at the minimum P-state).
    """

    def __init__(self, spec: CpuSpec, topology: Topology,
                 domain: FrequencyDomain, up_threshold: float = 0.80) -> None:
        super().__init__(spec, topology, domain)
        if not 0.0 < up_threshold <= 1.0:
            raise FrequencyError("up_threshold must be within (0, 1]")
        self.up_threshold = up_threshold

    def _requests(self, cpu_busy: Mapping[int, float]
                  ) -> Iterable[Tuple[Tuple[int, int], int]]:
        """The P-state each core asks for at its utilisation."""
        ladder = self.spec.frequencies_hz
        for core, util in self._core_utilisation(cpu_busy).items():
            if util >= self.up_threshold:
                target = self.spec.max_frequency_hz
            else:
                wanted = util * self.spec.max_frequency_hz / self.up_threshold
                target = ladder[0]
                for frequency in ladder:
                    if frequency >= wanted:
                        target = frequency
                        break
                else:
                    target = ladder[-1]
            yield core, target

    def update(self, cpu_busy: Mapping[int, float]) -> None:
        for (package_id, core_id), target in self._requests(cpu_busy):
            self.domain.set_target(package_id, core_id, target)

    def is_fixed_point(self, cpu_busy: Mapping[int, float]) -> bool:
        return self._holds(self._requests(cpu_busy))


class ConservativeGovernor(Governor):
    """Linux conservative: step the ladder gradually instead of jumping.

    One P-state up when a core exceeds ``up_threshold``, one down when it
    falls below ``down_threshold`` — smoother (and often more
    energy-proportional) than ondemand's jump-to-max on bursty loads.
    """

    def __init__(self, spec: CpuSpec, topology: Topology,
                 domain: FrequencyDomain, up_threshold: float = 0.80,
                 down_threshold: float = 0.30) -> None:
        super().__init__(spec, topology, domain)
        if not 0.0 < down_threshold < up_threshold <= 1.0:
            raise FrequencyError(
                "need 0 < down_threshold < up_threshold <= 1")
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold
        self._ladder = list(spec.frequencies_hz)
        self._index: Dict[Tuple[int, int], int] = {
            core: 0 for core in
            ((p, c) for p in range(spec.packages)
             for c in range(spec.cores_per_package))}

    def _step(self, index: int, util: float) -> int:
        """The ladder index one update moves a core at *util* to."""
        if util >= self.up_threshold and index < len(self._ladder) - 1:
            return index + 1
        if util <= self.down_threshold and index > 0:
            return index - 1
        return index

    def update(self, cpu_busy: Mapping[int, float]) -> None:
        for core, util in self._core_utilisation(cpu_busy).items():
            index = self._index[core] = self._step(self._index[core], util)
            self.domain.set_target(core[0], core[1], self._ladder[index])

    def is_fixed_point(self, cpu_busy: Mapping[int, float]) -> bool:
        # Under a ceiling the index can climb while the granted target
        # stays put: that is a move too.
        requests = []
        for core, util in self._core_utilisation(cpu_busy).items():
            index = self._index[core]
            if self._step(index, util) != index:
                return False
            requests.append((core, self._ladder[index]))
        return self._holds(requests)


GOVERNORS = {
    "performance": PerformanceGovernor,
    "powersave": PowersaveGovernor,
    "ondemand": OndemandGovernor,
    "conservative": ConservativeGovernor,
}
