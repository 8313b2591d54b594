"""C-state (idle state) model.

When a logical CPU has no runnable work the hardware parks it in an idle
state.  Deeper C-states draw less power but have a wake-up latency, so the
(simulated) idle governor picks the deepest state whose expected residency
amortises its entry cost — the same menu-governor trade-off Linux makes.

Per-state power is expressed as a fraction of the core's active power; the
residency bookkeeping feeds both the hidden ground-truth power model and the
``cstate-residency`` diagnostic counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.errors import ConfigurationError
from repro.simcpu.spec import CpuSpec


@dataclass(frozen=True)
class CStateInfo:
    """Static parameters of one C-state."""

    name: str
    #: Fraction of a core's active power still drawn in this state.
    power_fraction: float
    #: Time to wake back up to C0, seconds.
    exit_latency_s: float
    #: Minimum expected idle period for the governor to pick this state.
    target_residency_s: float


#: Catalogue of known C-states; specs reference these by name.
CSTATE_CATALOG: Dict[str, CStateInfo] = {
    "C0": CStateInfo("C0", power_fraction=1.00, exit_latency_s=0.0,
                     target_residency_s=0.0),
    "C1": CStateInfo("C1", power_fraction=0.30, exit_latency_s=2e-6,
                     target_residency_s=4e-6),
    "C3": CStateInfo("C3", power_fraction=0.12, exit_latency_s=50e-6,
                     target_residency_s=150e-6),
    "C6": CStateInfo("C6", power_fraction=0.03, exit_latency_s=100e-6,
                     target_residency_s=400e-6),
}


class CStateController:
    """Chooses idle states and tracks per-logical-CPU residencies."""

    def __init__(self, spec: CpuSpec) -> None:
        self.spec = spec
        self._states: Tuple[CStateInfo, ...] = tuple(
            self._lookup(name) for name in spec.cstates)
        if self._states[0].name != "C0":
            raise ConfigurationError("the first C-state must be C0")
        self._residency_s: Dict[Tuple[int, str], float] = {
            (cpu_id, state.name): 0.0
            for cpu_id in range(spec.num_threads)
            for state in self._states
        }
        self._current: Dict[int, str] = {
            cpu_id: "C0" for cpu_id in range(spec.num_threads)}

    @staticmethod
    def _lookup(name: str) -> CStateInfo:
        try:
            return CSTATE_CATALOG[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown C-state {name!r}; known: {sorted(CSTATE_CATALOG)}"
            ) from None

    @property
    def states(self) -> Tuple[CStateInfo, ...]:
        """Supported states, shallowest first."""
        return self._states

    def deepest_for(self, expected_idle_s: float) -> CStateInfo:
        """Pick the deepest state whose target residency fits the idle window."""
        chosen = self._states[0]
        for state in self._states:
            if expected_idle_s >= state.target_residency_s:
                chosen = state
        return chosen

    def account(self, cpu_id: int, busy_fraction: float, dt_s: float,
                expected_idle_s: float) -> CStateInfo:
        """Record *dt_s* of wall time for one logical CPU.

        The busy fraction is spent in C0; the idle remainder is spent in the
        state the governor picks for *expected_idle_s*.  Returns that idle
        state (C0 when the CPU never idles in the window).
        """
        if not 0.0 <= busy_fraction <= 1.0:
            raise ConfigurationError(
                f"busy_fraction must be within [0, 1], got {busy_fraction}")
        self._residency_s[(cpu_id, "C0")] += busy_fraction * dt_s
        idle_s = (1.0 - busy_fraction) * dt_s
        if idle_s <= 0.0:
            self._current[cpu_id] = "C0"
            return self._states[0]
        state = self.deepest_for(expected_idle_s)
        if state.name == "C0":  # no deeper state available for this window
            self._residency_s[(cpu_id, "C0")] += idle_s
        else:
            self._residency_s[(cpu_id, state.name)] += idle_s
        self._current[cpu_id] = state.name
        return state

    def idle_power_fraction(self, expected_idle_s: float) -> float:
        """Power fraction of the state chosen for *expected_idle_s*."""
        return self.deepest_for(expected_idle_s).power_fraction

    def residency_table(self) -> Dict[Tuple[int, str], float]:
        """The residency table itself, keyed ``(cpu_id, state name)``.

        The batched engine adds each tick's residency seconds into it
        directly, the additions :meth:`account` would make.
        """
        return self._residency_s

    def set_current_states(self, states: Mapping[int, str]) -> None:
        """Record the state each CPU ended the last step in (batched path)."""
        self._current.update(states)

    def residency(self, cpu_id: int, state_name: str) -> float:
        """Accumulated seconds *cpu_id* has spent in *state_name*."""
        try:
            return self._residency_s[(cpu_id, state_name)]
        except KeyError:
            raise ConfigurationError(
                f"cpu{cpu_id} has no C-state {state_name!r}") from None

    def current_state(self, cpu_id: int) -> str:
        """Name of the state *cpu_id* occupied at the end of the last step."""
        return self._current[cpu_id]
