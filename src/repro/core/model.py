"""The CPU power model: an idle constant plus one formula per frequency.

The paper's model (Section 4) is

    Power = idle + sum over frequencies f of Power_f

where each ``Power_f`` is a linear combination of HPC *rates* observed
while the processor runs at frequency ``f``; e.g. on the i3-2120 at the
maximum frequency:

    Power_3.30 = 2.22e-9 * instructions/s
               + 2.48e-8 * cache-references/s
               + 1.87e-7 * cache-misses/s

At any instant only one frequency is active per core, so prediction picks
the formula of the (dominant) current frequency; over a longer window the
per-frequency contributions add, exactly as the published equation sums
them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ModelError
from repro.units import GHZ, ghz

#: A formula's coefficients over one event list: each (weight, index of
#: its event in the list, or None when the list lacks the event), in
#: coefficient order.
Terms = Tuple[Tuple[float, Optional[int]], ...]


def linear_power(intercept_w: float, terms: Terms,
                 counts: Sequence[float], per_s: float) -> float:
    """Active power of *counts* over *per_s* seconds, watts:
    ``intercept_w + (((0.0 + w1 * (c1 / per_s)) + w2 * (c2 / per_s)) +
    ...)`` over *terms* in order (a term without an index adds
    ``w * 0.0``), clamped at zero.

    The one sum behind :meth:`FrequencyFormula.predict` and the live
    formula stage; it adds left to right like
    :func:`~repro.units.left_sum`.
    """
    total = 0.0
    for weight, index in terms:
        total += weight * (0.0 if index is None else counts[index] / per_s)
    power = intercept_w + total
    return power if power > 0.0 else 0.0  # max(0.0, power), NaN too


@dataclass(frozen=True)
class FrequencyFormula:
    """Linear power formula for one P-state.

    ``intercept_w`` is an optional active-state constant (e.g. the
    package-awake uncore offset richer models fit); the paper's own
    formulas keep it at zero and isolate all constant power in the
    model-level idle term.
    """

    frequency_hz: int
    #: Event name -> watts per (event per second).
    coefficients: Mapping[str, float]
    intercept_w: float = 0.0

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ConfigurationError("formula frequency must be positive")
        if not self.coefficients:
            raise ConfigurationError("formula needs at least one coefficient")

    @property
    def events(self) -> Tuple[str, ...]:
        """The events this formula consumes."""
        return tuple(self.coefficients)

    def terms(self, events: Sequence[str]) -> Terms:
        """The coefficients mapped onto *events* for :func:`linear_power`.

        An event listed twice maps to its last index, as a dict built
        from the list keeps the last value.
        """
        index = {event: position for position, event in enumerate(events)}
        return tuple((weight, index.get(event))
                     for event, weight in self.coefficients.items())

    def predict(self, rates: Mapping[str, float]) -> float:
        """Active power for counter *rates* (events/second), watts.

        Negative predictions are clamped to zero — a formula extrapolated
        to near-idle rates can dip slightly below zero.  Rates are counts
        over one second (``rate / 1.0`` is the rate exactly).
        """
        return linear_power(self.intercept_w, self.terms(tuple(rates)),
                            tuple(rates.values()), 1.0)


class PowerModel:
    """Idle constant + per-frequency formulas, the paper's CPU model."""

    def __init__(self, idle_w: float, formulas: Sequence[FrequencyFormula],
                 name: str = "powerapi") -> None:
        if idle_w < 0:
            raise ConfigurationError("idle power must be >= 0")
        if not formulas:
            raise ConfigurationError("at least one frequency formula required")
        frequencies = [formula.frequency_hz for formula in formulas]
        if len(set(frequencies)) != len(frequencies):
            raise ConfigurationError("duplicate frequency formulas")
        self.idle_w = idle_w
        self.name = name
        self._formulas: Dict[int, FrequencyFormula] = {
            formula.frequency_hz: formula
            for formula in sorted(formulas, key=lambda f: f.frequency_hz)}
        #: frequency -> :meth:`nearest_formula`'s answer.
        self._nearest: Dict[int, FrequencyFormula] = {}

    # -- lookup ----------------------------------------------------------

    @property
    def frequencies_hz(self) -> Tuple[int, ...]:
        """Frequencies with a formula, ascending."""
        return tuple(sorted(self._formulas))

    @property
    def events(self) -> Tuple[str, ...]:
        """Events used by the formulas (union, stable order)."""
        seen: List[str] = []
        for frequency in self.frequencies_hz:
            for event in self._formulas[frequency].events:
                if event not in seen:
                    seen.append(event)
        return tuple(seen)

    def formula(self, frequency_hz: int) -> FrequencyFormula:
        """The formula for exactly *frequency_hz*."""
        try:
            return self._formulas[frequency_hz]
        except KeyError:
            raise ModelError(
                f"no formula for {frequency_hz} Hz; "
                f"known: {list(self._formulas)}") from None

    def nearest_formula(self, frequency_hz: int) -> FrequencyFormula:
        """The formula whose frequency is closest to *frequency_hz*
        (remembered per frequency: a run asks about a few P-states)."""
        formula = self._nearest.get(frequency_hz)
        if formula is None:
            best = min(self._formulas,
                       key=lambda known: abs(known - frequency_hz))
            formula = self._nearest[frequency_hz] = self._formulas[best]
        return formula

    # -- prediction ------------------------------------------------------

    def predict_active(self, frequency_hz: int,
                       rates: Mapping[str, float]) -> float:
        """Active (above-idle) power at one frequency, watts."""
        return self.nearest_formula(frequency_hz).predict(rates)

    def predict_total(self, frequency_hz: int,
                      rates: Mapping[str, float]) -> float:
        """Machine power estimate: idle + active, watts."""
        return self.idle_w + self.predict_active(frequency_hz, rates)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form, stable across versions."""
        return {
            "name": self.name,
            "idle_w": self.idle_w,
            "formulas": [
                {
                    "frequency_hz": formula.frequency_hz,
                    "coefficients": dict(formula.coefficients),
                    "intercept_w": formula.intercept_w,
                }
                for formula in (self._formulas[f] for f in self.frequencies_hz)
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PowerModel":
        """Inverse of :meth:`to_dict`."""
        try:
            formulas = [
                FrequencyFormula(
                    frequency_hz=int(entry["frequency_hz"]),
                    coefficients={str(k): float(v)
                                  for k, v in entry["coefficients"].items()},
                    intercept_w=float(entry.get("intercept_w", 0.0)),
                )
                for entry in data["formulas"]
            ]
            return cls(idle_w=float(data["idle_w"]), formulas=formulas,
                       name=str(data.get("name", "powerapi")))
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"malformed power-model dict: {exc}") from exc

    def to_json(self) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PowerModel":
        """Inverse of :meth:`to_json`."""
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ModelError(f"invalid power-model JSON: {exc}") from exc

    # -- presentation ------------------------------------------------------

    def equation_text(self) -> str:
        """Render the model the way the paper prints it."""
        freqs = self.frequencies_hz
        lines = [
            f"Power = {self.idle_w:.2f} + sum(Power_f for f in "
            f"{freqs[0] / GHZ:.2f}..{freqs[-1] / GHZ:.2f} GHz)"
        ]
        for frequency in freqs:
            formula = self._formulas[frequency]
            terms = " + ".join(
                f"{weight:.3g} * {event}/s"
                for event, weight in formula.coefficients.items())
            lines.append(f"  Power_{frequency / GHZ:.2f} = {terms}")
        return "\n".join(lines)


def published_i3_2120_model() -> PowerModel:
    """The exact model published in the paper for the Intel i3-2120.

    Only the 3.30 GHz coefficients appear in the paper; the other
    frequencies scale them by the cube of the frequency ratio (an f.V^2
    surrogate), which reproduces the published shape for replay purposes.
    """
    top_coefficients = {
        "instructions": 2.22e-9,
        "cache-references": 2.48e-8,
        "cache-misses": 1.87e-7,
    }
    formulas = []
    top_hz = ghz(3.3)
    frequency = ghz(1.6)
    ladder = []
    while frequency < top_hz:
        ladder.append(frequency)
        frequency += ghz(0.2)
    ladder.append(top_hz)
    for frequency in ladder:
        scale = (frequency / top_hz) ** 3
        formulas.append(FrequencyFormula(
            frequency_hz=frequency,
            coefficients={event: weight * scale
                          for event, weight in top_coefficients.items()},
        ))
    return PowerModel(idle_w=31.48, formulas=formulas, name="i3-2120-published")
