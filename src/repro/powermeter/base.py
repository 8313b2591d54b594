"""Power-meter abstractions.

Meters integrate true wall power into periodic :class:`PowerSample`
readings, each subclass adding its own imperfections (noise,
quantization, latency, restricted measurement domain).  The learning
pipeline and the evaluation figures consume the common
:class:`PowerMeter` interface only.

A connected meter is a machine *fold*: it takes each engine replay in
one call and walks the replay's per-tick leakage powers, adding
``((base + leak) + wakeup) * dt`` per tick (the association
``PowerBreakdown.total`` and the engine's energy line use) and closing
a sample whenever its interval fills.  Sample times advance from the
replay's start by repeated ``+ dt``, and :meth:`PowerMeter._postprocess`
runs once per sample, so every float and every random draw matches a
tick-at-a-time meter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError, MeterConnectionError
from repro.simcpu.machine import Machine, TickRecord
from repro.units import left_sum


@dataclass(frozen=True)
class PowerSample:
    """One meter reading: average power over the preceding interval."""

    #: Timestamp at the *end* of the integration interval, seconds.
    time_s: float
    power_w: float

    def __post_init__(self) -> None:
        if self.power_w < 0:
            raise ConfigurationError("power sample cannot be negative")


class PowerMeter:
    """Base meter: integrates machine energy into periodic samples."""

    def __init__(self, machine: Machine, sample_rate_hz: float = 1.0) -> None:
        if sample_rate_hz <= 0:
            raise ConfigurationError("sample rate must be positive")
        self.machine = machine
        self.sample_interval_s = 1.0 / sample_rate_hz
        self._samples: List[PowerSample] = []
        self._interval_energy_j = 0.0
        self._interval_elapsed_s = 0.0
        self._connected = False
        self._link_down_until_s = float("-inf")

    # -- lifecycle --------------------------------------------------------

    def connect(self) -> None:
        """Attach to the machine and start sampling.

        Raises :class:`MeterConnectionError` while an injected dropout
        holds the link down (see :meth:`inject_dropout`).
        """
        if self.machine.time_s < self._link_down_until_s - 1e-12:
            raise MeterConnectionError(
                f"{type(self).__name__}: link down until "
                f"t={self._link_down_until_s:.3f}s")
        if self._connected:
            return
        self.machine.add_fold(self._fold)
        self._connected = True

    def inject_dropout(self, down_s: float) -> None:
        """Fault injection: drop the link now, refuse reconnects for *down_s*.

        Models a meter losing its bluetooth/serial link: the meter
        disconnects immediately and :meth:`connect` raises until the
        machine's clock passes the reconnect deadline.  Partial-interval
        energy is discarded, like a real stream cut mid-sample.
        """
        if down_s < 0:
            raise ConfigurationError("dropout duration must be >= 0")
        self.disconnect()
        self._interval_energy_j = 0.0
        self._interval_elapsed_s = 0.0
        self._link_down_until_s = self.machine.time_s + down_s

    def disconnect(self) -> None:
        """Detach; accumulated samples remain readable."""
        if not self._connected:
            return
        self.machine.remove_fold(self._fold)
        self._connected = False

    @property
    def connected(self) -> bool:
        """Whether the meter is currently attached to the machine."""
        return self._connected

    def _require_connected(self) -> None:
        if not self._connected:
            raise MeterConnectionError(
                f"{type(self).__name__} is not connected")

    def __enter__(self) -> "PowerMeter":
        self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.disconnect()

    # -- sampling ---------------------------------------------------------

    def _fold(self, record: TickRecord, n_ticks: int,
              leaks: Sequence[float], start_s: float) -> None:
        power = record.power
        base_w = ((power.idle + power.cores) + power.uncore) + power.dram
        wakeup_w = power.wakeup
        dt = record.dt_s
        threshold_s = self.sample_interval_s - 1e-12
        energy = self._interval_energy_j
        elapsed = self._interval_elapsed_s
        time_s = start_s
        for leak in leaks:
            energy += ((base_w + leak) + wakeup_w) * dt
            elapsed += dt
            time_s += dt
            if elapsed >= threshold_s:
                self._samples.append(PowerSample(
                    time_s=time_s,
                    power_w=self._postprocess(energy / elapsed),
                ))
                energy = 0.0
                elapsed = 0.0
        self._interval_energy_j = energy
        self._interval_elapsed_s = elapsed

    def _postprocess(self, power_w: float) -> float:
        """Apply the meter's imperfections to a clean average (default: none)."""
        return power_w

    # -- reads --------------------------------------------------------------

    @property
    def samples(self) -> List[PowerSample]:
        """All samples collected so far."""
        return list(self._samples)

    def last_sample(self) -> Optional[PowerSample]:
        """The most recent sample, or None before the first interval ends."""
        return self._samples[-1] if self._samples else None

    def clear(self) -> None:
        """Drop collected samples (keeps the connection)."""
        self._samples.clear()
        self._interval_energy_j = 0.0
        self._interval_elapsed_s = 0.0

    def mean_power_w(self) -> float:
        """Mean of all collected samples."""
        if not self._samples:
            raise MeterConnectionError("no samples collected yet")
        return (left_sum(sample.power_w for sample in self._samples)
                / len(self._samples))
