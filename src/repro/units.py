"""Physical units and safe conversions used across the library.

All frequencies are stored internally in hertz (int), powers in watts
(float), energies in joules (float) and times in seconds (float).  The
helpers in this module make unit intent explicit at call sites
(``mhz(1600)`` reads better than ``1600 * 1_000_000``) and centralise
validation so negative or non-finite quantities are rejected early.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.errors import ConfigurationError

#: One kilohertz in hertz.
KHZ = 1_000
#: One megahertz in hertz.
MHZ = 1_000_000
#: One gigahertz in hertz.
GHZ = 1_000_000_000


def khz(value: float) -> int:
    """Return *value* kilohertz expressed in hertz."""
    return int(round(value * KHZ))


def mhz(value: float) -> int:
    """Return *value* megahertz expressed in hertz."""
    return int(round(value * MHZ))


def ghz(value: float) -> int:
    """Return *value* gigahertz expressed in hertz."""
    return int(round(value * GHZ))


def to_ghz(hertz: float) -> float:
    """Return *hertz* expressed in gigahertz."""
    return hertz / GHZ


def to_mhz(hertz: float) -> float:
    """Return *hertz* expressed in megahertz."""
    return hertz / MHZ


def watts(value: float) -> float:
    """Validate and return a power in watts (must be finite and >= 0)."""
    if not math.isfinite(value) or value < 0:
        raise ConfigurationError(f"invalid power: {value!r} W")
    return float(value)


def joules(value: float) -> float:
    """Validate and return an energy in joules (must be finite and >= 0)."""
    if not math.isfinite(value) or value < 0:
        raise ConfigurationError(f"invalid energy: {value!r} J")
    return float(value)


def seconds(value: float) -> float:
    """Validate and return a duration in seconds (must be finite and >= 0)."""
    if not math.isfinite(value) or value < 0:
        raise ConfigurationError(f"invalid duration: {value!r} s")
    return float(value)


def kib(value: float) -> int:
    """Return *value* kibibytes expressed in bytes."""
    return int(round(value * 1024))


def mib(value: float) -> int:
    """Return *value* mebibytes expressed in bytes."""
    return int(round(value * 1024 * 1024))


def energy(power_w: float, duration_s: float) -> float:
    """Return the energy in joules of *power_w* sustained for *duration_s*."""
    return watts(power_w) * seconds(duration_s)


def average_power(energy_j: float, duration_s: float) -> float:
    """Return the average power in watts of *energy_j* over *duration_s*.

    Raises :class:`~repro.errors.ConfigurationError` for a zero or negative
    duration, since the average would be undefined.
    """
    duration = seconds(duration_s)
    if duration <= 0:
        raise ConfigurationError("duration must be positive to average power")
    return joules(energy_j) / duration


def left_sum(values: Iterable[float]) -> float:
    """*values* added one at a time to 0.0, strictly left to right.

    The builtin ``sum()`` compensates float rounding from Python 3.12 on,
    so the same floats can sum to a different last bit on another
    interpreter.  Estimates, energies and power totals that digests and
    paper results pin add with this instead, which rounds alike on every
    version.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def format_frequency(hertz: float) -> str:
    """Render a frequency in the most natural unit (e.g. ``'3.30 GHz'``)."""
    if hertz >= GHZ:
        return f"{hertz / GHZ:.2f} GHz"
    if hertz >= MHZ:
        return f"{hertz / MHZ:.0f} MHz"
    if hertz >= KHZ:
        return f"{hertz / KHZ:.0f} kHz"
    return f"{hertz:.0f} Hz"


def format_power(watts_value: float) -> str:
    """Render a power with a fixed two-decimal precision (e.g. ``'31.48 W'``)."""
    return f"{watts_value:.2f} W"


def format_bytes(num_bytes: int) -> str:
    """Render a byte size in KiB/MiB/GiB as appropriate (e.g. ``'3 MB'``)."""
    if num_bytes >= 1024 ** 3:
        return f"{num_bytes / 1024 ** 3:.0f} GB"
    if num_bytes >= 1024 ** 2:
        return f"{num_bytes / 1024 ** 2:.0f} MB"
    if num_bytes >= 1024:
        return f"{num_bytes / 1024:.0f} KB"
    return f"{num_bytes} B"
