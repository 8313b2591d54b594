"""Virtual clock: periodic tick messages for monitoring pipelines.

PowerAPI sensors sample on a monitoring period.  The :class:`VirtualClock`
is driven by simulated time (the host calls :meth:`advance` as the kernel
steps) and publishes a :class:`ClockTick` on the event bus whenever a
period boundary passes, so every subscribed Sensor fires at its configured
rate regardless of the kernel quantum.  :meth:`quanta_until_tick` tells
the host how many quanta it may run before the next boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.actors.eventbus import EventBus
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ClockTick:
    """Published once per monitoring period."""

    #: Simulated time of the tick, seconds.
    time_s: float
    #: Length of the period that ended at ``time_s``.
    period_s: float


class VirtualClock:
    """Period generator over simulated time."""

    def __init__(self, bus: EventBus, period_s: float = 1.0) -> None:
        if period_s <= 0:
            raise ConfigurationError("clock period must be positive")
        self.bus = bus
        self.period_s = period_s
        self._elapsed_s = 0.0
        self._time_s = 0.0
        self.ticks_emitted = 0

    def quanta_until_tick(self, dt_s: float, limit: int) -> int:
        """Advances of *dt_s* up to and including the next one that
        publishes, at most *limit*.

        Repeats :meth:`advance`'s float additions, so the count lands on
        the exact quantum that stepping one at a time would publish on.
        """
        elapsed = self._elapsed_s
        threshold = self.period_s - 1e-12
        for n_quanta in range(1, limit):
            elapsed += dt_s
            if elapsed >= threshold:
                return n_quanta
        return limit

    def advance(self, dt_s: float, n_quanta: int = 1) -> int:
        """Advance simulated time by *n_quanta* steps of *dt_s*; publish
        one tick per period completed by the last step.

        Only the last step may complete a period: a caller advancing
        several steps at once bounds them with :meth:`quanta_until_tick`.
        Returns the number of ticks published for this advance.
        """
        if dt_s < 0:
            raise ConfigurationError("cannot advance time backwards")
        for _ in range(n_quanta):
            self._elapsed_s += dt_s
            self._time_s += dt_s
        published = 0
        while self._elapsed_s >= self.period_s - 1e-12:
            self._elapsed_s -= self.period_s
            self.ticks_emitted += 1
            published += 1
            self.bus.publish(ClockTick(
                time_s=self._time_s - self._elapsed_s,
                period_s=self.period_s,
            ))
        return published
