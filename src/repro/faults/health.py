"""Pipeline health: the observable log of degradations and recoveries.

Sensors, the supervision layer and the fault injector publish
:class:`~repro.core.messages.HealthEvent` messages on the event bus; each
pipeline's :class:`HealthLog` subscribes to them itself and is exposed
as ``MonitorHandle.health``, so reporters and tests can assert on the
exact sequence of transitions.  The log is deterministic: the same seed
and workload reproduce it event for event.
"""

from __future__ import annotations

import hashlib
from collections import Counter, deque
from typing import Any, Deque, Iterator, List, Optional, Tuple

from repro.core.messages import HealthEvent
from repro.errors import ConfigurationError


class HealthLog:
    """Ordered record of health transitions for one pipeline.

    The log is bounded: only the most recent *cap* events are retained
    (a multi-hour soak would otherwise grow it without limit), but
    per-kind counts stay exact past the cap, ``__len__`` keeps counting
    every event ever recorded, and evicted events are folded into an
    incremental digest so :meth:`signature` still fingerprints the
    complete history.  Not an actor: the bus delivers to its ``name``
    and :meth:`tell`, so it records each event as it is published.
    """

    def __init__(self, cap: int = 4096, name: str = "health") -> None:
        if cap < 1:
            raise ConfigurationError("health log cap must be >= 1")
        self.cap = cap
        self.name = name
        self.events: Deque[HealthEvent] = deque()
        self._counts: Counter = Counter()
        self._total = 0
        self._evicted = 0
        self._evicted_digest = hashlib.blake2b(digest_size=16)

    def tell(self, message: Any, sender: Optional[Any] = None) -> None:
        """Record a :class:`HealthEvent` the event bus delivers."""
        self.record(message)

    def record(self, event: HealthEvent) -> None:
        """Append one event."""
        self.events.append(event)
        self._counts[event.kind] += 1
        self._total += 1
        if len(self.events) > self.cap:
            evicted = self.events.popleft()
            self._evicted += 1
            self._evicted_digest.update(repr(
                (round(evicted.time_s, 9), evicted.component, evicted.kind,
                 evicted.detail)).encode("utf-8"))

    @property
    def evicted(self) -> int:
        """Events aged out of the retained window."""
        return self._evicted

    def kinds(self) -> List[str]:
        """The sequence of retained event kinds, in arrival order."""
        return [event.kind for event in self.events]

    def count(self, kind: str) -> int:
        """How many events of *kind* were recorded (exact past the cap)."""
        return self._counts[kind]

    def signature(self) -> Tuple[Tuple[float, str, str, str], ...]:
        """Hashable fingerprint of the whole log (determinism checks).

        Within the cap this is exactly the historical tuple-of-entries
        form.  Once events have been evicted, they are represented by a
        single leading ``("evicted", <count>, <digest>, "")`` entry, so
        two logs with identical complete histories keep identical
        signatures at any cap.
        """
        entries = tuple((round(event.time_s, 9), event.component,
                         event.kind, event.detail)
                        for event in self.events)
        if self._evicted:
            return (("evicted", str(self._evicted),
                     self._evicted_digest.hexdigest(), ""),) + entries
        return entries

    def __len__(self) -> int:
        """Total events ever recorded (retained + evicted)."""
        return self._total

    def __iter__(self) -> Iterator[HealthEvent]:
        return iter(self.events)

