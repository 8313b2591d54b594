"""PMU counter-slot multiplexing.

Real PMUs have a handful of programmable counters per logical CPU; when
more events are requested than slots exist, the kernel time-multiplexes
them and consumers scale the raw counts by ``time_enabled/time_running``.
The paper's overhead criterion for choosing events exists precisely because
of this pressure.

The scheduler here groups active counters by their (pid, cpu) target —
counters on the same target compete for the same slots — and rotates which
ones count each tick, giving every event an equal share of PMU time over
any window longer than a few ticks.  Over a replay it reports which ticks
each counter ran, since over a ramp run every tick counts its own value.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError


class MultiplexScheduler:
    """Round-robin rotation of counters over limited PMU slots."""

    def __init__(self, slots: int) -> None:
        if slots < 1:
            raise ConfigurationError("need at least one PMU slot")
        self.slots = slots
        #: Fault-injection override of the usable slot count (may be 0 to
        #: model complete PMU starvation); None means use ``slots``.
        self.slot_override: Optional[int] = None
        self._rotation: Dict[Tuple[int, int], int] = defaultdict(int)
        # (usable slots, counters, whether every counter runs) of the
        # last schedule in which no target rotates: repeating it changes
        # nothing.
        self._held: Optional[tuple] = None

    @property
    def effective_slots(self) -> int:
        """Slots usable this tick (honours a starvation override)."""
        if self.slot_override is None:
            return self.slots
        return max(0, self.slot_override)

    def schedule(self, counters: Sequence) -> Set[int]:
        """Pick which of *counters* get a PMU slot for this tick.

        Returns the ``counter_id`` set of the scheduled ones.  Counters are
        grouped by (pid, cpu) target; each group independently rotates
        through its members ``slots`` at a time.  Rotation state for
        targets no longer present (closed counters, exited pids) is pruned
        here, so long-running sessions under pid churn stay bounded.
        """
        self._held = None
        groups: Dict[Tuple[int, int], List] = defaultdict(list)
        for counter in counters:
            groups[(counter.pid, counter.cpu)].append(counter)

        for stale in [target for target in self._rotation
                      if target not in groups]:
            del self._rotation[stale]

        slots = self.effective_slots
        scheduled: Set[int] = set()
        if slots == 0:
            return scheduled
        for target, members in groups.items():
            members.sort(key=lambda c: c.counter_id)
            if len(members) <= slots:
                scheduled.update(c.counter_id for c in members)
                continue
            start = self._rotation[target] % len(members)
            for offset in range(slots):
                scheduled.add(members[(start + offset) % len(members)].counter_id)
            self._rotation[target] = (start + slots) % len(members)
        return scheduled

    def running_ticks(self, counters: Sequence, n_ticks: int
                      ) -> Optional[Dict[int, List[int]]]:
        """The ticks (0 to *n_ticks* - 1) each of *counters* holds a
        slot, or None when every one holds a slot on every tick.

        Keyed by ``counter_id`` (counters never scheduled are absent);
        leaves the rotation state exactly as *n_ticks* :meth:`schedule`
        calls would.  A schedule in which no target rotates runs every
        counter (or, with no usable slot, none) and repeats unchanged, so
        it is kept and reused while the counters and the usable slots
        hold; only a rotating group costs one :meth:`schedule` call per
        tick, and lists its counters' ticks.
        """
        slots = self.effective_slots
        held = self._held
        if held is None or held[0] != slots or held[1] != counters:
            scheduled = self.schedule(counters)
            if self._rotates(counters):
                running: Dict[int, List[int]] = {
                    counter_id: [0] for counter_id in scheduled}
                for tick in range(1, n_ticks):
                    for counter_id in self.schedule(counters):
                        running.setdefault(counter_id, []).append(tick)
                return running
            held = self._held = (slots, list(counters),
                                 len(scheduled) == len(counters))
        return None if held[2] else {}

    def _rotates(self, counters: Sequence) -> bool:
        """Whether some target has more counters than usable slots."""
        slots = self.effective_slots
        if slots == 0:
            return False
        sizes: Dict[Tuple[int, int], int] = defaultdict(int)
        for counter in counters:
            sizes[(counter.pid, counter.cpu)] += 1
        return any(size > slots for size in sizes.values())

    def rotation_targets(self) -> Tuple[Tuple[int, int], ...]:
        """Targets with live rotation state (introspection for tests)."""
        return tuple(self._rotation)

    def pressure(self, counters: Sequence) -> float:
        """Worst-case events-per-slot ratio across targets (1.0 = no mux)."""
        groups: Dict[Tuple[int, int], int] = defaultdict(int)
        for counter in counters:
            groups[(counter.pid, counter.cpu)] += 1
        if not groups:
            return 0.0
        return max(count / self.slots for count in groups.values())
