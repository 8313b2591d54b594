"""What a driver hands the machine for one quantum: who runs where.

A :class:`ThreadAssignment` puts one process's thread on one logical CPU
for a step, with a busy fraction, an instruction mix and a memory
profile.  A :class:`Placement` is a scheduler's list of them, built only
when read, with what the scheduler proved about it, so that a ramp's
quanta reach the engine (:meth:`repro.simcpu.engine.BatchEngine.hold`)
as rows of floats.
"""

from __future__ import annotations

from collections.abc import MutableSequence
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.simcpu.caches import MemoryProfile
from repro.simcpu.pipeline import InstructionMix


@dataclass(frozen=True)
class ThreadAssignment:
    """One process occupying (part of) one logical CPU for one step."""

    pid: int
    cpu_id: int
    busy_fraction: float
    mix: InstructionMix
    memory: MemoryProfile

    def __post_init__(self) -> None:
        if self.pid < 0:
            raise ConfigurationError("pid must be >= 0")
        if not 0.0 <= self.busy_fraction <= 1.0:
            raise ConfigurationError(
                f"busy_fraction must be within [0, 1], got {self.busy_fraction}")


#: A placed thread's ``(pid, cpu_id, mix, memory)``.
Row = Tuple[int, int, InstructionMix, MemoryProfile]

_new = object.__new__


class Placement(MutableSequence):
    """One quantum's thread assignments, as a scheduler placed them.

    ``rows`` gives each placed thread's ``(pid, cpu_id, mix, memory)``
    and ``busy`` its busy fraction, in placement order; the
    :class:`ThreadAssignment` objects are built when the placement is
    first read as a list.  ``granted`` is each of the scheduler's demands'
    summed busy fraction, in the order it got them, and ``cpu_busy`` each
    CPU's summed busy capped at 1, as ``Machine._validate_occupancy``
    would give it.

    A scheduler hands out one ``rows`` tuple for as long as it holds a
    placement's shape, and no fraction of its placements is 0 nor any CPU
    above 1.  So the engine takes a placement that shares the last
    quantum's ``rows`` object as a row of floats, with no layout key and
    no validation.  Changing a placement in place leaves only its list:
    ``rows``, ``busy``, ``cpu_busy`` and ``granted`` become None, and the
    engine treats it as any list.
    """

    __slots__ = ("rows", "busy", "cpu_busy", "granted", "_items")

    def __init__(self, rows: Sequence[Row], busy: List[float],
                 granted: List[float], cpu_busy: Dict[int, float]) -> None:
        self.rows = rows
        self.busy = busy
        self.granted = granted
        self.cpu_busy = cpu_busy
        self._items: Optional[List[ThreadAssignment]] = None

    def copy(self) -> "Placement":
        """An equal placement (its list, once built, copied)."""
        twin = _new(Placement)
        twin.rows, twin.busy = self.rows, self.busy
        twin.granted, twin.cpu_busy = self.granted, self.cpu_busy
        items = self._items
        twin._items = None if items is None else list(items)
        return twin

    def _list(self) -> List[ThreadAssignment]:
        items = self._items
        if items is None:
            items = self._items = [
                ThreadAssignment(pid, cpu_id, fraction, mix, memory)
                for (pid, cpu_id, mix, memory), fraction
                in zip(self.rows, self.busy)]
        return items

    def _changing(self) -> List[ThreadAssignment]:
        items = self._list()
        self.rows = self.busy = self.cpu_busy = self.granted = None
        return items

    def __getitem__(self, index):
        return self._list()[index]

    def __len__(self) -> int:
        return len(self._list())

    def __iter__(self):
        return iter(self._list())

    def __setitem__(self, index, value) -> None:
        self._changing()[index] = value

    def __delitem__(self, index) -> None:
        del self._changing()[index]

    def insert(self, index: int, value: ThreadAssignment) -> None:
        self._changing().insert(index, value)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Placement):
            other = other._list()
        return self._list() == other

    def __repr__(self) -> str:
        return f"Placement({self._list()!r})"
