"""What a driver hands the machine for one quantum: who runs where.

A :class:`ThreadAssignment` puts one process's thread on one logical CPU
for a step, with a busy fraction, an instruction mix and a memory
profile.  A :class:`Placement` is one quantum's running threads as rows
of floats, which is what the engine takes
(:meth:`repro.simcpu.engine.BatchEngine.hold`): a scheduler builds one
directly, and ``Machine.placement`` converts a list of assignments.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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


#: A running thread's ``(pid, cpu_id, mix, memory)``.
Row = Tuple[int, int, InstructionMix, MemoryProfile]


class Placement(Sequence):
    """One quantum's running threads, as placed; never changed.

    ``rows`` gives each running thread's ``(pid, cpu_id, mix, memory)``
    and ``busy`` its busy fraction, above 0, in placement order; read as
    a sequence, a placement builds its :class:`ThreadAssignment` objects
    once.  ``granted`` is each of the scheduler's demands' summed busy
    fraction, in the order it got them, and ``cpu_busy`` each CPU's
    summed busy capped at 1, as ``Machine._validate_occupancy`` gives it.

    The engine lays out a quantum by its ``rows`` alone, so placements
    with equal rows share a layout.  A scheduler hands out one ``rows``
    tuple for as long as it holds a placement's shape, which makes that
    comparison an identity check.
    """

    __slots__ = ("rows", "busy", "cpu_busy", "granted", "_items")

    def __init__(self, rows: Tuple[Row, ...], busy: List[float],
                 granted: List[float], cpu_busy: Dict[int, float]) -> None:
        self.rows = rows
        self.busy = busy
        self.granted = granted
        self.cpu_busy = cpu_busy
        self._items: Optional[List[ThreadAssignment]] = None

    def _list(self) -> List[ThreadAssignment]:
        items = self._items
        if items is None:
            items = self._items = [
                ThreadAssignment(pid, cpu_id, fraction, mix, memory)
                for (pid, cpu_id, mix, memory), fraction
                in zip(self.rows, self.busy)]
        return items

    def __getitem__(self, index):
        return self._list()[index]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self._list())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Placement):
            other = other._list()
        return self._list() == other

    def __repr__(self) -> str:
        return f"Placement({self._list()!r})"
