"""Actuation backends for the closed control loop (`repro.control`).

The power-cap actor decides *what* to do; this module is *how* it is
done inside the simulated OS, without perturbing anything when no cap is
armed:

* :class:`FrequencyCapActuator` owns the DVFS ceiling: it walks the
  spec's full DVFS table (sustained P-states plus the turbo ladder) one
  rung at a time and moves the machine's
  :attr:`~repro.simcpu.frequency.FrequencyDomain.ceiling_hz`, which
  grants every governor request at most the ceiling.  The governor is
  never replaced and keeps full authority below the ceiling, so
  ondemand/conservative behaviour under a cap stays realistic; with the
  ceiling at the top of the table the bound is a mathematical no-op, so
  an armed but never-stepped actuator cannot change a run.
* :class:`ProcessThrottle` is the scheduler hook for when frequency
  scaling bottoms out: it raises the nice level of the hungriest
  monitored process (the scheduler's nice weighting then shrinks the CPU
  share it is granted) and can unwind the throttles in LIFO order when
  headroom returns.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError

#: Hard ceiling of the Linux nice range.
_NICE_MAX = 19


class FrequencyCapActuator:
    """Steps a DVFS ceiling down/up the spec's frequency table.

    Arming puts the ceiling on the kernel machine's frequency domain;
    :meth:`release` lifts it.  The ladder is ``spec.all_frequencies_hz``
    (sustained plus turbo), and levels index into it — level
    ``len(ladder) - 1`` means "no effective clamp".
    """

    def __init__(self, kernel) -> None:
        self.domain = kernel.machine.frequency
        self.ladder: Tuple[int, ...] = tuple(
            kernel.machine.spec.all_frequencies_hz)
        self._top = len(self.ladder) - 1
        self._level = self._top
        self.armed = False

    # -- arming ---------------------------------------------------------

    def arm(self) -> None:
        """Put the ceiling on the frequency domain (idempotent)."""
        if self.armed:
            return
        if self.domain.ceiling_hz is not None:
            raise ConfigurationError(
                "the kernel's frequency domain already has a cap "
                "ceiling; one frequency-cap actuator per kernel")
        self.armed = True
        self.domain.ceiling_hz = self.ladder[self._level]

    def release(self) -> None:
        """Lift the ceiling and forget its level."""
        if not self.armed:
            return
        self.domain.ceiling_hz = None
        self.armed = False
        self._level = self._top

    # -- the ladder -----------------------------------------------------

    @property
    def level(self) -> int:
        """Current ladder index of the ceiling."""
        return self._level

    @property
    def frequency_hz(self) -> int:
        """Current ceiling frequency, hertz."""
        return self.ladder[self._level]

    @property
    def at_floor(self) -> bool:
        return self._level == 0

    @property
    def at_ceiling(self) -> bool:
        return self._level == self._top

    def set_level(self, level: int) -> None:
        """Jump the ceiling to an explicit ladder index."""
        if not 0 <= level <= self._top:
            raise ConfigurationError(
                f"ceiling level must be within [0, {self._top}], "
                f"got {level}")
        self._level = level
        if self.armed:
            self.domain.ceiling_hz = self.ladder[level]

    def step(self, levels: int) -> int:
        """Move the ceiling by *levels* rungs (negative = down).

        Returns the delta actually applied after clamping to the table
        bounds; 0 means the ceiling was already pinned at an end.
        """
        target = max(0, min(self._top, self._level + levels))
        applied = target - self._level
        self.set_level(target)
        return applied


class ProcessThrottle:
    """Nice-based throttling of the hungriest monitored processes.

    Each :meth:`throttle_hungriest` call raises one process's nice level
    by ``step`` (bounded at +19); the scheduler's nice weighting then
    grants it a smaller CPU share next quantum.  Throttles stack and
    unwind LIFO via :meth:`unthrottle_last`, and :meth:`restore_all`
    returns every touched process to its original nice.
    """

    def __init__(self, kernel, step: int = 5) -> None:
        if step < 1:
            raise ConfigurationError("throttle step must be >= 1")
        self.kernel = kernel
        self.step = step
        #: LIFO of (pid, nice before this throttle was applied).
        self._stack: List[Tuple[int, int]] = []
        self._original: Dict[int, int] = {}

    @property
    def throttled_pids(self) -> Tuple[int, ...]:
        """Pids currently holding at least one throttle level."""
        return tuple(dict.fromkeys(pid for pid, _nice in self._stack))

    def depth(self) -> int:
        """Number of stacked throttle levels."""
        return len(self._stack)

    def can_throttle(self, by_pid: Mapping[int, float]) -> bool:
        """Whether any candidate process can still be slowed down."""
        return self._pick(by_pid) is not None

    def _pick(self, by_pid: Mapping[int, float]) -> Optional[int]:
        """The hungriest live pid whose nice can still rise."""
        best_pid, best_w = None, -1.0
        for pid, watts in by_pid.items():
            try:
                process = self.kernel.process(pid)
            except Exception:
                continue
            if not process.alive or process.nice >= _NICE_MAX:
                continue
            if watts > best_w:
                best_pid, best_w = pid, watts
        return best_pid

    def throttle_hungriest(self,
                           by_pid: Mapping[int, float]) -> Optional[int]:
        """Raise the hungriest process's nice by one step.

        Returns the throttled pid, or None when every candidate is
        already at the nice ceiling (or gone).
        """
        pid = self._pick(by_pid)
        if pid is None:
            return None
        process = self.kernel.process(pid)
        self._original.setdefault(pid, process.nice)
        self._stack.append((pid, process.nice))
        process.nice = min(_NICE_MAX, process.nice + self.step)
        return pid

    def unthrottle_last(self) -> Optional[int]:
        """Undo the most recent throttle; returns its pid (or None)."""
        while self._stack:
            pid, previous = self._stack.pop()
            try:
                process = self.kernel.process(pid)
            except Exception:
                continue
            process.nice = previous
            if not self._stack or all(p != pid
                                      for p, _ in self._stack):
                self._original.pop(pid, None)
            return pid
        return None

    def restore_all(self) -> int:
        """Undo every stacked throttle; returns how many were undone."""
        undone = 0
        while self._stack:
            if self.unthrottle_last() is not None:
                undone += 1
        for pid, nice in list(self._original.items()):
            try:
                self.kernel.process(pid).nice = nice
            except Exception:
                pass
        self._original.clear()
        return undone
