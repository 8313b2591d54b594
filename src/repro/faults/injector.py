"""Applying a :class:`~repro.faults.plan.FaultPlan` to a live pipeline.

The injector is driven by the host's run loop:
:meth:`repro.core.monitor.PowerAPI.run` ends a kernel span on the quantum
on which :attr:`FaultInjector.next_due_s` falls due and calls
:meth:`FaultInjector.advance` at the end of every span, *before* the
monitoring clock publishes its tick.  Faults therefore land on the same
quantum as if the kernel stepped one quantum at a time, at deterministic
virtual-clock times regardless of period or quantum.  Every applied
action publishes a
``fault-injected`` :class:`~repro.core.messages.HealthEvent`, so the
health log doubles as the campaign's ground-truth record.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.core.messages import HealthEvent
from repro.errors import FaultInjectionError
from repro.faults.plan import (ActorCrash, FaultPlan, MeterDropout, PidExit,
                               SampleLoss, SlotStarvation)


class FaultInjector:
    """Executes a plan against a PowerAPI instance in virtual time."""

    def __init__(self, plan: FaultPlan, api) -> None:
        self.plan = plan
        self.api = api
        self.applied: List[Tuple[float, str]] = []
        self._seq = itertools.count()
        self._queue: List[Tuple[float, int, str, Callable[[], None]]] = []
        self._starve_depth = 0
        self._loss_depth = 0
        for event in plan:
            self._schedule(event)

    # -- scheduling -------------------------------------------------------

    def _push(self, at_s: float, label: str,
              action: Callable[[], None]) -> None:
        heapq.heappush(self._queue, (at_s, next(self._seq), label, action))

    def _schedule(self, event) -> None:
        if isinstance(event, MeterDropout):
            self._push(event.at_s, event.describe(),
                       lambda e=event: self._drop_meters(e))
        elif isinstance(event, PidExit):
            self._push(event.at_s, event.describe(),
                       lambda e=event: self._exit_pid(e))
        elif isinstance(event, SlotStarvation):
            self._push(event.at_s, event.describe(),
                       lambda e=event: self._starve(e))
            self._push(event.at_s + event.duration_s,
                       f"starve-end@{event.at_s + event.duration_s:g}",
                       self._unstarve)
        elif isinstance(event, SampleLoss):
            self._push(event.at_s, event.describe(),
                       lambda e=event: self._lose_samples(e))
            self._push(event.at_s + event.duration_s,
                       f"hpc-loss-end@{event.at_s + event.duration_s:g}",
                       self._restore_samples)
        elif isinstance(event, ActorCrash):
            self._push(event.at_s, event.describe(),
                       lambda e=event: self._crash_actor(e))
        else:
            raise FaultInjectionError(
                f"unknown fault event {type(event).__name__}")

    # -- driving ----------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        """Whether every scheduled action has been applied."""
        return not self._queue

    @property
    def next_due_s(self) -> Optional[float]:
        """Virtual time of the next pending action (None when exhausted)."""
        return self._queue[0][0] if self._queue else None

    def advance(self, now_s: float) -> int:
        """Apply every action due at or before *now_s*; returns the count."""
        fired = 0
        while self._queue and self._queue[0][0] <= now_s + 1e-12:
            _at, _seq, label, action = heapq.heappop(self._queue)
            action()
            self.applied.append((now_s, label))
            self._record(now_s, label)
            fired += 1
        return fired

    def _record(self, now_s: float, label: str) -> None:
        self.api.system.event_bus.publish(HealthEvent(
            time_s=now_s, component="fault-injector",
            kind="fault-injected", detail=label))

    # -- actions ----------------------------------------------------------

    def _drop_meters(self, event: MeterDropout) -> None:
        for meter in self.api.meters:
            meter.inject_dropout(event.down_s)

    def _exit_pid(self, event: PidExit) -> None:
        pids = self.api.monitored_pids()
        if not pids:
            return
        pid = pids[min(event.index, len(pids) - 1)]
        if pid in self.api.kernel.live_pids:
            self.api.kernel.kill(pid)
        self.api.perf.invalidate_pid(pid)

    def _starve(self, event: SlotStarvation) -> None:
        self._starve_depth += 1
        self.api.perf.set_slot_override(event.slots)

    def _unstarve(self) -> None:
        self._starve_depth = max(0, self._starve_depth - 1)
        if self._starve_depth == 0:
            self.api.perf.set_slot_override(None)

    def _lose_samples(self, _event: SampleLoss) -> None:
        self._loss_depth += 1
        self.api.perf.set_sample_loss(True)

    def _restore_samples(self) -> None:
        self._loss_depth = max(0, self._loss_depth - 1)
        if self._loss_depth == 0:
            self.api.perf.set_sample_loss(False)

    def _crash_actor(self, event: ActorCrash) -> None:
        self.api.system.inject_failure(
            event.actor, FaultInjectionError(f"injected crash at "
                                             f"t={event.at_s:g}s"))
