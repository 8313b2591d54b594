"""The actor system: registry, dispatch loop and supervision.

Execution model: :meth:`ActorSystem.dispatch` drains mailboxes in global
FIFO order until quiescent.  Because there is exactly one thread, message
processing is deterministic — the property that makes the PowerAPI
pipeline unit-testable tick by tick.  Under real-time use the host
(:class:`repro.core.monitor.PowerAPI`) calls ``dispatch()`` after every
clock tick, which is equivalent to an event loop that always drains.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.actors.actor import (Actor, ActorContext, ActorRef, Envelope,
                                Mailbox)
from repro.actors.eventbus import EventBus
from repro.actors.supervision import (Directive, RestartStrategy,
                                      SupervisionStrategy)
from repro.errors import ActorError, ActorStoppedError


class _Cell:
    """Internal bookkeeping for one live actor."""

    def __init__(self, actor: Actor, factory: Optional[Callable[[], Actor]],
                 mailbox: Mailbox) -> None:
        self.actor = actor
        self.factory = factory
        self.mailbox = mailbox
        self.failure_count = 0
        #: Virtual-clock time before which this actor must not run
        #: (restart backoff); None when the actor is live.
        self.suspended_until: Optional[float] = None


class ActorSystem:
    """Owns all actors, their mailboxes and the event bus."""

    def __init__(self, name: str = "powerapi",
                 strategy: Optional[SupervisionStrategy] = None) -> None:
        self.name = name
        self.strategy = strategy or RestartStrategy()
        self.event_bus = EventBus(self)
        self._cells: Dict[str, _Cell] = {}
        self._run_queue: Deque[str] = deque()
        self._counter = 0
        #: Monotone virtual-clock time; drives restart backoff.  The host
        #: (PowerAPI) advances it via :meth:`advance_time`.
        self.clock_s = 0.0
        #: Optional observer of supervision outcomes, called with
        #: (actor_name, kind, detail) where kind is "actor-restarted",
        #: "actor-restart-scheduled" or "actor-stopped".  The host wires
        #: this to the pipeline health log.
        self.on_lifecycle_event: Optional[
            Callable[[str, str, str], None]] = None

    # -- spawning -------------------------------------------------------

    def actor_of(self, factory: Callable[[], Actor],
                 name: Optional[str] = None) -> ActorRef:
        """Create an actor from a zero-argument factory and start it.

        Passing the factory (rather than an instance) is what enables the
        RESTART directive to rebuild a fresh instance after a failure.
        """
        if name is None:
            self._counter += 1
            name = f"{self.name}-actor-{self._counter}"
        if name in self._cells:
            raise ActorError(f"actor name {name!r} already in use")
        actor = factory()
        if not isinstance(actor, Actor):
            raise ActorError(f"factory returned {type(actor).__name__}, "
                             "expected an Actor")
        ref = ActorRef(name, self)
        cell = _Cell(actor, factory, Mailbox())
        self._cells[name] = cell
        actor.context = ActorContext(self, ref)
        actor.pre_start()
        return ref

    def spawn(self, actor: Actor, name: Optional[str] = None) -> ActorRef:
        """Start a pre-built actor instance (not restartable)."""
        return self.actor_of(lambda: actor, name=name)

    # -- stopping --------------------------------------------------------

    def stop(self, ref: ActorRef) -> None:
        """Stop one actor: unsubscribe it and drop its mailbox."""
        cell = self._cells.pop(ref.name, None)
        if cell is None:
            return
        self.event_bus.unsubscribe_all(ref)
        cell.actor.post_stop()
        cell.actor.context = None

    def shutdown(self) -> None:
        """Stop every actor."""
        for name in list(self._cells):
            self.stop(ActorRef(name, self))

    # -- delivery (called via ActorRef) ------------------------------------

    def _deliver(self, ref: ActorRef, message: Any,
                 sender: Optional[ActorRef]) -> None:
        cell = self._cells.get(ref.name)
        if cell is None:
            raise ActorStoppedError(f"actor {ref.name!r} is not running")
        cell.mailbox.put(Envelope(message, sender))
        if cell.suspended_until is None:
            self._run_queue.append(ref.name)
        # Suspended cells keep their mail; the run-queue entries are
        # re-created when the backoff expires (see advance_time).

    def _is_alive(self, name: str) -> bool:
        return name in self._cells

    # -- dispatch ----------------------------------------------------------

    def dispatch(self, max_messages: int = 1_000_000) -> int:
        """Process queued messages until quiescent; returns count handled.

        Raises :class:`~repro.errors.ActorError` if *max_messages* is
        exceeded, which catches accidental message loops.
        """
        handled = 0
        while self._run_queue:
            if handled >= max_messages:
                raise ActorError(
                    f"dispatch exceeded {max_messages} messages; "
                    "possible message loop")
            name = self._run_queue.popleft()
            cell = self._cells.get(name)
            if cell is None:
                continue  # stopped after the message was queued
            if cell.suspended_until is not None:
                continue  # mail stays queued until the backoff expires
            envelope = cell.mailbox.get()
            if envelope is None:
                continue
            self._process(name, cell, envelope)
            handled += 1
        return handled

    def _process(self, name: str, cell: _Cell, envelope: Envelope) -> None:
        actor = cell.actor
        assert actor.context is not None
        actor.context.sender = envelope.sender
        try:
            actor.receive(envelope.message)
        except Exception as failure:  # noqa: BLE001 - supervision boundary
            self._handle_failure(name, cell, failure)
        finally:
            if actor.context is not None:
                actor.context.sender = None

    # -- supervision -------------------------------------------------------

    def _notify(self, name: str, kind: str, detail: str) -> None:
        if self.on_lifecycle_event is not None:
            self.on_lifecycle_event(name, kind, detail)

    def _handle_failure(self, name: str, cell: _Cell,
                        failure: Exception) -> None:
        cell.failure_count += 1
        directive = self.strategy.decide(name, failure, cell.failure_count)
        if directive is Directive.RESUME:
            return
        if directive is Directive.RESTART and cell.factory is not None:
            # Drop the failing instance's subscriptions first so the
            # fresh instance's pre_start re-subscribes from a clean
            # slate (no stale topics surviving the restart).
            ref = ActorRef(name, self)
            cell.actor.pre_restart(failure)
            self.event_bus.unsubscribe_all(ref)
            delay = self.strategy.backoff_s(cell.failure_count)
            if delay > 0.0:
                cell.suspended_until = self.clock_s + delay
                self._notify(name, "actor-restart-scheduled",
                             f"{type(failure).__name__}: restart in "
                             f"{delay:g}s")
                return
            self._restart_cell(name, cell)
            return
        if directive is Directive.ESCALATE:
            raise failure
        self.stop(ActorRef(name, self))
        self._notify(name, "actor-stopped", type(failure).__name__)

    def _restart_cell(self, name: str, cell: _Cell) -> None:
        """Rebuild a cell's actor from its factory and restart it."""
        old = cell.actor
        context = old.context
        old.context = None
        if context is None:
            context = ActorContext(self, ActorRef(name, self))
        fresh = cell.factory()  # may return the same instance
        fresh.context = context
        context.sender = None
        cell.actor = fresh
        cell.suspended_until = None
        fresh.pre_start()
        self._notify(name, "actor-restarted",
                     f"after {cell.failure_count} failure(s)")

    def inject_failure(self, name: str, failure: Exception) -> bool:
        """Run the supervision path as if actor *name* raised *failure*.

        The fault-injection entry point: exercises the same decide /
        restart / stop machinery as an organic crash in ``receive``.
        Returns False when no such actor is running.
        """
        cell = self._cells.get(name)
        if cell is None:
            return False
        self._handle_failure(name, cell, failure)
        return True

    @property
    def has_runnable(self) -> bool:
        """Whether the next :meth:`dispatch` has queued mail to process."""
        return bool(self._run_queue)

    def next_resume_s(self) -> Optional[float]:
        """Earliest virtual time at which a restart backoff expires."""
        return min((cell.suspended_until for cell in self._cells.values()
                    if cell.suspended_until is not None), default=None)

    def advance_time(self, now_s: float) -> None:
        """Advance the virtual clock; resume actors whose backoff expired."""
        self.clock_s = max(self.clock_s, now_s)
        due: List[str] = [
            name for name, cell in self._cells.items()
            if cell.suspended_until is not None
            and cell.suspended_until <= self.clock_s + 1e-12]
        for name in due:
            cell = self._cells[name]
            self._restart_cell(name, cell)
            # Withheld mail becomes runnable again.
            for _ in range(len(cell.mailbox)):
                self._run_queue.append(name)

    # -- introspection -----------------------------------------------------

    def actor_names(self):
        """Names of all live actors."""
        return tuple(self._cells)

    def pending_messages(self) -> int:
        """Total messages waiting in mailboxes."""
        return sum(len(cell.mailbox) for cell in self._cells.values())
