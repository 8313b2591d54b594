"""Deterministic, seedable fault schedules.

A :class:`FaultPlan` is an ordered list of typed fault events, each
anchored at a virtual-clock time.  Plans come from three places:

* built explicitly in tests (``FaultPlan([MeterDropout(at_s=5.0, ...)])``),
* parsed from a compact CLI spec (``FaultPlan.parse("meter-dropout@5:3;
  pid-exit@4")`` — the ``--faults`` flag),
* generated pseudo-randomly from a seed (``FaultPlan.random(seed=42,
  duration_s=30)``), which is how campaigns stay reproducible: the same
  seed always yields the identical schedule.

The plan itself never touches the pipeline; the
:class:`~repro.faults.injector.FaultInjector` applies it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import (Callable, ClassVar, List, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from repro.errors import ConfigurationError


def spec_number(value) -> str:
    """*value* as the shortest decimal that parses back to the same float.

    ``describe()`` renders times with ``%g`` for humans, which silently
    rounds past six significant digits; spec emission (``to_spec()``)
    uses ``repr``'s shortest-round-trip form so any plan — including
    seeded-random ones with awkward floats — survives
    ``parse(plan.to_spec())`` bit-exactly.
    """
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class _Event:
    """One ``kind@time[:arg...]`` entry of a plan.

    Subclasses are frozen dataclasses whose first field is ``at_s`` and
    whose remaining fields are the entry's optional arguments, in spec
    order.  ``ARGS`` gives each argument's error label and converter;
    a ``float`` argument renders like a time, anything else with
    ``str``.  A non-empty ``REQUIRED`` is the error raised when the
    first argument is missing or empty.
    """

    KIND: ClassVar[str]
    ARGS: ClassVar[Tuple[Tuple[str, Callable[[str], object]], ...]] = ()
    REQUIRED: ClassVar[str] = ""

    def _render(self, number: Callable[[float], str]) -> str:
        tokens = [f"{self.KIND}@{number(self.at_s)}"]
        for (_label, conv), field in zip(self.ARGS, fields(self)[1:]):
            value = getattr(self, field.name)
            tokens.append(number(value) if conv is float else str(value))
        return ":".join(tokens)

    def describe(self) -> str:
        """The entry for humans: ``%g`` numbers."""
        return self._render(lambda value: f"{value:g}")

    def to_spec(self) -> str:
        """The entry as a lossless, parseable spec (:func:`spec_number`)."""
        return self._render(spec_number)

    @classmethod
    def _parse(cls, at_s: float, args: List[str], bad) -> "_Event":
        """Build the event from its ``:``-separated argument tokens."""
        if len(args) > len(cls.ARGS):
            raise bad(f"unexpected argument {args[len(cls.ARGS)]!r}")
        if cls.REQUIRED and not (args and args[0]):
            raise bad(cls.REQUIRED)
        return cls(at_s, *(_convert(token, label, conv, bad)
                           for token, (label, conv) in zip(args, cls.ARGS)))


@dataclass(frozen=True)
class MeterDropout(_Event):
    """Every attached power meter loses its link for ``down_s`` seconds."""

    KIND = "meter-dropout"
    ARGS = (("down duration", float),)

    at_s: float
    down_s: float = 2.0


@dataclass(frozen=True)
class PidExit(_Event):
    """The ``index``-th monitored pid is killed (ESRCH for its counters)."""

    KIND = "pid-exit"
    ARGS = (("pid index", int),)

    at_s: float
    index: int = 0


@dataclass(frozen=True)
class SlotStarvation(_Event):
    """PMU slots are capped at ``slots`` for ``duration_s`` seconds."""

    KIND = "starve"
    ARGS = (("duration", float), ("slot count", int))

    at_s: float
    duration_s: float = 2.0
    slots: int = 0


@dataclass(frozen=True)
class SampleLoss(_Event):
    """Counter reads fail for ``duration_s`` seconds (acquisition loss)."""

    KIND = "hpc-loss"
    ARGS = (("duration", float),)

    at_s: float
    duration_s: float = 1.0


@dataclass(frozen=True)
class ActorCrash(_Event):
    """The named actor fails as if its ``receive`` raised."""

    KIND = "crash"
    ARGS = (("actor", str),)
    REQUIRED = "crash needs an actor name (crash@TIME:ACTOR)"

    at_s: float
    actor: str = "formula-0"


FaultEvent = Union[MeterDropout, PidExit, SlotStarvation, SampleLoss,
                   ActorCrash]


def _spec_entries(spec: str):
    """Yield ``(entry, "at position N")`` for each non-empty spec chunk.

    ``,`` and ``;`` both separate entries and are the same width, so
    character offsets computed on the normalized string line up with
    the user's original input.
    """
    pos = 0
    for chunk in spec.replace(",", ";").split(";"):
        offset = pos + (len(chunk) - len(chunk.lstrip()))
        pos += len(chunk) + 1
        entry = chunk.strip()
        if entry:
            yield entry, f"at position {offset}"


def _convert(token: str, what: str, conv, bad):
    """Convert one spec token, raising ``bad(...)`` naming it on failure."""
    try:
        return conv(token)
    except ValueError:
        raise bad(f"invalid {what} {token!r}") from None


class _Plan:
    """An immutable, time-ordered schedule of ``kind@time`` events.

    Subclasses name their event classes (``EVENTS``) and the noun
    their errors use (``NOUN``), and define ``random(seed,
    duration_s=...)``, the seeded campaign a ``random:`` entry expands
    to.  The spec grammar, its error text and both renderings live
    here, so a new kind is one event class added to ``EVENTS``.
    """

    EVENTS: ClassVar[Tuple[type, ...]]
    NOUN: ClassVar[str]

    def __init__(self, events: Sequence[_Event] = (),
                 seed: Optional[int] = None) -> None:
        for event in events:
            if event.at_s < 0:
                raise ConfigurationError(
                    f"{self.NOUN} time must be >= 0, got {event.at_s}")
        # Stable sort: simultaneous events keep their declaration order,
        # which keeps injection deterministic.
        self.events: Tuple[_Event, ...] = tuple(
            sorted(events, key=lambda e: e.at_s))
        self.seed = seed

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def describe(self) -> str:
        """The plan as a human-oriented spec string (``%g`` times)."""
        return ";".join(event.describe() for event in self.events)

    def to_spec(self) -> str:
        """The plan as a lossless, parseable spec string.

        ``parse(plan.to_spec())`` reproduces the exact event tuple
        (shortest-round-trip floats, seeded campaigns flattened to
        their explicit events), so any plan — including a shrunk
        minimal repro — is a copy-pasteable CLI argument.
        """
        return ";".join(event.to_spec() for event in self.events)

    @classmethod
    def parse(cls, spec: str) -> "_Plan":
        """Parse a compact spec: ``kind@time[:arg[:arg]]`` entries.

        Entries are separated by ``;`` (or ``,``); the kinds are the
        ``KIND`` of each class in ``EVENTS``, and
        ``random:SEED[:DURATION]`` composes a generated campaign (see
        :meth:`random`) in with the explicit entries.  Errors name the
        offending entry, its character position in the spec, and the
        specific token that failed to parse.
        """
        kinds = {event_cls.KIND: event_cls for event_cls in cls.EVENTS}
        events: List[_Event] = []
        seed: Optional[int] = None
        for entry, where in _spec_entries(spec):

            def bad(reason: str) -> ConfigurationError:
                return ConfigurationError(
                    f"bad {cls.NOUN} entry {entry!r} {where}: {reason}")

            if entry.startswith("random:"):

                def bad_random(reason: str) -> ConfigurationError:
                    return ConfigurationError(
                        f"bad random {cls.NOUN} entry {entry!r} {where}: "
                        f"{reason}; use random:SEED[:DURATION]")

                parts = entry.split(":")[1:]
                seed = _convert(parts[0] if parts else "", "seed", int,
                                bad_random)
                # Without a DURATION, random()'s own default applies.
                duration = [_convert(part, "duration", float, bad_random)
                            for part in parts[1:2]]
                if len(parts) > 2:
                    raise bad_random(f"unexpected argument {parts[2]!r}")
                events.extend(cls.random(seed, *duration).events)
                continue
            if "@" not in entry:
                raise bad("expected kind@time[:args]")
            kind, _, rest = entry.partition("@")
            args = rest.split(":")
            at_s = _convert(args[0], "time", float, bad)
            if kind not in kinds:
                raise bad(f"unknown {cls.NOUN} kind {kind!r}")
            events.append(kinds[kind]._parse(at_s, args[1:], bad))
        return cls(events, seed=seed)


class FaultPlan(_Plan):
    """An immutable, time-ordered schedule of fault events.

    Spec kinds (the ``--faults`` flag, see :meth:`parse`):

    * ``meter-dropout@T[:DOWN]`` — drop meters at T for DOWN seconds,
    * ``pid-exit@T[:INDEX]`` — kill the INDEX-th monitored pid,
    * ``starve@T[:DUR[:SLOTS]]`` — cap PMU slots for DUR seconds,
    * ``hpc-loss@T[:DUR]`` — counter reads fail for DUR seconds,
    * ``crash@T:ACTOR`` — crash the named pipeline actor,
    * ``random:SEED[:DURATION]`` — a generated campaign (see
      :meth:`random`).
    """

    EVENTS = (MeterDropout, PidExit, SlotStarvation, SampleLoss,
              ActorCrash)
    NOUN = "fault"

    @classmethod
    def random(cls, seed: int, duration_s: float = 30.0,
               meter_dropouts: int = 2, pid_exits: int = 1,
               starvations: int = 1, sample_losses: int = 1) -> "FaultPlan":
        """A reproducible campaign mixing the main fault classes.

        Times are drawn uniformly over the middle 80% of *duration_s*
        and quantized to 0.1 s so plans stay robust to quantum choices.
        The same seed always produces the identical plan.
        """
        if duration_s <= 0:
            raise ConfigurationError("campaign duration must be positive")
        rng = np.random.default_rng(seed)
        lo, hi = 0.1 * duration_s, 0.9 * duration_s

        def when() -> float:
            return round(float(rng.uniform(lo, hi)), 1)

        events: List[FaultEvent] = []
        for _ in range(meter_dropouts):
            events.append(MeterDropout(
                when(), down_s=round(float(rng.uniform(1.0, 4.0)), 1)))
        for index in range(pid_exits):
            events.append(PidExit(when(), index=index))
        for _ in range(starvations):
            events.append(SlotStarvation(
                when(), duration_s=round(float(rng.uniform(2.0, 5.0)), 1),
                slots=0))
        for _ in range(sample_losses):
            events.append(SampleLoss(
                when(), duration_s=round(float(rng.uniform(1.0, 3.0)), 1)))
        return cls(events, seed=seed)
