"""Sensor actors: the data-acquisition stage of the PowerAPI pipeline.

A Sensor "monitors the metrics of a given process and then publishes a
sensor message to the event bus" (paper, Section 3).  Sensors subscribe to
the monitoring clock (:class:`~repro.actors.clock.ClockTick`) and publish
one report per period that covers every monitored process:

* :class:`HpcSensor` — hardware performance counters through the perf
  layer (the paper's primary metric source),
* :class:`ProcFsSensor` — CPU-time accounting from procfs (feeds the
  CPU-load baseline),
* :class:`PowerMeterSensor` — readings of a physical power meter (used
  during evaluation to compare estimates against ground truth).
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, Iterator, Optional, Sequence, Set,
                    Tuple)

from repro.actors.clock import ClockTick
from repro.core.formula import cpu_load_w
from repro.core.messages import (GapMarker, HpcReport, PowerMeterReport,
                                 PowerReport, ProcFsReport, SeriesEnd)
from repro.core.stage import PipelineStage
from repro.errors import (ConfigurationError, CounterInvalidError,
                          CounterStateError, MeterConnectionError,
                          ProcessError, SampleLossError)
from repro.faults.backoff import ExponentialBackoff
from repro.os.procfs import ProcFs
from repro.perf.counting import PerfCounter, PerfSession
from repro.powermeter.base import PowerMeter
from repro.simcpu.counters import GENERIC_TRIO
from repro.simcpu.machine import Machine

if TYPE_CHECKING:
    from repro.core.pipeline import DegradationSpec


class PipelineMode:
    """The estimation mode of one pipeline's degradation ladder.

    The ladder is HPC → cpu-load → gap markers.  Its :class:`HpcSensor`
    owns this switch: it flips it to ``"cpu-load"`` when counters go
    silent and back to ``"hpc"`` on recovery, and ``MonitorHandle``
    reads it as ``mode``/``degraded``.
    """

    HPC = "hpc"
    CPU_LOAD = "cpu-load"

    def __init__(self) -> None:
        self.mode = self.HPC

    @property
    def degraded(self) -> bool:
        return self.mode != self.HPC


def _cpu_time_deltas(procfs: ProcFs, pids: Sequence[int],
                     previous: Dict[int, float]
                     ) -> Iterator[Tuple[int, float]]:
    """Each pid's procfs CPU seconds since the last read, taking the new
    baselines into *previous*; a pid that has not run yet reads 0."""
    for pid in pids:
        try:
            now_s = procfs.process_cpu_time_s(pid)
        except ProcessError:
            now_s = 0.0
        delta_s = max(0.0, now_s - previous.get(pid, 0.0))
        previous[pid] = now_s
        yield pid, delta_s


class HpcSensor(PipelineStage):
    """Publishes every sampled process's HPC deltas on each clock tick,
    in one :class:`HpcReport`.

    Fault-aware: reads that fail (pid exited, sample loss) or return no
    PMU time (slot starvation) count as *misses*; when no pid yields
    data the sensor publishes a :class:`GapMarker` for the period, and
    it tries to reopen dead counters.  With a *policy* it runs the
    degradation ladder: ``degrade_after`` missing periods in a row flip
    its :class:`PipelineMode` to cpu-load, and until HPC data has been
    back for ``recover_after`` periods it publishes every pid's
    ``cpu-load-fallback`` estimate from procfs in one
    :class:`PowerReport`.  Once every pid is lost, and no fallback
    estimates them, it publishes one :class:`SeriesEnd` and nothing
    more.
    """

    def __init__(self, machine: Machine, perf: PerfSession,
                 pids: Sequence[int],
                 events: Sequence[str] = GENERIC_TRIO,
                 policy: Optional[DegradationSpec] = None,
                 procfs: Optional[ProcFs] = None,
                 active_range_w: float = 0.0,
                 component: str = "hpc-sensor") -> None:
        super().__init__(component=component)
        if not pids:
            raise ConfigurationError("HpcSensor needs at least one pid")
        if policy is not None and procfs is None:
            raise ConfigurationError("the cpu-load fallback needs procfs")
        self.machine = machine
        self.perf = perf
        self.pids = tuple(pids)
        self.events = tuple(events)
        self.policy = policy
        self.procfs = procfs
        self.active_range_w = active_range_w
        #: The ladder's rung; None without a policy (no fallback).
        self.mode = PipelineMode() if policy is not None else None
        self._counters: Dict[int, Tuple[PerfCounter, ...]] = {}
        #: pid -> the last group read of its counters: each counter's
        #: (raw, enabled, running), in order, flat.
        self._previous: Dict[int, Tuple[float, ...]] = {}
        #: The counters' canonical event names, in order: every report's
        #: ``events`` (set when the first pid's counters open).
        self._events: Tuple[str, ...] = ()
        #: pid -> procfs CPU seconds at the fallback's last read, and
        #: the tick time of that read.
        self._cpu_s: Dict[int, float] = {}
        self._cpu_read_s = 0.0
        self._lost_pids: Set[int] = set()
        self._ended = False
        self._miss_streak = 0
        self._good_streak = 0

    # -- lifecycle --------------------------------------------------------

    subscribes_to = (ClockTick,)

    def on_start(self) -> None:
        # A supervised restart starts this same instance again: it keeps
        # the counters and baselines it still holds (reopened, they
        # would read no running time on the restart's own tick), and
        # must not resurrect dead targets.
        for pid in self.pids:
            if pid in self._counters or pid in self._lost_pids:
                continue
            if not self._open_pid(pid):
                self._mark_lost(pid, time_s=0.0)

    def on_stop(self) -> None:
        for counters in self._counters.values():
            for counter in counters:
                counter.close()
        self._counters.clear()
        self._previous.clear()

    def _open_pid(self, pid: int) -> bool:
        try:
            counters = tuple(self.perf.open(event, pid=pid)
                             for event in self.events)
        except (CounterInvalidError, CounterStateError):
            return False
        self._counters[pid] = counters
        if not self._events:
            self._events = tuple(counter.event for counter in counters)
        # A freshly opened counter reads zero: taking that baseline
        # without a read keeps a reopen inside a sample-loss window
        # from failing.
        self._previous[pid] = (0.0, 0.0, 0.0) * len(counters)
        return True

    def _mark_lost(self, pid: int, time_s: float) -> None:
        self._lost_pids.add(pid)
        for counter in self._counters.pop(pid, ()):
            counter.close()
        self._previous.pop(pid, None)
        self.report_health(time_s, "pid-lost",
                           f"pid {pid}: counters invalid (ESRCH)")

    # -- sampling ---------------------------------------------------------

    def _sample_pid(self, pid: int, counters: Tuple[PerfCounter, ...],
                    time_s: float, period_s: float
                    ) -> Optional[Tuple[float, ...]]:
        """One pid's deltas for the period, in counter order, or None on
        a miss.

        Uses per-interval multiplex scaling: the counting rate while the
        event held a PMU slot (``delta_raw / delta_running``) is
        extrapolated to one monitoring period.  For a healthy
        un-multiplexed counter this reduces to the plain raw delta;
        under slot starvation the running time freezes, which surfaces
        as a miss instead of extrapolating phantom counts from a stale
        cumulative ratio; after a read-loss gap it yields a per-period
        rate rather than dumping the accumulated backlog into one period.
        """
        try:
            values = self.perf.read_group(counters)
        except SampleLossError:
            return None
        except (CounterInvalidError, CounterStateError):
            # Dead counters: try a clean reopen (fresh baselines); if
            # the pid itself is gone, drop it for good.
            for counter in counters:
                counter.close()
            self._counters.pop(pid, None)
            self._previous.pop(pid, None)
            if not self._open_pid(pid):
                self._mark_lost(pid, time_s)
            return None

        deltas: Tuple[float, ...] = ()
        ran = False
        # Each counter's (raw, enabled, running), now and at the last read.
        now = iter(values)
        then = iter(self._previous[pid])
        for raw, _enabled, running, prev_raw, _prev_enabled, prev_running \
                in zip(now, now, now, then, then, then):
            d_running = running - prev_running
            if d_running > 1e-12:
                ran = True
                d_raw = raw - prev_raw
                # max(0.0, d_raw), without the call (NaN and -0.0 too).
                deltas += ((d_raw if d_raw > 0.0 else 0.0)
                           * (period_s / d_running),)
            else:
                deltas += (0.0,)
        self._previous[pid] = values
        if not ran:
            return None  # starved out: no PMU time at all this period
        return deltas

    def _update_health(self, period_missing: bool, time_s: float) -> None:
        if period_missing:
            self._miss_streak += 1
            self._good_streak = 0
        else:
            self._good_streak += 1
            self._miss_streak = 0
        if self.mode is None:
            return
        if (not self.mode.degraded
                and self._miss_streak >= self.policy.degrade_after):
            self.mode.mode = PipelineMode.CPU_LOAD
            self.report_health(time_s, "degraded",
                               f"no HPC data for {self._miss_streak} "
                               "periods; falling back to cpu-load")
        elif (self.mode.degraded
                and self._good_streak >= self.policy.recover_after):
            self.mode.mode = PipelineMode.HPC
            self.report_health(time_s, "recovered",
                               f"HPC data back for {self._good_streak} "
                               "periods; resuming hpc formula")

    def _fallback(self, message: ClockTick) -> None:
        """Read procfs, publishing every pid's estimate while degraded.
        Called only when the next period could be degraded too.  Past a
        restart backoff it estimates the mean load since the last read."""
        window_s = message.time_s - self._cpu_read_s
        if window_s < 1.5 * message.period_s:
            window_s = message.period_s
        self._cpu_read_s = message.time_s
        num_cpus = len(self.machine.topology)
        by_pid = {pid: cpu_load_w(delta_s, window_s, num_cpus,
                                  self.active_range_w)
                  for pid, delta_s in _cpu_time_deltas(
                      self.procfs, self.pids, self._cpu_s)}
        if self.mode.degraded:
            self.publish(PowerReport(
                time_s=message.time_s, period_s=message.period_s,
                by_pid=by_pid, formula="cpu-load-fallback"))

    def handle(self, message) -> None:
        if not isinstance(message, ClockTick):
            return
        time_s, period_s = message.time_s, message.period_s
        sampled: Dict[int, Tuple[float, ...]] = {}
        for pid in self.pids:
            counters = self._counters.get(pid)
            if counters is not None:
                deltas = self._sample_pid(pid, counters, time_s, period_s)
                if deltas is not None:
                    sampled[pid] = deltas

        mode = self.mode
        if self._counters:
            self._update_health(period_missing=not sampled, time_s=time_s)
            if not sampled:
                self.publish(GapMarker(time_s=time_s, period_s=period_s,
                                       pid=-1, source="hpc"))
        elif not self._ended and (mode is None or not mode.degraded):
            # Every pid is lost, and the health streaks no longer move:
            # the sensor publishes nothing from this period on.
            self._ended = True
            self.publish(SeriesEnd(time_s=time_s))
        if mode is not None and (
                mode.degraded
                or self._miss_streak + 1 >= self.policy.degrade_after):
            self._fallback(message)
            if mode.degraded:
                return  # the cpu-load rung owns this period
        if sampled:
            self.publish(HpcReport(
                time_s=time_s, period_s=period_s, pid=-1,
                events=self._events, counters=sampled,
                frequency_hz=self.machine.dominant_frequency_hz()))


class ProcFsSensor(PipelineStage):
    """Publishes every process's CPU-time delta on each clock tick, in
    one :class:`ProcFsReport`."""

    def __init__(self, procfs: ProcFs, pids: Sequence[int]) -> None:
        super().__init__(component="procfs-sensor")
        if not pids:
            raise ConfigurationError("ProcFsSensor needs at least one pid")
        self.procfs = procfs
        self.pids = tuple(pids)
        self._previous_cpu_s: Dict[int, float] = {}

    subscribes_to = (ClockTick,)

    def handle(self, message) -> None:
        if not isinstance(message, ClockTick):
            return
        self.publish(ProcFsReport(
            time_s=message.time_s, period_s=message.period_s, pid=-1,
            cpu_time_delta_s=dict(_cpu_time_deltas(
                self.procfs, self.pids, self._previous_cpu_s))))


class PowerMeterSensor(PipelineStage):
    """Publishes the latest physical meter reading on every clock tick.

    Dropout-aware: while the meter is disconnected it publishes a
    :class:`GapMarker` per period instead of silently stalling, and
    retries ``connect()`` with a capped exponential backoff in
    virtual-clock time.  Dropout and reconnect transitions are recorded
    as :class:`HealthEvent` messages.
    """

    def __init__(self, meter: PowerMeter, component: str = "meter",
                 retry_base_s: Optional[float] = None,
                 retry_max_s: float = 30.0) -> None:
        super().__init__(component=component)
        if retry_base_s is not None and retry_base_s <= 0:
            raise ConfigurationError("retry_base_s must be positive")
        if retry_max_s <= 0:
            raise ConfigurationError("retry_max_s must be positive")
        self.meter = meter
        self.retry_base_s = retry_base_s  # None: one monitoring period
        self.retry_max_s = retry_max_s
        self._down = False
        self._backoff: Optional[ExponentialBackoff] = None
        self._next_retry_s = 0.0

    subscribes_to = (ClockTick,)

    def _try_reconnect(self, message: ClockTick) -> None:
        if not self._down:
            self._down = True
            base_s = self.retry_base_s or message.period_s
            self._backoff = ExponentialBackoff(
                base_s=base_s, factor=2.0,
                max_s=max(self.retry_max_s, base_s))
            self._next_retry_s = message.time_s  # first retry: right now
            self.report_health(message.time_s, "meter-dropout",
                               "meter link lost")
        if message.time_s >= self._next_retry_s - 1e-12:
            try:
                self.meter.connect()
            except MeterConnectionError:
                self._next_retry_s = (message.time_s
                                      + self._backoff.next_delay_s())

    def handle(self, message) -> None:
        if not isinstance(message, ClockTick):
            return
        if not self.meter.connected:
            self._try_reconnect(message)
            if not self.meter.connected:
                self.publish(GapMarker(
                    time_s=message.time_s, period_s=message.period_s,
                    pid=-1, source=self.component))
                return
        if self._down:
            self._down = False
            self.report_health(message.time_s, "meter-reconnected",
                               "meter link restored")
        sample = self.meter.last_sample()
        if sample is None:
            return
        self.publish(PowerMeterReport(
            time_s=message.time_s,
            period_s=message.period_s,
            pid=-1,
            power_w=sample.power_w,
        ))
