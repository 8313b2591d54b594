"""Sensor actors: the data-acquisition stage of the PowerAPI pipeline.

A Sensor "monitors the metrics of a given process and then publishes a
sensor message to the event bus" (paper, Section 3).  Sensors subscribe to
the monitoring clock (:class:`~repro.actors.clock.ClockTick`) and publish
one report per monitored process per period:

* :class:`HpcSensor` — hardware performance counters through the perf
  layer (the paper's primary metric source),
* :class:`ProcFsSensor` — CPU-time accounting from procfs (feeds the
  CPU-load baseline),
* :class:`PowerMeterSensor` — readings of a physical power meter (used
  during evaluation to compare estimates against ground truth).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

from repro.actors.clock import ClockTick
from repro.core.messages import (GapMarker, HealthEvent, HpcReport,
                                 PowerMeterReport, ProcFsReport)
from repro.core.stage import PipelineStage
from repro.errors import (ConfigurationError, CounterInvalidError,
                          CounterStateError, MeterConnectionError,
                          SampleLossError)
from repro.faults.backoff import ExponentialBackoff
from repro.os.procfs import ProcFs
from repro.perf.counting import PerfCounter, PerfSession
from repro.powermeter.base import PowerMeter
from repro.simcpu.counters import GENERIC_TRIO
from repro.simcpu.machine import Machine


class PipelineMode:
    """Shared estimation-mode switch for one pipeline.

    The degradation ladder is HPC → cpu-load → gap markers: the primary
    :class:`HpcSensor` flips this to ``"cpu-load"`` when counters go
    silent and back to ``"hpc"`` on recovery; the standby
    :class:`ProcFsSensor` and its formula only publish while degraded.
    A plain shared object (not an actor) because both sensors must see
    the flip within the same tick.
    """

    HPC = "hpc"
    CPU_LOAD = "cpu-load"

    def __init__(self) -> None:
        self.mode = self.HPC

    @property
    def degraded(self) -> bool:
        return self.mode != self.HPC


class DegradationPolicy:
    """When to fall back to cpu-load and when to climb back to HPC."""

    def __init__(self, degrade_after: int = 3, recover_after: int = 2) -> None:
        if degrade_after < 1 or recover_after < 1:
            raise ConfigurationError(
                "degrade_after and recover_after must be >= 1")
        self.degrade_after = degrade_after
        self.recover_after = recover_after


class HpcSensor(PipelineStage):
    """Publishes per-process HPC deltas on every clock tick.

    Fault-aware: reads that fail (pid exited, sample loss) or return no
    PMU time (slot starvation) count as *misses*; the sensor publishes a
    :class:`GapMarker` for the period, tries to reopen dead counters,
    and — when a :class:`PipelineMode`/:class:`DegradationPolicy` pair
    is wired — degrades the pipeline to the cpu-load formula after N
    consecutive missing periods, recovering once HPC data returns.
    """

    def __init__(self, machine: Machine, perf: PerfSession,
                 pids: Sequence[int],
                 events: Sequence[str] = GENERIC_TRIO,
                 mode: Optional[PipelineMode] = None,
                 policy: Optional[DegradationPolicy] = None,
                 component: str = "hpc-sensor") -> None:
        super().__init__(component=component)
        if not pids:
            raise ConfigurationError("HpcSensor needs at least one pid")
        self.machine = machine
        self.perf = perf
        self.pids = tuple(pids)
        self.events = tuple(events)
        self.mode = mode
        self.policy = policy or DegradationPolicy()
        self._counters: Dict[int, Tuple[PerfCounter, ...]] = {}
        #: pid -> event -> (raw, time_enabled_s, time_running_s) baseline.
        self._previous: Dict[int, Dict[str, Tuple[float, float, float]]] = {}
        self._lost_pids: Set[int] = set()
        self._miss_streak = 0
        self._good_streak = 0

    # -- lifecycle --------------------------------------------------------

    subscribes_to = (ClockTick,)

    def on_start(self) -> None:
        for pid in self.pids:
            if pid in self._lost_pids:
                continue  # a restart must not resurrect dead targets
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
        # A freshly opened counter reads zero: taking that baseline
        # without a read keeps a (re)start inside a sample-loss window
        # from failing.
        self._previous[pid] = {
            counter.event: (0.0, 0.0, 0.0) for counter in counters}
        return True

    @staticmethod
    def _snapshot(counter: PerfCounter) -> Tuple[float, float, float]:
        value = counter.read()
        return (value.raw, value.time_enabled_s, value.time_running_s)

    def _mark_lost(self, pid: int, time_s: float) -> None:
        self._lost_pids.add(pid)
        for counter in self._counters.pop(pid, ()):
            counter.close()
        self._previous.pop(pid, None)
        self.report_health(time_s, "pid-lost",
                           f"pid {pid}: counters invalid (ESRCH)")

    # -- sampling ---------------------------------------------------------

    def _sample_pid(self, pid: int, time_s: float, period_s: float
                    ) -> Optional[Dict[str, float]]:
        """One pid's deltas for the period, or None on a miss.

        Uses per-interval multiplex scaling: the counting rate while the
        event held a PMU slot (``delta_raw / delta_running``) is
        extrapolated to one monitoring period.  For a healthy
        un-multiplexed counter this reduces to the plain raw delta;
        under slot starvation the running time freezes, which surfaces
        as a miss instead of extrapolating phantom counts from a stale
        cumulative ratio; after a read-loss gap it yields a per-period
        rate rather than dumping the accumulated backlog into one period.
        """
        counters = self._counters.get(pid)
        if counters is None:
            return None
        try:
            snapshots = {counter.event: self._snapshot(counter)
                         for counter in counters}
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

        previous = self._previous[pid]
        deltas: Dict[str, float] = {}
        ran = False
        for event, (raw, enabled, running) in snapshots.items():
            prev_raw, _prev_enabled, prev_running = previous[event]
            d_raw = max(0.0, raw - prev_raw)
            d_running = running - prev_running
            if d_running > 1e-12:
                ran = True
                deltas[event] = d_raw * (period_s / d_running)
            else:
                deltas[event] = 0.0
        self._previous[pid] = snapshots
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

    def handle(self, message) -> None:
        if not isinstance(message, ClockTick):
            return
        frequency_hz = self.machine.dominant_frequency_hz()
        sampled: Dict[int, Dict[str, float]] = {}
        for pid in [pid for pid in self.pids if pid in self._counters]:
            deltas = self._sample_pid(pid, message.time_s, message.period_s)
            if deltas is not None:
                sampled[pid] = deltas

        tracked = any(pid in self._counters for pid in self.pids)
        if tracked:
            self._update_health(period_missing=not sampled,
                                time_s=message.time_s)
        if tracked and not sampled:
            self.publish(GapMarker(
                time_s=message.time_s, period_s=message.period_s,
                pid=-1, source="hpc"))
            return
        if self.mode is not None and self.mode.degraded:
            return  # the standby cpu-load path owns this period
        for pid, deltas in sampled.items():
            self.publish(HpcReport(
                time_s=message.time_s,
                period_s=message.period_s,
                pid=pid,
                counters=deltas,
                frequency_hz=frequency_hz,
            ))


class ProcFsSensor(PipelineStage):
    """Publishes per-process CPU-time deltas on every clock tick.

    With a :class:`PipelineMode` it acts as the degradation standby: it
    keeps its delta accounting warm every period but only *publishes*
    while the pipeline is degraded to ``active_mode`` (default
    ``"cpu-load"``), so handover from the HPC path has no warm-up hole.
    """

    def __init__(self, procfs: ProcFs, pids: Sequence[int],
                 num_cpus: int, mode: Optional[PipelineMode] = None,
                 active_mode: str = PipelineMode.CPU_LOAD) -> None:
        super().__init__(component="procfs-sensor")
        if not pids:
            raise ConfigurationError("ProcFsSensor needs at least one pid")
        if num_cpus < 1:
            raise ConfigurationError("num_cpus must be >= 1")
        self.procfs = procfs
        self.pids = tuple(pids)
        self.num_cpus = num_cpus
        self.mode = mode
        self.active_mode = active_mode
        self._previous_cpu_s: Dict[int, float] = {}
        self._previous_busy_s: Optional[float] = None

    subscribes_to = (ClockTick,)

    def _active(self) -> bool:
        return self.mode is None or self.mode.mode == self.active_mode

    def _pid_cpu_time(self, pid: int) -> float:
        try:
            return self.procfs.process_cpu_time_s(pid)
        except Exception:  # process has not run yet
            return 0.0

    def handle(self, message) -> None:
        if not isinstance(message, ClockTick):
            return
        total_busy = sum(self.procfs.cpu_busy_time_s(cpu)
                         for cpu in range(self.num_cpus))
        if self._previous_busy_s is None:
            busy_delta = total_busy
        else:
            busy_delta = total_busy - self._previous_busy_s
        self._previous_busy_s = total_busy
        machine_load = min(1.0, max(
            0.0, busy_delta / (self.num_cpus * message.period_s)))

        active = self._active()
        for pid in self.pids:
            now = self._pid_cpu_time(pid)
            delta = max(0.0, now - self._previous_cpu_s.get(pid, 0.0))
            self._previous_cpu_s[pid] = now
            if not active:
                continue  # standby: keep baselines warm, publish nothing
            self.publish(ProcFsReport(
                time_s=message.time_s,
                period_s=message.period_s,
                pid=pid,
                cpu_time_delta_s=delta,
                machine_load=machine_load,
            ))


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
