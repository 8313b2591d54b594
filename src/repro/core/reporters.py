"""Reporter actors: rendering power estimations for consumers.

A Reporter "converts the power estimations produced by the library into a
suitable format" (paper, Section 3).  All reporters subscribe to
:class:`AggregatedPowerReport` (machine-level, per period) and
:class:`PidEnergyReport` (per-run energy summaries).
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from pathlib import Path
from typing import Callable, List, Optional, Union

from repro.core.aggregators import PidEnergyReport
from repro.core.messages import AggregatedPowerReport, CapEvent
from repro.core.stage import PipelineStage
from repro.errors import ConfigurationError


class InMemoryReporter(PipelineStage):
    """Collects every report in lists — the test/benchmark reporter."""

    subscribes_to = (AggregatedPowerReport, PidEnergyReport, CapEvent)

    def __init__(self) -> None:
        super().__init__(component="memory-reporter")
        self.aggregated: List[AggregatedPowerReport] = []
        self.energy_reports: List[PidEnergyReport] = []
        #: Control-loop actuations, in order (empty without a cap).
        self.cap_events: List[CapEvent] = []

    def handle(self, message) -> None:
        if isinstance(message, AggregatedPowerReport):
            self.aggregated.append(message)
        elif isinstance(message, PidEnergyReport):
            self.energy_reports.append(message)
        elif isinstance(message, CapEvent):
            self.cap_events.append(message)

    # -- queries ------------------------------------------------------------

    def total_series(self) -> List[float]:
        """Machine power estimate per period, watts."""
        return [report.total_w for report in self.aggregated]

    def time_series(self) -> List[float]:
        """Timestamps of the aggregated reports, seconds."""
        return [report.time_s for report in self.aggregated]

    def pid_series(self, pid: int) -> List[float]:
        """Active power attributed to one pid per period, watts."""
        return [report.by_pid.get(pid, 0.0) for report in self.aggregated]

    def gap_series(self) -> List[bool]:
        """Per-period gap flags (True where no formula produced data)."""
        return [report.gap for report in self.aggregated]

    def gap_count(self) -> int:
        """Number of explicitly marked data-less periods."""
        return sum(1 for report in self.aggregated if report.gap)


class ConsoleReporter(PipelineStage):
    """Human-readable one-line-per-period output."""

    subscribes_to = (AggregatedPowerReport,)

    def __init__(self, stream: Optional[io.TextIOBase] = None) -> None:
        super().__init__(component="console-reporter")
        self.stream = stream
        self.lines_written = 0

    def handle(self, message) -> None:
        if not isinstance(message, AggregatedPowerReport):
            return
        parts = [f"t={message.time_s:8.1f}s",
                 f"total={message.total_w:6.2f}W",
                 f"idle={message.idle_w:5.2f}W"]
        for pid in message.pids():
            parts.append(f"pid{pid}={message.by_pid[pid]:5.2f}W")
        line = "  ".join(parts)
        if self.stream is not None:
            self.stream.write(line + "\n")
        else:
            print(line)
        self.lines_written += 1


class _FileReporter(PipelineStage):
    """The file lifecycle :class:`CsvReporter` and :class:`JsonlReporter`
    share; a subclass writes its own header and lines.

    ``flush_every=N`` flushes the file once per N lines instead of after
    every line — per-line flushing dominates the reporter's cost in long
    runs.  The default of 1 keeps the historical always-current file.

    Restart-safe: opening on an existing non-empty file **appends**
    (no second header), so a session interrupted and resumed continues
    the same output file.  ``fsync=True`` additionally forces every
    flush to stable storage — opt-in durability for crash-safe runs.

    ``control=True`` subscribes to :class:`CapEvent` and keeps the latest
    one for the subclass to render — opt-in so cap-less runs keep their
    exact historical byte layout.
    """

    subscribes_to = (AggregatedPowerReport,)

    def __init__(self, component: str, path: Union[str, Path],
                 flush_every: int = 1, fsync: bool = False,
                 control: bool = False) -> None:
        super().__init__(component=component)
        if flush_every < 1:
            raise ConfigurationError("flush_every must be >= 1")
        self.path = Path(path)
        self.flush_every = flush_every
        self.fsync = fsync
        self.control = control
        #: True when on_start appended to an existing file.
        self.resumed = False
        self._file = None
        self._unflushed = 0
        self._cap: Optional[CapEvent] = None

    def subscriptions(self):
        topics = list(super().subscriptions())
        if self.control:
            topics.append(CapEvent)
        return topics

    def on_start(self) -> None:
        self.resumed = self.path.exists() and self.path.stat().st_size > 0
        self._file = self.path.open("a" if self.resumed else "w",
                                    newline="")

    def on_stop(self) -> None:
        if self._file is not None:
            self.flush()
            self._file.close()
            self._file = None

    def flush(self) -> None:
        if self._file is not None:
            self._file.flush()
            if self.fsync:
                os.fsync(self._file.fileno())
            self._unflushed = 0

    def handle(self, message) -> None:
        if isinstance(message, AggregatedPowerReport):
            self._write_report(message)
        elif isinstance(message, CapEvent):
            self._cap = message
            self._write_cap(message)

    def _line_written(self) -> None:
        self._unflushed += 1
        if self._unflushed >= self.flush_every:
            self.flush()

    def _write_report(self, message: AggregatedPowerReport) -> None:
        raise NotImplementedError

    def _write_cap(self, event: CapEvent) -> None:
        """One actuation arrived; by default only the latest is kept."""


class CsvReporter(_FileReporter):
    """Writes one CSV row per aggregated report.

    Columns: time_s, total_w, idle_w, one ``pid_<n>_w`` column per
    monitored pid (the set of pids is fixed at construction so the header
    is stable), then ``gap`` (1 where the period carried no formula data,
    0 otherwise).  ``control=True`` adds two trailing columns, ``cap_w``
    (the active cap, empty while none) and ``cap_hz`` (the control
    loop's DVFS ceiling).  Flushing, resuming and ``fsync`` are those of
    every file reporter (:class:`_FileReporter`).
    """

    def __init__(self, path: Union[str, Path], pids,
                 flush_every: int = 1, fsync: bool = False,
                 control: bool = False) -> None:
        super().__init__("csv-reporter", path, flush_every=flush_every,
                         fsync=fsync, control=control)
        self.pids = tuple(sorted(pids))
        self._writer = None

    def on_start(self) -> None:
        super().on_start()
        self._writer = csv.writer(self._file)
        if not self.resumed:
            header = ["time_s", "total_w", "idle_w"]
            header.extend(f"pid_{pid}_w" for pid in self.pids)
            header.append("gap")
            if self.control:
                header.extend(("cap_w", "cap_hz"))
            self._writer.writerow(header)

    def _write_report(self, message: AggregatedPowerReport) -> None:
        row = [f"{message.time_s:.3f}", f"{message.total_w:.4f}",
               f"{message.idle_w:.4f}"]
        row.extend(f"{message.by_pid.get(pid, 0.0):.4f}" for pid in self.pids)
        row.append(str(int(message.gap)))
        if self.control:
            cap = self._cap
            row.append("" if cap is None or cap.cap_w is None
                       else f"{cap.cap_w:.4f}")
            row.append("" if cap is None else str(cap.frequency_hz))
        self._writer.writerow(row)
        self._line_written()


class CallbackReporter(PipelineStage):
    """Invokes a user callback for every aggregated report."""

    subscribes_to = (AggregatedPowerReport,)

    def __init__(self, callback: Callable[[AggregatedPowerReport], None]) -> None:
        super().__init__(component="callback-reporter")
        self.callback = callback

    def handle(self, message) -> None:
        if isinstance(message, AggregatedPowerReport):
            self.callback(message)


class JsonlReporter(_FileReporter):
    """Writes one JSON object per aggregated report (machine-readable log).

    ``control=True`` adds a ``control`` sub-object per record (active
    ``cap_w`` and ``cap_hz`` ceiling) and one ``{"cap_event": ...}``
    record per actuation.  Flushing, resuming and ``fsync`` are those of
    every file reporter (:class:`_FileReporter`).
    """

    def __init__(self, path: Union[str, Path], flush_every: int = 1,
                 fsync: bool = False, control: bool = False) -> None:
        super().__init__("jsonl-reporter", path, flush_every=flush_every,
                         fsync=fsync, control=control)
        self.records_written = 0

    def _write_report(self, message: AggregatedPowerReport) -> None:
        record = {
            "time_s": message.time_s,
            "period_s": message.period_s,
            "total_w": message.total_w,
            "idle_w": message.idle_w,
            "formula": message.formula,
            "gap": message.gap,
            "by_pid": {str(pid): watts
                       for pid, watts in message.by_pid.items()},
        }
        if self.control:
            cap = self._cap
            record["control"] = {
                "cap_w": None if cap is None else cap.cap_w,
                "cap_hz": None if cap is None else cap.frequency_hz}
        self._write_record(record)

    def _write_cap(self, event: CapEvent) -> None:
        self._write_record({"cap_event": event.to_wire()})

    def _write_record(self, record) -> None:
        self._file.write(json.dumps(record, sort_keys=True) + "\n")
        self.records_written += 1
        self._line_written()


class PrometheusReporter(PipelineStage):
    """Maintains a Prometheus text-format exposition of the latest state.

    Every aggregated report rewrites *path* with ``powerapi_machine_watts``
    and one ``powerapi_process_watts{pid="..."}`` sample per process —
    the node-exporter "textfile collector" integration pattern.

    Writes are atomic: the exposition goes to a temp file in the same
    directory followed by :func:`os.replace`, so a concurrent scraper
    always reads either the previous or the new complete exposition,
    never a partially written one.

    When a control loop is active, ``powerapi_cap_watts`` and
    ``powerapi_cap_hertz`` gauges appear after the first actuation
    event; cap-less runs expose exactly the historical sample set.
    """

    subscribes_to = (AggregatedPowerReport, CapEvent)

    def __init__(self, path: Union[str, Path]) -> None:
        super().__init__(component="prometheus-reporter")
        self.path = Path(path)
        self._cap_event: Optional[CapEvent] = None

    def handle(self, message) -> None:
        if isinstance(message, CapEvent):
            self._cap_event = message
            return
        if not isinstance(message, AggregatedPowerReport):
            return
        lines = [
            "# HELP powerapi_machine_watts Estimated machine power.",
            "# TYPE powerapi_machine_watts gauge",
            f"powerapi_machine_watts {message.total_w:.4f}",
            "# HELP powerapi_idle_watts Calibrated idle power.",
            "# TYPE powerapi_idle_watts gauge",
            f"powerapi_idle_watts {message.idle_w:.4f}",
            "# HELP powerapi_gap Whether the last period carried no data.",
            "# TYPE powerapi_gap gauge",
            f"powerapi_gap {int(message.gap)}",
            "# HELP powerapi_process_watts Estimated active power per process.",
            "# TYPE powerapi_process_watts gauge",
        ]
        for pid in message.pids():
            lines.append(f'powerapi_process_watts{{pid="{pid}"}} '
                         f"{message.by_pid[pid]:.4f}")
        if self._cap_event is not None:
            cap = self._cap_event.cap_w
            lines.extend([
                "# HELP powerapi_cap_watts Active power cap (0 = none).",
                "# TYPE powerapi_cap_watts gauge",
                f"powerapi_cap_watts {0.0 if cap is None else cap:.4f}",
                "# HELP powerapi_cap_hertz Control-loop DVFS ceiling.",
                "# TYPE powerapi_cap_hertz gauge",
                f"powerapi_cap_hertz {self._cap_event.frequency_hz}",
            ])
        self._atomic_write("\n".join(lines) + "\n")

    def _atomic_write(self, text: str) -> None:
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.path.parent), prefix=self.path.name + ".",
            suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp_name, self.path)
        except BaseException:
            os.unlink(tmp_name)
            raise
