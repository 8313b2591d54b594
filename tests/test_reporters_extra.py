"""Unit tests for the file (CSV, JSONL) and Prometheus reporters."""

import json

import pytest

from repro.actors.system import ActorSystem
from repro.core.messages import AggregatedPowerReport
from repro.core.reporters import CsvReporter, JsonlReporter, PrometheusReporter

#: The file reporters, and the header lines each starts a fresh file with.
FILE_KINDS = ("csv", "jsonl")
HEADER_LINES = {"csv": 1, "jsonl": 0}


def file_reporter(kind, path, **params):
    if kind == "csv":
        return CsvReporter(path, pids=[100], **params)
    return JsonlReporter(path, **params)


def line_time(kind, line):
    """The report time one written line carries."""
    if kind == "csv":
        return float(line.split(",")[0])
    return json.loads(line)["time_s"]


def publish(system, time_s=1.0, by_pid=None):
    system.event_bus.publish(AggregatedPowerReport(
        time_s=time_s, period_s=1.0,
        by_pid=by_pid if by_pid is not None else {100: 5.5},
        idle_w=31.48, formula="test"))
    system.dispatch()


class TestJsonlReporter:
    def test_one_record_per_report(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        system = ActorSystem()
        reporter = JsonlReporter(path)
        ref = system.spawn(reporter, "jsonl")
        publish(system, time_s=1.0)
        publish(system, time_s=2.0)
        system.stop(ref)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert reporter.records_written == 2

    def test_records_parse_and_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        system = ActorSystem()
        ref = system.spawn(JsonlReporter(path), "jsonl")
        publish(system, time_s=1.0, by_pid={7: 2.25, 9: 1.0})
        system.stop(ref)
        record = json.loads(path.read_text().strip())
        assert record["time_s"] == 1.0
        assert record["total_w"] == pytest.approx(31.48 + 3.25)
        assert record["by_pid"] == {"7": 2.25, "9": 1.0}

    def test_file_closed_on_stop(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        system = ActorSystem()
        reporter = JsonlReporter(path)
        ref = system.spawn(reporter, "jsonl")
        system.stop(ref)
        assert reporter._file is None


class TestPrometheusReporter:
    def test_exposition_format(self, tmp_path):
        path = tmp_path / "powerapi.prom"
        system = ActorSystem()
        system.spawn(PrometheusReporter(path), "prom")
        publish(system, by_pid={100: 5.5, 200: 1.25})
        text = path.read_text()
        assert "# TYPE powerapi_machine_watts gauge" in text
        assert "powerapi_machine_watts 38.2300" in text
        assert 'powerapi_process_watts{pid="100"} 5.5000' in text
        assert 'powerapi_process_watts{pid="200"} 1.2500' in text

    def test_latest_report_wins(self, tmp_path):
        path = tmp_path / "powerapi.prom"
        system = ActorSystem()
        system.spawn(PrometheusReporter(path), "prom")
        publish(system, time_s=1.0, by_pid={100: 5.0})
        publish(system, time_s=2.0, by_pid={100: 9.0})
        text = path.read_text()
        assert 'powerapi_process_watts{pid="100"} 9.0000' in text
        assert "5.0000" not in text


class TestAppendResume:
    """Restart-safe file reporters: an interrupted run's successor
    appends to the same file instead of truncating it or doubling the
    header."""

    @pytest.mark.parametrize("kind", FILE_KINDS)
    def test_resumes_appending(self, tmp_path, kind):
        path = tmp_path / f"run.{kind}"
        for session, time_s in enumerate((1.0, 2.0)):
            system = ActorSystem()
            reporter = file_reporter(kind, path)
            ref = system.spawn(reporter, kind)
            publish(system, time_s=time_s)
            system.stop(ref)
            assert reporter.resumed == (session == 1)
        lines = path.read_text().strip().splitlines()
        # The resumed session wrote no second header.
        assert len(lines) == HEADER_LINES[kind] + 2
        assert [line_time(kind, line) for line in
                lines[HEADER_LINES[kind]:]] == [1.0, 2.0]

    def test_csv_empty_file_gets_header(self, tmp_path):
        path = tmp_path / "run.csv"
        path.touch()  # exists but empty: not a resume
        system = ActorSystem()
        reporter = CsvReporter(path, pids=[100])
        ref = system.spawn(reporter, "csv")
        publish(system, time_s=1.0)
        system.stop(ref)
        assert not reporter.resumed
        assert path.read_text().startswith("time_s,")

    def test_fsync_reporters_flush_durably(self, tmp_path):
        system = ActorSystem()
        csv_reporter = CsvReporter(tmp_path / "run.csv", pids=[100],
                                   fsync=True)
        jsonl_reporter = JsonlReporter(tmp_path / "run.jsonl", fsync=True)
        system.spawn(csv_reporter, "csv")
        system.spawn(jsonl_reporter, "jsonl")
        publish(system, time_s=1.0)
        # Every flush point fsyncs; the files are already complete on
        # disk without stop() being called.
        assert (tmp_path / "run.csv").read_text().count("\n") == 2
        assert (tmp_path / "run.jsonl").read_text().count("\n") == 1
        csv_reporter.flush()
        jsonl_reporter.flush()
        system.shutdown()

    @pytest.mark.parametrize("kind", FILE_KINDS)
    def test_flush_every_batches_with_fsync(self, tmp_path, kind):
        path = tmp_path / f"run.{kind}"
        system = ActorSystem()
        reporter = file_reporter(kind, path, flush_every=3, fsync=True)
        ref = system.spawn(reporter, kind)
        publish(system, time_s=1.0)
        publish(system, time_s=2.0)
        assert path.read_text() == ""  # below the batch: still buffered
        publish(system, time_s=3.0)
        assert path.read_text().count("\n") == HEADER_LINES[kind] + 3
        publish(system, time_s=4.0)
        # Stopping flushes and fsyncs the remainder.
        system.stop(ref)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == HEADER_LINES[kind] + 4
