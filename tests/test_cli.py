"""Unit tests for the command-line interface."""

import io
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import _build_parser, _telemetry_spec, main
from repro.core.pipeline import PipelineSpec, StageSpec, TelemetrySpec


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def serve_and_handshake(argv):
    """Run ``serve`` (with ``--await-subscribers 1``) on a thread,
    subscribe once it prints its port, and return ``(exit code, output,
    the spec the server advertised)``."""
    import re
    import threading

    from repro.telemetry.client import TelemetryClient

    out = io.StringIO()
    result = {}
    runner = threading.Thread(
        target=lambda: result.update(code=main(
            argv + ["--await-subscribers", "1", "--await-timeout", "30"],
            out=out)),
        daemon=True)
    runner.start()
    deadline = time.monotonic() + 30.0
    match = None
    while match is None and time.monotonic() < deadline:
        match = re.search(r"serving on 127\.0\.0\.1:(\d+)", out.getvalue())
        time.sleep(0.01)
    assert match is not None, out.getvalue()
    client = TelemetryClient("127.0.0.1", int(match.group(1)))
    try:
        client.connect()
        runner.join(timeout=60.0)
    finally:
        client.close()
    assert not runner.is_alive()
    return result["code"], out.getvalue(), client.server_spec


class TestSpecs:
    def test_default_preset(self):
        code, output = run_cli(["specs"])
        assert code == 0
        assert "Intel i3 2120" in output
        assert "3.30 GHz" in output
        assert "TDP" in output

    def test_other_preset(self):
        code, output = run_cli(["--cpu", "xeon-e5-1620", "specs"])
        assert code == 0
        assert "Xeon" in output
        assert "8 threads" in output

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["--cpu", "z80", "specs"])


class TestLearn:
    def test_quick_learn_writes_model(self, tmp_path):
        output_path = tmp_path / "model.json"
        code, output = run_cli(["learn", "--quick",
                                "--output", str(output_path)])
        assert code == 0
        assert output_path.exists()
        model = json.loads(output_path.read_text())
        assert "idle_w" in model
        assert len(model["formulas"]) == 2  # quick = ladder endpoints
        assert "Power =" in output


class TestMonitor:
    @pytest.fixture(scope="class")
    def model_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "model.json"
        run_cli(["learn", "--quick", "--output", str(path)])
        return path

    def test_monitor_prints_periods(self, model_path):
        code, output = run_cli(["monitor", "--model", str(model_path),
                                "--workload", "cpu", "--duration", "3",
                                "--period", "1"])
        assert code == 0
        assert "total=" in output
        assert "estimated active energy" in output

    def test_monitor_writes_csv(self, model_path, tmp_path):
        csv_path = tmp_path / "trace.csv"
        code, _output = run_cli(["monitor", "--model", str(model_path),
                                 "--workload", "memory", "--duration", "3",
                                 "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("time_s,total_w,idle_w,pid_")
        assert len(lines) >= 3


class TestReplay:
    def test_short_replay_reports_error(self, tmp_path):
        model_path = tmp_path / "model.json"
        run_cli(["learn", "--quick", "--output", str(model_path)])
        code, output = run_cli(["replay", "--model", str(model_path),
                                "--duration", "30"])
        assert code == 0
        assert "median_ape" in output
        assert "powerspy" in output


class TestTelemetryCli:
    @pytest.fixture(scope="class")
    def model_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("telemetry-cli") / "model.json"
        run_cli(["learn", "--quick", "--output", str(path)])
        return path

    def test_serve_runs_and_reports_stats(self, model_path):
        code, output = run_cli(["serve", "--model", str(model_path),
                                "--workload", "cpu", "--duration", "3",
                                "--period", "1"])
        assert code == 0
        assert "telemetry: serving on 127.0.0.1:" in output
        assert "published 3 reports" in output
        assert "stalls: 0" in output

    def test_subscribe_prints_stream(self):
        import threading

        from repro.core.messages import AggregatedPowerReport
        from repro.telemetry.server import TelemetryServer

        server = TelemetryServer(port=0, host_label="cli-host").start()

        def publish():
            if server.wait_for_subscribers(1, timeout=10.0):
                for time_s in (1.0, 2.0):
                    server.publish_report(AggregatedPowerReport(
                        time_s=time_s, period_s=1.0, by_pid={100: 5.0},
                        idle_w=30.0, formula="hpc"))

        publisher = threading.Thread(target=publish, daemon=True)
        publisher.start()
        try:
            code, output = run_cli(["subscribe", "--port", str(server.port),
                                    "--max-frames", "2"])
            publisher.join(timeout=10.0)
        finally:
            server.stop()
        assert code == 0
        assert "total= 35.00W" in output
        assert "host=cli-host" in output
        assert "received 2 frame(s)" in output


class TestPipelineFlag:
    """End-to-end --pipeline: config-driven assembly through the CLI."""

    @pytest.fixture(scope="class")
    def model_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("pipeline-cli") / "model.json"
        run_cli(["learn", "--quick", "--output", str(path)])
        return path

    def _write_toml(self, tmp_path, body):
        path = tmp_path / "pipeline.toml"
        path.write_text(body)
        return path

    def test_monitor_with_pipeline_file(self, model_path, tmp_path):
        csv_path = tmp_path / "out.csv"
        config = self._write_toml(tmp_path, f"""\
pids = [1]
period_s = 1.0

[sensor]
type = "hpc"

[formula]
type = "hpc"

[[aggregators]]
type = "timestamp"

[[aggregators]]
type = "pid"

[[reporters]]
type = "csv"
path = {json.dumps(str(csv_path))}

[degradation]
degrade_after = 3
recover_after = 2
""")
        code, output = run_cli(["monitor", "--model", str(model_path),
                                "--workload", "cpu", "--duration", "3",
                                "--pipeline", str(config)])
        assert code == 0
        assert "pipeline:" in output and "sensor=hpc" in output
        assert "estimated active energy" in output
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("time_s,")
        assert len(lines) == 4  # header + one row per period

    def test_monitor_pipeline_json(self, model_path, tmp_path):
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({
            "pids": [1], "period_s": 1.0,
            "sensor": {"type": "procfs"},
            "formula": {"type": "cpu-load"},
            "aggregators": [{"type": "timestamp"}, {"type": "pid"}],
            "reporters": [{"type": "memory"}],
        }))
        code, output = run_cli(["monitor", "--model", str(model_path),
                                "--workload", "cpu", "--duration", "3",
                                "--pipeline", str(config)])
        assert code == 0
        assert "formula=cpu-load" in output
        assert "total=" in output

    def test_unknown_component_fails_with_available_names(self, model_path,
                                                          tmp_path):
        config = self._write_toml(tmp_path, """\
pids = [1]

[sensor]
type = "rapl"

[[reporters]]
type = "memory"
""")
        code, _output = run_cli(["monitor", "--model", str(model_path),
                                 "--workload", "cpu", "--duration", "2",
                                 "--pipeline", str(config)])
        assert code == 1  # ConfigurationError -> exit code 1

    def test_serve_with_pipeline_advertises_spec(self, model_path, tmp_path):
        config = self._write_toml(tmp_path, """\
pids = [1]
period_s = 1.0

[[reporters]]
type = "memory"

[telemetry]
host = "127.0.0.1"
port = 0
""")
        code, output, advertised = serve_and_handshake(
            ["serve", "--model", str(model_path), "--workload", "cpu",
             "--duration", "3", "--host-label", "from-flag",
             "--pipeline", str(config)])
        assert code == 0
        assert "telemetry: serving on 127.0.0.1:" in output
        assert "published 3 reports" in output
        spec = PipelineSpec.from_dict(advertised)
        # The file's [telemetry] section wins over the flags.
        assert spec.telemetry == TelemetrySpec(host="127.0.0.1", port=0)
        assert spec.reporters == (StageSpec("memory"),)
        assert spec.period_s == 1.0
        assert len(spec.pids) == 1 and spec.pids != (1,)  # re-targeted

    def test_serve_without_pipeline_advertises_its_telemetry(self,
                                                             model_path):
        code, output, advertised = serve_and_handshake(
            ["serve", "--model", str(model_path), "--workload", "cpu",
             "--duration", "2", "--period", "0.5", "--host-label", "edge-7",
             "--batch-frames", "4", "--max-subscribers", "3"])
        assert code == 0
        assert "published 4 reports" in output
        spec = PipelineSpec.from_dict(advertised)
        assert spec.period_s == 0.5
        assert spec.telemetry == TelemetrySpec(
            host_label="edge-7", replay_window=256, batch_max_frames=4,
            max_subscribers=3)

    @pytest.mark.parametrize("cap", [[], ["--cap", "40"]],
                             ids=["uncapped", "cap-40"])
    def test_default_pipeline_file_matches_default_wiring(
            self, model_path, tmp_path, cap):
        """Differential: `monitor` with its default wiring and `monitor
        --pipeline F`, where F spells that wiring out, write
        byte-identical CSVs and print the same console report."""
        config = self._write_toml(tmp_path, """\
pids = [1]
period_s = 0.5

[sensor]
type = "hpc"

[formula]
type = "hpc"

[[aggregators]]
type = "timestamp"

[[aggregators]]
type = "pid"

[degradation]
degrade_after = 3
recover_after = 2
""")
        argv = ["monitor", "--model", str(model_path), "--workload", "cpu",
                "--duration", "6", "--period", "0.5"] + cap
        default_csv, file_csv = tmp_path / "a.csv", tmp_path / "b.csv"
        code_a, out_a = run_cli(argv + ["--csv", str(default_csv)])
        code_b, out_b = run_cli(argv + ["--csv", str(file_csv),
                                        "--pipeline", str(config)])
        assert code_a == code_b == 0
        assert default_csv.read_bytes() == file_csv.read_bytes()
        pipeline_line, rest = out_b.split("\n", 1)
        assert pipeline_line.startswith("pipeline: ")
        assert rest == out_a
        header = default_csv.read_text().splitlines()[0]
        assert header.endswith(",gap,cap_w,cap_hz" if cap else ",gap")
        if cap:
            assert "cap actuations:" in out_a


class TestServerFlags:
    """Every serve/relay server flag lands in the TelemetrySpec (and
    from there in the server's settings) — none is dropped."""

    def test_serve_flags_reach_the_spec(self):
        args = _build_parser().parse_args([
            "serve", "--port", "9462", "--overflow", "coalesce",
            "--queue-capacity", "32", "--batch-frames", "8",
            "--batch-bytes", "4096", "--batch-latency", "0.02",
            "--max-subscribers", "5", "--heartbeat-every", "3",
            "--host-label", "edge-7", "--replay-window", "64",
            "--uplink", "up-a:9100", "--uplink", "up-b:9101"])
        assert _telemetry_spec(args) == TelemetrySpec(
            port=9462, overflow="coalesce", queue_capacity=32,
            batch_max_frames=8, batch_max_bytes=4096,
            batch_max_latency_s=0.02, max_subscribers=5,
            heartbeat_every=3, host_label="edge-7", replay_window=64,
            uplinks=("up-a:9100", "up-b:9101"))

    def test_unset_serve_flags_leave_server_defaults(self):
        args = _build_parser().parse_args(["serve"])
        assert _telemetry_spec(args) == TelemetrySpec(replay_window=256)

    def test_relay_flags_reach_the_server(self):
        from repro.telemetry.server import BatchPolicy, TelemetryServer
        args = _build_parser().parse_args([
            "relay", "--upstream", "127.0.0.1:9462", "--port", "9500",
            "--batch-frames", "8", "--batch-bytes", "4096",
            "--batch-latency", "0.02", "--max-subscribers", "5",
            "--replay-window", "64"])
        spec = _telemetry_spec(args)
        assert (spec.host, spec.port) == ("127.0.0.1", 9500)
        server = TelemetryServer(**spec.server_kwargs())
        assert server.batch == BatchPolicy(max_frames=8, max_bytes=4096,
                                           max_latency_s=0.02)
        assert server.max_subscribers == 5
        assert server.replay_window == 64

    def test_policy_choices_come_from_their_sources(self):
        from repro.core.components import default_registry
        from repro.telemetry.server import OverflowPolicy
        parser = _build_parser()
        for policy in OverflowPolicy.ALL:
            assert parser.parse_args(
                ["serve", "--overflow", policy]).overflow == policy
        for policy in default_registry().names("policy"):
            assert parser.parse_args(
                ["monitor", "--cap-policy", policy]).cap_policy == policy


@pytest.mark.chaos
class TestChaosFlags:
    """The crash-recovery flags: --replay-window, --net-faults, --spool."""

    @pytest.fixture(scope="class")
    def model_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("chaos-cli") / "model.json"
        run_cli(["learn", "--quick", "--output", str(path)])
        return path

    def test_serve_reports_replay_stats(self, model_path):
        code, output = run_cli(["serve", "--model", str(model_path),
                                "--workload", "cpu", "--duration", "3",
                                "--period", "1", "--replay-window", "8"])
        assert code == 0
        assert "replay: window 8, 0 resume(s) served" in output

    def test_serve_prints_net_fault_plan(self, model_path):
        code, output = run_cli(["serve", "--model", str(model_path),
                                "--workload", "cpu", "--duration", "3",
                                "--period", "1",
                                "--net-faults", "reset@9999"])
        assert code == 0
        assert "net fault plan: reset@9999" in output
        assert "net faults injected: 0" in output

    def test_bad_net_fault_spec_fails(self, model_path):
        code, _output = run_cli(["serve", "--model", str(model_path),
                                 "--workload", "cpu", "--duration", "2",
                                 "--net-faults", "meteor@3"])
        assert code == 1  # ConfigurationError -> exit code 1

    def test_subscribe_spool_survives_restart(self, tmp_path):
        """Kill-and-resume through the CLI: the second `subscribe` with
        the same --spool directory presents its last-acked seq and only
        receives the frames published while it was away."""
        import threading

        from repro.core.messages import AggregatedPowerReport
        from repro.telemetry.server import TelemetryServer

        def report(time_s):
            return AggregatedPowerReport(
                time_s=time_s, period_s=1.0, by_pid={100: 5.0},
                idle_w=30.0, formula="hpc")

        server = TelemetryServer(port=0, host_label="spool-host",
                                 replay_window=64).start()
        spool_dir = tmp_path / "spooldir"

        def publish_first():
            if server.wait_for_subscribers(1, timeout=10.0):
                server.publish_report(report(1.0))
                server.publish_report(report(2.0))

        publisher = threading.Thread(target=publish_first, daemon=True)
        publisher.start()
        try:
            code, output = run_cli(["subscribe", "--port",
                                    str(server.port), "--max-frames", "2",
                                    "--spool", str(spool_dir)])
            publisher.join(timeout=10.0)
            assert code == 0
            assert "spool: last seq 1" in output
            assert "resumes sent: 0" in output

            # Published while no subscriber is connected: the replay
            # ring holds these for the resuming client.
            server.publish_report(report(3.0))
            server.publish_report(report(4.0))

            code, output = run_cli(["subscribe", "--port",
                                    str(server.port), "--max-frames", "2",
                                    "--spool", str(spool_dir)])
        finally:
            server.stop()
        assert code == 0
        assert "spool: resuming after seq 1 (epoch" in output
        assert "t=     3.0s" in output and "t=     4.0s" in output
        assert "spool: last seq 3" in output
        assert "resumes sent: 1" in output
        assert "duplicates dropped: 0" in output


@pytest.mark.chaos
class TestGracefulSignals:
    """SIGINT/SIGTERM land as a clean early stop: handlers flush the
    reporters, print a diagnostic, and exit 0 (regression for abrupt
    KeyboardInterrupt tracebacks and torn CSV tails)."""

    @pytest.fixture(scope="class")
    def model_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("signal-cli") / "model.json"
        run_cli(["learn", "--quick", "--output", str(path)])
        return path

    def _spawn(self, argv, tmp_path):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out_path = tmp_path / "stdout.txt"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro"] + argv,
            stdout=out_path.open("w"), stderr=subprocess.STDOUT, env=env)
        return proc, out_path

    def _wait_for_output(self, proc, out_path, needle, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if out_path.exists() and needle in out_path.read_text():
                return
            if proc.poll() is not None:
                pytest.fail(f"process exited early ({proc.returncode}): "
                            f"{out_path.read_text()}")
            time.sleep(0.05)
        pytest.fail(f"no {needle!r} in output after {timeout}s")

    def test_monitor_sigint_flushes_and_exits_zero(self, model_path,
                                                   tmp_path):
        csv_path = tmp_path / "trace.csv"
        proc, out_path = self._spawn(
            ["monitor", "--model", str(model_path), "--workload", "cpu",
             "--duration", "500000", "--period", "1",
             "--csv", str(csv_path)], tmp_path)
        # Wait until the run loop is live (a period line reached stdout)
        # so the handler is installed before we fire the signal.
        self._wait_for_output(proc, out_path, "total=")
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=60.0) == 0
        output = out_path.read_text()
        assert "SIGINT: stopping early at t=" in output
        assert "reporters flushed" in output
        lines = csv_path.read_text().strip().splitlines()
        columns = lines[0].count(",")
        assert len(lines) >= 2
        # Every row is complete: the flush left no torn tail.
        assert all(line.count(",") == columns for line in lines)

    def test_serve_sigterm_closes_telemetry(self, model_path, tmp_path):
        proc, out_path = self._spawn(
            ["serve", "--model", str(model_path), "--workload", "cpu",
             "--duration", "500000", "--period", "1", "--pace", "0.01"],
            tmp_path)
        self._wait_for_output(proc, out_path, "telemetry: serving on")
        time.sleep(0.3)  # let the publish loop take a few steps
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60.0) == 0
        output = out_path.read_text()
        assert "SIGTERM: stopping early at t=" in output
        assert "closing telemetry" in output
        assert "published" in output and "reports" in output
