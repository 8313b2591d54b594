"""Tests for declarative pipeline specs (repro.core.pipeline).

Covers the PR's acceptance criteria: lossless JSON/TOML round-trips,
config-driven assembly producing byte-identical output to the fluent
DSL, and unknown component names failing validation with the registry's
available components in the message.
"""

import dataclasses

import pytest
from hypothesis import given

from repro.configio import dumps_toml, loads_toml
from tests.strategies import default_settings, pipeline_specs
from repro.core.model import FrequencyFormula, PowerModel
from repro.core.monitor import PowerAPI
from repro.core.pipeline import (DegradationSpec, PipelineSpec, StageSpec,
                                 TelemetrySpec, parse_uplink)
from repro.core.reporters import CsvReporter, InMemoryReporter
from repro.errors import ConfigurationError
from repro.os.kernel import SimKernel
from repro.simcpu.spec import intel_i3_2120
from repro.workloads.stress import CpuStress


@pytest.fixture
def model():
    formulas = [FrequencyFormula(f, {"instructions": 3e-9,
                                     "cache-references": 2e-8,
                                     "cache-misses": 2e-7})
                for f in intel_i3_2120().frequencies_hz]
    return PowerModel(idle_w=31.48, formulas=formulas, name="unit-model")


def fresh_api(model):
    kernel = SimKernel(intel_i3_2120(), quantum_s=0.02)
    pid = kernel.spawn(CpuStress(duration_s=12.0), name="stress")
    return PowerAPI(kernel, model), pid


FULL_SPEC = PipelineSpec(
    pids=(1000, 1001),
    period_s=0.5,
    sensor=StageSpec("hpc", {"events": ("cycles", "instructions")}),
    formula=StageSpec("hpc"),
    reporters=(StageSpec("csv", {"path": "out.csv", "flush_every": 2}),
               StageSpec("memory")),
    degradation=DegradationSpec(degrade_after=4, recover_after=1),
    faults="crash@5.0:formula-0;pid-exit@8.0",
    telemetry=TelemetrySpec(host="0.0.0.0", port=9977,
                            overflow="coalesce", queue_capacity=64,
                            heartbeat_every=10, host_label="node-3",
                            batch_max_frames=32, batch_max_bytes=65536,
                            batch_max_latency_s=0.005, max_subscribers=128,
                            uplinks=("upstream-a:9100", "upstream-b:9101")),
)


class TestSpecValue:
    def test_requires_pids(self):
        with pytest.raises(ConfigurationError, match="at least one pid"):
            PipelineSpec(pids=())

    def test_rejects_bad_period(self):
        with pytest.raises(ConfigurationError, match="period"):
            PipelineSpec(pids=(1,), period_s=0.0)

    def test_degradation_thresholds_validated(self):
        with pytest.raises(ConfigurationError):
            DegradationSpec(degrade_after=0)

    def test_params_are_frozen_to_tuples(self):
        spec = StageSpec("hpc", {"events": ["cycles"]})
        assert spec.params["events"] == ("cycles",)

    def test_with_reporter_appends(self):
        spec = PipelineSpec(pids=(1,)).with_reporter("csv", path="x.csv")
        assert spec.reporters[-1] == StageSpec("csv", {"path": "x.csv"})


class TestRoundTrip:
    def test_json_round_trip_is_lossless(self):
        assert PipelineSpec.from_json(FULL_SPEC.to_json()) == FULL_SPEC

    def test_toml_round_trip_is_lossless(self):
        assert PipelineSpec.from_toml(FULL_SPEC.to_toml()) == FULL_SPEC

    def test_minimal_spec_round_trips(self):
        spec = PipelineSpec(pids=(7,), degradation=None)
        assert PipelineSpec.from_json(spec.to_json()) == spec
        assert PipelineSpec.from_toml(spec.to_toml()) == spec

    def test_toml_subset_parser_matches_tomllib(self):
        # The fallback reader (used on Python < 3.11) must agree with
        # tomllib on everything we emit.
        tomllib = pytest.importorskip("tomllib")
        text = FULL_SPEC.to_toml()
        from repro.configio import _loads_subset
        assert _loads_subset(text) == tomllib.loads(text)

    def test_from_file_dispatches_on_suffix(self, tmp_path):
        json_path = tmp_path / "p.json"
        toml_path = tmp_path / "p.toml"
        json_path.write_text(FULL_SPEC.to_json())
        toml_path.write_text(FULL_SPEC.to_toml())
        assert PipelineSpec.from_file(json_path) == FULL_SPEC
        assert PipelineSpec.from_file(toml_path) == FULL_SPEC

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown pipeline key"):
            PipelineSpec.from_dict({"pids": [1], "sensors": []})

    def test_unknown_telemetry_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown telemetry"):
            TelemetrySpec.from_dict({"hostname": "x"})

    def test_stage_without_type_rejected(self):
        with pytest.raises(ConfigurationError, match="missing 'type'"):
            StageSpec.from_dict({"path": "x.csv"})


class TestTelemetryTier:
    """The [telemetry] batch/uplink/limit knobs and their plumbing."""

    def test_parse_uplink(self):
        assert parse_uplink("host-a:9200") == ("host-a", 9200)
        assert parse_uplink("::1:9200") == ("::1", 9200)
        with pytest.raises(ConfigurationError, match="HOST:PORT"):
            parse_uplink("nocolon")
        with pytest.raises(ConfigurationError, match="port"):
            parse_uplink("host:abc")

    def test_field_validation(self):
        with pytest.raises(ConfigurationError):
            TelemetrySpec(batch_max_frames=0)
        with pytest.raises(ConfigurationError):
            TelemetrySpec(batch_max_bytes=0)
        with pytest.raises(ConfigurationError):
            TelemetrySpec(batch_max_latency_s=-1.0)
        with pytest.raises(ConfigurationError):
            TelemetrySpec(max_subscribers=-1)
        with pytest.raises(ConfigurationError, match="HOST:PORT"):
            TelemetrySpec(uplinks=("bogus",))
        # The server's own rules apply when the spec is built, not
        # after start_pipeline has already spawned the actors.
        with pytest.raises(ConfigurationError, match="overflow"):
            TelemetrySpec(overflow="bogus")
        with pytest.raises(ConfigurationError, match="queue_capacity"):
            TelemetrySpec(queue_capacity=0)
        with pytest.raises(ConfigurationError, match="heartbeat_every"):
            TelemetrySpec(heartbeat_every=-1)

    def test_failed_telemetry_start_leaves_no_pipeline(self, model):
        import socket
        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        api, pid = fresh_api(model)
        try:
            spec = PipelineSpec(
                pids=(pid,), reporters=(StageSpec("memory"),),
                faults="pid-exit@5",
                telemetry=TelemetrySpec(port=blocker.getsockname()[1]))
            with pytest.raises(OSError):
                api.start_pipeline(spec)
            assert api.monitored_pids() == ()
            assert api.telemetry_servers == ()
            assert api.injector is None
        finally:
            api.shutdown()
            blocker.close()

    def test_server_kwargs_builds_batch_policy_and_uplinks(self):
        from repro.telemetry.server import BatchPolicy
        spec = TelemetrySpec(batch_max_frames=8,
                             batch_max_latency_s=0.01,
                             max_subscribers=16,
                             uplinks=("up-a:9100", "up-b:9101"))
        kwargs = spec.server_kwargs()
        assert kwargs["max_subscribers"] == 16
        assert kwargs["uplinks"] == (("up-a", 9100), ("up-b", 9101))
        batch = kwargs["batch"]
        assert isinstance(batch, BatchPolicy)
        assert batch.max_frames == 8
        assert batch.max_latency_s == 0.01
        # Unset batch knobs inherit the policy defaults.
        assert batch.max_bytes == BatchPolicy().max_bytes

    def test_server_kwargs_omits_unset_tier_knobs(self):
        kwargs = TelemetrySpec().server_kwargs()
        assert "batch" not in kwargs
        assert "uplinks" not in kwargs
        assert "max_subscribers" not in kwargs

    def test_with_telemetry_fluent_builder(self, model):
        api, pid = fresh_api(model)
        builder = api.monitor(pid).every(1.0).with_telemetry(
            port=0, batch_max_frames=32, max_subscribers=8,
            uplinks=("up-a:9100",))
        spec = builder.spec()
        assert spec.telemetry is not None
        assert spec.telemetry.batch_max_frames == 32
        assert spec.telemetry.max_subscribers == 8
        assert spec.telemetry.uplinks == ("up-a:9100",)
        # The description round-trips like any other config file.
        assert PipelineSpec.from_json(spec.to_json()) == spec
        api.shutdown()


class TestValidation:
    def test_unknown_sensor_names_available_components(self):
        spec = PipelineSpec(pids=(1,), sensor=StageSpec("rapl"),
                            reporters=(StageSpec("memory"),))
        with pytest.raises(ConfigurationError) as excinfo:
            spec.validate()
        message = str(excinfo.value)
        assert "rapl" in message
        assert "hpc" in message and "procfs" in message

    def test_unknown_reporter_names_available_components(self):
        spec = PipelineSpec(pids=(1,),
                            reporters=(StageSpec("udp"),))
        with pytest.raises(ConfigurationError) as excinfo:
            spec.validate()
        message = str(excinfo.value)
        assert "udp" in message
        assert "csv" in message and "memory" in message

    def test_bad_stage_params_rejected(self):
        spec = PipelineSpec(
            pids=(1,),
            reporters=(StageSpec("csv", {"path": "x.csv", "colour": "red"}),))
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            spec.validate()

    def test_reporterless_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one reporter"):
            PipelineSpec(pids=(1,)).validate()

    def test_bad_fault_plan_rejected(self):
        spec = PipelineSpec(pids=(1,), faults="explode@never",
                            reporters=(StageSpec("memory"),))
        with pytest.raises(ConfigurationError):
            spec.validate()

    def test_start_pipeline_surfaces_unknown_component(self, model):
        api, pid = fresh_api(model)
        spec = PipelineSpec(pids=(pid,), sensor=StageSpec("bogus"),
                            reporters=(StageSpec("memory"),))
        with pytest.raises(ConfigurationError, match="available sensors"):
            api.start_pipeline(spec)
        api.shutdown()


class TestGoldenEquivalence:
    def test_fluent_and_config_builds_are_byte_identical(self, model,
                                                         tmp_path):
        """The same seeded run, assembled (a) via the fluent DSL and
        (b) via a PipelineSpec loaded from a config file, produces
        byte-identical reporter output."""
        fluent_csv = tmp_path / "fluent.csv"
        api_a, pid_a = fresh_api(model)
        api_a.monitor(pid_a).every(0.5).to(
            CsvReporter(fluent_csv, pids=[pid_a]))
        api_a.run(6.0)
        api_a.shutdown()

        config_csv = tmp_path / "config.csv"
        spec = PipelineSpec(pids=(pid_a,), period_s=0.5).with_reporter(
            "csv", path=str(config_csv))
        for text, loader in ((spec.to_toml(), PipelineSpec.from_toml),
                             (spec.to_json(), PipelineSpec.from_json)):
            config_csv.unlink(missing_ok=True)
            api_b, pid_b = fresh_api(model)
            assert pid_b == pid_a  # deterministic kernel pid assignment
            api_b.start_pipeline(loader(text))
            api_b.run(6.0)
            api_b.shutdown()
            assert config_csv.read_bytes() == fluent_csv.read_bytes()

    def test_fluent_builder_exposes_its_spec(self, model):
        api, pid = fresh_api(model)
        builder = api.monitor(pid).every(2.0).with_formula("cpu-load")
        spec = builder.spec()
        assert spec.sensor.type == "procfs"
        assert spec.formula.type == "cpu-load"
        assert spec.period_s == 2.0
        assert spec.degradation is None
        api.shutdown()

    def test_actor_names_match_historical_wiring(self, model):
        api, pid = fresh_api(model)
        spec = PipelineSpec(pids=(pid,),
                            reporters=(StageSpec("memory"),
                                       StageSpec("memory")))
        api.start_pipeline(spec)
        # Figure 2's five actors in spawn order, plus the second reporter.
        assert api.system.actor_names() == (
            "sensor-0", "formula-0", "ts-aggregator-0", "pid-aggregator-0",
            "reporter-0", "reporter-0-1")
        api.shutdown()

    def test_spec_faults_are_armed(self, model):
        api, pid = fresh_api(model)
        spec = PipelineSpec(pids=(pid,), faults="crash@1.0:formula-0",
                            reporters=(StageSpec("memory"),))
        handle = api.start_pipeline(spec)
        api.run(3.0)
        kinds = {event.kind for event in handle.health}
        assert "fault-injected" in kinds or any(
            "crash" in event.detail for event in handle.health)
        api.shutdown()


class TestHandleSurface:
    def test_handle_carries_spec_and_reporters(self, model):
        api, pid = fresh_api(model)
        memory = InMemoryReporter()
        handle = api.monitor(pid).every(1.0).to(memory)
        assert handle.reporter is memory
        assert handle.reporters == (memory,)
        assert handle.spec is not None
        assert handle.spec.pids == (pid,)
        api.shutdown()

    def test_by_name_reporter_via_fluent_to(self, model, tmp_path):
        api, pid = fresh_api(model)
        path = tmp_path / "by-name.csv"
        handle = api.monitor(pid).every(1.0).to("csv", path=str(path))
        api.run(2.0)
        api.shutdown()
        assert isinstance(handle.reporter, CsvReporter)
        assert path.read_text().startswith("time_s,")


class TestTelemetryAdvertisement:
    def test_subscriber_sees_the_running_spec(self, model):
        from repro.telemetry.client import TelemetryClient

        api, pid = fresh_api(model)
        spec = PipelineSpec(
            pids=(pid,),
            reporters=(StageSpec("memory"),),
            telemetry=TelemetrySpec(port=0))
        api.start_pipeline(spec)
        server = api.telemetry_servers[-1]
        client = TelemetryClient("127.0.0.1", server.port,
                                 read_timeout_s=5.0)
        try:
            client.connect()
            assert client.server_spec is not None
            advertised = PipelineSpec.from_dict(client.server_spec)
            assert advertised == spec
        finally:
            client.close()
            api.shutdown()


class TestConfigIo:
    def test_dumps_loads_nested(self):
        data = {"a": 1, "b": "x", "flag": True,
                "sub": {"k": 2.5, "names": ["p", "q"]},
                "rows": [{"n": 1}, {"n": 2, "deep": {"z": "w"}}]}
        assert loads_toml(dumps_toml(data)) == data

    def test_string_escapes_survive(self):
        data = {"s": 'quote " backslash \\ newline \n tab \t'}
        assert loads_toml(dumps_toml(data)) == data

    def test_bad_toml_raises_configuration_error(self):
        with pytest.raises(ConfigurationError):
            loads_toml("this is not = = toml [")

    def test_subset_parser_handles_comments_and_blanks(self):
        from repro.configio import _loads_subset
        text = '# comment\n\nkey = 1\n[table]\n# another\nval = "x"\n'
        assert _loads_subset(text) == {"key": 1, "table": {"val": "x"}}


class TestSpecProperties:
    """Generative round-trips over the whole spec space (shared
    strategies from tests.strategies, [control] sections included)."""

    @given(spec=pipeline_specs())
    @default_settings
    def test_json_roundtrip_is_identity(self, spec):
        assert PipelineSpec.from_json(spec.to_json()) == spec

    @given(spec=pipeline_specs())
    @default_settings
    def test_toml_roundtrip_is_identity(self, spec):
        assert PipelineSpec.from_toml(spec.to_toml()) == spec

    @given(spec=pipeline_specs())
    @default_settings
    def test_generated_specs_validate(self, spec):
        spec.validate()
