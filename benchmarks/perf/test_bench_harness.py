"""Self-test of the benchmark harness and its tracer.

Runs every workload at 5% of its length, untraced and traced, and checks
that the tracer leaves the program's outputs bit-identical, that every
metric ``BENCHMARK.json`` names is printed with its unit, and that the
per-layer self times add up to the traced wall time.  Marked ``perf``
and outside ``testpaths``, so tier-1 never collects it; run it with
``PYTHONPATH=src python -m pytest benchmarks/perf -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.perf

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]

#: Self-time buckets: with ``trace.unattributed_s`` they partition the
#: traced wall time.
SELF_TIME_METRICS = (
    "simcpu.self_s", "os.self_s", "os.scheduler_s", "os.governor_s",
    "os.procfs_observer_s", "perf.observer_s", "perf.read_s",
    "powermeter.observer_s", "actors.self_s", "core.sensors.busy_s",
    "core.formula.busy_s", "core.aggregators.busy_s",
    "core.reporters.busy_s", "faults.busy_s", "control.busy_s",
    "telemetry.bridge_busy_s", "telemetry.publish_s",
    "core.regression.fit_s")

LAYER_METRICS = {
    *(f"simcpu.{name}" for name in (
        "ticks", "step_calls", "self_s", "compiles", "program_hit_ratio",
        "machines_built")),
    *(f"os.{name}" for name in (
        "ticks", "self_s", "scheduler_s", "governor_s", "pstate_changes",
        "procfs_observer_calls", "procfs_observer_s")),
    "perf.observer_calls", "perf.observer_s", "perf.reads", "perf.read_s",
    "powermeter.observer_calls", "powermeter.observer_s",
    *(f"actors.{name}" for name in (
        "dispatch_calls", "messages", "self_s", "publishes", "clock_ticks",
        "empty_dispatch_ratio")),
    *(f"{group}.{name}" for group in (
        "core.sensors", "core.formula", "core.aggregators", "core.reporters",
        "faults", "control") for name in ("messages", "busy_s")),
    "control.actuations", "core.formula.median_ape_pct",
    *(f"telemetry.{name}" for name in (
        "bridge_busy_s", "frames_published", "publish_s", "bytes_encoded",
        "frames_delivered", "stalls", "deliver_p50_ms", "deliver_p99_ms",
        "deliver_samples")),
    "core.sampling.runs", "core.sampling.kernel_run_s",
    "core.calibration.idle_s", "core.regression.fit_s",
    "core.monitor.overhead_pct", "trace.overhead_pct",
    "trace.unattributed_s",
}


def _bench(workload: str, trace: int, out: Path):
    """(last-line result, result.json record) of one short run."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--workload", workload,
         "--seed", "0", "--scale", "0.05", "--repeat", "1",
         "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=600)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    record = json.loads(next(out.glob("*/result.json")).read_text())
    return result, record


def _assert_metrics(result: dict, specs: list) -> None:
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [spec["name"] for spec in specs]
    for spec in specs:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]


def test_per_layer_metrics_are_the_named_layer_ledger():
    names = [metric["name"] for metric in BENCHMARK["per_layer"]]
    assert len(names) == len(set(names)) <= 128
    assert set(names) == LAYER_METRICS
    assert set(SELF_TIME_METRICS) <= LAYER_METRICS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracer_keeps_outputs_and_accounts_wall_time(workload, tmp_path):
    result, record = _bench(workload, 0, tmp_path / "untraced")
    _assert_metrics(result, BENCHMARK["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())

    traced_result, traced_record = _bench(workload, 1, tmp_path / "traced")
    _assert_metrics(traced_result, BENCHMARK["per_layer"])
    untraced, traced = traced_record["instances"]
    assert (record["instances"][0]["digests"] == untraced["digests"]
            == traced["digests"])

    values = {name: entry["value"]
              for name, entry in traced_result["metrics"].items()}
    accounted = sum(values[name] for name in SELF_TIME_METRICS)
    assert accounted + values["trace.unattributed_s"] == pytest.approx(
        traced["wall_s"], rel=0.05)
    spans = next(tmp_path.glob(f"traced/*/traced/trace-{workload}.jsonl"))
    assert spans.read_text().count("\n") > 0
