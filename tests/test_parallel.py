"""Parallel campaign execution: the executor, determinism, and the
hot-path satellite fixes that ride along with it."""

from __future__ import annotations

import os

import pytest

from repro.core.parallel import (default_worker_count, resolve_workers,
                                 run_tasks)
from repro.core.sampling import SamplingCampaign, learn_power_model
from repro.errors import ConfigurationError
from repro.simcpu import Machine, intel_i3_2120
from repro.workloads.stress import CpuStress, MemoryStress


def _square(x: int) -> int:
    return x * x


def _maybe_fail(x: int) -> int:
    if x == 3:
        raise ConfigurationError("boom")
    return x


class TestRunTasks:
    def test_serial_preserves_order(self):
        assert run_tasks(_square, [3, 1, 2], workers=1) == [9, 1, 4]

    def test_parallel_preserves_order(self):
        values = list(range(20))
        assert run_tasks(_square, values, workers=4) == [v * v for v in values]

    def test_empty_task_list(self):
        assert run_tasks(_square, [], workers=4) == []

    def test_task_errors_propagate(self):
        with pytest.raises(ConfigurationError):
            run_tasks(_maybe_fail, [1, 2, 3, 4], workers=2)

    def test_unpicklable_falls_back_to_serial(self):
        # A lambda cannot be shipped to pool workers; run_tasks must
        # degrade to the serial loop instead of raising.
        assert run_tasks(lambda x: x + 1, [1, 2], workers=2) == [2, 3]

    def test_resolve_workers(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1
        with pytest.raises(ConfigurationError):
            resolve_workers(-2)

    def test_default_worker_count_honours_affinity(self, monkeypatch):
        # A process pinned to one CPU of an 8-CPU host gets one worker.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert default_worker_count() == 1
        assert resolve_workers(0) == 1

    def test_default_worker_count_falls_back_to_cpu_count(self,
                                                          monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert default_worker_count() == 8


def _small_campaign(spec) -> SamplingCampaign:
    return SamplingCampaign(
        spec,
        workloads=[CpuStress(utilization=1.0, threads=spec.num_threads),
                   MemoryStress(utilization=0.75, threads=2,
                                working_set_bytes=16 * 1024 ** 2)],
        frequencies_hz=[spec.min_frequency_hz, spec.max_frequency_hz],
        window_s=0.5, windows_per_run=2, settle_s=0.25, quantum_s=0.05)


class TestCampaignDeterminism:
    @pytest.fixture(scope="class")
    def spec(self):
        return intel_i3_2120()

    def test_worker_count_does_not_change_dataset(self, spec):
        serial = _small_campaign(spec).run(workers=1)
        parallel = _small_campaign(spec).run(workers=4)
        assert serial.events == parallel.events
        assert len(serial) == len(parallel) > 0
        # Identical points, in identical order, with identical values.
        for ours, theirs in zip(serial.points, parallel.points):
            assert ours == theirs

    def test_learned_model_bit_identical(self, spec):
        serial = learn_power_model(
            spec, campaign=_small_campaign(spec), idle_duration_s=2.0,
            workers=1)
        parallel = learn_power_model(
            spec, campaign=_small_campaign(spec), idle_duration_s=2.0,
            workers=4)
        assert serial.idle_w == parallel.idle_w
        assert (serial.model.frequencies_hz
                == parallel.model.frequencies_hz)
        for frequency_hz in serial.model.frequencies_hz:
            ours = serial.model.formula(frequency_hz)
            theirs = parallel.model.formula(frequency_hz)
            assert dict(ours.coefficients) == dict(theirs.coefficients)

    def test_run_plan_assigns_stable_indices(self, spec):
        campaign = _small_campaign(spec)
        plan = campaign.run_plan()
        assert [index for _f, _w, index in plan] == [1, 2, 3, 4]
        assert plan == campaign.run_plan()


class TestSatelliteFixes:
    def test_explicit_workloads_report_real_thread_count(self):
        spec = intel_i3_2120()
        campaign = SamplingCampaign(
            spec, workloads=[CpuStress(utilization=1.0, threads=4),
                             MemoryStress(utilization=1.0, threads=2),
                             CpuStress(utilization=0.5)])
        assert [threads for _w, threads in campaign._workloads()] == [4, 2, 1]

    def test_remove_observer_is_idempotent(self):
        machine = Machine(intel_i3_2120())
        seen = []
        machine.add_observer(seen.append)
        machine.remove_observer(seen.append)
        machine.remove_observer(seen.append)  # double-close: no error
        machine.remove_observer(lambda record: None)  # never subscribed
