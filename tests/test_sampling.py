"""Unit tests for repro.core.sampling and calibration.

Campaigns here are deliberately tiny (one or two frequencies, one or two
workloads, short windows); the paper-scale campaign runs in the benchmark
harness.
"""

import hashlib

import pytest

from repro.core.calibration import calibrate_idle_power
from repro.core.sampling import (SamplePoint, SamplingCampaign,
                                 SamplingDataset, learn_power_model,
                                 run_windows)
from repro.errors import ConfigurationError, InsufficientDataError
from repro.simcpu.counters import GENERIC_TRIO
from repro.simcpu.spec import intel_i3_2120
from repro.units import ghz
from repro.workloads.stress import CpuStress, MemoryStress


@pytest.fixture(scope="module")
def spec():
    return intel_i3_2120()


@pytest.fixture(scope="module")
def tiny_campaign(spec):
    return SamplingCampaign(
        spec,
        workloads=[CpuStress(utilization=1.0, threads=4),
                   MemoryStress(utilization=1.0, threads=4,
                                working_set_bytes=32 * 1024 ** 2),
                   CpuStress(utilization=0.5, threads=2)],
        frequencies_hz=[spec.min_frequency_hz, spec.max_frequency_hz],
        window_s=0.5, windows_per_run=3, settle_s=0.25, quantum_s=0.05)


@pytest.fixture(scope="module")
def dataset(tiny_campaign):
    return tiny_campaign.run()


class TestCampaign:
    def test_rejects_bad_window(self, spec):
        with pytest.raises(ConfigurationError):
            SamplingCampaign(spec, window_s=0.0)

    def test_rejects_unknown_frequency(self, spec):
        with pytest.raises(Exception):
            SamplingCampaign(spec, frequencies_hz=[12345])

    def test_point_count(self, dataset):
        # 2 frequencies x 3 workloads x 3 windows.
        assert len(dataset) == 18

    def test_frequencies_recorded(self, dataset, spec):
        assert dataset.frequencies_hz == (spec.min_frequency_hz,
                                          spec.max_frequency_hz)

    def test_rates_cover_trio(self, dataset):
        for point in dataset.points:
            assert set(point.rates) == set(GENERIC_TRIO)

    def test_memory_workload_has_more_misses(self, dataset):
        cpu_points = [p for p in dataset.points if "cpu" in p.workload]
        mem_points = [p for p in dataset.points if "mem" in p.workload]
        cpu_misses = max(p.rates["cache-misses"] for p in cpu_points)
        mem_misses = min(p.rates["cache-misses"] for p in mem_points)
        assert mem_misses > cpu_misses

    def test_higher_frequency_higher_power(self, dataset, spec):
        slow = [p.power_w for p in dataset.at_frequency(spec.min_frequency_hz)
                if p.workload == "stress-cpu-100"]
        fast = [p.power_w for p in dataset.at_frequency(spec.max_frequency_hz)
                if p.workload == "stress-cpu-100"]
        assert min(fast) > max(slow)

    def test_feature_matrix_shapes(self, dataset, spec):
        features, targets = dataset.feature_matrix(spec.max_frequency_hz)
        assert len(features) == len(targets) == 9

    def test_default_grid_includes_thread_sweep(self, spec):
        campaign = SamplingCampaign(spec)
        grid = campaign._workloads()
        thread_counts = {threads for _w, threads in grid}
        assert thread_counts == {1, 2, 4}


def _digest(rows) -> str:
    """sha256 over each row's repr (a float's repr round-trips exactly)."""
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(row).encode())
    return digest.hexdigest()


class TestWindowLoop:
    """The one window loop behind the campaign and the baselines."""

    def test_campaign_dataset_is_pinned(self, dataset):
        assert _digest(
            (point.frequency_hz, point.workload,
             sorted(point.rates.items()), point.power_w)
            for point in dataset.points) == (
            "5626214f8ebc1a04a09fb3124a3465bc7ce4de86daf4ad60d25391e32fbb4884")

    def test_smt_overlap_windows_are_pinned(self, spec):
        windows = run_windows(
            spec, [CpuStress(duration_s=100), MemoryStress(duration_s=100),
                   CpuStress(utilization=0.5, duration_s=100)],
            frequency_hz=spec.max_frequency_hz, duration_s=3.0,
            window_s=0.5, settle_s=0.25, quantum_s=0.05,
            with_smt_overlap=True, pin_each_to_core=True)
        assert len(windows) == 6
        assert _digest(
            (window.time_s, window.frequency_hz, window.workload,
             sorted(window.features.items()), window.power_w)
            for window in windows) == (
            "01bba7fed1fdec0dd83f268be71aab028c0eb53d92f90dda787f2d90c7f5ef69")

    def test_rejects_window_of_partial_quanta(self, spec):
        # 1.0 s on 0.03 s quanta runs 0.99 s windows: the first closes no
        # meter sample, and the next divided two windows' counts by one.
        with pytest.raises(ConfigurationError, match="quantum_s=0.03"):
            run_windows(spec, [CpuStress(duration_s=100)],
                        frequency_hz=spec.max_frequency_hz,
                        duration_s=6.0, window_s=1.0, quantum_s=0.03)

    def test_campaign_rejects_window_of_partial_quanta(self, spec):
        campaign = SamplingCampaign(
            spec, workloads=[CpuStress()],
            frequencies_hz=[spec.max_frequency_hz], window_s=1.0,
            windows_per_run=2, settle_s=0.0, quantum_s=0.03)
        with pytest.raises(ConfigurationError, match="window_s=1.0"):
            campaign.run()

    def test_short_whole_quanta_windows_pass(self, spec):
        windows = run_windows(spec, [CpuStress(duration_s=100)],
                              frequency_hz=spec.max_frequency_hz,
                              duration_s=0.2, window_s=0.05, quantum_s=0.01)
        rates = [window.features["instructions"] for window in windows]
        assert len(rates) == 4
        assert max(rates) == pytest.approx(min(rates), rel=1e-9)


class TestCalibration:
    def test_idle_close_to_spec(self, spec):
        idle = calibrate_idle_power(spec, duration_s=5.0, quantum_s=0.05)
        assert idle == pytest.approx(spec.power.idle_w, rel=0.02)

    def test_deterministic_per_seed(self, spec):
        a = calibrate_idle_power(spec, duration_s=3.0, seed=1)
        b = calibrate_idle_power(spec, duration_s=3.0, seed=1)
        assert a == b


class TestLearning:
    @pytest.fixture(scope="class")
    def report(self, spec, tiny_campaign):
        return learn_power_model(spec, campaign=tiny_campaign,
                                 idle_duration_s=5.0)

    def test_model_has_formula_per_frequency(self, report, spec):
        assert report.model.frequencies_hz == (spec.min_frequency_hz,
                                               spec.max_frequency_hz)

    def test_idle_near_published_constant(self, report):
        assert report.model.idle_w == pytest.approx(31.48, rel=0.03)

    def test_nnls_coefficients_nonnegative(self, report):
        for frequency in report.model.frequencies_hz:
            formula = report.model.formula(frequency)
            assert all(v >= 0 for v in formula.coefficients.values())

    def test_regression_diagnostics_present(self, report):
        assert set(report.regressions) == set(report.model.frequencies_hz)

    def test_model_predicts_training_power(self, report, spec, dataset):
        # On training-like data the model should be accurate.
        point = dataset.at_frequency(spec.max_frequency_hz)[0]
        estimate = report.model.predict_total(point.frequency_hz, point.rates)
        assert estimate == pytest.approx(point.power_w, rel=0.25)

    def test_instructions_coefficient_order_of_magnitude(self, report, spec):
        # The paper's published coefficient is 2.22e-9 W per instruction/s.
        coefficient = report.model.formula(
            spec.max_frequency_hz).coefficients["instructions"]
        assert 1e-10 < coefficient < 1e-8

    def test_insufficient_data_raises(self, spec):
        campaign = SamplingCampaign(
            spec, workloads=[CpuStress(utilization=1.0)],
            frequencies_hz=[spec.max_frequency_hz],
            window_s=0.5, windows_per_run=2, settle_s=0.0, quantum_s=0.05)
        with pytest.raises(InsufficientDataError):
            learn_power_model(spec, campaign=campaign, idle_duration_s=2.0)


class TestDatasetContainer:
    def test_at_frequency_filters(self):
        points = [SamplePoint(1, "w", {"instructions": 1.0}, 30.0),
                  SamplePoint(2, "w", {"instructions": 2.0}, 31.0)]
        dataset = SamplingDataset(points, ("instructions",))
        assert len(dataset.at_frequency(1)) == 1
        assert dataset.feature_matrix(2) == ([{"instructions": 2.0}], [31.0])
