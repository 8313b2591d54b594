"""Unit tests for the baseline models and the evaluation harness."""

import pytest

from repro.baselines.bertran import (BERTRAN_EVENTS, bertran_campaign,
                                     learn_bertran_model)
from repro.baselines.cpuload import CPU_LOAD_EVENTS, learn_cpu_load_model
from repro.baselines.evaluation import score_model
from repro.baselines.happy import learn_happy_model
from repro.baselines.raplmodel import (RaplEstimator,
                                       calibrate_rest_of_system)
from repro.core.sampling import (SMT_OVERLAP, SamplingCampaign, run_windows,
                                 smt_overlap_rate)
from repro.errors import ConfigurationError, PowerMeterError
from repro.os.kernel import SimKernel
from repro.simcpu.counters import CYCLES
from repro.simcpu.spec import intel_core2duo_e6600, intel_i3_2120
from repro.workloads.stress import CpuStress, MemoryStress


@pytest.fixture(scope="module")
def spec():
    return intel_i3_2120()


class TestRunWindows:
    def test_collects_one_window_per_second(self, spec):
        windows = run_windows(spec, [CpuStress(duration_s=100)],
                              frequency_hz=spec.max_frequency_hz,
                              duration_s=5.0, window_s=1.0, quantum_s=0.05)
        assert len(windows) == 5

    def test_features_are_rates(self, spec):
        windows = run_windows(spec, [CpuStress(duration_s=100)],
                              frequency_hz=spec.max_frequency_hz,
                              duration_s=3.0, quantum_s=0.05)
        for window in windows:
            assert window.features["instructions"] > 1e8

    def test_frequency_recorded(self, spec):
        windows = run_windows(spec, [CpuStress(duration_s=100)],
                              frequency_hz=spec.min_frequency_hz,
                              duration_s=2.0, quantum_s=0.05)
        assert all(w.frequency_hz == spec.min_frequency_hz for w in windows)

    def test_smt_overlap_feature(self, spec):
        colocated = run_windows(
            spec, [CpuStress(duration_s=100), CpuStress(duration_s=100)],
            frequency_hz=spec.max_frequency_hz, duration_s=2.0,
            quantum_s=0.05, with_smt_overlap=True, pin_each_to_core=False)
        assert all(SMT_OVERLAP in w.features for w in colocated)

    def test_pinning_creates_overlap(self, spec):
        pinned = run_windows(
            spec, [CpuStress(duration_s=100), CpuStress(duration_s=100)],
            frequency_hz=spec.max_frequency_hz, duration_s=2.0,
            quantum_s=0.05, with_smt_overlap=True, pin_each_to_core=True)
        # Both pinned to core 0's hyperthreads -> overlap cycles near the
        # full clock rate.
        assert pinned[-1].features[SMT_OVERLAP] > 0.5 * spec.max_frequency_hz

    def test_spread_has_no_overlap(self, spec):
        spread = run_windows(
            spec, [CpuStress(duration_s=100)],
            frequency_hz=spec.max_frequency_hz, duration_s=2.0,
            quantum_s=0.05, with_smt_overlap=True)
        assert spread[-1].features[SMT_OVERLAP] == pytest.approx(0.0)

    def test_rejects_bad_duration(self, spec):
        with pytest.raises(ConfigurationError):
            run_windows(spec, [CpuStress()], duration_s=0.0)

    def test_score_model_requires_windows(self, spec):
        from repro.core.model import FrequencyFormula, PowerModel
        model = PowerModel(30.0, [FrequencyFormula(1, {"instructions": 1.0})])
        with pytest.raises(ConfigurationError):
            score_model(model, [])


class TestSmtOverlapRate:
    def test_min_of_siblings(self):
        rate = smt_overlap_rate({0: 10.0, 2: 6.0}, [(0, 2)], window_s=2.0)
        assert rate == pytest.approx(3.0)

    def test_single_thread_core_contributes_nothing(self):
        rate = smt_overlap_rate({0: 10.0}, [(0,)], window_s=1.0)
        assert rate == 0.0


class TestCpuLoadBaseline:
    def test_model_uses_only_cycles(self, spec):
        campaign = SamplingCampaign(
            spec, events=CPU_LOAD_EVENTS,
            workloads=[CpuStress(utilization=u, threads=4)
                       for u in (0.25, 0.5, 1.0)],
            frequencies_hz=[spec.max_frequency_hz],
            window_s=0.5, windows_per_run=3, settle_s=0.2, quantum_s=0.05)
        report = learn_cpu_load_model(spec, campaign=campaign,
                                      idle_duration_s=3.0)
        assert report.model.events == (CYCLES,)

    def test_load_model_tracks_utilization(self, spec):
        campaign = SamplingCampaign(
            spec, events=CPU_LOAD_EVENTS,
            workloads=[CpuStress(utilization=u, threads=4)
                       for u in (0.25, 0.5, 1.0)],
            frequencies_hz=[spec.max_frequency_hz],
            window_s=0.5, windows_per_run=3, settle_s=0.2, quantum_s=0.05)
        report = learn_cpu_load_model(spec, campaign=campaign,
                                      idle_duration_s=3.0)
        low = report.model.predict_total(spec.max_frequency_hz,
                                         {CYCLES: 1e9})
        high = report.model.predict_total(spec.max_frequency_hz,
                                          {CYCLES: 1e10})
        assert high > low > report.model.idle_w


class TestBertranBaseline:
    def test_event_set_is_decomposable(self):
        assert len(BERTRAN_EVENTS) >= 6

    def test_campaign_uses_steady_state_settle(self, spec):
        campaign = bertran_campaign(spec)
        assert campaign.settle_s >= 60.0

    def test_learns_on_simple_architecture(self):
        spec = intel_core2duo_e6600()
        campaign = SamplingCampaign(
            spec, events=BERTRAN_EVENTS,
            workloads=[CpuStress(utilization=1.0, threads=2),
                       MemoryStress(utilization=1.0, threads=2),
                       CpuStress(utilization=0.5, threads=1),
                       MemoryStress(utilization=0.5, threads=1,
                                    working_set_bytes=2 * 1024 ** 2)],
            frequencies_hz=[spec.max_frequency_hz],
            window_s=0.5, windows_per_run=4, settle_s=1.0, quantum_s=0.05)
        report = learn_bertran_model(spec, campaign=campaign,
                                     idle_duration_s=3.0)
        assert set(report.model.events) == set(BERTRAN_EVENTS)


class TestHappyBaseline:
    def test_rejects_non_smt_spec(self):
        with pytest.raises(ConfigurationError):
            learn_happy_model(intel_core2duo_e6600())

    def test_learns_negative_overlap_weight(self, spec):
        report = learn_happy_model(
            spec, frequencies_hz=[spec.max_frequency_hz],
            duration_per_run_s=3.0, settle_s=0.5, window_s=0.5,
            quantum_s=0.05, idle_duration_s=3.0)
        formula = report.model.formula(spec.max_frequency_hz)
        assert formula.coefficients[SMT_OVERLAP] < 0.0

    def test_model_includes_overlap_event(self, spec):
        report = learn_happy_model(
            spec, frequencies_hz=[spec.max_frequency_hz],
            duration_per_run_s=3.0, settle_s=0.5, window_s=0.5,
            quantum_s=0.05, idle_duration_s=3.0)
        assert SMT_OVERLAP in report.model.events


class TestRaplBaseline:
    def test_rejects_amd(self):
        import dataclasses
        spec = dataclasses.replace(intel_i3_2120(), vendor="AMD")
        kernel = SimKernel(spec, quantum_s=0.05)
        with pytest.raises(PowerMeterError):
            RaplEstimator(kernel.machine, rest_of_system_w=30.0)

    def test_rest_of_system_calibration(self, spec):
        rest = calibrate_rest_of_system(spec, duration_s=5.0)
        # Nearly all idle power is outside the package.
        assert 25.0 < rest < 33.0

    def test_estimates_track_wall_power(self, spec):
        kernel = SimKernel(spec, quantum_s=0.05)
        rest = 31.0
        estimator = RaplEstimator(kernel.machine, rest_of_system_w=rest)
        kernel.spawn(CpuStress(duration_s=100, threads=4))
        kernel.run(5.0)
        estimate = estimator.estimate_w()
        truth = kernel.machine.last_record.wall_power_w
        assert estimate == pytest.approx(truth, rel=0.1)
