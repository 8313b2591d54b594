"""Unit tests for repro.simcpu.frequency (DVFS and turbo arbitration)."""

import pytest

from repro.errors import FrequencyError
from repro.simcpu.frequency import FrequencyDomain
from repro.simcpu.spec import intel_i3_2120, intel_xeon_smt
from repro.units import ghz


class TestTargets:
    @pytest.fixture
    def domain(self):
        return FrequencyDomain(intel_i3_2120())

    def test_defaults_to_minimum(self, domain):
        assert domain.target(0, 0) == ghz(1.6)

    def test_set_target(self, domain):
        domain.set_target(0, 1, ghz(2.4))
        assert domain.target(0, 1) == ghz(2.4)
        assert domain.target(0, 0) == ghz(1.6)

    def test_set_all_targets(self, domain):
        domain.set_all_targets(ghz(3.3))
        assert domain.target(0, 0) == ghz(3.3)
        assert domain.target(0, 1) == ghz(3.3)

    def test_rejects_unsupported_frequency(self, domain):
        with pytest.raises(FrequencyError):
            domain.set_target(0, 0, ghz(5.0))

    def test_rejects_unknown_core(self, domain):
        with pytest.raises(FrequencyError):
            domain.set_target(0, 7, ghz(1.6))

    def test_target_unknown_core(self, domain):
        with pytest.raises(FrequencyError):
            domain.target(2, 0)


class TestCeiling:
    def test_targets_never_exceed_ceiling(self):
        spec = intel_xeon_smt()
        ladder = spec.all_frequencies_hz
        cores = [(package_id, core_id)
                 for package_id in range(spec.packages)
                 for core_id in range(spec.cores_per_package)]
        for ceiling in ladder:
            for request in ladder:
                domain = FrequencyDomain(spec)
                domain.ceiling_hz = ceiling
                domain.set_target(0, 0, request)
                assert domain.target(0, 0) == min(request, ceiling)
                domain.set_all_targets(request)
                assert all(domain.target(*core) == min(request, ceiling)
                           for core in cores)

    def test_request_validated_before_ceiling(self):
        domain = FrequencyDomain(intel_i3_2120())
        domain.ceiling_hz = ghz(1.6)
        with pytest.raises(FrequencyError):
            domain.set_target(0, 0, ghz(5.0))
        with pytest.raises(FrequencyError):
            domain.set_all_targets(ghz(5.0))

    def test_ceiling_moves_no_target_until_next_request(self):
        domain = FrequencyDomain(intel_i3_2120())
        domain.set_all_targets(ghz(3.3))
        generation = domain.generation
        domain.ceiling_hz = ghz(1.6)
        assert domain.target(0, 0) == ghz(3.3)
        assert domain.generation == generation
        domain.set_all_targets(ghz(3.3))
        assert domain.target(0, 0) == ghz(1.6)
        assert domain.generation == generation + 1
        # Asking again for what the ceiling already grants is no change.
        domain.set_all_targets(ghz(3.3))
        domain.set_target(0, 1, ghz(3.3))
        assert domain.generation == generation + 1


class TestEffectiveFrequency:
    def test_sustained_granted_as_requested(self):
        domain = FrequencyDomain(intel_i3_2120())
        domain.set_target(0, 0, ghz(2.8))
        assert domain.effective(0, 0, active_cores_in_package=2) == ghz(2.8)

    def test_turbo_derates_with_active_cores(self):
        spec = intel_xeon_smt()
        domain = FrequencyDomain(spec)
        top_turbo = spec.turbo_frequencies_hz[-1]
        domain.set_all_targets(top_turbo)
        solo = domain.effective(0, 0, active_cores_in_package=1)
        loaded = domain.effective(0, 0, active_cores_in_package=4)
        assert solo == top_turbo
        assert loaded < solo
        assert loaded == spec.turbo_frequencies_hz[0]

    def test_turbo_never_below_lowest_bin(self):
        spec = intel_xeon_smt()
        domain = FrequencyDomain(spec)
        domain.set_all_targets(spec.turbo_frequencies_hz[0])
        granted = domain.effective(0, 0, active_cores_in_package=4)
        assert granted == spec.turbo_frequencies_hz[0]


class TestVoltageScaling:
    @pytest.fixture
    def domain(self):
        return FrequencyDomain(intel_i3_2120())

    def test_voltage_at_min(self, domain):
        assert domain.voltage(ghz(1.6)) == pytest.approx(FrequencyDomain.V_MIN)

    def test_voltage_at_max(self, domain):
        assert domain.voltage(ghz(3.3)) == pytest.approx(FrequencyDomain.V_MAX)

    def test_voltage_monotonic(self, domain):
        spec = intel_i3_2120()
        voltages = [domain.voltage(f) for f in spec.frequencies_hz]
        assert voltages == sorted(voltages)

    def test_turbo_voltage_above_max(self):
        spec = intel_xeon_smt()
        domain = FrequencyDomain(spec)
        assert (domain.voltage(spec.turbo_frequencies_hz[0])
                > FrequencyDomain.V_MAX)

    def test_voltage_rejects_unsupported(self, domain):
        with pytest.raises(FrequencyError):
            domain.voltage(ghz(4.0))


class TestDynamicScale:
    """dynamic_scale must be superlinear in frequency (f * V^2)."""

    @pytest.fixture
    def domain(self):
        return FrequencyDomain(intel_i3_2120())

    def test_unity_at_max(self, domain):
        assert domain.dynamic_scale(ghz(3.3)) == pytest.approx(1.0)

    def test_superlinear(self, domain):
        # Halving frequency must cut dynamic power by more than half.
        half = domain.dynamic_scale(ghz(1.6))
        assert half < 1.6 / 3.3

    def test_monotonic(self, domain):
        spec = intel_i3_2120()
        scales = [domain.dynamic_scale(f) for f in spec.frequencies_hz]
        assert scales == sorted(scales)

    def test_single_frequency_spec_degenerates(self):
        from repro.simcpu.spec import CacheSpec, CpuSpec, PowerEnvelope
        from repro.units import kib
        spec = CpuSpec(
            vendor="Intel", model="fixed 1", packages=1,
            cores_per_package=1, threads_per_core=1,
            frequencies_hz=(ghz(2.0),), turbo_frequencies_hz=(),
            caches=(CacheSpec(level=1, size_bytes=kib(32)),),
            power=PowerEnvelope(tdp_w=35, idle_w=20, core_active_w=8,
                                uncore_active_w=1, dram_w_per_gtps=10),
        )
        domain = FrequencyDomain(spec)
        assert domain.voltage(ghz(2.0)) == FrequencyDomain.V_MAX
        assert domain.dynamic_scale(ghz(2.0)) == pytest.approx(1.0)
