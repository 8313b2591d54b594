"""Unit tests for repro.units."""

import math

import pytest

from repro import units
from repro.errors import ConfigurationError


class TestFrequencyHelpers:
    def test_khz(self):
        assert units.khz(1) == 1_000

    def test_mhz(self):
        assert units.mhz(1600) == 1_600_000_000

    def test_ghz(self):
        assert units.ghz(3.3) == 3_300_000_000

    def test_ghz_rounds_to_int(self):
        assert isinstance(units.ghz(1.7), int)

    def test_to_ghz_roundtrip(self):
        assert units.to_ghz(units.ghz(2.4)) == pytest.approx(2.4)

    def test_to_mhz(self):
        assert units.to_mhz(units.mhz(800)) == pytest.approx(800)


class TestValidation:
    def test_watts_accepts_zero(self):
        assert units.watts(0.0) == 0.0

    def test_watts_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            units.watts(-1.0)

    def test_watts_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            units.watts(float("nan"))

    def test_watts_rejects_inf(self):
        with pytest.raises(ConfigurationError):
            units.watts(math.inf)

    def test_joules_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            units.joules(-0.1)

    def test_seconds_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            units.seconds(-5)


class TestEnergyConversions:
    def test_energy(self):
        assert units.energy(10.0, 2.0) == 20.0

    def test_average_power(self):
        assert units.average_power(20.0, 2.0) == 10.0

    def test_average_power_rejects_zero_duration(self):
        with pytest.raises(ConfigurationError):
            units.average_power(20.0, 0.0)

    def test_energy_power_roundtrip(self):
        power, duration = 31.48, 7.5
        assert units.average_power(units.energy(power, duration),
                                   duration) == pytest.approx(power)


class TestByteSizes:
    def test_kib(self):
        assert units.kib(64) == 65536

    def test_mib(self):
        assert units.mib(3) == 3 * 1024 * 1024


class TestFormatting:
    def test_format_frequency_ghz(self):
        assert units.format_frequency(units.ghz(3.3)) == "3.30 GHz"

    def test_format_frequency_mhz(self):
        assert units.format_frequency(units.mhz(800)) == "800 MHz"

    def test_format_frequency_khz(self):
        assert units.format_frequency(units.khz(32)) == "32 kHz"

    def test_format_frequency_hz(self):
        assert units.format_frequency(50) == "50 Hz"

    def test_format_power(self):
        assert units.format_power(31.48) == "31.48 W"

    def test_format_bytes_kb(self):
        assert units.format_bytes(units.kib(64)) == "64 KB"

    def test_format_bytes_mb(self):
        assert units.format_bytes(units.mib(3)) == "3 MB"

    def test_format_bytes_gb(self):
        assert units.format_bytes(2 * 1024 ** 3) == "2 GB"

    def test_format_bytes_plain(self):
        assert units.format_bytes(100) == "100 B"


class TestLeftSum:
    """Float sums that round alike on every interpreter.

    From Python 3.12 the builtin ``sum()`` compensates rounding:
    ``sum([1.0, 1e-16, 1e-16])`` is 1.0000000000000002 there, where
    adding left to right (and ``sum()`` up to 3.11) gives 1.0.
    """

    TRIPLE = (1.0, 1e-16, 1e-16)

    def test_adds_left_to_right_from_zero(self):
        assert units.left_sum(self.TRIPLE) == 1.0
        assert math.fsum(self.TRIPLE) != 1.0  # the inputs tell them apart
        assert units.left_sum(iter(self.TRIPLE[::-1])) == math.fsum(
            self.TRIPLE)
        assert units.left_sum([]) == 0.0
        assert isinstance(units.left_sum([]), float)

    def test_formula_prediction(self):
        from repro.core.model import FrequencyFormula
        formula = FrequencyFormula(
            frequency_hz=1_000_000_000,
            coefficients=dict(zip(("a", "b", "c"), self.TRIPLE)))
        assert formula.predict({"a": 1.0, "b": 1.0, "c": 1.0}) == 1.0

    def test_aggregated_active_power(self):
        from repro.core.messages import AggregatedPowerReport
        report = AggregatedPowerReport(
            time_s=1.0, period_s=1.0,
            by_pid=dict(zip((1, 2, 3), self.TRIPLE)), idle_w=0.0,
            formula="f")
        assert report.active_w == 1.0
        assert report.total_w == 1.0
