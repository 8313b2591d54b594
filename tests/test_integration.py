"""Integration tests: whole-pipeline scenarios across packages.

These run real (but reduced-scale) versions of the paper's flows:
learning on a small grid, live monitoring with estimation-vs-meter
comparison, scheduler energy effects and the RAPL comparison.
"""

import pytest

from repro.analysis.traces import PowerTrace, compare
from repro.core.monitor import PowerAPI
from repro.core.reporters import InMemoryReporter
from repro.core.sampling import SamplingCampaign, learn_power_model
from repro.core.selection import rank_counters
from repro.os.governor import OndemandGovernor, PowersaveGovernor
from repro.os.kernel import SimKernel
from repro.os.scheduler import PackScheduler, SpreadScheduler
from repro.powermeter.powerspy import PowerSpy
from repro.simcpu.counters import GENERIC_TRIO
from repro.simcpu.spec import intel_i3_2120
from repro.workloads.specjbb import SpecJbbWorkload
from repro.workloads.stress import CpuStress, MemoryStress


@pytest.fixture(scope="module")
def spec():
    return intel_i3_2120()


@pytest.fixture(scope="module")
def learned(spec):
    """A model learned on a small paper-style campaign."""
    campaign = SamplingCampaign(
        spec,
        workloads=[CpuStress(utilization=1.0, threads=4),
                   MemoryStress(utilization=1.0, threads=4,
                                working_set_bytes=64 * 1024 ** 2),
                   MemoryStress(utilization=1.0, threads=4,
                                working_set_bytes=2 * 1024 ** 2)],
        frequencies_hz=[spec.min_frequency_hz, spec.max_frequency_hz],
        window_s=1.0, windows_per_run=3, settle_s=0.5, quantum_s=0.05)
    return learn_power_model(spec, campaign=campaign, idle_duration_s=8.0)


class TestLearningPipeline:
    def test_idle_constant_close_to_paper(self, learned):
        assert learned.model.idle_w == pytest.approx(31.48, rel=0.02)

    def test_coefficients_same_order_as_published(self, learned, spec):
        formula = learned.model.formula(spec.max_frequency_hz)
        # Published: 2.22e-9, 2.48e-8, 1.87e-7 — ours must land within
        # an order of magnitude on the simulated silicon.
        assert formula.coefficients["instructions"] == pytest.approx(
            2.22e-9, rel=4.0)
        assert formula.coefficients["cache-misses"] == pytest.approx(
            1.87e-7, rel=4.0)

    def test_training_fit_is_good(self, learned):
        for result in learned.regressions.values():
            assert result.r2 > 0.6


class TestMonitoringPipeline:
    def test_specjbb_estimates_follow_measurements(self, spec, learned):
        kernel = SimKernel(spec, quantum_s=0.05)
        meter = PowerSpy(kernel.machine, sample_rate_hz=1.0, seed=101)
        meter.connect()
        pid = kernel.spawn(SpecJbbWorkload(duration_s=120, threads=4),
                           name="specjbb")
        api = PowerAPI(kernel, learned.model, period_s=1.0)
        handle = api.monitor(pid).every(1.0).to(InMemoryReporter())
        api.run(120)

        measured = PowerTrace.from_samples("powerspy", meter.samples)
        estimated = PowerTrace.from_series(
            "powerapi", handle.reporter.time_series(),
            handle.reporter.total_series())
        summary = compare(measured, estimated)
        # The paper reports a 15 % median error; allow a generous band
        # around that shape for the shortened trace.
        assert summary["median_ape"] < 0.30
        assert summary["aligned"] >= 100

    def test_estimates_track_load_direction(self, spec, learned):
        from repro.os.process import Demand
        from repro.workloads.base import Phase, PhasedWorkload, cpu_demand

        kernel = SimKernel(spec, quantum_s=0.05)
        pid_low = kernel.spawn(CpuStress(utilization=0.3, duration_s=300),
                               name="low")
        # Idle for 5 s, then three fully busy threads for the remainder.
        ramp = PhasedWorkload([
            Phase(5.0, Demand(utilization=0.0)),
            Phase(300.0, cpu_demand(utilization=1.0, threads=3)),
        ], name="ramp")
        pid_ramp = kernel.spawn(ramp, name="ramp")
        api = PowerAPI(kernel, learned.model, period_s=1.0)
        handle = (api.monitor(pid_low, pid_ramp).every(1.0)
                  .to(InMemoryReporter()))
        api.run(10)
        series = handle.reporter.total_series()
        quiet = max(series[:4])
        busy = min(series[6:])
        assert busy > quiet  # machine estimate reflects the new load


class TestSchedulerEnergy:
    def test_pack_scheduler_saves_energy_at_low_load(self, spec):
        def run_with(scheduler_factory):
            kernel = SimKernel(spec, scheduler_factory=scheduler_factory,
                               governor_factory=PowersaveGovernor,
                               quantum_s=0.05)
            for _ in range(2):
                kernel.spawn(CpuStress(utilization=1.0, duration_s=300))
            kernel.run(10.0)
            return kernel.machine.energy_j

        packed = run_with(PackScheduler)
        spread = run_with(SpreadScheduler)
        assert packed < spread

    def test_powersave_cheaper_but_slower_than_performance(self, spec):
        from repro.os.governor import PerformanceGovernor

        def run_with(governor_factory):
            kernel = SimKernel(spec, governor_factory=governor_factory,
                               quantum_s=0.05)
            pid = kernel.spawn(CpuStress(utilization=1.0, duration_s=300))
            kernel.run(10.0)
            instructions = kernel.machine.counters.read("instructions")
            return kernel.machine.energy_j, instructions

        slow_energy, slow_work = run_with(PowersaveGovernor)
        fast_energy, fast_work = run_with(PerformanceGovernor)
        assert slow_energy < fast_energy
        assert slow_work < fast_work


class TestSelectionIntegration:
    def test_trio_ranks_high_on_real_campaign(self, spec):
        campaign = SamplingCampaign(
            spec,
            events=list(GENERIC_TRIO) + ["cycles", "branches"],
            workloads=[CpuStress(utilization=u, threads=4)
                       for u in (0.25, 0.5, 1.0)]
            + [MemoryStress(utilization=1.0, threads=4,
                            working_set_bytes=ws)
               for ws in (2 * 1024 ** 2, 64 * 1024 ** 2)],
            frequencies_hz=[spec.max_frequency_hz],
            window_s=0.5, windows_per_run=3, settle_s=0.25, quantum_s=0.05)
        dataset = campaign.run()
        ranking = rank_counters(dataset, method="spearman")
        top = ranking.top(3)
        # Counters tracking activity must dominate; branches must not win.
        assert "instructions" in top or "cycles" in top

    def test_multiplexed_wide_campaign_still_learns(self, spec):
        # 8 events on 4 PMU slots: multiplexing engaged end-to-end.
        from repro.baselines.bertran import BERTRAN_EVENTS
        campaign = SamplingCampaign(
            spec, events=BERTRAN_EVENTS,
            workloads=[CpuStress(utilization=1.0, threads=4),
                       MemoryStress(utilization=1.0, threads=4),
                       CpuStress(utilization=0.5, threads=2),
                       MemoryStress(utilization=0.5, threads=1)],
            frequencies_hz=[spec.max_frequency_hz],
            window_s=1.0, windows_per_run=3, settle_s=0.5, quantum_s=0.05)
        report = learn_power_model(spec, events=BERTRAN_EVENTS,
                                   campaign=campaign, idle_duration_s=5.0)
        assert report.regressions[spec.max_frequency_hz].r2 > 0.5


class TestRaplIntegration:
    def test_rapl_estimator_tracks_specjbb(self, spec):
        from repro.baselines.raplmodel import RaplEstimator
        kernel = SimKernel(spec, quantum_s=0.05)
        estimator = RaplEstimator(kernel.machine, rest_of_system_w=31.0)
        meter = PowerSpy(kernel.machine, sample_rate_hz=1.0, seed=5)
        meter.connect()
        kernel.spawn(SpecJbbWorkload(duration_s=60, threads=4))
        estimates = []
        for _ in range(30):
            kernel.run(1.0)
            estimates.append(estimator.estimate_w())
        measured = [s.power_w for s in meter.samples[:30]]
        from repro.core.metrics import median_ape
        # RAPL sees the package directly: very accurate on Intel.
        assert median_ape(measured, estimates) < 0.05
