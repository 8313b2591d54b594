"""Unit tests for the sysfs view and the diurnal web-server workload."""

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.os.kernel import SimKernel
from repro.os.sysfs import SysFs
from repro.simcpu.machine import Machine
from repro.simcpu.spec import intel_i3_2120
from repro.units import ghz
from repro.workloads.stress import CpuStress
from repro.workloads.webserver import WebServerWorkload


@pytest.fixture
def machine():
    return Machine(intel_i3_2120())


class TestSysFsCpufreq:
    def test_available_frequencies_khz(self, machine):
        sysfs = SysFs(machine)
        listed = sysfs.scaling_available_frequencies(0).split()
        assert listed[0] == str(ghz(1.6) // 1000)
        assert listed[-1] == str(ghz(3.3) // 1000)

    def test_cur_freq_before_any_step(self, machine):
        sysfs = SysFs(machine)
        assert sysfs.scaling_cur_freq(0) == str(ghz(1.6) // 1000)

    def test_cur_freq_tracks_granted(self, machine):
        machine.set_frequency(ghz(3.3))
        machine.step([], 0.01)
        assert SysFs(machine).scaling_cur_freq(0) == str(ghz(3.3) // 1000)

    def test_min_max(self, machine):
        sysfs = SysFs(machine)
        assert sysfs.scaling_min_freq(0) == str(ghz(1.6) // 1000)
        assert sysfs.scaling_max_freq(0) == str(ghz(3.3) // 1000)

    def test_unknown_cpu_rejected(self, machine):
        with pytest.raises(TopologyError):
            SysFs(machine).scaling_cur_freq(99)


class TestSysFsCpuidleAndThermal:
    def test_residencies_accumulate(self, machine):
        machine.run([], 0.5, dt_s=0.01)
        residency = SysFs(machine).cpuidle_residency_us(0)
        assert residency["C6"] > 0

    def test_state_names(self, machine):
        assert SysFs(machine).cpuidle_state_names(0) == [
            "C0", "C1", "C3", "C6"]

    def test_thermal_zone_warms_under_load(self, machine):
        from repro.simcpu.caches import MemoryProfile
        from repro.simcpu.machine import ThreadAssignment
        from repro.simcpu.pipeline import InstructionMix

        sysfs = SysFs(machine)
        cold = int(sysfs.thermal_zone_temp())
        machine.set_frequency(ghz(3.3))
        assignment = ThreadAssignment(
            pid=1, cpu_id=0, busy_fraction=1.0, mix=InstructionMix(),
            memory=MemoryProfile())
        machine.run([assignment], 30.0, dt_s=0.1)
        hot = int(sysfs.thermal_zone_temp())
        assert hot > cold + 1000  # more than one degree (millidegrees)


class TestSysFsPaths:
    def test_path_reads(self, machine):
        sysfs = SysFs(machine)
        assert sysfs.read("cpu/online") == "0-3"
        assert sysfs.read("cpu/cpu0/cpufreq/scaling_min_freq") == str(
            ghz(1.6) // 1000)
        assert sysfs.read("cpu/cpu0/topology/thread_siblings_list") == "0,2"
        assert sysfs.read("thermal/thermal_zone0/temp").isdigit()

    def test_unknown_path_rejected(self, machine):
        with pytest.raises(ConfigurationError):
            SysFs(machine).read("block/sda/queue/scheduler")

    def test_malformed_cpu_path_rejected(self, machine):
        with pytest.raises(ConfigurationError):
            SysFs(machine).read("cpu/cpuX/cpufreq/scaling_cur_freq")


class TestWebServerWorkload:
    def test_diurnal_cycle_shape(self):
        workload = WebServerWorkload(duration_s=240, day_length_s=240,
                                     seed=1)
        night = workload.diurnal_level(0.0)
        noon = workload.diurnal_level(120.0)
        assert night == pytest.approx(workload.floor_utilization, abs=0.01)
        assert noon == pytest.approx(workload.peak_utilization, abs=0.01)

    def test_demand_bounded(self):
        workload = WebServerWorkload(duration_s=100, seed=2)
        for t in range(100):
            demand = workload.demand(float(t))
            assert workload.floor_utilization <= demand.utilization <= 1.0

    def test_finishes(self):
        workload = WebServerWorkload(duration_s=50)
        assert workload.demand(50.0) is None
        assert workload.total_duration_s() == 50.0

    def test_spikes_hit_peak(self):
        workload = WebServerWorkload(duration_s=240, day_length_s=240,
                                     spike_rate_per_day=20, seed=3)
        spiking = [t / 2 for t in range(480) if workload.in_spike(t / 2)]
        assert spiking
        # During a night-time spike, demand jumps to ~peak.
        night_spikes = [t for t in spiking
                        if workload.diurnal_level(t) < 0.3]
        if night_spikes:
            demand = workload.demand(night_spikes[0])
            assert demand.utilization > 0.5

    def test_deterministic(self):
        a = WebServerWorkload(duration_s=100, seed=5)
        b = WebServerWorkload(duration_s=100, seed=5)
        assert ([a.demand(t).utilization for t in range(0, 100, 7)]
                == [b.demand(t).utilization for t in range(0, 100, 7)])

    def test_rejects_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            WebServerWorkload(peak_utilization=0.5, floor_utilization=0.6)

    def test_runs_under_kernel(self):
        kernel = SimKernel(intel_i3_2120(), quantum_s=0.05)
        kernel.spawn(WebServerWorkload(duration_s=100, seed=6))
        kernel.run(5.0)
        assert kernel.procfs.machine_load() > 0
