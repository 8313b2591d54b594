"""Differential tests of the meter folds against per-tick observers.

``PowerMeter`` (so PowerSpy and ACPI) and ``RaplInterface`` take each
engine replay in one fold call; ``TrueProcessPower`` states its cells
and the engine adds them.  The reference here is the per-tick observer
each one used to be: its
``_on_tick`` body, applied to an unconnected twin and fed one record per
tick by :class:`ReferenceTickLoop`, which derives leakage through
``thermal.step``.  Sample lists, RAPL registers and oracle energies must
match with exact ``==``.

Two energy-conservation laws (component energies sum to the measured
total) check the folds against the machine's own ledger, so a fold that
drops or repeats a tick fails even where it agrees with itself.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MeterConnectionError
from repro.os.governor import OndemandGovernor
from repro.os.kernel import SimKernel
from repro.powermeter.acpi import AcpiBatteryMeter
from repro.powermeter.base import PowerMeter, PowerSample
from repro.powermeter.powerspy import PowerSpy
from repro.powermeter.rapl import (ENERGY_UNIT_J, MSR_DRAM_ENERGY_STATUS,
                                   MSR_PKG_ENERGY_STATUS,
                                   MSR_PP0_ENERGY_STATUS,
                                   MSR_RAPL_POWER_UNIT, RaplDomain,
                                   RaplInterface, RaplPowerMeter)
from repro.simcpu.attribution import TrueProcessPower, attribute_power
from repro.simcpu.engine import FOLD_CHUNK_ROWS
from repro.simcpu.machine import Machine, TickRecord
from repro.simcpu.spec import intel_i3_2120
from repro.workloads.mix import RandomWorkload
from repro.workloads.specjbb import SpecJbbWorkload
from tests.strategies import assignment_lists, dts
from tests.test_engine_equivalence import ReferenceTickLoop

SPEC = intel_i3_2120()
MSRS = (MSR_RAPL_POWER_UNIT, MSR_PKG_ENERGY_STATUS, MSR_PP0_ENERGY_STATUS,
        MSR_DRAM_ENERGY_STATUS)


# -- the per-tick observers the folds replaced --------------------------------

def reference_meter_tick(meter, record):
    """``PowerMeter._on_tick``: integrate wall power, close full intervals."""
    meter._interval_energy_j += record.wall_power_w * record.dt_s
    meter._interval_elapsed_s += record.dt_s
    while meter._interval_elapsed_s >= meter.sample_interval_s - 1e-12:
        average = meter._interval_energy_j / meter._interval_elapsed_s
        meter._samples.append(PowerSample(
            time_s=record.time_s,
            power_w=meter._postprocess(average),
        ))
        meter._interval_energy_j = 0.0
        meter._interval_elapsed_s = 0.0


def reference_rapl_tick(rapl, record):
    """``RaplInterface._on_tick``: package, PP0 and DRAM energies."""
    package_w = (record.power.cores + record.power.uncore
                 + record.power.leakage + record.power.wakeup)
    rapl._energy_j[RaplDomain.PACKAGE] += package_w * record.dt_s
    rapl._energy_j[RaplDomain.PP0] += (
        (record.power.cores + record.power.wakeup) * record.dt_s)
    rapl._energy_j[RaplDomain.DRAM] += record.power.dram * record.dt_s


def reference_oracle_tick(oracle, record):
    """``TrueProcessPower._on_tick``: attribute, integrate per pid."""
    shares = attribute_power(record.power, record.events,
                             record.cpu_busy, oracle._core_groups)
    for pid, watts in shares.items():
        oracle._energy_j[pid] += watts * record.dt_s
    oracle._duration_s += record.dt_s


def reference_record(reference, assignments, dt_s):
    """One :class:`ReferenceTickLoop` tick as the record observers saw.

    The reference machine's clock is kept at the loop's, so readers of
    ``machine.time_s`` (meter dropouts, ``RaplPowerMeter``) see it.
    """
    machine = reference.machine
    cpu_busy = machine._validate_occupancy(assignments)
    core_freqs = machine._effective_frequencies(cpu_busy)
    breakdown, events = reference.step(assignments, dt_s)
    machine._time_s = reference.time_s
    return TickRecord(time_s=reference.time_s, dt_s=dt_s, power=breakdown,
                      events=events, cpu_busy=cpu_busy,
                      core_frequencies_hz=core_freqs)


# -- strategies ----------------------------------------------------------------

#: One-tick replays, short ones, and replays long enough to hold several
#: samples.
tick_counts = st.one_of(st.just(1), st.integers(2, 12), st.integers(40, 120))


@st.composite
def segments(draw):
    return draw(st.lists(
        st.tuples(assignment_lists(SPEC), tick_counts), min_size=1,
        max_size=4))


@st.composite
def meter_setups(draw):
    """Sample intervals in ticks (fractional: intervals end mid-replay),
    PowerSpy noise and seed, and an optional dropout after a segment."""
    return dict(
        spy_ticks=draw(st.floats(0.6, 45.0)),
        acpi_ticks=draw(st.floats(0.6, 45.0)),
        noise=draw(st.sampled_from([0.0, 0.008, 0.05])),
        seed=draw(st.integers(0, 2 ** 16)),
        dropout=draw(st.one_of(st.none(), st.tuples(
            st.integers(0, 3), st.sampled_from([0.0, 0.002, 0.05, 0.5])))),
    )


class Rig:
    """Every meter attached to one machine, plus the reference twins."""

    def __init__(self, dt, setup):
        self.dt = dt
        self.machine = Machine(SPEC)
        self.reference = ReferenceTickLoop(SPEC)

        def meters(machine):
            return (PowerSpy(machine, 1.0 / (dt * setup["spy_ticks"]),
                             noise_fraction=setup["noise"],
                             seed=setup["seed"]),
                    AcpiBatteryMeter(machine,
                                     1.0 / (dt * setup["acpi_ticks"])),
                    PowerMeter(machine, 1.0 / (dt * setup["spy_ticks"])))

        self.meters = meters(self.machine)
        self.reference_meters = meters(self.reference.machine)
        for meter in self.meters:
            meter.connect()
        self.rapl = RaplInterface(self.machine)
        self.reference_rapl = RaplInterface(self.reference.machine)
        self.rapl_power = RaplPowerMeter(self.rapl)
        self.reference_rapl_power = RaplPowerMeter(self.reference_rapl)
        self.oracle = TrueProcessPower(self.machine)
        self.reference_oracle = TrueProcessPower(self.reference.machine)
        self.averages, self.reference_averages = [], []
        self.energy_at = {}  # tick end time -> reference machine energy

    def run(self, assignments, n_ticks):
        # Reconnecting is refused while a dropout holds the link down.
        for meter in self.meters:
            if not meter.connected:
                try:
                    meter.connect()
                except MeterConnectionError:
                    pass
        self.machine.run_batch(assignments, n_ticks, self.dt)
        for _ in range(n_ticks):
            record = reference_record(self.reference, assignments, self.dt)
            self.energy_at[record.time_s] = self.reference.energy_j
            for meter, twin in zip(self.meters, self.reference_meters):
                if meter.connected:
                    reference_meter_tick(twin, record)
            reference_rapl_tick(self.reference_rapl, record)
            reference_oracle_tick(self.reference_oracle, record)
        self.averages.append(self.rapl_power.average_power_w())
        self.reference_averages.append(
            self.reference_rapl_power.average_power_w())

    def drop(self, down_s):
        for meter, twin in zip(self.meters, self.reference_meters):
            meter.inject_dropout(down_s)
            twin.inject_dropout(down_s)


def _drive(schedule, dt, setup):
    rig = Rig(dt, setup)
    for index, (assignments, n_ticks) in enumerate(schedule):
        rig.run(assignments, n_ticks)
        if setup["dropout"] is not None and setup["dropout"][0] == index:
            rig.drop(setup["dropout"][1])
    return rig


def _assert_meters_match(rig):
    for meter, twin in zip(rig.meters, rig.reference_meters):
        assert meter.samples == twin.samples
    for address in MSRS:
        assert rig.rapl.read_msr(address) == rig.reference_rapl.read_msr(
            address)
    assert rig.rapl._energy_j == rig.reference_rapl._energy_j
    assert rig.averages == rig.reference_averages
    assert rig.oracle.pids() == rig.reference_oracle.pids()
    for pid in rig.oracle.pids():
        assert rig.oracle.energy_j(pid) == rig.reference_oracle.energy_j(pid)
    assert rig.oracle.duration_s == rig.reference_oracle.duration_s


class TestFoldsMatchTickObservers:
    @given(schedule=segments(), dt=dts, setup=meter_setups())
    @settings(max_examples=60, deadline=None)
    def test_folds_match_reference_observers(self, schedule, dt, setup):
        rig = _drive(schedule, dt, setup)
        assert rig.machine.time_s == rig.reference.time_s
        assert rig.machine.energy_j == rig.reference.energy_j
        _assert_meters_match(rig)

    @given(dt=dts, n_ticks=st.integers(60, 200), ticks=st.floats(2.0, 9.0))
    @settings(max_examples=20, deadline=None)
    def test_several_samples_in_one_replay(self, dt, n_ticks, ticks):
        rig = _drive([([], n_ticks)], dt, dict(
            spy_ticks=ticks, acpi_ticks=ticks, noise=0.008, seed=7,
            dropout=None))
        assert len(rig.meters[0].samples) >= 6
        _assert_meters_match(rig)

    @given(assignments=assignment_lists(SPEC), dt=dts,
           n_ticks=st.integers(2, 2 * FOLD_CHUNK_ROWS + 5))
    @settings(max_examples=8, deadline=None)
    def test_rapl_and_oracle_fold_a_multi_tick_segment(self, assignments,
                                                      dt, n_ticks):
        """RAPL's PP0 and DRAM energies advance in its per-tick leak
        loop, and every oracle pid's energy and the duration are cells
        the engine folds over as many chunks as the segment needs; their
        bits match the per-tick observers'."""
        rig = _drive([(assignments, n_ticks)], dt, dict(
            spy_ticks=3.0, acpi_ticks=3.0, noise=0.0, seed=1,
            dropout=None))
        for domain in (RaplDomain.PP0, RaplDomain.DRAM):
            assert (rig.rapl._energy_j[domain].hex()
                    == rig.reference_rapl._energy_j[domain].hex())
        assert rig.oracle.pids() == rig.reference_oracle.pids()
        assert ([rig.oracle.energy_j(pid).hex() for pid in rig.oracle.pids()]
                == [rig.reference_oracle.energy_j(pid).hex()
                    for pid in rig.oracle.pids()])
        assert (rig.oracle.duration_s.hex()
                == rig.reference_oracle.duration_s.hex())
        _assert_meters_match(rig)

    @pytest.mark.parametrize("quantum_s", [0.001, 0.01])
    def test_kernel_run_matches_ticks(self, quantum_s):
        n_quanta = 2400

        def run(one_quantum):
            kernel = SimKernel(SPEC, governor_factory=OndemandGovernor,
                               quantum_s=quantum_s)
            kernel.spawn(SpecJbbWorkload(duration_s=20.0, threads=2))
            kernel.spawn(RandomWorkload(seed=5, duration_s=20.0))
            machine = kernel.machine
            spy = PowerSpy(machine, sample_rate_hz=7.0, seed=11)
            spy.connect()
            rapl = RaplInterface(machine)
            oracle = TrueProcessPower(machine)
            if one_quantum:
                for _ in range(n_quanta):
                    kernel.tick()
            else:
                kernel.run(n_quanta * quantum_s)
            return (spy.samples, [rapl.read_msr(msr) for msr in MSRS],
                    dict(rapl._energy_j), dict(oracle._energy_j),
                    oracle.duration_s, machine.energy_j, machine.time_s)

        spanned, ticked = run(one_quantum=False), run(one_quantum=True)
        assert spanned[0]  # the meter sampled
        assert spanned == ticked


class TestEnergyConservation:
    """Shahid et al.'s law: component energies sum to the measured total."""

    @given(schedule=segments(), dt=dts, setup=meter_setups())
    @settings(max_examples=40, deadline=None)
    def test_rapl_domains_plus_idle_equal_machine_energy(self, schedule, dt,
                                                         setup):
        rig = _drive(schedule, dt, setup)
        machine = rig.machine
        measured = (rig.rapl.energy_j(RaplDomain.PACKAGE)
                    + rig.rapl.energy_j(RaplDomain.DRAM)
                    + SPEC.power.idle_w * machine.time_s)
        # Each MSR read truncates its domain to the 2^-16 J unit.
        assert measured == pytest.approx(
            machine.energy_j, rel=1e-9, abs=2 * ENERGY_UNIT_J)

    @given(schedule=segments(), dt=dts, setup=meter_setups())
    @settings(max_examples=40, deadline=None)
    def test_noise_free_samples_integrate_to_machine_energy(self, schedule,
                                                            dt, setup):
        rig = _drive(schedule, dt, dict(setup, dropout=None))
        samples = rig.meters[2].samples  # the plain PowerMeter
        integrated, last_s = 0.0, 0.0
        for sample in samples:
            integrated += sample.power_w * (sample.time_s - last_s)
            last_s = sample.time_s
        expected = rig.energy_at[last_s] if samples else 0.0
        assert integrated == pytest.approx(expected, rel=1e-9)
