"""Simulated Intel RAPL (Running Average Power Limit).

RAPL is the architecture-dependent alternative the paper discusses: since
Sandy Bridge, Intel parts expose model-specific registers (MSRs) with
cumulative energy counters per power domain.  The simulation reproduces
the real interface quirks consumers must handle:

* energies are reported in units decoded from ``MSR_RAPL_POWER_UNIT``
  (default granularity 2^-16 J ≈ 15.3 µJ),
* counters are 32-bit and wrap around (a busy package wraps in under an
  hour),
* RAPL covers the *package* (cores + uncore) and DRAM — never the rest of
  the system, so it cannot substitute for a wall meter,
* the interface only exists on Intel parts — the portability limitation
  that motivates the paper's counter-based approach.

:class:`RaplInterface` is a machine *fold*.  Per tick the package domain
adds ``(((cores + uncore) + leak) + wakeup) * dt``, walking the replay's
leakage powers; PP0 and DRAM add their constant per-tick energy in the
same loop.  The energies end bit-identical to a tick-at-a-time
integration.
"""

from __future__ import annotations

import enum
from typing import Dict, Sequence

from repro.errors import PowerMeterError
from repro.simcpu.machine import Machine, TickRecord
from repro.units import left_sum

#: MSR addresses (Intel SDM).
MSR_RAPL_POWER_UNIT = 0x606
MSR_PKG_ENERGY_STATUS = 0x611
MSR_PP0_ENERGY_STATUS = 0x639
MSR_DRAM_ENERGY_STATUS = 0x619

#: Energy-status-unit field value 16 -> energies in 2^-16 J.
ENERGY_UNIT_FIELD = 16
ENERGY_UNIT_J = 2.0 ** -ENERGY_UNIT_FIELD

#: Counters are 32 bits wide.
COUNTER_WRAP = 2 ** 32


class RaplDomain(enum.Enum):
    """RAPL power domains we model."""

    PACKAGE = "package-0"
    PP0 = "core"
    DRAM = "dram"


_DOMAIN_MSR = {
    RaplDomain.PACKAGE: MSR_PKG_ENERGY_STATUS,
    RaplDomain.PP0: MSR_PP0_ENERGY_STATUS,
    RaplDomain.DRAM: MSR_DRAM_ENERGY_STATUS,
}


class RaplInterface:
    """MSR-level RAPL emulation over a machine's replays."""

    def __init__(self, machine: Machine) -> None:
        if machine.spec.vendor.lower() != "intel":
            raise PowerMeterError(
                f"RAPL is Intel-only; {machine.spec.vendor} unsupported")
        self.machine = machine
        self._energy_j: Dict[RaplDomain, float] = {
            domain: 0.0 for domain in RaplDomain}
        machine.add_fold(self._fold)

    def _fold(self, record: TickRecord, n_ticks: int,
              leaks: Sequence[float], start_s: float) -> None:
        # Package = cores + uncore; PP0 = cores only; DRAM separate.  The
        # idle baseline outside the CPU (fans, disk, board) is invisible to
        # RAPL, which is why it cannot replace a wall meter.
        power = record.power
        dt = record.dt_s
        active_w = power.cores + power.uncore
        wakeup_w = power.wakeup
        energy = self._energy_j
        package_j = energy[RaplDomain.PACKAGE]
        pp0_j = energy[RaplDomain.PP0]
        dram_j = energy[RaplDomain.DRAM]
        pp0_tick_j = (power.cores + power.wakeup) * dt
        dram_tick_j = power.dram * dt
        for leak in leaks:
            package_j += ((active_w + leak) + wakeup_w) * dt
            pp0_j += pp0_tick_j
            dram_j += dram_tick_j
        energy[RaplDomain.PACKAGE] = package_j
        energy[RaplDomain.PP0] = pp0_j
        energy[RaplDomain.DRAM] = dram_j

    # -- MSR interface -------------------------------------------------------

    def read_msr(self, address: int) -> int:
        """Raw 64-bit MSR read, as ``rdmsr`` would return."""
        if address == MSR_RAPL_POWER_UNIT:
            # Bits 12:8 hold the energy-status-unit exponent.
            return ENERGY_UNIT_FIELD << 8
        for domain, msr in _DOMAIN_MSR.items():
            if address == msr:
                ticks = int(self._energy_j[domain] / ENERGY_UNIT_J)
                return ticks % COUNTER_WRAP
        raise PowerMeterError(f"unknown MSR 0x{address:x}")

    # -- convenience -----------------------------------------------------

    def energy_unit_j(self) -> float:
        """Decode the energy unit from MSR_RAPL_POWER_UNIT."""
        exponent = (self.read_msr(MSR_RAPL_POWER_UNIT) >> 8) & 0x1F
        return 2.0 ** -exponent

    def energy_j(self, domain: RaplDomain) -> float:
        """Cumulative energy of *domain*, already unwrapped by the caller.

        This returns the value a single MSR read exposes — i.e. modulo the
        32-bit wrap.  Use :class:`RaplEnergyReader` for monotonic totals.
        """
        return self.read_msr(_DOMAIN_MSR[domain]) * self.energy_unit_j()


class RaplEnergyReader:
    """Wrap-correcting reader, like the kernel's powercap sysfs layer."""

    def __init__(self, rapl: RaplInterface, domain: RaplDomain) -> None:
        self.rapl = rapl
        self.domain = domain
        self._last_raw = rapl.read_msr(_DOMAIN_MSR[domain])
        self._total_ticks = 0

    def total_energy_j(self) -> float:
        """Monotonic cumulative energy since the reader was created."""
        raw = self.rapl.read_msr(_DOMAIN_MSR[self.domain])
        delta = (raw - self._last_raw) % COUNTER_WRAP
        self._total_ticks += delta
        self._last_raw = raw
        return self._total_ticks * self.rapl.energy_unit_j()


class RaplPowerMeter:
    """Average-power view over RAPL, for comparison experiments.

    Note this reports *package + DRAM* power, not wall power: comparing it
    to a PowerSpy trace shows the constant offset RAPL misses.
    """

    def __init__(self, rapl: RaplInterface) -> None:
        self._readers = {
            RaplDomain.PACKAGE: RaplEnergyReader(rapl, RaplDomain.PACKAGE),
            RaplDomain.DRAM: RaplEnergyReader(rapl, RaplDomain.DRAM),
        }
        self._machine = rapl.machine
        self._last_time_s = rapl.machine.time_s
        self._last_energy_j = self._total()

    def _total(self) -> float:
        return left_sum(reader.total_energy_j()
                        for reader in self._readers.values())

    def average_power_w(self) -> float:
        """Average package+DRAM power since the previous call."""
        now = self._machine.time_s
        energy = self._total()
        dt = now - self._last_time_s
        if dt <= 0:
            return 0.0
        power = (energy - self._last_energy_j) / dt
        self._last_time_s = now
        self._last_energy_j = energy
        return power
