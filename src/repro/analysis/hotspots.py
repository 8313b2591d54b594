"""Energy hotspot analysis: "identifying the largest power consumers".

Section 1 of the paper motivates fine-grained estimation as the
cornerstone for "identifying the largest power consumers and mak[ing]
informed decisions".  This module turns a monitoring run's reports into
that decision-support view: ranked per-process consumers, their share of
the machine's active energy, and simple green-pattern diagnoses (busy
but low-work processes, memory-thrashing processes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.messages import AggregatedPowerReport
from repro.errors import ConfigurationError
from repro.units import left_sum


@dataclass(frozen=True)
class Hotspot:
    """One process's standing in the energy ranking."""

    pid: int
    active_energy_j: float
    #: Share of all attributed active energy, in [0, 1].
    share: float
    mean_power_w: float


def rank_consumers(reports: Sequence[AggregatedPowerReport],
                   top: Optional[int] = None) -> List[Hotspot]:
    """Rank processes by active energy over a monitoring run."""
    if not reports:
        raise ConfigurationError("no reports to rank")
    energy: Dict[int, float] = {}
    duration: Dict[int, float] = {}
    for report in reports:
        for pid, watts in report.by_pid.items():
            energy[pid] = energy.get(pid, 0.0) + watts * report.period_s
            duration[pid] = duration.get(pid, 0.0) + report.period_s
    total = left_sum(energy.values())
    hotspots = [
        Hotspot(
            pid=pid,
            active_energy_j=joules,
            share=joules / total if total > 0 else 0.0,
            mean_power_w=joules / duration[pid] if duration[pid] else 0.0,
        )
        for pid, joules in energy.items()
    ]
    hotspots.sort(key=lambda hotspot: -hotspot.active_energy_j)
    return hotspots[:top] if top is not None else hotspots


@dataclass(frozen=True)
class Diagnosis:
    """A green-pattern finding for one process."""

    pid: int
    pattern: str
    detail: str


#: Instructions per joule below which a process is "spinning" (burning
#: power without retiring much work).
SPIN_THRESHOLD_INSTR_PER_J = 5e7

#: Cache-miss-per-instruction ratio above which a process is "thrashing".
THRASH_THRESHOLD_MPI = 0.02


def diagnose(hotspots: Sequence[Hotspot],
             instructions_by_pid: Mapping[int, float],
             misses_by_pid: Optional[Mapping[int, float]] = None
             ) -> List[Diagnosis]:
    """Apply simple green patterns to ranked consumers.

    *instructions_by_pid* (and optionally *misses_by_pid*) come from the
    perf layer or the counter bank.  Patterns:

    * ``busy-spinning`` — high energy, almost no instructions per joule
      (polling loops, lock spinning),
    * ``memory-thrashing`` — extreme misses per instruction (working set
      blowing the cache; batching or blocking would cut DRAM power).
    """
    findings: List[Diagnosis] = []
    for hotspot in hotspots:
        instructions = instructions_by_pid.get(hotspot.pid, 0.0)
        if hotspot.active_energy_j > 0:
            efficiency = instructions / hotspot.active_energy_j
            if efficiency < SPIN_THRESHOLD_INSTR_PER_J:
                findings.append(Diagnosis(
                    pid=hotspot.pid, pattern="busy-spinning",
                    detail=(f"{efficiency:.3g} instructions/J "
                            f"(threshold {SPIN_THRESHOLD_INSTR_PER_J:.3g})")))
        if misses_by_pid is not None and instructions > 0:
            mpi = misses_by_pid.get(hotspot.pid, 0.0) / instructions
            if mpi > THRASH_THRESHOLD_MPI:
                findings.append(Diagnosis(
                    pid=hotspot.pid, pattern="memory-thrashing",
                    detail=(f"{mpi:.3g} cache-misses/instruction "
                            f"(threshold {THRASH_THRESHOLD_MPI})")))
    return findings


def render_hotspots(hotspots: Sequence[Hotspot],
                    names: Optional[Mapping[int, str]] = None) -> str:
    """Human-readable ranking table."""
    if not hotspots:
        raise ConfigurationError("nothing to render")
    lines = [f"{'#':>2}  {'process':<16} {'energy':>10}  {'share':>6}  "
             f"{'mean power':>10}"]
    for rank, hotspot in enumerate(hotspots, start=1):
        name = (names or {}).get(hotspot.pid, f"pid {hotspot.pid}")
        lines.append(
            f"{rank:>2}  {name:<16} {hotspot.active_energy_j:>8.1f} J  "
            f"{hotspot.share * 100:>5.1f}%  {hotspot.mean_power_w:>8.2f} W")
    return "\n".join(lines)
