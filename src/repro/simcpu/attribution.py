"""Ground-truth per-process power attribution.

The paper's tool estimates *per-process* power but can only be validated
against a wall meter, which sees the whole machine.  The simulator can do
better: it knows exactly which process caused which component of the
ground-truth power, so it can attribute true active power to each pid.

Attribution policy (active power only — the idle baseline and the
temperature-driven leakage are machine-level states no single process
owns):

* **core dynamic power** — within a physical core, the busiest hardware
  thread pays full rate and SMT siblings pay the second-thread factor
  (matching :mod:`repro.simcpu.power`); processes sharing one thread
  split its cost in proportion to their busy fractions,
* **wakeup power** — split across the core's processes by busy fraction,
* **uncore power** — the activity part by busy share, the traffic part
  by LLC-reference share,
* **DRAM power** — by LLC-miss share.

This module is part of the *hidden* substrate: estimation code must not
import it.  Tests and benchmarks use it as the per-process oracle.

:class:`TrueProcessPower` states its cells to the machine.  Attribution
ignores leakage, so every tick of a program has the same shares: it
attributes once per event map and states each pid's ``watts * dt`` and
the duration's ``dt``, which the engine adds once per tick.  Over a
ramp run it attributes tick by tick (``RunRecord.ticks``) and states
each pid's column of energies.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.simcpu import counters as ev
from repro.simcpu.counters import EventDelta
from repro.simcpu.machine import RunRecord
from repro.simcpu.power import SMT_SECOND_THREAD_FACTOR, PowerBreakdown
from repro.units import left_sum


def _thread_weights(thread_busy: Mapping[int, float]) -> Dict[int, float]:
    """Per-thread share weights within one core (SMT discount applied)."""
    ordered = sorted(thread_busy.items(), key=lambda item: -item[1])
    weights: Dict[int, float] = {}
    for index, (cpu_id, busy) in enumerate(ordered):
        factor = 1.0 if index == 0 else SMT_SECOND_THREAD_FACTOR
        weights[cpu_id] = factor * busy
    return weights


def attribute_power(
        breakdown: PowerBreakdown,
        events: Mapping[Tuple[int, int], EventDelta],
        cpu_busy: Mapping[int, float],
        core_groups: Sequence[Tuple[int, ...]],
) -> Dict[int, float]:
    """Split one step's active power across pids.

    ``events`` maps (pid, cpu_id) to the step's event deltas;
    ``core_groups`` lists each physical core's logical CPU ids.  Returns
    pid -> active watts during the step.  The attributed total equals the
    breakdown's cores + wakeup + uncore + dram (idle and leakage stay
    machine-level).
    """
    attributed: Dict[int, float] = defaultdict(float)
    if not events:
        return dict(attributed)

    # Per-(pid, cpu) busy share: processes on one thread split by their
    # contribution to that thread's busy fraction.
    pid_cpu_busy: Dict[Tuple[int, int], float] = {}
    cpu_total_cycles: Dict[int, float] = defaultdict(float)
    for (pid, cpu_id), delta in events.items():
        cpu_total_cycles[cpu_id] += delta.get(ev.CYCLES, 0.0)
    for (pid, cpu_id), delta in events.items():
        total = cpu_total_cycles[cpu_id]
        share = delta.get(ev.CYCLES, 0.0) / total if total > 0 else 0.0
        pid_cpu_busy[(pid, cpu_id)] = share * cpu_busy.get(cpu_id, 0.0)

    # -- cores + wakeup, per physical core ------------------------------
    core_power_total = breakdown.cores + breakdown.wakeup
    core_weight_sum = 0.0
    core_weights: List[Tuple[Tuple[int, ...], Dict[int, float]]] = []
    for group in core_groups:
        thread_busy = {cpu_id: cpu_busy.get(cpu_id, 0.0) for cpu_id in group}
        weights = _thread_weights(thread_busy)
        core_weights.append((group, weights))
        core_weight_sum += left_sum(weights.values())

    # A subnormal weight sum (a busy fraction near 5e-324) overflows the
    # per-weight rate to inf, and inf times a zero share is NaN.  Such
    # cores are as good as idle: no pid is charged their power, as with
    # a zero weight sum.
    watt_per_weight = (core_power_total / core_weight_sum
                       if core_weight_sum > 0 else math.inf)
    if watt_per_weight < math.inf:
        for group, weights in core_weights:
            for cpu_id, weight in weights.items():
                if weight <= 0.0:
                    continue
                cpu_watts = weight * watt_per_weight
                busy = cpu_busy.get(cpu_id, 0.0)
                if busy <= 0.0:
                    continue
                for (pid, event_cpu), share in pid_cpu_busy.items():
                    if event_cpu == cpu_id:
                        attributed[pid] += cpu_watts * (share / busy)

    # -- uncore: half by busy share, half by LLC-reference share --------
    total_busy = left_sum(pid_cpu_busy.values())
    pid_refs: Dict[int, float] = defaultdict(float)
    pid_misses: Dict[int, float] = defaultdict(float)
    pid_busy: Dict[int, float] = defaultdict(float)
    for (pid, _cpu_id), delta in events.items():
        pid_refs[pid] += delta.get(ev.CACHE_REFERENCES, 0.0)
        pid_misses[pid] += delta.get(ev.CACHE_MISSES, 0.0)
    for (pid, cpu_id), share in pid_cpu_busy.items():
        pid_busy[pid] += share

    total_refs = left_sum(pid_refs.values())
    for pid in pid_busy:
        busy_part = (pid_busy[pid] / total_busy) if total_busy > 0 else 0.0
        ref_part = (pid_refs[pid] / total_refs) if total_refs > 0 else busy_part
        attributed[pid] += breakdown.uncore * 0.5 * (busy_part + ref_part)

    # -- DRAM: by LLC-miss share -----------------------------------------
    total_misses = left_sum(pid_misses.values())
    if total_misses > 0:
        for pid, misses in pid_misses.items():
            attributed[pid] += breakdown.dram * misses / total_misses
    elif total_busy > 0:
        for pid, busy in pid_busy.items():
            attributed[pid] += breakdown.dram * busy / total_busy

    return dict(attributed)


class TrueProcessPower:
    """Oracle: integrates ground-truth active energy per pid.

    Attaches to *machine* on construction; read :meth:`energy_j` /
    :meth:`mean_power_w` afterwards.  For validation only — the
    estimation pipeline never sees these numbers.
    """

    def __init__(self, machine) -> None:
        self._machine = machine
        self._core_groups = [machine.topology.core_cpus(p, c)
                             for p, c in machine.topology.cores()]
        self._energy_j: Dict[int, float] = defaultdict(float)
        self._duration_s = 0.0
        # The cells of the last event map stated.
        self._events = None
        self._cells: list = []
        machine.add_cells(self._state)

    def _state(self, record, n_ticks: int) -> Tuple[list, None]:
        if record.events is not self._events:
            dt = record.dt_s
            energy = self._energy_j
            if isinstance(record, RunRecord):
                # Attributed tick by tick; a pid adds +0.0 on a tick
                # that charges it nothing.
                energies: Dict[int, List[float]] = {}
                for tick, tick_record in enumerate(record.ticks()):
                    for pid, watts in attribute_power(
                            tick_record.power, tick_record.events,
                            tick_record.cpu_busy, self._core_groups).items():
                        energies.setdefault(pid, [0.0] * n_ticks)[tick] = (
                            watts * dt)
                self._cells = [(energy, pid, np.array(values))
                               for pid, values in energies.items()]
            else:
                shares = attribute_power(record.power, record.events,
                                         record.cpu_busy, self._core_groups)
                self._cells = [(energy, pid, watts * dt)
                               for pid, watts in shares.items()]
            self._cells.append((vars(self), "_duration_s", dt))
            self._events = record.events
        return self._cells, None

    def detach(self) -> None:
        """Stop observing."""
        self._machine.remove_cells(self._state)

    @property
    def duration_s(self) -> float:
        """Observed simulated time."""
        return self._duration_s

    def energy_j(self, pid: int) -> float:
        """True active energy attributed to *pid* so far, joules."""
        return self._energy_j[pid]

    def mean_power_w(self, pid: int) -> float:
        """True mean active power of *pid* over the observation, watts."""
        if self._duration_s == 0.0:
            return 0.0
        return self._energy_j[pid] / self._duration_s

    def pids(self) -> Tuple[int, ...]:
        """Pids with attributed energy, ascending."""
        return tuple(sorted(self._energy_j))
