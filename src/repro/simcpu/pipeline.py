"""Core pipeline model: instruction mixes, IPC and SMT contention.

Instead of simulating micro-ops, each workload declares an
:class:`InstructionMix` and the pipeline model derives an effective
instructions-per-cycle figure from it:

* the issue-side IPC depends on the mix (FP/SIMD-heavy code issues slower
  than simple integer code, branchy code pays misprediction flushes),
* memory stalls from the cache model add cycles per instruction,
* an SMT sibling running on the same physical core contends for issue
  slots, reducing both threads' throughput — but raising the *core's*
  combined throughput, which is exactly the effect that makes SMT
  power-efficient and SMT-oblivious power models inaccurate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.simcpu.caches import CacheBehaviour
from repro.simcpu.spec import CpuSpec

#: Pipeline flush penalty of one mispredicted branch, cycles.
BRANCH_MISS_PENALTY_CYCLES = 15

#: Throughput retained by each thread when its SMT sibling is fully busy
#: (two threads at 0.62 each give the core a 1.24x combined speed-up).
SMT_THROUGHPUT_FACTOR = 0.62


@dataclass(frozen=True)
class InstructionMix:
    """Composition of a workload's dynamic instruction stream.

    Fractions are of retired instructions and must sum to <= 1; the
    remainder is plain integer ALU work.  ``branch_miss_rate`` is the
    fraction of branches mispredicted.
    """

    fp_fraction: float = 0.0
    simd_fraction: float = 0.0
    branch_fraction: float = 0.15
    branch_miss_rate: float = 0.03

    def __post_init__(self) -> None:
        for name in ("fp_fraction", "simd_fraction", "branch_fraction",
                     "branch_miss_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be within [0, 1]")
        if self.fp_fraction + self.simd_fraction + self.branch_fraction > 1.0:
            raise ConfigurationError("instruction-class fractions exceed 1")

    @property
    def int_fraction(self) -> float:
        """Plain integer ALU fraction (the remainder)."""
        return 1.0 - self.fp_fraction - self.simd_fraction - self.branch_fraction

    def issue_ipc_factor(self) -> float:
        """Relative issue throughput of this mix (1.0 = pure integer code).

        FP issues at ~0.7x and SIMD at ~0.55x of the integer rate on the
        modelled microarchitecture.
        """
        return (self.int_fraction + self.branch_fraction
                + 0.7 * self.fp_fraction + 0.55 * self.simd_fraction)

    def power_weight(self) -> float:
        """Relative switching activity per instruction (1.0 = integer).

        Wide FP/SIMD units burn more energy per retired instruction — one of
        the ground-truth effects a 3-counter model cannot see.
        """
        return (1.0 + 0.5 * self.fp_fraction + 1.1 * self.simd_fraction)


@dataclass(frozen=True)
class ExecutionRates:
    """Per-cycle retirement and event rates of one running thread."""

    #: Instructions retired per core cycle.
    ipc: float
    #: Branch instructions per instruction.
    branches_per_instruction: float
    #: Mispredicted branches per instruction.
    branch_misses_per_instruction: float
    #: Fraction of cycles stalled on memory (backend).
    backend_stall_fraction: float
    #: Fraction of cycles stalled on branch flushes (frontend).
    frontend_stall_fraction: float


class PipelineModel:
    """Turns (mix, cache behaviour, SMT pressure) into execution rates."""

    def __init__(self, spec: CpuSpec) -> None:
        self.spec = spec

    def rates(self, mix: InstructionMix, cache: CacheBehaviour,
              sibling_busy_fraction: float = 0.0) -> ExecutionRates:
        """Effective execution rates of one thread.

        *sibling_busy_fraction* in [0, 1] is how busy the SMT sibling thread
        of the same physical core is during the interval; it linearly
        interpolates between full-speed and the contended
        :data:`SMT_THROUGHPUT_FACTOR` throughput.
        """
        if not 0.0 <= sibling_busy_fraction <= 1.0:
            raise ConfigurationError(
                "sibling_busy_fraction must be within [0, 1], got "
                f"{sibling_busy_fraction}")
        issue_ipc = self.spec.base_ipc * mix.issue_ipc_factor()
        if self.spec.smt_enabled and sibling_busy_fraction > 0.0:
            contention = 1.0 - sibling_busy_fraction * (1.0 - SMT_THROUGHPUT_FACTOR)
            issue_ipc *= contention

        branch_flush = (mix.branch_fraction * mix.branch_miss_rate
                        * BRANCH_MISS_PENALTY_CYCLES)
        # Cycles per instruction = issue time + memory stalls + flushes.
        cpi = 1.0 / issue_ipc + cache.stall_cycles + branch_flush
        ipc = 1.0 / cpi
        return ExecutionRates(
            ipc=ipc,
            branches_per_instruction=mix.branch_fraction,
            branch_misses_per_instruction=mix.branch_fraction * mix.branch_miss_rate,
            backend_stall_fraction=min(1.0, cache.stall_cycles * ipc),
            frontend_stall_fraction=min(1.0, branch_flush * ipc),
        )

    def rate_columns(self, mix: InstructionMix, cache: CacheBehaviour,
                     sibling_busy: Optional[np.ndarray]) -> Tuple:
        """:meth:`rates`' ``ipc`` and stall fractions over a column of
        sibling busy fractions (None: the thread has no SMT sibling).

        Elementwise, each value is the float :meth:`rates` computes for
        that sibling busy, in the same association order; ``np.where``
        takes the contention branch.  Returns ``(ipc,
        branches_per_instruction, branch_misses_per_instruction,
        backend_stall_fraction, frontend_stall_fraction)``, each a
        column, or a scalar where no sibling can move it.
        """
        issue_ipc = self.spec.base_ipc * mix.issue_ipc_factor()
        if self.spec.smt_enabled and sibling_busy is not None:
            contention = 1.0 - sibling_busy * (1.0 - SMT_THROUGHPUT_FACTOR)
            issue_ipc = np.where(sibling_busy > 0.0, issue_ipc * contention,
                                 issue_ipc)
        branch_flush = (mix.branch_fraction * mix.branch_miss_rate
                        * BRANCH_MISS_PENALTY_CYCLES)
        ipc = 1.0 / (1.0 / issue_ipc + cache.stall_cycles + branch_flush)
        return (ipc, mix.branch_fraction,
                mix.branch_fraction * mix.branch_miss_rate,
                np.minimum(1.0, cache.stall_cycles * ipc),
                np.minimum(1.0, branch_flush * ipc))

    def instructions_in(self, rates: ExecutionRates, frequency_hz: int,
                        busy_seconds: float) -> float:
        """Instructions retired during *busy_seconds* of C0 time at *frequency_hz*."""
        if busy_seconds < 0:
            raise ConfigurationError("busy_seconds must be >= 0")
        return rates.ipc * frequency_hz * busy_seconds
