"""Simulated multi-core processor substrate.

This package replaces the physical machine of the paper's testbed: a
discrete-time CPU simulator with DVFS (P-states and a TurboBoost ladder),
SMT contention, C-states, a three-level cache hierarchy, generic hardware
performance counters and a hidden ground-truth wall-power model.
"""

from repro.simcpu.attribution import TrueProcessPower, attribute_power
from repro.simcpu.caches import CacheBehaviour, CacheModel, MemoryProfile
from repro.simcpu.counters import (ALL_EVENTS, GENERIC_TRIO, CounterBank,
                                   EventDelta)
from repro.simcpu.cstates import CStateController, CStateInfo
from repro.simcpu.frequency import FrequencyDomain
from repro.simcpu.machine import Machine, ThreadAssignment, TickRecord
from repro.simcpu.pipeline import ExecutionRates, InstructionMix, PipelineModel
from repro.simcpu.power import CoreActivity, GroundTruthPower, PowerBreakdown
from repro.simcpu.spec import (PRESETS, CacheSpec, CpuSpec, PowerEnvelope,
                               amd_fx_8120, intel_core2duo_e6600,
                               intel_i3_2120, intel_xeon_smt, preset)
from repro.simcpu.topology import LogicalCpu, Topology

__all__ = [
    "ALL_EVENTS", "CStateController", "CStateInfo", "CacheBehaviour",
    "CacheModel", "CacheSpec", "CoreActivity", "CounterBank", "CpuSpec",
    "EventDelta", "ExecutionRates", "FrequencyDomain", "GENERIC_TRIO",
    "GroundTruthPower", "InstructionMix", "LogicalCpu", "Machine",
    "MemoryProfile", "PRESETS", "PipelineModel", "PowerBreakdown",
    "PowerEnvelope", "ThreadAssignment", "TickRecord", "Topology",
    "TrueProcessPower", "amd_fx_8120", "attribute_power",
    "intel_core2duo_e6600", "intel_i3_2120", "intel_xeon_smt", "preset",
]
