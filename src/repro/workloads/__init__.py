"""Workload library: stress utilities, synthetic benchmarks and mixes."""

from repro.workloads.base import (ConstantWorkload, Phase, PhasedWorkload,
                                  Workload, cpu_demand, memory_demand)
from repro.workloads.idle import BackgroundNoise, IdleWorkload
from repro.workloads.mix import RandomWorkload, colocated_pair
from repro.workloads.speccpu import (APP_NAMES, SpecCpuApp, spec_cpu_app,
                                     spec_cpu_suite)
from repro.workloads.specjbb import SpecJbbWorkload
from repro.workloads.stress import (DEFAULT_LEVELS, DEFAULT_WORKING_SETS,
                                    CpuStress, MemoryStress, MixedStress,
                                    stress_matrix)
from repro.workloads.webserver import WebServerWorkload

#: The named workloads the CLI and scenario matrices spawn: each maps a
#: run duration in seconds to a four-thread workload.
WORKLOADS = {
    "cpu": lambda duration: CpuStress(utilization=1.0, threads=4,
                                      duration_s=duration),
    "memory": lambda duration: MemoryStress(utilization=1.0, threads=4,
                                            duration_s=duration),
    "mixed": lambda duration: MixedStress(utilization=1.0, threads=4,
                                          duration_s=duration),
    "specjbb": lambda duration: SpecJbbWorkload(duration_s=duration,
                                                threads=4),
}

__all__ = [
    "APP_NAMES", "BackgroundNoise", "ConstantWorkload", "CpuStress",
    "DEFAULT_LEVELS", "DEFAULT_WORKING_SETS", "IdleWorkload",
    "MemoryStress", "MixedStress", "Phase", "PhasedWorkload",
    "RandomWorkload", "SpecCpuApp", "SpecJbbWorkload", "WORKLOADS",
    "WebServerWorkload", "Workload",
    "colocated_pair", "cpu_demand", "memory_demand", "spec_cpu_app",
    "spec_cpu_suite", "stress_matrix",
]
