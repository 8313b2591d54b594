"""Simulated operating-system layer: processes, scheduling, cpufreq, procfs."""

from repro.os.actuation import FrequencyCapActuator, ProcessThrottle
from repro.os.cgroups import ROOT, CgroupTree
from repro.os.governor import (GOVERNORS, ConservativeGovernor, Governor,
                               OndemandGovernor, PerformanceGovernor,
                               PowersaveGovernor, UserspaceGovernor)
from repro.os.kernel import DEFAULT_QUANTUM_S, SimKernel
from repro.os.process import Demand, ProcessState, Program, SimProcess
from repro.os.procfs import ProcFs
from repro.os.scheduler import (EnergyAwareScheduler, PackScheduler,
                                PinnedScheduler, Scheduler, SpreadScheduler)
from repro.os.sysfs import SysFs
from repro.os.virt import VirtualMachine, split_vm_power

__all__ = [
    "CgroupTree", "ConservativeGovernor",
    "DEFAULT_QUANTUM_S", "Demand", "EnergyAwareScheduler",
    "FrequencyCapActuator", "GOVERNORS", "Governor", "OndemandGovernor",
    "PackScheduler", "PerformanceGovernor", "PinnedScheduler",
    "PowersaveGovernor", "ProcFs", "ProcessState", "ProcessThrottle",
    "Program", "ROOT", "Scheduler", "SimKernel", "SimProcess",
    "SpreadScheduler", "SysFs", "UserspaceGovernor", "VirtualMachine",
    "split_vm_power",
]
