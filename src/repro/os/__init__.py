"""Simulated operating-system layer: processes, scheduling, cpufreq, procfs.

:mod:`repro.os.virt` builds on :mod:`repro.workloads`, which builds on
:mod:`repro.os.process`, so its names load on first access: importing
this package must not import the workloads.
"""

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


def __getattr__(name: str):
    if name in ("VirtualMachine", "split_vm_power"):
        from repro.os import virt
        return getattr(virt, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
