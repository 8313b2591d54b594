"""Fault injection and graceful degradation for the live pipeline.

A monitoring middleware earns its keep when the machine misbehaves
underneath it: meters drop their link, pids exit mid-sample, PMU
multiplexing starves events, actors crash.  This package provides

* :class:`~repro.faults.plan.FaultPlan` — a deterministic, seedable
  schedule of faults (parseable from a ``--faults`` CLI spec),
* :class:`~repro.faults.injector.FaultInjector` — applies a plan to a
  running :class:`~repro.core.monitor.PowerAPI` in virtual time,
* :class:`~repro.faults.health.HealthLog` — the per-pipeline record
  of every degradation and recovery (``MonitorHandle.health``).
"""

# repro.core's init reaches back into repro.faults.health (via the
# monitor facade), so when the import graph is entered here the core
# package must finish initializing before health starts loading —
# otherwise monitor sees a half-initialized health module.
import repro.core.messages  # noqa: F401  (breaks the faults<->core cycle)

from repro.faults.backoff import ExponentialBackoff
from repro.faults.breaker import BreakerState, CircuitBreaker
from repro.faults.health import HealthLog
from repro.faults.injector import FaultInjector
from repro.faults.network import (ByteCorruption, ConnectionReset,
                                  FaultyTransport, NetworkFaultInjector,
                                  NetworkFaultPlan, Partition, SlowReader,
                                  TruncatedFrame)
from repro.faults.plan import (ActorCrash, FaultPlan, MeterDropout, PidExit,
                               SampleLoss, SlotStarvation)

__all__ = [
    "ActorCrash",
    "BreakerState",
    "ByteCorruption",
    "CircuitBreaker",
    "ConnectionReset",
    "ExponentialBackoff",
    "FaultInjector",
    "FaultPlan",
    "FaultyTransport",
    "HealthLog",
    "MeterDropout",
    "NetworkFaultInjector",
    "NetworkFaultPlan",
    "Partition",
    "PidExit",
    "SampleLoss",
    "SlotStarvation",
    "SlowReader",
    "TruncatedFrame",
]
