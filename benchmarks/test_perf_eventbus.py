"""Event-bus publish-path microbenchmark.

Every report of every monitoring period crosses
:meth:`repro.actors.eventbus.EventBus.publish`, one batch per stage and
period, so its cost scales with pipelines × periods.  This benchmark
measures publish throughput on a realistically-shaped bus (a Figure 2
pipeline's subscription pattern, messages routed through a three-deep
class hierarchy) in the steady state the per-type route cache targets,
plus the cache-miss case of a bus whose subscriptions churn every
publish.

Results are written to ``BENCH_eventbus.json`` at the repository root
so future PRs can diff the perf trajectory.  Marked ``perf``: the
tier-1 suite (``testpaths = ["tests"]``) never collects it; run it
explicitly with
``PYTHONPATH=src python -m pytest benchmarks/test_perf_eventbus.py -q``.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import pytest

from repro.actors.actor import Actor
from repro.actors.system import ActorSystem
from repro.core.messages import (HpcReport, PowerReport, ProcFsReport,
                                 SensorReport)

pytestmark = pytest.mark.perf

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_eventbus.json"

#: Publishes per timed measurement.
PUBLISHES = 20_000


class _Sink(Actor):
    def __init__(self) -> None:
        super().__init__()
        self.received = 0

    def receive(self, message) -> None:
        self.received += 1


def _pipeline_shaped_bus(pipelines: int = 4):
    """A bus subscribed the way ``pipelines`` Figure 2 pipelines do it:
    formulas on the concrete report types, plus a tap on the
    :class:`SensorReport` base class (telemetry-bridge style)."""
    system = ActorSystem("bench")
    sinks = []
    for _ in range(pipelines):
        for topic in (HpcReport, ProcFsReport, PowerReport, SensorReport):
            sink = _Sink()
            system.spawn(sink)
            system.event_bus.subscribe(topic, sink.self_ref)
            sinks.append(sink)
    return system, sinks


def _drain(system: ActorSystem) -> None:
    system.dispatch()


def test_perf_eventbus_microbench():
    message = HpcReport(time_s=1.0, period_s=1.0, pid=-1,
                        events=("cycles",), counters={42: (1e9,)},
                        frequency_hz=3_300_000_000)

    # -- steady state: same message type, stable subscriptions --------
    system, _sinks = _pipeline_shaped_bus()
    bus = system.event_bus
    for _ in range(100):  # warm the route cache and the mailboxes
        bus.publish(message)
    _drain(system)
    start = time.perf_counter()
    for _ in range(PUBLISHES):
        bus.publish(message)
    steady_elapsed = time.perf_counter() - start
    _drain(system)
    steady_per_sec = PUBLISHES / steady_elapsed

    # -- churn: subscriptions change between publishes (cache misses) --
    churn_system, churn_sinks = _pipeline_shaped_bus()
    churn_bus = churn_system.event_bus
    victim = churn_sinks[0].self_ref
    start = time.perf_counter()
    for _ in range(PUBLISHES // 10):
        churn_bus.unsubscribe(HpcReport, victim)
        churn_bus.subscribe(HpcReport, victim)
        churn_bus.publish(message)
    churn_elapsed = time.perf_counter() - start
    _drain(churn_system)
    churn_per_sec = (PUBLISHES // 10) / churn_elapsed

    system.shutdown()
    churn_system.shutdown()
    assert steady_per_sec > 0 and churn_per_sec > 0

    results = {
        "publishes_per_sec_steady": round(steady_per_sec, 1),
        "publishes_per_sec_churn": round(churn_per_sec, 1),
        "publishes_timed": PUBLISHES,
        "python": platform.python_version(),
    }
    BENCH_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\npublish/sec steady: {steady_per_sec:,.0f}  "
          f"churn: {churn_per_sec:,.0f}  -> {BENCH_PATH.name}")
