"""F2 — Figure 2: the PowerAPI actor architecture.

Verifies the four-component pipeline (Sensor -> Formula -> Aggregator ->
Reporter over the event bus) assembles and runs, and benchmarks the two
properties the paper claims for the actor runtime: message throughput
("it can handle millions of messages per second") and the end-to-end
monitoring step.
"""

import pytest

from repro.actors.actor import Actor
from repro.actors.system import ActorSystem
from repro.core.monitor import PowerAPI
from repro.core.reporters import InMemoryReporter
from repro.os.kernel import SimKernel
from repro.workloads.stress import CpuStress


class _Counter(Actor):
    def __init__(self):
        super().__init__()
        self.count = 0

    def receive(self, message):
        self.count += 1


def test_fig2_actor_message_throughput(benchmark, save_result):
    """Raw mailbox throughput of the actor runtime."""
    system = ActorSystem()
    counter = _Counter()
    ref = system.spawn(counter, "sink")

    def pump():
        for _ in range(10_000):
            ref.tell("m")
        system.dispatch()

    result = benchmark(pump)
    rate = 10_000 / benchmark.stats.stats.mean
    save_result("fig2_actor_throughput",
                f"Actor message throughput: {rate:,.0f} messages/s "
                f"(paper claims 'millions of messages per second' on Akka)")
    assert counter.count >= 10_000


@pytest.mark.paper
def test_fig2_pipeline_structure(i3_spec, paper_model, benchmark):
    """The assembled pipeline contains the four Figure 2 components."""
    kernel = SimKernel(i3_spec, quantum_s=0.02)
    pid = kernel.spawn(CpuStress(duration_s=60.0))
    api = PowerAPI(kernel, paper_model)
    handle = api.monitor(pid).every(1.0).to(InMemoryReporter())
    names = " ".join(api.system.actor_names()).lower()
    # Sensor, Formula, two Aggregators, Reporter.
    assert len(api.system.actor_names()) == 5

    def step():
        kernel.tick()
        api.clock.advance(kernel.quantum_s)
        api.system.dispatch()

    benchmark(step)
    api.flush()
    assert handle.reporter.aggregated or kernel.time_s < 1.0


def test_fig2_monitoring_overhead(i3_spec, paper_model, benchmark,
                                  save_result):
    """Overhead of live estimation: monitored vs bare simulation step.

    Both variants run several times and the medians are compared, so the
    reported overhead is not one scheduling hiccup.
    """
    import statistics
    import time

    def run_bare():
        kernel = SimKernel(i3_spec, quantum_s=0.02)
        kernel.spawn(CpuStress(duration_s=60.0))
        kernel.run(5.0)

    def run_monitored():
        kernel = SimKernel(i3_spec, quantum_s=0.02)
        pid = kernel.spawn(CpuStress(duration_s=60.0))
        api = PowerAPI(kernel, paper_model)
        api.monitor(pid).every(1.0).to(InMemoryReporter())
        api.run(5.0)

    def timed(function, rounds=5):
        samples = []
        for _round in range(rounds):
            start = time.perf_counter()
            function()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    bare_s = timed(run_bare)
    with_monitor_s = timed(run_monitored)
    benchmark.pedantic(run_monitored, rounds=1, iterations=1)

    overhead = (with_monitor_s - bare_s) / bare_s * 100
    save_result("fig2_monitoring_overhead",
                f"bare 5 s simulation (median of 5):      {bare_s:.3f} s\n"
                f"monitored 5 s simulation (median of 5): "
                f"{with_monitor_s:.3f} s\n"
                f"PowerAPI overhead:                      {overhead:.1f}% "
                f"(the paper targets a non-invasive, lightweight tool)")
    # Non-invasive: live estimation must not slow the system noticeably.
    assert overhead < 50.0
