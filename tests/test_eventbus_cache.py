"""Tests for the event bus's per-message-type route cache."""

import pytest

from repro.actors.actor import Actor
from repro.actors.system import ActorSystem
from repro.core.messages import HpcReport, SensorReport


class Recorder(Actor):
    def __init__(self):
        super().__init__()
        self.received = []

    def receive(self, message):
        self.received.append(message)


def report(time_s=1.0):
    return HpcReport(time_s=time_s, period_s=1.0, pid=-1,
                     events=("cycles",), counters={1: (1.0,)},
                     frequency_hz=1_600_000_000)


@pytest.fixture
def system():
    system = ActorSystem("bus-cache-test")
    yield system
    system.shutdown()


def spawn(system, name):
    actor = Recorder()
    system.spawn(actor, name=name)
    return actor


class TestRouteCache:
    def test_route_is_cached_after_first_publish(self, system):
        bus = system.event_bus
        sink = spawn(system, "sink")
        bus.subscribe(HpcReport, sink.self_ref)
        bus.publish(report())
        assert HpcReport in bus._routes
        bus.publish(report(2.0))
        system.dispatch()
        assert len(sink.received) == 2

    def test_subscribe_invalidates_cache(self, system):
        bus = system.event_bus
        first = spawn(system, "first")
        bus.subscribe(HpcReport, first.self_ref)
        bus.publish(report())
        late = spawn(system, "late")
        bus.subscribe(HpcReport, late.self_ref)
        bus.publish(report(2.0))
        system.dispatch()
        assert len(first.received) == 2
        assert len(late.received) == 1  # a stale route would starve it

    def test_unsubscribe_invalidates_cache(self, system):
        bus = system.event_bus
        sink = spawn(system, "sink")
        bus.subscribe(HpcReport, sink.self_ref)
        bus.publish(report())
        bus.unsubscribe(HpcReport, sink.self_ref)
        bus.publish(report(2.0))
        system.dispatch()
        assert len(sink.received) == 1

    def test_unsubscribe_all_invalidates_cache(self, system):
        bus = system.event_bus
        sink = spawn(system, "sink")
        bus.subscribe(HpcReport, sink.self_ref)
        bus.subscribe(SensorReport, sink.self_ref)
        bus.publish(report())
        bus.unsubscribe_all(sink.self_ref)
        bus.publish(report(2.0))
        system.dispatch()
        assert len(sink.received) == 1

    def test_base_class_subscribers_still_reached(self, system):
        bus = system.event_bus
        concrete = spawn(system, "concrete")
        base_tap = spawn(system, "base-tap")
        bus.subscribe(HpcReport, concrete.self_ref)
        bus.subscribe(SensorReport, base_tap.self_ref)
        bus.publish(report())
        bus.publish(report(2.0))
        system.dispatch()
        assert len(concrete.received) == 2
        assert len(base_tap.received) == 2

    def test_dedup_across_hierarchy_preserved(self, system):
        # An actor subscribed to both the concrete type and a base
        # class receives each message once, exactly as before caching.
        bus = system.event_bus
        sink = spawn(system, "sink")
        bus.subscribe(HpcReport, sink.self_ref)
        bus.subscribe(SensorReport, sink.self_ref)
        bus.publish(report())
        system.dispatch()
        assert len(sink.received) == 1

    def test_actor_stop_prunes_route(self, system):
        # ActorSystem.stop() goes through unsubscribe_all, so a cached
        # route never keeps delivering to a stopped actor.
        bus = system.event_bus
        keeper = spawn(system, "keeper")
        goner = Recorder()
        goner_ref = system.spawn(goner, name="goner")
        bus.subscribe(HpcReport, keeper.self_ref)
        bus.subscribe(HpcReport, goner_ref)
        bus.publish(report())
        system.dispatch()
        system.stop(goner_ref)
        bus.publish(report(2.0))
        system.dispatch()
        assert len(keeper.received) == 2
        assert len(goner.received) == 1

    def test_subscriber_count_uncached(self, system):
        bus = system.event_bus
        sink = spawn(system, "sink")
        bus.subscribe(HpcReport, sink.self_ref)
        bus.publish(report())
        assert bus.subscriber_count(HpcReport) == 1
        bus.unsubscribe(HpcReport, sink.self_ref)
        assert bus.subscriber_count(HpcReport) == 0
