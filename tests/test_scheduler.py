"""Unit tests for repro.os.scheduler (placement policies)."""

import pytest

from repro.errors import SchedulerError
from repro.os.kernel import SimKernel
from repro.os.process import Demand, SimProcess
from repro.os.scheduler import PackScheduler, PinnedScheduler, SpreadScheduler
from repro.simcpu.spec import intel_i3_2120, intel_xeon_smt
from repro.simcpu.topology import Topology
from repro.workloads import Phase, PhasedWorkload


class _Busy:
    """Program with constant full demand."""

    def demand(self, local_time_s):
        return Demand(utilization=1.0)


def make_process(pid, affinity=None, nice=0):
    process = SimProcess(pid, f"p{pid}", _Busy(), affinity=affinity,
                         nice=nice)
    return process


def polled(processes):
    return [(process, process.poll_demand()) for process in processes]


@pytest.fixture
def topology():
    return Topology(intel_i3_2120())


class TestSpreadScheduler:
    def test_two_tasks_use_different_cores(self, topology):
        scheduler = SpreadScheduler(topology)
        assignments = scheduler.assign(polled([make_process(1),
                                               make_process(2)]))
        cores = {topology.cpu(a.cpu_id).core_id for a in assignments}
        assert len(cores) == 2

    def test_four_tasks_fill_all_threads(self, topology):
        scheduler = SpreadScheduler(topology)
        assignments = scheduler.assign(polled(
            [make_process(i) for i in range(4)]))
        assert sorted(a.cpu_id for a in assignments) == [0, 1, 2, 3]

    def test_partial_demands_share_cpu(self, topology):
        class Light:
            def demand(self, t):
                return Demand(utilization=0.3)
        processes = [SimProcess(i, f"p{i}", Light()) for i in range(2)]
        scheduler = SpreadScheduler(topology)
        assignments = scheduler.assign(polled(processes))
        assert all(a.busy_fraction == pytest.approx(0.3) for a in assignments)

    def test_saturation_starves_excess(self, topology):
        scheduler = SpreadScheduler(topology)
        assignments = scheduler.assign(polled(
            [make_process(i) for i in range(6)]))
        # 4 logical CPUs: only 4 full-demand tasks fit.
        assert len(assignments) == 4

    def test_sleeping_processes_not_scheduled(self, topology):
        class Sleepy:
            def demand(self, t):
                return Demand(utilization=0.0)
        process = SimProcess(1, "sleepy", Sleepy())
        scheduler = SpreadScheduler(topology)
        assignments = scheduler.assign(polled([process]))
        assert assignments == []


class TestPackScheduler:
    def test_two_tasks_share_one_core(self, topology):
        scheduler = PackScheduler(topology)
        assignments = scheduler.assign(polled([make_process(1),
                                               make_process(2)]))
        cores = {topology.cpu(a.cpu_id).core_id for a in assignments}
        assert len(cores) == 1

    def test_third_task_wakes_second_core(self, topology):
        scheduler = PackScheduler(topology)
        assignments = scheduler.assign(polled(
            [make_process(i) for i in range(3)]))
        cores = {topology.cpu(a.cpu_id).core_id for a in assignments}
        assert len(cores) == 2


class TestAffinity:
    def test_affinity_respected(self, topology):
        scheduler = SpreadScheduler(topology)
        process = make_process(1, affinity={3})
        assignments = scheduler.assign(polled([process]))
        assert assignments[0].cpu_id == 3

    def test_empty_affinity_after_filter_raises(self, topology):
        scheduler = SpreadScheduler(topology)
        process = make_process(1, affinity={99})
        with pytest.raises(SchedulerError):
            scheduler.assign(polled([process]))

    def test_pinned_scheduler_prefers_low_ids(self, topology):
        scheduler = PinnedScheduler(topology)
        assignments = scheduler.assign(polled([make_process(1)]))
        assert assignments[0].cpu_id == 0


class TestNiceWeights:
    def test_positive_nice_gets_less_cpu(self, topology):
        scheduler = SpreadScheduler(topology)
        nice_process = make_process(1, nice=10)
        assignments = scheduler.assign(polled([nice_process]))
        assert assignments[0].busy_fraction < 0.2

    def test_negative_nice_capped_at_demand(self, topology):
        scheduler = SpreadScheduler(topology)
        eager = make_process(1, nice=-10)
        assignments = scheduler.assign(polled([eager]))
        assert assignments[0].busy_fraction == pytest.approx(1.0)


class TestMultithreadDemand:
    def test_threads_fan_out(self):
        topology = Topology(intel_xeon_smt())
        scheduler = SpreadScheduler(topology)

        class Wide:
            def demand(self, t):
                return Demand(utilization=1.0, threads=4)
        process = SimProcess(1, "wide", Wide())
        assignments = scheduler.assign(polled([process]))
        assert len(assignments) == 4
        assert len({a.cpu_id for a in assignments}) == 4
        assert all(a.pid == 1 for a in assignments)


class TestHeldShape:
    """A scheduler holds its last placement's shape and re-checks each
    decision of it while only the utilisations move; every round must
    place as a fresh scheduler places it."""

    @staticmethod
    def _process(pid, affinity=None, nice=0):
        return SimProcess(pid, f"p{pid}", None, affinity=affinity, nice=nice)

    @staticmethod
    def _place(topology, rounds):
        held = SpreadScheduler(topology)
        placements = []
        for demands in rounds:
            placements.append(held.assign(demands))
            assert placements[-1] == SpreadScheduler(topology).assign(demands)
        return placements

    def test_a_ramp_keeps_the_shape(self, topology):
        ramp = self._process(1)
        first, second = self._place(topology, [
            [(ramp, Demand(utilization=0.3, threads=2))],
            [(ramp, Demand(utilization=0.4, threads=2))]])
        assert second.rows is first.rows
        assert second.busy == [0.4, 0.4]
        assert second.cpu_busy == {0: 0.4, 1: 0.4, 2: 0.0, 3: 0.0}

    def test_a_tie_in_the_work_order_follows_demand_order(self, topology):
        light, heavy = self._process(1), self._process(2)
        _first, second = self._place(topology, [
            [(light, Demand(utilization=0.3)), (heavy, Demand(0.5))],
            [(light, Demand(utilization=0.5)), (heavy, Demand(0.5))]])
        assert [a.pid for a in second] == [1, 2]

    def test_a_renice_is_no_repeat(self, topology):
        process = self._process(1)
        demands = [(process, Demand(utilization=1.0))]
        held = SpreadScheduler(topology)
        first = held.assign(demands)
        process.nice = 5
        second = held.assign(demands)
        assert second == SpreadScheduler(topology).assign(demands)
        assert second[0].busy_fraction < first[0].busy_fraction

    def test_a_held_cpu_without_headroom_is_placed_afresh(self, topology):
        first = self._process(1, affinity={0})
        second = self._process(2, affinity={0}, nice=2)
        placements = self._place(topology, [
            [(first, Demand(utilization=0.5)), (second, Demand(0.4))],
            [(first, Demand(utilization=0.6)), (second, Demand(0.5))]])
        assert placements[1].busy == [0.6, 0.4 * 1.25 ** -2]

    def test_a_held_fallback_is_placed_afresh_once_a_cpu_fits(self, topology):
        first = self._process(1, affinity={0})
        second = self._process(2, affinity={0})
        placements = self._place(topology, [
            [(first, Demand(utilization=0.8)), (second, Demand(0.5))],
            [(first, Demand(utilization=0.5)), (second, Demand(0.45))]])
        assert placements[1].busy == [0.5, 0.45]

    def test_an_exact_repeat_is_the_held_placement(self):
        """A repeated quantum gets the very placement placed last, so
        over one-quantum spans the engine lays it out and compiles it
        once."""
        kernel = SimKernel(intel_i3_2120(), quantum_s=0.001)
        kernel.spawn(PhasedWorkload([Phase(1.0, Demand(utilization=0.7,
                                                       threads=2))]))
        machine, scheduler = kernel.machine, kernel.scheduler
        placements, calls = [], []
        assign = scheduler.assign
        lay_out = machine.engine._lay_out
        wall_power = machine.power_model.wall_power
        scheduler.assign = lambda demands: (
            placements.append(assign(demands)) or placements[-1])
        machine.engine._lay_out = lambda *args: (
            calls.append("layout") or lay_out(*args))
        machine.power_model.wall_power = lambda *args, **kwargs: (
            calls.append("compile") or wall_power(*args, **kwargs))
        for _ in range(50):
            kernel.run_span(1)
        assert len(placements) == 50
        assert all(placement is placements[0] for placement in placements)
        assert calls == ["layout", "compile"]
