"""Shared hypothesis strategies for simulator-level property tests.

The ROADMAP calls for one home for the generators every property suite
needs — instruction mixes, memory profiles, valid (non-oversubscribed)
assignment lists, dt values and multi-segment schedules with pid churn —
so each new test file stops growing its own slightly different copies.
The telemetry wire frames, spool records, pipeline specs and fault
plans that the streaming/chaos suites fuzz live here too.

``default_settings`` is the shared profile: bounded example counts and
no deadline (the simulator's first tick can dominate a single example's
wall-time and trip hypothesis's per-example deadline heuristics).
"""

from hypothesis import HealthCheck, settings

from tests.strategies.assignments import (assignment_lists, dts,
                                          event_deltas, instruction_mixes,
                                          memory_profiles, ramps, schedules,
                                          thread_assignments)
from tests.strategies.faultplans import fault_events, fault_plans
from tests.strategies.matrices import (invariant_configs, matrix_specs,
                                       net_fault_events, net_fault_plans,
                                       pipeline_variants)
from tests.strategies.pipelines import (control_specs, pipeline_specs,
                                        reporter_specs)
from tests.strategies.spool import (spool_payload_lists, spool_payloads,
                                    torn_journals)
from tests.strategies.telemetry import (aggregated_reports, chunkings,
                                        frame_payloads,
                                        header_corruptions, report_frames)

#: The shared profile property suites decorate with.
default_settings = settings(max_examples=50, deadline=None,
                            suppress_health_check=[HealthCheck.too_slow])

__all__ = [
    "default_settings",
    # simulator occupancies
    "assignment_lists", "dts", "event_deltas", "instruction_mixes",
    "memory_profiles", "ramps", "schedules", "thread_assignments",
    # telemetry wire
    "aggregated_reports", "chunkings", "frame_payloads",
    "header_corruptions", "report_frames",
    # durable spool
    "spool_payload_lists", "spool_payloads", "torn_journals",
    # declarative pipelines
    "control_specs", "pipeline_specs", "reporter_specs",
    # fault plans
    "fault_events", "fault_plans",
    # scenario matrices
    "invariant_configs", "matrix_specs", "net_fault_events",
    "net_fault_plans", "pipeline_variants",
]
