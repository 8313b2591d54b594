"""T1 — Table 1: Intel Core i3 2120 specifications.

Regenerates the paper's Table 1 from the simulated machine description
and verifies every row against the published values.
"""

import pytest

from repro.analysis.report import render_table
from repro.simcpu.machine import Machine
from repro.units import ghz

pytestmark = pytest.mark.paper


def test_table1_specifications(benchmark, i3_spec, save_result):
    rows = benchmark(i3_spec.specification_table)
    table = dict(rows)

    assert table["Vendor"] == "Intel"
    assert table["Processor"] == "i3"
    assert table["Model"] == "2120"
    assert table["Design"] == "4 threads"
    assert table["Frequency"] == "3.30 GHz"
    assert table["TDP"] == "65 W"
    assert table["SpeedStep (DVFS)"] == "yes"
    assert table["HyperThreading (SMT)"] == "yes"
    assert table["TurboBoost (Overclocking)"] == "no"
    assert table["C-states (Idle states)"] == "yes"
    assert table["L1 cache"] == "64 KB / core"
    assert table["L2 cache"] == "256 KB / core"
    assert table["L3 cache"] == "3 MB"

    save_result("table1_specs", render_table(
        rows, title="Table 1: Intel Core i3 2120 specifications"))


def test_table1_machine_instantiates(benchmark, i3_spec):
    """The spec is buildable: the simulated machine boots from Table 1."""
    machine = benchmark(Machine, i3_spec)
    assert len(machine.topology) == 4
    assert machine.spec.max_frequency_hz == ghz(3.3)
