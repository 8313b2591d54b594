"""API-surface regression tests.

Downstream users import from the package roots; these tests pin the
public surface so a refactor cannot silently drop an export, and verify
that ``__all__`` matches what is actually importable.
"""

import importlib
import runpy
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.actors",
    "repro.analysis",
    "repro.baselines",
    "repro.core",
    "repro.os",
    "repro.perf",
    "repro.powermeter",
    "repro.simcpu",
    "repro.workloads",
]


EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports_resolve(path):
    """Every example's imports resolve; its main guard keeps it idle."""
    runpy.run_path(str(path), run_name="example")


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_is_sorted(package):
    module = importlib.import_module(package)
    exported = list(getattr(module, "__all__", []))
    assert exported == sorted(exported), f"{package}.__all__ not sorted"


class TestKeyEntryPoints:
    """The imports every README/tutorial snippet relies on."""

    def test_learning_entry_points(self):
        from repro.core import (SamplingCampaign, learn_power_model,
                                calibrate_idle_power, published_i3_2120_model)
        assert callable(learn_power_model)
        assert callable(calibrate_idle_power)
        assert published_i3_2120_model().idle_w == pytest.approx(31.48)
        del SamplingCampaign

    def test_monitoring_entry_points(self):
        from repro.core import PowerAPI, InMemoryReporter, PowerModel
        from repro.os import SimKernel
        from repro.simcpu import intel_i3_2120
        from repro.workloads import SpecJbbWorkload
        assert all(callable(x) for x in (PowerAPI, InMemoryReporter,
                                         PowerModel, SimKernel,
                                         intel_i3_2120, SpecJbbWorkload))

    def test_extension_entry_points(self):
        from repro.core import (measure_energy, assert_energy_within,
                                cross_validate, ModelRegistry,
                                estimate_from_csv)
        from repro.os import VirtualMachine, CgroupTree, SysFs
        from repro.simcpu import TrueProcessPower
        from repro.analysis import bootstrap, rank_consumers
        assert all(callable(x) for x in (
            measure_energy, assert_energy_within,
            cross_validate, ModelRegistry, estimate_from_csv,
            VirtualMachine, CgroupTree, SysFs, TrueProcessPower,
            bootstrap, rank_consumers))

    def test_baseline_entry_points(self):
        from repro.baselines import (learn_bertran_model,
                                     learn_cpu_load_model,
                                     learn_happy_model, run_windows,
                                     score_model)
        assert all(callable(x) for x in (
            learn_bertran_model, learn_cpu_load_model, learn_happy_model,
            run_windows, score_model))

    def test_version_is_exposed(self):
        import repro
        assert repro.__version__ == "1.0.0"
