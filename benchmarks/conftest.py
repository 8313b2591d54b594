"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one artefact of the paper (a table, a figure,
or a comparison row).  Expensive set-up — model learning, long traces —
lives in session-scoped fixtures so the harness runs end-to-end in
minutes; rendered artefacts are written to ``benchmarks/results/`` and
echoed to stdout for the record.
"""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path
from typing import Callable

import pytest

from repro.core.sampling import SamplingCampaign, learn_power_model
from repro.simcpu.spec import intel_i3_2120
from repro.workloads.stress import CpuStress, MemoryStress

RESULTS_DIR = Path(__file__).parent / "results"

# The repo benchmark's host-speed probes (``perf/`` is not a package, so
# load the module by path).  The BENCH_*.json microbenchmarks probe the
# host around each timed region and record seconds divided by the host
# factor, as ``perf/bench.py`` does, so a trend compares code, not hosts.
_HOSTSPEED = importlib.util.spec_from_file_location(
    "hostspeed", Path(__file__).parent / "perf" / "hostspeed.py")
_hostspeed = importlib.util.module_from_spec(_HOSTSPEED)
_HOSTSPEED.loader.exec_module(_hostspeed)
HostSpeed = _hostspeed.HostSpeed

#: Host probes taken on each side of a timed region.
REGION_PROBES = 5


def probed_seconds(host: HostSpeed, run: Callable[[], object]) -> float:
    """Wall seconds of ``run()``, with host probes on each side of it."""
    host.sample(REGION_PROBES)
    start = time.perf_counter()
    run()
    elapsed = time.perf_counter() - start
    host.sample(REGION_PROBES)
    return elapsed


@pytest.fixture(scope="session")
def save_result():
    """Write an artefact to benchmarks/results/<name>.txt and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n===== {name} =====\n{text}\n")

    return _save


@pytest.fixture(scope="session")
def i3_spec():
    """The paper's evaluation machine."""
    return intel_i3_2120()


def paper_style_workloads(threads: int = 4):
    """The paper's sampling dimensions: CPU- and memory-intensive stress."""
    return [
        CpuStress(utilization=1.0, threads=threads),
        MemoryStress(utilization=1.0, threads=threads,
                     working_set_bytes=64 * 1024 ** 2),
        MemoryStress(utilization=1.0, threads=threads,
                     working_set_bytes=2 * 1024 ** 2),
    ]


def paper_campaign(spec, frequencies_hz=None):
    """A Figure 1 campaign with the paper's quick full-load methodology."""
    return SamplingCampaign(
        spec,
        workloads=paper_style_workloads(spec.num_threads),
        frequencies_hz=frequencies_hz,
        window_s=1.0,
        windows_per_run=4,
        settle_s=0.5,
        quantum_s=0.05,
    )


@pytest.fixture(scope="session")
def paper_model_report(i3_spec):
    """The generic-trio model learned the way the paper learns it."""
    return learn_power_model(i3_spec, campaign=paper_campaign(i3_spec),
                             idle_duration_s=20.0)


@pytest.fixture(scope="session")
def paper_model(paper_model_report):
    return paper_model_report.model
