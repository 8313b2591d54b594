"""Every consumer of the formula's reports against pinned outputs.

Each scenario is drawn from its seed: 1-8 ``RandomWorkload`` pids, a
kernel quantum of 1 or 10 ms, a period of 1 ms to 0.5 s, the ``hpc`` or
the ``cpu-load`` formula and, for about half of the ``hpc`` scenarios,
a slot starvation long enough to degrade the pipeline and short enough
for it to recover.  Beside the default pipeline each run spawns a
:class:`CgroupAggregator` over a two-group tree and a
:class:`RegionProfiler`.  The digest of a run covers the aggregated
reports (``by_pid`` in iteration order), the :class:`PidEnergyReport`
of the final flush, the cgroup reports and energies, and the region
profiler's energies, so a change to how the stages hand estimates to
each other must keep every one of them bit for bit.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.cgroup_monitor import CgroupAggregator, InMemoryCgroupReporter
from repro.core.codelevel import RegionProfiler
from repro.core.model import published_i3_2120_model
from repro.core.monitor import PowerAPI
from repro.core.reporters import InMemoryReporter
from repro.os.cgroups import CgroupTree
from repro.os.kernel import SimKernel
from repro.simcpu.spec import intel_i3_2120
from repro.workloads import RandomWorkload

PERIODS_S = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5)
#: Monitoring periods per run.
PERIODS = 40


def scenario(seed: int) -> dict:
    """The scenario a seed draws (plain values, printable in a failure)."""
    rng = random.Random(seed)
    quantum_s = rng.choice((0.001, 0.01))
    period_s = rng.choice([period for period in PERIODS_S
                           if period >= quantum_s])
    formula = "cpu-load" if seed % 3 == 2 else "hpc"
    faults = None
    if seed % 3 == 1:
        # Three missing periods degrade, two good ones recover.
        start, length = rng.randrange(8, 15), rng.randrange(4, 9)
        faults = f"starve@{start * period_s:g}:{length * period_s:g}:0"
    return {
        "seeds": [rng.randrange(1000) for _ in range(rng.randrange(1, 9))],
        "quantum_s": quantum_s,
        "period_s": period_s,
        "formula": formula,
        "faults": faults,
    }


def run_digest(config: dict) -> str:
    """SHA-256 of what every report consumer produced over one run."""
    duration_s = PERIODS * config["period_s"]
    kernel = SimKernel(intel_i3_2120(), quantum_s=config["quantum_s"])
    workloads = [RandomWorkload(duration_s + 1.0, seed=seed)
                 for seed in config["seeds"]]
    pids = [kernel.spawn(workload) for workload in workloads]
    model = published_i3_2120_model()
    api = PowerAPI(kernel, model, period_s=config["period_s"])
    builder = (api.monitor(*pids).every(config["period_s"])
               .with_formula(config["formula"]))
    if config["faults"] is not None:
        builder.with_faults(config["faults"])
    handle = builder.to(InMemoryReporter())
    tree = CgroupTree()
    for index, pid in enumerate(pids):
        tree.attach(pid, "a" if index % 2 == 0 else "b")
    cgroups = CgroupAggregator(tree, idle_w=model.idle_w)
    cgroup_reports = InMemoryCgroupReporter()
    profiler = RegionProfiler(kernel, dict(zip(pids, workloads)))
    api.system.spawn(cgroups, name="cgroup-aggregator")
    api.system.spawn(cgroup_reports, name="cgroup-reporter")
    api.system.spawn(profiler, name="region-profiler")
    api.run(duration_s)
    api.flush()
    reporter = handle.reporter
    record = repr((
        [(r.time_s, r.period_s, list(r.by_pid.items()), r.idle_w,
          r.formula, r.gap) for r in reporter.aggregated],
        [(e.time_s, e.duration_s, list(e.energy_by_pid_j.items()),
          e.formula) for e in reporter.energy_reports],
        [(c.time_s, c.period_s, list(c.by_group.items()), c.idle_w,
          c.formula) for c in cgroup_reports.reports],
        list(cgroups.energy_by_group_j.items()),
        [sorted(profiler.profile(pid).items()) for pid in pids],
    ))
    api.shutdown()
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


#: Each scenario's digest, pinned from the pipeline that passed one
#: report per pid between stages.
PINNED = {
    0: "4b521bd95a9c9850777049040bc77c15b4370db1d0ec2b296d0d577388033cbf",
    1: "eeb230d37d052f95e56ef18d5080d8992090ed75e46c96fa3a0d40eab756b493",
    2: "7fa02bbca4f7a35374c5173e23268a0dd7c7e849d8b30d6dab59213c0644d265",
    3: "1c59b5cf9d286c22127a10618a776c02e2d5e54fbc65245c568ecf410f479eb4",
    4: "a2e9fa94e1d9273716ce816d31b8d1b9235c6e39097696b7eba5e0ced3f661ab",
    5: "d8aaac60a416c6719303aac1fe922af785dd5f3a3f89f19334fcd1e6823c1858",
    6: "ef6853f9dffec8d1f19ceea6acc0fd7f6aa10f0742038a7ce272b197b8f5e45b",
    7: "e5d1f3ed2c9d9688f16b6724dd4fcf5692ce1856e58cefc204d509c3de0d8d9a",
    8: "cf924a82550e9fbb10a6684c609ae9ce7095a908a868ded24d92bd4bc6dbf398",
    9: "84cd4e77ef2eb04813b6110f3aa0509fb19ca77731a703a2f3120b36b2943066",
    10: "1df5be476024e3093a761ae3ef90c9c708a9edf3db13bee54d715087178aed4e",
    11: "f453c9f7d1d5b683bcf11b9201fd4f3260e981f305b4c1bfa0de82fac42f43e8",
    12: "67bb854177cbc1afa0267b42658eb0218e564295a4d980838efb7ddf0242bcf4",
    13: "a2c4a92984fbb8f553cc509cae6d87e3c15a401ba01576a6e7f596334f781f19",
    14: "1db320f825b5f0301c59ce29f048fc7273ea0586d1740163f886ec2c84f2aa29",
    15: "f493c26b022d0cee1b66fb7e288ab5b43d9be5350e3428c066c60f047806186d",
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_consumer_outputs_match_pinned_digests(seed):
    config = scenario(seed)
    assert run_digest(config) == PINNED[seed], config
