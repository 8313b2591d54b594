"""The degradation ladder against pinned outputs.

Each scenario is drawn from its seed: 1-3 monitored pids, a period of
0.05-0.5 s, ``degrade_after`` and ``recover_after`` of 1-3, an immediate
or a 0.3 s restart backoff, and a fault plan of slot starvation, HPC
sample loss, pid exits and ``formula-0`` crashes.  No scenario crashes
the sensor.  The digest of a run covers every aggregated report (time,
period, per-pid watts, formula, gap flag), the health-log signature and
``handle.degraded`` after each period, so a change to how the ladder is
wired must keep all three bit for bit.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.actors.supervision import RestartStrategy
from repro.core.model import published_i3_2120_model
from repro.core.monitor import PowerAPI
from repro.core.reporters import InMemoryReporter
from repro.os.kernel import SimKernel
from repro.simcpu.spec import intel_i3_2120
from repro.workloads import CpuStress, RandomWorkload

pytestmark = pytest.mark.faults

QUANTUM_S = 0.01
DURATION_S = 8.0
PERIODS_S = (0.05, 0.1, 0.2, 0.25, 0.5)


def _fault(rng: random.Random) -> str:
    at_s = rng.randrange(2, 25) / 4.0
    duration_s = rng.randrange(1, 11) / 4.0
    kind = rng.choice(("starve", "starve", "hpc-loss", "pid-exit", "crash"))
    if kind == "starve":
        return f"starve@{at_s:g}:{duration_s:g}:{rng.choice((0, 0, 1, 2))}"
    if kind == "hpc-loss":
        return f"hpc-loss@{at_s:g}:{duration_s:g}"
    if kind == "pid-exit":
        return f"pid-exit@{at_s:g}:{rng.randrange(3)}"
    return f"crash@{at_s:g}:formula-0"


def scenario(seed: int) -> dict:
    """The scenario a seed draws (plain values, printable in a failure)."""
    rng = random.Random(seed)
    # A long outage first, so most scenarios climb down the ladder.
    at_s = rng.randrange(2, 13) / 4.0
    faults = [f"starve@{at_s:g}:{rng.randrange(4, 13) / 4.0:g}:0"
              if rng.random() < 0.6 else
              f"hpc-loss@{at_s:g}:{rng.randrange(4, 13) / 4.0:g}"]
    faults.extend(_fault(rng) for _ in range(rng.randrange(0, 3)))
    return {
        "tenants": [("cpu", rng.choice((0.25, 0.5, 1.0)))
                    if rng.random() < 0.4 else
                    ("random", rng.randrange(1000))
                    for _ in range(rng.randrange(1, 4))],
        "period_s": rng.choice(PERIODS_S),
        "degrade_after": rng.randrange(1, 4),
        "recover_after": rng.randrange(1, 4),
        "backoff_s": rng.choice((0.0, 0.3)),
        "faults": ";".join(faults),
    }


def run_digest(config: dict) -> str:
    """SHA-256 of the reports, health log and per-period mode of a run."""
    kernel = SimKernel(intel_i3_2120(), quantum_s=QUANTUM_S)
    pids = [kernel.spawn(CpuStress(utilization=value,
                                   duration_s=DURATION_S + 1.0)
                         if kind == "cpu" else
                         RandomWorkload(DURATION_S + 1.0, seed=value))
            for kind, value in config["tenants"]]
    api = PowerAPI(kernel, published_i3_2120_model())
    api.system.strategy = RestartStrategy(backoff_base_s=config["backoff_s"])
    handle = (api.monitor(*pids).every(config["period_s"])
              .with_degradation(config["degrade_after"],
                                config["recover_after"])
              .with_faults(config["faults"])
              .to(InMemoryReporter()))
    degraded = []
    for _ in range(int(round(DURATION_S / config["period_s"]))):
        api.run(config["period_s"])
        degraded.append(handle.degraded)
    api.flush()
    reports = [(report.time_s, report.period_s,
                sorted(report.by_pid.items()), report.formula, report.gap)
               for report in handle.reporter.aggregated]
    record = repr((reports, handle.health.signature(), degraded))
    api.shutdown()
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


#: Each scenario's digest, pinned from the ladder of separate standby
#: actors that the sensor's own ladder replaced.  Seed 7 suspends
#: ``formula-0`` across 16 of its 0.05 s periods; it was re-pinned when
#: the timestamp aggregator began to mark such periods as
#: ``gap:missing`` reports, its only change.
PINNED = {
    0: "fa08d05fb7660b3231afdc1350f10c20699dc759053c0407cff2ca175a4bd851",
    1: "1624e6284f567248c54da2e34099a05bd4f0045eecce77d7dcb4e520be0c2f3c",
    2: "26a4848f80c4764b3f0171add06d8dd5ec5274fcde95009b2c27817106d5e16b",
    3: "20ac0220b93ec4cbdfc1558aa7215f608e818dc0675070a989e12a77ddfe8db9",
    4: "b10f8d7505201738949ca9c489e54d52bf3a4cac2c0ebe4031187b1adc10c20a",
    5: "47353c994f25fec42ed4dc85e7265348090ddeeb4082d6492fc1dc027085d4ef",
    6: "97e32bffbb5b9b3b7b2b711ec8b8555a7af05d29ead654a0e4303f0349723a59",
    7: "d4d5e4716e63d8d7f56d6b43bee5c3c4b84ec2e8360eb476654d92a84e4b5c64",
    8: "dff8af96f7aec7e1f735779641615cf5eaed3e452727975385e294dbca7db152",
    9: "a28cc9cf833056ce7bc213cd532123e81d82cb4c249773ffe6076b1c134bb82c",
    10: "47a7cf8c714cfef77431dfd1d6c3f2f6d058a6a153a017b0bc846df073310ab9",
    11: "3fe6ec0e34a1df227115e8f7d49a50e10b8de830339d557ed6f204591c42868a",
    12: "0b4264d1b73e467a74bc8cac79223f80d59111c3c18e5dff34516ce19bf8f881",
    13: "b543975cdd74b5a38cb6b178d2541fe936216dc4e8ff36fd4a241baab2050895",
    14: "97f9b6dbf1e436d1e271bf076705898f35936ee644e16d93882faa8e9bd8870a",
    15: "dfaddd6cb1235b5914d76422aabe7e1f3cd0f4e1ae6b7c86edcff577c44e4b0e",
    16: "6890b0facc6fdb05a3e618970601c83e42a12d4fba28fca5b4c792f4587bd1db",
    17: "a76b009f042647b7b609ade7c77864018f5b54a1abeba7ba673c7b52a64b5a96",
    18: "155ca54998f5ec6e3269481e22982f03c268a21c8ebccc82b555dc9afaf1ede9",
    19: "da6049981a143aa5ded81f3a9d1a652462c664a4ff54ec93bd6a2edc83b8bdc9",
    20: "4bfbc8af9a76b59b8bd48fbc26e46f5da65d3dbad538c37aee5a845ec8875e8d",
    21: "0b0fdf687b656ae4ad2e5a258c9a665400d577f11200b9002476ff2ff6d5bfe1",
    22: "6a9ce8690168fc056ce9d1c10af03c94efa5ee6d86822cef45f99d5d8f2eb986",
    23: "764ecc612ad4f6264539ee2b81e35797487e3d5c18ccee2a0eb15298aeeef55b",
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_ladder_outputs_match_pinned_digests(seed):
    config = scenario(seed)
    assert "sensor-0" not in config["faults"]
    assert run_digest(config) == PINNED[seed], config
