"""A sim-only slice of the nightly scenario matrix, run on every change.

``examples/matrix.toml`` runs nightly with telemetry sessions and network
faults.  This slice keeps its governors, workloads, fault plans and cap
and drops the telemetry axes (one network plan, no replay window): 12
seeded virtual-time cells that must pass every invariant of the nightly
suite, determinism re-run included.  Each cell's sim digest (reports,
cap events, health log and applied faults) is pinned, so a change that
moves any of them — an earlier clock tick, a fault one quantum late —
fails here rather than in the nightly job.
"""

from pathlib import Path

import pytest

from repro.matrix.runner import observe_cell, run_cell
from repro.matrix.spec import MatrixSpec

NIGHTLY = Path(__file__).resolve().parent.parent / "examples" / "matrix.toml"

#: ``observe_cell(cell).digest`` of every cell of the slice.
DIGESTS = {
    "cpu=i3-2120/gov=performance/wl=cpu/faults=none/net=none/pipe=sim/cap=45":
        "cd7c50ae93af944b1605733a593903f187e86617467993e4194b2250e3180586",
    "cpu=i3-2120/gov=performance/wl=cpu/faults=f1/net=none/pipe=sim/cap=45":
        "732bdd97ebb1babb9ef21b86857fa49295f0dcd4ac479c707521e91c8bdf3aba",
    "cpu=i3-2120/gov=performance/wl=cpu/faults=f2/net=none/pipe=sim/cap=45":
        "b18c0df1f005ce50f65556d0603463064e0ab815b7f791910f6668b0bc60d1d8",
    "cpu=i3-2120/gov=performance/wl=mixed/faults=none/net=none/pipe=sim/cap=45":
        "eb1131f682cde998881acfa28035e5655302e4dd7c02d9510622bfb2f53ef8af",
    "cpu=i3-2120/gov=performance/wl=mixed/faults=f1/net=none/pipe=sim/cap=45":
        "a05c542dd4580c69128c88684c4a08730a90ab6852258f7bc95e074f2b96fc95",
    "cpu=i3-2120/gov=performance/wl=mixed/faults=f2/net=none/pipe=sim/cap=45":
        "2d5fd449450833e87a8fd043a235627115677d981bfb1e25f9f51a554af0331a",
    "cpu=i3-2120/gov=ondemand/wl=cpu/faults=none/net=none/pipe=sim/cap=45":
        "54d29b4ecb89931ccea66e7f11fe4874b5211c1dde140b5374d3dd5e748d8e04",
    "cpu=i3-2120/gov=ondemand/wl=cpu/faults=f1/net=none/pipe=sim/cap=45":
        "bed141012d7ed47ec96fd4a6a0faea03f578bf288cd17e0c5f9e121854a61c23",
    "cpu=i3-2120/gov=ondemand/wl=cpu/faults=f2/net=none/pipe=sim/cap=45":
        "e35a68be6f25c00838e3e6629a6786c6010a7d0c72dce9db34503d8f17fc0545",
    "cpu=i3-2120/gov=ondemand/wl=mixed/faults=none/net=none/pipe=sim/cap=45":
        "a71b3cfbb3fa28eaf613c180123dfef39277f44f4fbca1726f58b5c4ceb934d4",
    "cpu=i3-2120/gov=ondemand/wl=mixed/faults=f1/net=none/pipe=sim/cap=45":
        "d65c10e1a822dc1f0fc8e81fbc5cff49ed93c395416eb1d9650c9ca73cd09eef",
    "cpu=i3-2120/gov=ondemand/wl=mixed/faults=f2/net=none/pipe=sim/cap=45":
        "1d468894c1e487fec0ee45a21b3e58c912d92b9561adf37c94341f30ffb4194c",
}


def _slice() -> MatrixSpec:
    payload = MatrixSpec.from_file(NIGHTLY).to_dict()
    payload["axes"]["net_faults"] = [""]
    payload["pipelines"] = [{"name": "sim"}]
    payload["xfail"] = []
    return MatrixSpec.from_dict(payload)


CELLS = _slice().cells()


def test_slice_covers_the_nightly_sim_axes():
    assert len(CELLS) == 12
    assert {cell.cell_id for cell in CELLS} == set(DIGESTS)


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell.cell_id)
def test_cell_passes_every_invariant(cell):
    result = run_cell(cell)
    assert result.ok, result.violations
    assert observe_cell(cell).digest == DIGESTS[cell.cell_id]
