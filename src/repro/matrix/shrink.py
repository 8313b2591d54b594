"""Delta-debugging failing cells into minimal repros.

A failing matrix cell usually fails for one reason buried in a pile of
coincidental configuration: a fault plan with five events of which one
matters, a governor that is irrelevant, a workload that could be the
cheapest one.  :func:`shrink_cell` reduces the cell while preserving
the *same* invariant violation:

1. **Fault events** — classic ddmin over the cell's fault-plan events,
   then over its network-fault events: remove chunks, keep any removal
   that still reproduces, tighten granularity until 1-minimal.
2. **Axes** — substitute each axis with the matrix's baseline (its
   first declared value) when the failure survives the substitution.

Every candidate is a full cell re-run, so the whole search is bounded
by a run *budget*; when it runs out the best reduction so far is
returned.  The result embeds a standalone one-cell matrix TOML and the
CLI command that re-runs it — any failure becomes a one-line repro.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.network import NetworkFaultPlan
from repro.faults.plan import FaultPlan
from repro.matrix.spec import MatrixCell, MatrixSpec, single_cell_spec


#: The cell's fault-plan axes, shrunk in this order.
_FAULT_AXES = (("faults", FaultPlan), ("net_faults", NetworkFaultPlan))


class _Budget:
    """Counts candidate runs; exhaustion conservatively stops reducing."""

    def __init__(self, runs: int) -> None:
        self.remaining = runs
        self.used = 0

    def take(self) -> bool:
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        self.used += 1
        return True


def ddmin(items: Sequence[object],
          fails: Callable[[Sequence[object]], bool]) -> List[object]:
    """Zeller's ddmin: a minimal sublist of *items* for which *fails*
    still holds.  Assumes ``fails(items)`` is True on entry."""
    items = list(items)
    if fails([]):
        return []
    granularity = 2
    while len(items) >= 2:
        chunk = max(1, (len(items) + granularity - 1) // granularity)
        reduced = False
        for start in range(0, len(items), chunk):
            candidate = items[:start] + items[start + chunk:]
            if candidate and fails(candidate):
                items = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(items):
                break
            granularity = min(len(items), granularity * 2)
    return items


def _fails_invariant(result_violations: List[Dict[str, object]],
                     target: str) -> bool:
    return any(v["invariant"] == target for v in result_violations)


def shrink_cell(spec: MatrixSpec, cell: MatrixCell, target: str,
                budget: int = 48) -> Dict[str, object]:
    """Reduce *cell* to a minimal cell still violating *target*.

    Returns a JSON-ready record: the minimal axes, the reduced fault
    specs, the standalone repro matrix TOML and its CLI command, plus
    how many candidate runs the search spent.
    """
    from repro.matrix.runner import run_cell
    from repro.matrix.spec import replace_cell

    runs = _Budget(budget)

    def fails(candidate: MatrixCell) -> bool:
        if not runs.take():
            return False
        return _fails_invariant(run_cell(candidate).violations, target)

    current = cell

    # Phase 1: ddmin the fault plans, events-first (usually the axis
    # with the most redundancy).  Plans are rebuilt through to_spec()
    # so the reduced cell stays a copy-pasteable spec string.
    for attr, plan_cls in _FAULT_AXES:
        if not getattr(current, attr):
            continue

        def fails_with(subset: Sequence[object]) -> bool:
            reduced = plan_cls(tuple(subset)).to_spec()
            return fails(replace_cell(current, **{attr: reduced}))

        kept = ddmin(list(plan_cls.parse(getattr(current, attr))),
                     fails_with)
        current = replace_cell(
            current, **{attr: plan_cls(tuple(kept)).to_spec()})

    # Phase 2: fold axes back to the matrix baseline (first declared
    # value) wherever the violation survives the substitution.
    baselines: List[Tuple[str, object]] = [
        ("cpu", spec.cpus[0]),
        ("governor", spec.governors[0]),
        ("workload", spec.workloads[0]),
        ("pipeline", spec.pipelines[0]),
        ("cap_w", spec.caps_w[0]),
    ]
    for attr, baseline in baselines:
        if getattr(current, attr) == baseline:
            continue
        candidate = replace_cell(current, **{attr: baseline})
        if fails(candidate):
            current = candidate

    repro_spec = single_cell_spec(
        current, name=f"{spec.name}-repro-{cell.index}")
    matrix_toml = repro_spec.to_toml()
    command = "python -m repro matrix run --matrix <repro.toml>"
    return {
        "target_invariant": target,
        "from_cell": cell.cell_id,
        "axes": current.axes(),
        "faults": current.faults,
        "net_faults": current.net_faults,
        "events_removed": sum(
            len(plan_cls.parse(getattr(cell, attr)))
            - len(plan_cls.parse(getattr(current, attr)))
            for attr, plan_cls in _FAULT_AXES),
        "runs_used": runs.used,
        "matrix_toml": matrix_toml,
        "command": command,
    }


def reverify(shrunk: Dict[str, object]) -> bool:
    """Whether a shrunk repro's standalone matrix still triggers the
    same invariant violation (the acceptance check for any shrink)."""
    from repro.matrix.runner import run_cell

    repro_spec = MatrixSpec.from_toml(shrunk["matrix_toml"])
    (cell,) = repro_spec.cells()
    result = run_cell(cell)
    return _fails_invariant(result.violations,
                            shrunk["target_invariant"])
