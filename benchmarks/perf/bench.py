#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run one workload (each instance runs in a fresh subprocess)::

    python3 benchmarks/perf/bench.py --workload live-default --seed 0 \\
        --seconds 20 --trace 0 [--repeat R] [--out DIR]

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` runs one untraced and one traced instance and reports the
per-layer metrics.  Every metric is printed as ``workload metric value
unit``; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when an output
check fails.  Results, reporter outputs and raw spans go to a fresh
directory under ``--out`` (default ``.bench_out/`` at the repository
root).

Compare two sets of result files, following the alternating-pairs rule::

    python3 benchmarks/perf/bench.py compare RUNS_A RUNS_B

This process only orchestrates: it never imports the program, so its
own start-up and memory stay out of every measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORKLOADS = ("live-default", "live-1ms", "capped-telemetry", "learn")
LIVE = WORKLOADS[:3]
#: Set-ups measured per run; extra set-up-only instances make up the
#: difference when the measured instances alone are fewer.
SETUP_SAMPLES = 3
#: No instance may take longer than this (the first one compiles .pyc).
INSTANCE_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """A run could not complete; no result is printed."""


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    """Host facts recorded with every result, taken before the run."""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": git_sha(), "loadavg": list(os.getloadavg())}


# -- instances ------------------------------------------------------------

def spawn_instance(args, out: Path, label: str, trace: bool = False,
                   setup_only: bool = False, bare: bool = False) -> dict:
    """Run one instance subprocess; its set-up time is measured from here."""
    directory = out / label
    directory.mkdir()
    command = [sys.executable, str(HERE / "bench.py"), "_instance",
               "--workload", args.workload, "--seed", str(args.seed),
               "--scale", repr(args.scale), "--out", str(directory)]
    command += ["--trace"] * trace + ["--setup-only"] * setup_only \
        + ["--bare"] * bare
    spawned = time.monotonic()
    try:
        completed = subprocess.run(command, env=_child_env(),
                                   timeout=INSTANCE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{label} timed out") from None
    if completed.returncode != 0:
        raise BenchError(f"{label} exited with {completed.returncode}")
    result = json.loads((directory / "instance.json").read_text())
    result["setup_s"] = result["ready"] - spawned
    result["elapsed_s"] = time.monotonic() - spawned
    return result


def measure(args, out: Path) -> List[dict]:
    """Instances until ``--seconds`` is used up (or exactly ``--repeat``)."""
    instances: List[dict] = []
    start = time.monotonic()
    while True:
        instances.append(spawn_instance(args, out,
                                        f"instance-{len(instances)}"))
        if args.repeat:
            if len(instances) >= args.repeat:
                break
            continue
        typical = statistics.median(i["elapsed_s"] for i in instances)
        if time.monotonic() - start + typical > args.seconds:
            break
    return instances


def _reference_s(instance: dict, key: str) -> float:
    """A measured time scaled to the reference host speed (hostspeed.py)."""
    factor = "setup_factor" if key == "setup_s" else "host_factor"
    return instance[key] / instance[factor]


def end_to_end(args, out: Path) -> Tuple[List[dict], Dict[str, float]]:
    instances = measure(args, out)
    setups = [_reference_s(i, "setup_s") for i in instances]
    while len(setups) < SETUP_SAMPLES:
        probe = spawn_instance(args, out, f"setup-{len(setups)}",
                               setup_only=True)
        setups.append(_reference_s(probe, "setup_s"))

    def median(key):
        return statistics.median(key(i) for i in instances)

    metrics = {
        "sim_s_per_wall_s":
            median(lambda i: i["sim_s"] / _reference_s(i, "wall_s")),
        "cpu_s_per_sim_s":
            median(lambda i: _reference_s(i, "cpu_s") / i["sim_s"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": median(lambda i: i["rss_mb"]),
    }
    return instances, metrics


def per_layer(args, out: Path) -> Tuple[List[dict], Dict[str, float]]:
    untraced = spawn_instance(args, out, "untraced")
    traced = spawn_instance(args, out, "traced", trace=True)
    untraced_s = _reference_s(untraced, "wall_s")
    metrics = dict(traced["layers"])
    metrics["core.formula.median_ape_pct"] = untraced["median_ape_pct"]
    metrics["trace.overhead_pct"] = (
        (_reference_s(traced, "wall_s") / untraced_s - 1.0) * 100.0)
    metrics["core.monitor.overhead_pct"] = 0.0
    if args.workload in LIVE:
        bare = spawn_instance(args, out, "bare", bare=True)
        metrics["core.monitor.overhead_pct"] = (
            (untraced_s / _reference_s(bare, "wall_s") - 1.0) * 100.0)
    return [untraced, traced], metrics


def run(args) -> int:
    if not (SRC / "repro").is_dir():
        print(f"bench: no program source at {SRC}", file=sys.stderr)
        return 2
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = Path(args.out) if args.out else ROOT / ".bench_out"
    out = out / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                 f"{stamp}-{os.getpid()}")
    out.mkdir(parents=True)
    env = environment()
    started = time.time()
    try:
        instances, metrics = (per_layer if args.trace else end_to_end)(
            args, out)
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 3

    attempted = sum(i["attempted"] for i in instances)
    failed = sum(i["failed"] for i in instances)
    specs = _benchmark()["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {spec["name"]: {"value": metrics[spec["name"]],
                                   "unit": spec["unit"]} for spec in specs},
    }
    for name, entry in result["metrics"].items():
        print(f"{args.workload} {name} {entry['value']} {entry['unit']}")
    print(f"{args.workload} failed_ratio {failed / attempted} ratio")
    if not args.trace:
        # Accuracy is fixed by (code, seed), so every instance agrees;
        # it is a per-layer metric because seeds spread it too widely
        # for an end-to-end bound.
        print(f"{args.workload} core.formula.median_ape_pct "
              f"{instances[0]['median_ape_pct']} %")
    for instance in instances:
        for check, ok in sorted(instance["checks"].items()):
            if not ok:
                print(f"{args.workload} check failed: {check}",
                      file=sys.stderr)
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, seconds=args.seconds, scale=args.scale,
                  started=started, env=env, instances=instances)
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- comparison -------------------------------------------------------------

def _quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def compare(dir_a: Path, dir_b: Path) -> List[str]:
    """One line per (workload, end-to-end metric): B against A.

    Runs are paired in start order, which alternates A and B when they
    were run alternately.  A gain needs B to win at least nine tenths of
    the pairs and the medians to differ by more than A's quartile
    distance; a spread wider than the metric's bound is "unresolved"
    unless every B run beats every A run.
    """
    def load(directory: Path) -> List[dict]:
        runs = [json.loads(path.read_text())
                for path in sorted(directory.rglob("result.json"))]
        return sorted((r for r in runs if not r["trace"]),
                      key=lambda r: r["started"])

    runs_a, runs_b = load(dir_a), load(dir_b)
    lines = []
    for workload in WORKLOADS:
        side_a = [r for r in runs_a if r["workload"] == workload]
        side_b = [r for r in runs_b if r["workload"] == workload]
        if not side_a or not side_b:
            continue
        for spec in _benchmark()["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            sign = 1.0 if spec["better"] == "higher" else -1.0
            values_a = [r["metrics"][name]["value"] for r in side_a]
            values_b = [r["metrics"][name]["value"] for r in side_b]
            qa, qb = _quartiles(values_a), _quartiles(values_b)
            pairs = list(zip(values_a, values_b))
            won = sum(sign * (b - a) > 0 for a, b in pairs)
            spread = max((q[2] - q[0]) / q[1] for q in (qa, qb))
            worse_by = sign * (qa[1] - qb[1]) / qa[1]
            beats_all = (min(sign * v for v in values_b)
                         > max(sign * v for v in values_a))
            if spread > bound and not beats_all:
                verdict = "unresolved"
            elif won >= 0.9 * len(pairs) and \
                    abs(qb[1] - qa[1]) > qa[2] - qa[0]:
                verdict = "better"
            elif worse_by > bound:
                verdict = "worse"
            else:
                verdict = "within-bound"
            lines.append(
                f"{workload} {name} A {qa[1]:.6g} [{qa[0]:.6g}, "
                f"{qa[2]:.6g}] B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] "
                f"{spec['unit']} won {won}/{len(pairs)} {verdict}")
    return lines


# -- entry points -----------------------------------------------------------

def _instance_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench.py _instance")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--bare", action="store_true")
    args = parser.parse_args(argv)
    import workloads
    result = workloads.run(args.workload, args.seed, args.scale, args.out,
                           trace=args.trace, setup_only=args.setup_only,
                           bare=args.bare)
    (args.out / "instance.json").write_text(json.dumps(result))
    return 0


def _subscribe_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench.py _subscribe")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    import workloads
    workloads.subscribe(args.port, args.out)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["_instance"]:
        return _instance_main(argv[1:])
    if argv[:1] == ["_subscribe"]:
        return _subscribe_main(argv[1:])
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="bench.py compare")
        parser.add_argument("runs_a", type=Path)
        parser.add_argument("runs_b", type=Path)
        args = parser.parse_args(argv[1:])
        print("\n".join(compare(args.runs_a, args.runs_b)))
        return 0

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="wall time to keep starting instances for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        nargs="?", const=1)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run exactly this many instances instead")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fraction of each workload's length (digests "
                             "are checked only at 1)")
    parser.add_argument("--out", help="parent directory for results")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
