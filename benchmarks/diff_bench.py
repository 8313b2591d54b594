"""Diff a freshly measured BENCH_sim.json against the committed baseline.

CI runs the perf microbenchmarks on every push; this script turns the
result into a review signal: it compares the throughput metrics of the
fresh ``BENCH_sim.json`` against the baseline committed in git, prints a
markdown table (appended to ``$GITHUB_STEP_SUMMARY`` when set), and
flags any metric that regressed by more than the threshold.

Shared-runner timing noise is real, so the job stays non-blocking — the
annotation is for humans, the exit code (1 on regression) only colours
the non-blocking job.  Usage::

    python benchmarks/diff_bench.py BASELINE.json CURRENT.json [--threshold 10]
    python benchmarks/diff_bench.py BENCH_control.baseline.json \
        BENCH_control.json --higher mean_adherence \
        --lower mean_throughput_loss_pct,worst_overshoot_pct

Without ``--higher``/``--lower`` the defaults diff the simulator
throughput file (``BENCH_sim.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: Higher-is-better metrics diffed between baseline and current.
THROUGHPUT_METRICS = ("steady_quanta_per_sec", "ramp_quanta_per_sec")
#: Lower-is-better metrics diffed between baseline and current.
WALL_METRICS = ("campaign_wall_s", "campaign_wall_serial_s")


def diff_benchmarks(baseline: dict, current: dict, threshold_pct: float,
                    higher=THROUGHPUT_METRICS,
                    lower=WALL_METRICS) -> tuple[list, list]:
    """Returns (markdown table rows, regression messages)."""
    rows = []
    regressions = []
    for metric in tuple(higher) + tuple(lower):
        base = baseline.get(metric)
        new = current.get(metric)
        if base is None or new is None or not base:
            rows.append((metric, base, new, "n/a", ""))
            continue
        higher_is_better = metric in higher
        change_pct = (new - base) / base * 100.0
        regressed_pct = -change_pct if higher_is_better else change_pct
        flag = ""
        if regressed_pct > threshold_pct:
            flag = f"regression ({regressed_pct:+.1f}%)"
            regressions.append(
                f"{metric}: {base} -> {new} ({change_pct:+.1f}%)")
        rows.append((metric, base, new, f"{change_pct:+.1f}%", flag))
    return rows, regressions


def render_markdown(rows, regressions, threshold_pct) -> str:
    lines = ["### Simulator benchmark vs committed baseline", ""]
    lines.append("| metric | baseline | current | change | |")
    lines.append("|---|---|---|---|---|")
    for metric, base, new, change, flag in rows:
        lines.append(f"| {metric} | {base} | {new} | {change} | {flag} |")
    lines.append("")
    if regressions:
        lines.append(f"**{len(regressions)} metric(s) regressed more than "
                     f"{threshold_pct:.0f}%:**")
        lines.extend(f"- {entry}" for entry in regressions)
    else:
        lines.append(f"No regressions beyond {threshold_pct:.0f}%.")
    lines.append("")
    return "\n".join(lines)


def _metric_list(value: str) -> tuple:
    return tuple(name for name in value.split(",") if name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="regression threshold, percent (default 10)")
    parser.add_argument("--higher", type=_metric_list,
                        default=THROUGHPUT_METRICS, metavar="M1,M2",
                        help="comma-separated higher-is-better metrics "
                             f"(default: {','.join(THROUGHPUT_METRICS)})")
    parser.add_argument("--lower", type=_metric_list,
                        default=WALL_METRICS, metavar="M1,M2",
                        help="comma-separated lower-is-better metrics "
                             f"(default: {','.join(WALL_METRICS)})")
    args = parser.parse_args(argv)

    if not args.baseline.exists():
        print(f"no baseline at {args.baseline}; nothing to diff")
        return 0
    if not args.current.exists():
        print(f"no current results at {args.current}; benchmark did not run?")
        return 0
    baseline = json.loads(args.baseline.read_text())
    current = json.loads(args.current.read_text())

    rows, regressions = diff_benchmarks(baseline, current, args.threshold,
                                        higher=args.higher,
                                        lower=args.lower)
    markdown = render_markdown(rows, regressions, args.threshold)
    print(markdown)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as summary:
            summary.write(markdown + "\n")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
