"""Count the ``src/`` tree's lines and write the BENCH_src.json headline.

Code size is tracked next to speed, so a deletion shows up as clearly as
a speedup.  ``src_lines`` is the total (what ``find src -name '*.py' |
xargs wc -l`` prints); ``src_lines_<package>`` is each ``repro``
subpackage's share, with the top-level modules (``cli.py``,
``errors.py``, ...) counted as ``src_lines_repro``.  CI diffs a fresh
count against the committed baseline with ``diff_bench.py --lower``.
Usage::

    python benchmarks/src_lines.py [--src src] [--output BENCH_src.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict

REPO_ROOT = Path(__file__).resolve().parent.parent


def count_lines(src: Path) -> Dict[str, int]:
    """``{"src_lines": total, "src_lines_<package>": lines, ...}``."""
    counts: Dict[str, int] = {"src_lines": 0}
    for path in sorted(src.rglob("*.py")):
        lines = path.read_bytes().count(b"\n")
        parts = path.relative_to(src).parts
        package = parts[1] if len(parts) > 2 else parts[0]
        key = f"src_lines_{package}"
        counts[key] = counts.get(key, 0) + lines
        counts["src_lines"] += lines
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", type=Path, default=REPO_ROOT / "src")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_src.json")
    args = parser.parse_args(argv)
    counts = count_lines(args.src)
    args.output.write_text(json.dumps(counts, indent=2, sort_keys=True)
                           + "\n")
    print(f"src_lines {counts['src_lines']} -> {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
