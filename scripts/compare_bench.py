#!/usr/bin/env python3
"""Read two points of the host-time trajectory against each other.

    python3 scripts/compare_bench.py BENCH_16.json BENCH_17.json
    python3 scripts/compare_bench.py --newest-below 19

Per workload: every end-to-end metric as parent, change, ratio and where
the change sits against the bound ``BENCHMARK.json`` fixes for it, in
the metric's ``better`` direction; then whether the simulated
``fingerprint`` blocks (every counter of every tracer, link packets and
bytes, samples held, ``sim_now``, percentiles) are equal and, if not,
which ``(sub-seed, key)`` pairs differ and which the change removed (a
key only the parent has: a deleted counter, not a moved value).

Exit 0 when every fingerprint is equal, 1 when one differs or lost a
key, 2 on input it cannot read.  Host-time verdicts are printed, not gated: two files
recorded an hour apart differ by the box's drift, so a claim needs the
alternating pairs of ``benchmarks/perf/README.md``, not this table.

``--newest-below N`` prints the committed point a new ``BENCH_N.json``
should be read against, the highest-numbered ``BENCH_<m>.json`` with
``m < N`` at the repo root (not every PR records one, so ``N - 1`` may
not exist); exit 2 when there is none.  ``scripts/record_bench.sh`` asks.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys
from typing import Dict, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"


def newest_below(n: int, root: pathlib.Path = ROOT) -> Optional[pathlib.Path]:
    """The highest-numbered ``BENCH_<m>.json`` under ``root`` with ``m < n``."""
    points = {int(match.group(1)): path for path in root.glob("BENCH_*.json")
              if (match := re.fullmatch(r"BENCH_(\d+)\.json", path.name))}
    earlier = [m for m in points if m < n]
    return points[max(earlier)] if earlier else None


def verdict(parent: float, change: float, better: str, bound: float) -> str:
    """Where ``change`` sits against ``parent`` for one metric: a move
    inside the bound reads as one either way, since the bound is what
    noise alone may do."""
    if change == parent:
        return "equal"
    gain = (change - parent if better == "higher" else parent - change)
    if abs(gain) <= bound * abs(parent):
        return "better, within bound" if gain > 0 else "within bound"
    return "BETTER than bound" if gain > 0 else "WORSE than bound"


def fingerprint_diff(parent: dict, change: dict) -> List[Tuple[str, str]]:
    """The ``(sub-seed, key)`` pairs the change holds with a simulated
    value other than the parent's (a key new at the change included)."""
    pairs = []
    for seed in sorted(change, key=int):
        a, b = parent.get(seed, {}), change[seed]
        pairs += [(seed, key) for key in sorted(b) if a.get(key) != b[key]]
    return pairs


def fingerprint_removed(parent: dict, change: dict) -> List[Tuple[str, str]]:
    """The ``(sub-seed, key)`` pairs only the parent holds."""
    return [(seed, key) for seed in sorted(parent, key=int)
            for key in sorted(parent[seed]) if key not in change.get(seed, {})]


def compare(parent: dict, change: dict, spec: dict) -> Tuple[List[str], Dict[str, list]]:
    """The report's lines, and per workload the fingerprint pairs that
    were removed or differ (empty lists when everything simulated is
    equal)."""
    lines = [f"{'workload':<18}{'metric':<18}{'parent':>14}{'change':>14}"
             f"{'ratio':>8}  against bound"]
    differing: Dict[str, list] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        a, b = parent[workload]["end_to_end"], change[workload]["end_to_end"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            x, y = a["metrics"][name], b["metrics"][name]
            lines.append(
                f"{workload:<18}{name:<18}{x:>14.4f}{y:>14.4f}"
                f"{y / x if x else float('nan'):>8.3f}  "
                f"{verdict(x, y, metric['better'], metric['bound'])} "
                f"({metric['better']} is better, bound {metric['bound']:.0%})")
        removed = fingerprint_removed(a["fingerprint"], b["fingerprint"])
        pairs = fingerprint_diff(a["fingerprint"], b["fingerprint"])
        differing[workload] = removed + pairs
        if removed:
            lines.append(f"{workload:<18}fingerprint removed {len(removed)}: "
                         + ", ".join(f"({s}, {k})" for s, k in removed))
        if pairs:
            lines.append(f"{workload:<18}fingerprint DIFFERS in {len(pairs)}: "
                         + ", ".join(f"({s}, {k})" for s, k in pairs))
        if not differing[workload]:
            lines.append(f"{workload:<18}fingerprint equal "
                         f"({len(a['fingerprint'])} sub-seeds)")
    return lines, differing


def main(argv: List[str]) -> int:
    if len(argv) == 2 and argv[0] == "--newest-below" and argv[1].isdigit():
        point = newest_below(int(argv[1]))
        if point is None:
            print(f"compare_bench: no BENCH_<m>.json with m < {argv[1]}",
                  file=sys.stderr)
            return 2
        print(point.name)
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    try:
        parent, change = (json.loads(pathlib.Path(p).read_text()) for p in argv)
        spec = json.loads(SPEC_PATH.read_text())
        lines, differing = compare(parent, change, spec)
    except (OSError, ValueError, KeyError) as error:
        print(f"compare_bench: cannot compare {argv[0]} and {argv[1]}: "
              f"{error!r}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if any(differing.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
