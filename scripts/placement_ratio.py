#!/usr/bin/env python3
"""How well placement predicts what an invocation then costs.

    python3 scripts/placement_ratio.py invoke_store_mix --seed 1

Runs one perf workload (``benchmarks/perf/workloads.py``, full size, the
three simulator seeds ``--seed`` stands for in ``benchmarks/perf/run.py``)
with ``GlobalSpaceRuntime.invoke`` wrapped, the way
``tests/test_op_budget.py`` wraps ``LoadGenerator._run_op``: every
invocation that completes records its realized latency over the total
its placement decision predicted.  Prints one row per cell of (mode,
executor local to the invoker or remote, inputs placement planned to
move): the number of invocations and the ratio's p50 and p99.  A ratio
of 1 is a perfect prediction; above 1 the invocation cost more than
placement thought.  Only simulated time is read, so the table is exact
for a seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"),
                os.path.join(ROOT, "benchmarks", "perf")]

from repro.runtime import MODE_EAGER, GlobalSpaceRuntime  # noqa: E402
from run import sub_seeds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _percentile(ordered, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def measure(workload: str, seed: int):
    """``{(mode, executor, moved): [realized / predicted, ...]}`` over the
    workload's runs at ``seed``."""
    cells = defaultdict(list)
    invoke = GlobalSpaceRuntime.invoke

    def recorded(self, invoker, *args, mode=MODE_EAGER, **kwargs):
        result = yield from invoke(self, invoker, *args, mode=mode, **kwargs)
        decision = result.decision
        where = "local" if result.executed_at == invoker else "remote"
        cells[mode, where, len(decision.movements)].append(
            result.latency_us / decision.total_us)
        return result

    GlobalSpaceRuntime.invoke = recorded
    try:
        for sub_seed in sub_seeds(seed):
            runner = WORKLOADS[workload](sub_seed, 1.0)
            runner.run()
            runner.finish()
    finally:
        GlobalSpaceRuntime.invoke = invoke
    return cells


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    cells = measure(args.workload, args.seed)
    if not cells:
        print(f"{args.workload}: no invocation")
        return 0
    print(f"{args.workload} seed {args.seed}: realized / predicted")
    print(f"{'mode':<9}{'executor':<10}{'moved':>6}{'n':>8}{'p50':>8}{'p99':>8}")
    for (mode, where, moved), ratios in sorted(cells.items()):
        ratios.sort()
        print(f"{mode:<9}{where:<10}{moved:>6}{len(ratios):>8}"
              f"{_percentile(ratios, 50):>8.2f}{_percentile(ratios, 99):>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
