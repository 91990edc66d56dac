#!/usr/bin/env bash
# Refresh the committed quick-mode bench baseline that CI gates against.
#
# Run this ONLY when a PR intentionally changes scenario throughput —
# a new scenario, a deliberate perf change, a retuned scale — and say
# so in the PR description.  CI compares every run's BENCH.json against
# benchmarks/baselines/BENCH-quick-baseline.json with
# `python -m repro bench compare` (10% sim-rate threshold); a stale
# baseline fails the bench job, which is the point: silent deterministic
# regressions no longer pass.
#
# The quick catalogue is byte-deterministic for the default seed, so
# the refreshed file is reproducible on any machine.
set -euo pipefail

cd "$(dirname "$0")/.."
BASELINE=benchmarks/baselines/BENCH-quick-baseline.json
mkdir -p "$(dirname "$BASELINE")"

PYTHONPATH=src python -m repro bench --quick --json "$BASELINE"

# Sanity: a fresh run must compare clean against what we just wrote.
PYTHONPATH=src python -m repro bench --quick --json /tmp/BENCH-refresh-check.json
PYTHONPATH=src python -m repro bench compare "$BASELINE" /tmp/BENCH-refresh-check.json
rm -f /tmp/BENCH-refresh-check.json

echo "refreshed $BASELINE — commit it together with the change that moved the numbers"
