#!/usr/bin/env bash
# Refresh the committed quick-mode bench baseline that CI gates against.
#
# Run this ONLY when a change intentionally moves a simulated value —
# a new scenario, a protocol change, a retuned scale — and say why in
# the change's description.  Tier-1
# (tests/test_bench.py::test_committed_baseline_gates_a_fresh_quick_run)
# requires a fresh default-seed quick run to equal
# benchmarks/baselines/BENCH-quick-baseline.json byte for byte, so any
# drifted counter fails it; CI's bench job also runs
# `python -m repro bench compare` against it (10% sim-rate threshold).
#
# The quick catalogue is byte-deterministic for the default seed, so
# the refreshed file is reproducible on any machine.
set -euo pipefail

cd "$(dirname "$0")/.."
BASELINE=benchmarks/baselines/BENCH-quick-baseline.json
mkdir -p "$(dirname "$BASELINE")"

PYTHONPATH=src python -m repro bench --quick --json "$BASELINE"

# Sanity: a fresh run must reproduce what we just wrote, byte for byte.
PYTHONPATH=src python -m repro bench --quick --json /tmp/BENCH-refresh-check.json
cmp "$BASELINE" /tmp/BENCH-refresh-check.json
rm -f /tmp/BENCH-refresh-check.json

echo "refreshed $BASELINE — commit it together with the change that moved the numbers"
