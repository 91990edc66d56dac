#!/usr/bin/env bash
# Record one PR's point on the host-time trajectory: BENCH_<n>.json at
# the repo root, from one full run of the benchmark BENCHMARK.json
# declares (five workloads, end-to-end and per-layer; about four
# minutes).  Commit the file with the PR.  To compare two commits, record
# both on the same box: host time does not travel between machines.
set -euo pipefail

n=${1:?usage: scripts/record_bench.sh <pr-number>}
cd "$(dirname "$0")/.."

# run.py drops trace_<workload>.json and .pstats beside its --json file;
# only the metrics file belongs in the repo.
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
python3 benchmarks/perf/run.py --json "$out/bench.json"
cp "$out/bench.json" "BENCH_$n.json"
echo "recorded BENCH_$n.json"

# Read it against the newest earlier point (not every PR records one, so
# BENCH_<n-1>.json may not exist).  Print only: a PR may move simulated
# metrics on purpose, and host time drifts between recordings.
if parent=$(python3 scripts/compare_bench.py --newest-below "$n"); then
    echo "reading BENCH_$n.json against $parent"
    python3 scripts/compare_bench.py "$parent" "BENCH_$n.json" || true
fi
