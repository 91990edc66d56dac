"""The harness against its own contract, at 1/50 size.

Run with ``python -m pytest benchmarks/perf -q`` (outside tier-1: it
spawns twenty interpreter processes).  One ``--smoke --check`` run of
all five workloads must print every metric BENCHMARK.json names exactly
once per workload, with a finite value, and must find the two sets it
ran identical in everything simulated or counted.
"""

import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
METRIC_LINE = re.compile(r"^  (\S+)\s+(\S+) ")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "BENCH-perf-smoke.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--check",
         "--json", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=300)
    return done, out


def test_benchmark_json_names_the_issue_sets(spec):
    assert spec["paths"] == ["benchmarks/perf"]
    assert len(spec["workloads"]) == 5
    assert len(spec["end_to_end"]) == 7
    assert len(spec["per_layer"]) == 39
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_smoke_check_passes(smoke):
    done, _ = smoke
    assert done.returncode == 0, done.stdout[-3000:]
    assert "DIFFERS" not in done.stdout
    assert "CHECK FAILED" not in done.stdout


def test_every_metric_printed_once_per_workload(smoke, spec):
    done, _ = smoke
    report = done.stdout.split("-- second set --", 1)[0]
    wanted = sorted(m["name"] for m in spec["end_to_end"] + spec["per_layer"])
    blocks = {}
    for line in report.splitlines():
        header = re.match(r"^(\w+): seed ", line)
        if header:
            current = blocks.setdefault(header.group(1), [])
            continue
        metric = METRIC_LINE.match(line)
        if metric and not metric.group(1).startswith("setup_s:"):
            assert math.isfinite(float(metric.group(2))), line
            current.append(metric.group(1))
    assert sorted(blocks) == sorted(w["name"] for w in spec["workloads"])
    for workload, printed in blocks.items():
        assert sorted(printed) == wanted, workload


def test_layer_shares_sum_to_traced_cpu(smoke, spec):
    _, out = smoke
    shares_of = [m["name"] for m in spec["per_layer"]
                 if m["name"].endswith(".self_us_per_op")]
    assert len(shares_of) == 8
    for workload in spec["workloads"]:
        path = out.parent / f"trace_{workload['name']}.json"
        with open(path) as handle:
            trace = json.load(handle)
        shares = sum(trace["metrics"][name] for name in shares_of)
        assert shares == pytest.approx(trace["traced_us_per_op"], rel=0.01)
        assert (out.parent / f"trace_{workload['name']}.pstats").exists()


def test_refuses_to_run_without_the_repository(tmp_path):
    bare = tmp_path / "benchmarks" / "perf"
    bare.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bare / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_bytes(
        open(os.path.join(ROOT, "BENCHMARK.json"), "rb").read())
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "tenant_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
