"""``scripts/compare_bench.py``: two trajectory points, one reading."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "compare_bench", ROOT / "scripts" / "compare_bench.py")
compare_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_bench)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def test_committed_points_have_equal_fingerprints(capsys):
    # PR 16 changed no counter and no simulated instant of any workload.
    assert compare_bench.main([str(ROOT / "BENCH_15.json"),
                               str(ROOT / "BENCH_16.json")]) == 0
    out = capsys.readouterr().out
    assert out.count("fingerprint equal") == len(WORKLOADS)
    for workload in WORKLOADS:
        for metric in BENCHMARK["end_to_end"]:
            assert any(line.startswith(workload) and metric["name"] in line
                       for line in out.splitlines()), (workload, metric["name"])


def test_one_altered_counter_is_named_by_sub_seed_and_key(tmp_path, capsys):
    run = json.loads((ROOT / "BENCH_16.json").read_text())
    run["fabric_floor"]["end_to_end"]["fingerprint"]["4"]["switch.tx"] += 1
    altered = tmp_path / "altered.json"
    altered.write_text(json.dumps(run))
    assert compare_bench.main([str(ROOT / "BENCH_16.json"), str(altered)]) == 1
    out = capsys.readouterr().out
    assert "fingerprint DIFFERS in 1: (4, switch.tx)" in out
    assert out.count("fingerprint equal") == len(WORKLOADS) - 1


def test_a_key_present_on_one_side_only_differs():
    assert compare_bench.fingerprint_diff(
        {"3": {"host.tx": 1.0}}, {"3": {"host.tx": 1.0, "host.filtered": 2.0}}
    ) == [("3", "host.filtered")]


def test_a_key_only_the_parent_holds_is_removed_not_different(tmp_path, capsys):
    run = json.loads((ROOT / "BENCH_16.json").read_text())
    del run["fabric_floor"]["end_to_end"]["fingerprint"]["4"]["switch.tx"]
    removed = tmp_path / "removed.json"
    removed.write_text(json.dumps(run))
    # A deleted counter still fails the comparison: nothing is loosened.
    assert compare_bench.main([str(ROOT / "BENCH_16.json"), str(removed)]) == 1
    out = capsys.readouterr().out
    assert "fabric_floor      fingerprint removed 1: (4, switch.tx)" in out
    assert "DIFFERS" not in out
    assert out.count("fingerprint equal") == len(WORKLOADS) - 1


def test_verdict_follows_the_better_direction():
    verdict = compare_bench.verdict
    assert verdict(100.0, 120.0, "higher", 0.25) == "better, within bound"
    assert verdict(100.0, 130.0, "higher", 0.25) == "BETTER than bound"
    assert verdict(100.0, 80.0, "higher", 0.25) == "within bound"
    assert verdict(100.0, 70.0, "higher", 0.25) == "WORSE than bound"
    assert verdict(10.0, 9.0, "lower", 0.25) == "better, within bound"
    assert verdict(10.0, 7.0, "lower", 0.25) == "BETTER than bound"
    assert verdict(10.0, 12.0, "lower", 0.25) == "within bound"
    assert verdict(10.0, 13.0, "lower", 0.25) == "WORSE than bound"
    assert verdict(1.0, 1.0, "higher", 0.001) == "equal"
    # A claim the bound cannot tell from noise reads as one.
    assert verdict(43.7, 40.0, "lower", 0.1) == "better, within bound"
    assert verdict(43.7, 38.8, "lower", 0.1) == "BETTER than bound"


def test_unreadable_input_exits_two(tmp_path, capsys):
    assert compare_bench.main([str(ROOT / "BENCH_16.json"),
                               str(tmp_path / "missing.json")]) == 2
    assert "cannot compare" in capsys.readouterr().err


def test_newest_below_skips_the_gap_in_the_trajectory(capsys):
    # No PR 18 point was recorded: BENCH_19.json reads against BENCH_17.
    assert (ROOT / "BENCH_17.json").exists()
    assert not (ROOT / "BENCH_18.json").exists()
    assert compare_bench.newest_below(19) == ROOT / "BENCH_17.json"
    assert compare_bench.newest_below(18) == ROOT / "BENCH_17.json"
    assert compare_bench.newest_below(17) == ROOT / "BENCH_16.json"
    assert compare_bench.main(["--newest-below", "19"]) == 0
    assert capsys.readouterr().out.strip() == "BENCH_17.json"


def test_newest_below_orders_by_number_and_ignores_other_files(tmp_path, capsys):
    for name in ("BENCH_9.json", "BENCH_10.json", "BENCH_12.json",
                 "BENCH_x.json", "BENCH_11.json.bak", "BENCHMARK.json"):
        (tmp_path / name).write_text("{}")
    assert compare_bench.newest_below(12, tmp_path).name == "BENCH_10.json"
    assert compare_bench.newest_below(10, tmp_path).name == "BENCH_9.json"
    assert compare_bench.newest_below(99, tmp_path).name == "BENCH_12.json"
    assert compare_bench.newest_below(9, tmp_path) is None
    assert compare_bench.main(["--newest-below", "1"]) == 2
    assert "no BENCH_<m>.json" in capsys.readouterr().err
