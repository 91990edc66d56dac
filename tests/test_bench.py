"""The benchmark runner: determinism, selection, and the compare gate.

The bench subsystem's contract with CI is threefold (BENCHMARKS.md):

* a ``BENCH.json`` written for a fixed seed is byte-identical across
  runs — the determinism the compare gate and the CI ``cmp`` step rely
  on (the runner records nothing read from the host clock);
* ``--filter`` selects scenarios by substring or glob and fails
  loudly on an empty selection;
* ``bench compare`` exits 0 when clean, 1 past the regression
  threshold, and 2 on unusable input.

Tests run only the cheap kernel scenarios (quick mode) so the suite
stays fast; the full catalogue is exercised by the CI bench job.
"""

import copy
import json
import math
import os
import re

import pytest

from repro.__main__ import main
from repro.bench import (SCHEMA_VERSION, BenchError, compare_documents,
                        compare_files, dump_document, load_document,
                        results_document, run_scenarios, scenario_names,
                        select)

QUICK_SET = "kernel.dispatch"


def run_quick(seed=1, pattern=QUICK_SET):
    return run_scenarios(select(pattern), seed=seed, quick=True)


# -- registry and selection ------------------------------------------------

def test_catalogue_covers_every_layer():
    names = scenario_names()
    assert names == sorted(names)
    for prefix in ("kernel.", "net.", "discovery.", "memproto.", "e2e."):
        assert any(n.startswith(prefix) for n in names), prefix


def test_select_all_and_substring_and_glob():
    assert [s.name for s in select()] == scenario_names()
    assert all("kernel" in s.name for s in select("kernel"))
    glob = [s.name for s in select("kernel.*")]
    assert glob and all(n.startswith("kernel.") for n in glob)


def test_select_unknown_pattern_raises():
    with pytest.raises(BenchError, match="no scenario matches"):
        select("no-such-scenario")


# -- determinism -----------------------------------------------------------

def test_same_seed_documents_are_byte_identical(tmp_path):
    paths = []
    for i in range(2):
        records = run_quick(seed=7)
        document = results_document(records, seed=7, quick=True)
        path = tmp_path / f"bench{i}.json"
        dump_document(document, str(path))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_different_seed_changes_seed_field_only_when_workload_is_fixed(tmp_path):
    # The kernel dispatch scenario derives its delays from the loop
    # index, not the RNG, so changing the seed must not change its
    # deterministic measurements — only the document's seed field.
    doc_a = results_document(run_quick(seed=1), seed=1, quick=True)
    doc_b = results_document(run_quick(seed=2), seed=2, quick=True)
    assert doc_a["seed"] != doc_b["seed"]
    assert doc_a["scenarios"] == doc_b["scenarios"]


def test_records_carry_only_seed_deterministic_fields():
    document = results_document(run_quick(), seed=1, quick=True)
    entry = document["scenarios"][QUICK_SET]
    assert set(entry) == {"description", "ops", "sim_time_us",
                          "ops_per_sim_sec", "counters"}
    assert entry["ops"] > 0
    assert entry["ops_per_sim_sec"] > 0


def test_load_document_round_trips_and_validates_schema(tmp_path):
    document = results_document(run_quick(), seed=1, quick=True)
    path = tmp_path / "bench.json"
    dump_document(document, str(path))
    assert load_document(str(path)) == document

    bad = dict(document, schema="repro-bench/999")
    bad_path = tmp_path / "bad.json"
    dump_document(bad, str(bad_path))
    with pytest.raises(BenchError, match="schema"):
        load_document(str(bad_path))


# -- compare gating --------------------------------------------------------

def degraded(document, factor=0.5):
    """A candidate whose simulated rates all fell by ``1 - factor``."""
    other = copy.deepcopy(document)
    for entry in other["scenarios"].values():
        entry["ops_per_sim_sec"] *= factor
    return other


def test_compare_identical_documents_is_clean():
    document = results_document(run_quick(), seed=1, quick=True)
    report = compare_documents(document, document)
    assert report.ok
    assert all(d.sim_rate_change == 0.0 for d in report.deltas)


def test_compare_flags_regressions_past_threshold():
    document = results_document(run_quick(), seed=1, quick=True)
    report = compare_documents(document, degraded(document, 0.5))
    assert not report.ok
    assert [d.name for d in report.regressions] == [QUICK_SET]
    # A 5% drop stays under the default 10% gate.
    assert compare_documents(document, degraded(document, 0.95)).ok
    # ...but a tighter threshold catches it.
    assert not compare_documents(document, degraded(document, 0.95),
                                 threshold=0.02).ok


def test_compare_reports_membership_and_counter_drift():
    document = results_document(run_quick(), seed=1, quick=True)
    other = copy.deepcopy(document)
    entry = other["scenarios"].pop(QUICK_SET)
    entry["counters"]["kernel.extra"] = 5
    other["scenarios"]["kernel.renamed"] = entry
    report = compare_documents(document, other)
    assert report.only_in_baseline == [QUICK_SET]
    assert report.only_in_candidate == ["kernel.renamed"]
    assert report.ok  # membership changes alone never gate

    drifted = copy.deepcopy(document)
    drifted["scenarios"][QUICK_SET]["counters"]["kernel.extra"] = 3
    report = compare_documents(document, drifted)
    assert report.deltas[0].counter_drift == {"kernel.extra": 3}
    assert report.ok  # counter drift is reported, not gated


def test_compare_files_exit_codes(tmp_path, capsys):
    document = results_document(run_quick(), seed=1, quick=True)
    base = tmp_path / "base.json"
    dump_document(document, str(base))

    same = tmp_path / "same.json"
    dump_document(document, str(same))
    assert compare_files(str(base), str(same)) == 0
    assert "no regressions" in capsys.readouterr().out

    worse = tmp_path / "worse.json"
    dump_document(degraded(document), str(worse))
    assert compare_files(str(base), str(worse)) == 1
    assert "REGRESSED" in capsys.readouterr().out

    assert compare_files(str(base), str(tmp_path / "missing.json")) == 2
    mismatched = tmp_path / "mismatched.json"
    dump_document(dict(document, schema="other/1"), str(mismatched))
    assert compare_files(str(base), str(mismatched)) == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json")
    assert compare_files(str(base), str(garbage)) == 2


# -- CLI -------------------------------------------------------------------

def test_cli_bench_writes_deterministic_json(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        code = main(["bench", "--quick", "--filter", QUICK_SET,
                     "--json", str(out)])
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    document = json.loads(out_a.read_text())
    assert document["schema"] == SCHEMA_VERSION
    assert document["mode"] == "quick"
    assert list(document["scenarios"]) == [QUICK_SET]
    assert "ops/s sim" in capsys.readouterr().out


def test_cli_bench_filter_selects_and_rejects(tmp_path, capsys):
    assert main(["bench", "--quick", "--filter", "kernel.*",
                 "--json", str(tmp_path / "k.json")]) == 0
    names = list(json.loads((tmp_path / "k.json").read_text())["scenarios"])
    assert names and all(n.startswith("kernel.") for n in names)
    capsys.readouterr()
    assert main(["bench", "--quick", "--filter", "bogus.*"]) == 2
    assert "no scenario matches" in capsys.readouterr().err


def test_cli_bench_list_prints_catalogue(capsys):
    assert main(["bench", "--list"]) == 0
    assert capsys.readouterr().out.split() == scenario_names()


def test_cli_bench_compare_end_to_end(tmp_path, capsys):
    base = tmp_path / "base.json"
    assert main(["bench", "--quick", "--filter", QUICK_SET,
                 "--json", str(base)]) == 0
    cand = tmp_path / "cand.json"
    dump_document(degraded(json.loads(base.read_text())), str(cand))
    capsys.readouterr()
    assert main(["bench", "compare", str(base), str(base)]) == 0
    assert main(["bench", "compare", str(base), str(cand)]) == 1
    # A permissive threshold lets the same candidate through.
    assert main(["bench", "compare", str(base), str(cand),
                 "--threshold", "0.9"]) == 0


def test_committed_baseline_gates_a_fresh_quick_run(tmp_path, capsys):
    # The file CI's `bench compare` step names must be in the tree: an
    # ignore pattern kept it out of every commit before PR 14, so the
    # gate could only exit 2.
    baseline = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                            "baselines", "BENCH-quick-baseline.json")
    fresh = tmp_path / "BENCH.json"
    assert main(["bench", "--quick", "--json", str(fresh)]) == 0
    assert main(["bench", "compare", baseline, str(fresh)]) == 0


def test_newest_trajectory_file_names_every_end_to_end_metric():
    # scripts/record_bench.sh commits one BENCH_<n>.json per PR so the
    # host-time trend can be read without re-measuring; the newest must
    # still speak the vocabulary BENCHMARK.json declares.
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    recorded = {int(m.group(1)): m.group(0) for m in
                (re.fullmatch(r"BENCH_(\d+)\.json", f) for f in os.listdir(root))
                if m}
    assert recorded, "no BENCH_<n>.json at the repo root"
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    with open(os.path.join(root, recorded[max(recorded)])) as handle:
        run = json.load(handle)
    for workload in spec["workloads"]:
        metrics = run[workload["name"]]["end_to_end"]["metrics"]
        for metric in spec["end_to_end"]:
            value = metrics[metric["name"]]
            assert math.isfinite(value) and value > 0, (workload, metric, value)
