#!/usr/bin/env python3
"""The repo's performance benchmark: one command, every metric by name.

    python3 benchmarks/perf/run.py                       # all five workloads
    python3 benchmarks/perf/run.py --workload fabric_floor --seed 2
    python3 benchmarks/perf/run.py --check               # two sets, compared
    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

Two kinds of time are reported and every number says which.  **Host
time** is what the simulator costs to run: noisy, timed over several
repeats, compared within a bound.  **Simulated time** is what the
modelled fabric would take: a pure function of the seed, compared
exactly.

Run shape, the same on every commit.  With ``--trace 0`` (end-to-end
metrics): import, one untimed warm-up repeat at 1/10 scale, then timed
repeats of a frozen size, each on a fresh cluster with ``gc.collect()``
before it.  ``--seed`` makes three sub-seeds and the repeats go round
them (A B C A B C ...): twice for the benchmark's 18 seconds, once more
for every further nine that ``--seconds`` asks for.  Simulated latency
is pooled over the three sub-seeds, because p99.9 of one repeat's 30k
operations moves 20% between seeds.  Repeats of one sub-seed do identical work and must
produce an identical simulated fingerprint; host time is summed slice by
slice from the cheapest repeat of each slice (see ``quiet_seconds``).
With ``--trace 1`` (per-layer metrics): one untraced full-size repeat
for the exact counts, then one repeat at half size under ``cProfile``.
Without ``--workload`` each (workload, trace) pair runs in its own
subprocess, so ``ru_maxrss`` belongs to that workload alone.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed
output check makes ``correct`` false and the exit code non-zero.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

# End-to-end metrics in simulated time: exact for one seed.  The other
# four are host time.
SIMULATED = ("sim_p50_us", "sim_p999_us", "completed_share")

WARMUP_SCALE = 0.1
TRACED_SCALE = 0.5
SMOKE_SCALE = 0.02
SUB_SEEDS = 3
MIN_ROUNDS = 2
# One round is three repeats of about 3 s on the 2-core reference box.
# ``--seconds`` picks the number of rounds through this constant and not
# through a clock, so the run has the same shape on a slower machine.
ROUND_SECONDS = 9.0
IMPORT_SAMPLES = 5
DETAIL_PREFIX = "DETAIL "

# What the workloads import; timed as the import share of ``setup_s``.
_IMPORTS = ("repro", "repro.core", "repro.loadgen", "repro.memproto",
            "repro.net", "repro.runtime.engine", "repro.sim")


def five_numbers(values) -> dict:
    """min / quartiles / max of a host-time sample."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "min": min(values), "q1": q1, "median": median,
            "q3": q3, "max": max(values)}


def time_imports() -> list:
    """Import the program afresh several times; seconds per import.

    Later samples find the bytecode cache and the standard library
    warm; the median is the import a second run of anything would pay.
    """
    samples = []
    for _ in range(IMPORT_SAMPLES):
        for name in [m for m in sys.modules
                     if m == "repro" or m.startswith("repro.")]:
            del sys.modules[name]
        start = time.perf_counter()
        for name in _IMPORTS:
            importlib.import_module(name)
        samples.append(time.perf_counter() - start)
    return samples


def sub_seeds(seed: int) -> list:
    """The simulator seeds one ``--seed`` stands for; disjoint per seed."""
    return [seed * SUB_SEEDS + g for g in range(SUB_SEEDS)]


def timed_repeat(build, seed: int, scale: float):
    """Build, run and check one repeat.

    Returns the runner, its outcome, the build time and the slices of
    the timed region as ``(wall seconds, CPU seconds)`` pairs."""
    gc.collect()
    start = time.perf_counter()
    runner = build(seed, scale)
    build_s = time.perf_counter() - start
    runner.run()
    outcome = runner.finish()
    marks = runner.clock.marks
    slices = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(marks, marks[1:])]
    return runner, outcome, build_s, slices


def quiet_seconds(repeats: list, column: int) -> float:
    """Host time of one repeat's work with interference taken out.

    ``repeats`` are the slice lists of repeats that did identical work.
    Whatever else the machine does can only add time to a slice, and on
    the reference box it does so in bursts of one to five seconds on
    about four seconds in ten, so the median of whole repeats moves 20%
    from run to run.  Each slice was timed once per repeat; the cheapest
    sample is the one least interfered with, and the slices add up to
    the whole repeat again, every phase at its own weight."""
    return sum(min(samples) for samples in
               zip(*[[piece[column] for piece in slices] for slices in repeats]))


def fingerprint(runner, outcome) -> dict:
    """Everything simulated about a repeat: equal for equal seeds."""
    from layers import exact_counts
    from workloads import percentiles

    counts = exact_counts(runner)
    (p50, p999), samples = percentiles([outcome], (50.0, 99.9))
    counts.update(sim_now=outcome.sim_now, attempted=outcome.attempted,
                  completed=outcome.completed, sim_p50_us=p50,
                  sim_p999_us=p999, samples=samples,
                  slices=len(runner.clock.marks) - 1)
    return counts


def differing_keys(a: dict, b: dict) -> list:
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------


def measure_end_to_end(name: str, seed: int, seconds: float,
                       scale: float) -> dict:
    import_s = time_imports()
    from workloads import WORKLOADS, percentiles

    build = WORKLOADS[name]
    seeds = sub_seeds(seed)
    failures = []
    _, warm, _, _ = timed_repeat(build, seeds[0], scale * WARMUP_SCALE)
    failures += [f"warm-up: {f}" for f in warm.failures]

    groups = [{"slices": [], "print": None, "outcome": None} for _ in seeds]
    builds, whole = [], []
    attempted = completed = 0
    for round_ in range(1, max(MIN_ROUNDS, round(seconds / ROUND_SECONDS)) + 1):
        for group, sub_seed in zip(groups, seeds):
            runner, outcome, build_s, slices = timed_repeat(build, sub_seed, scale)
            label = f"sub-seed {sub_seed} round {round_}"
            failures += [f"{label}: {f}" for f in outcome.failures]
            simulated = fingerprint(runner, outcome)
            del runner
            if group["print"] is None:
                group["print"], group["outcome"] = simulated, outcome
            else:
                diff = differing_keys(group["print"], simulated)
                if diff:
                    failures.append(f"{label} differs from round 1 in "
                                    f"simulated {', '.join(diff[:6])}")
            group["slices"].append(slices)
            builds.append(build_s)
            whole.append((sum(w for w, _ in slices), sum(c for _, c in slices),
                          outcome.completed))
            attempted += outcome.attempted
            completed += outcome.completed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops = sum(g["print"]["completed"] for g in groups)
    offered = sum(g["print"]["attempted"] for g in groups)
    quiet_wall = sum(quiet_seconds(g["slices"], 0) for g in groups)
    quiet_cpu = sum(quiet_seconds(g["slices"], 1) for g in groups)
    (p50, p999), samples = percentiles([g["outcome"] for g in groups],
                                       (50.0, 99.9))
    spreads = {
        "import_s": five_numbers(import_s),
        "build_s": five_numbers(builds),
        "wall_ops_per_s": five_numbers([n / w for w, _, n in whole]),
        "cpu_us_per_op": five_numbers([c * 1e6 / n for _, c, n in whole]),
    }
    metrics = {
        "setup_s": spreads["import_s"]["median"] + spreads["build_s"]["median"],
        "wall_ops_per_s": ops / quiet_wall,
        "cpu_us_per_op": quiet_cpu * 1e6 / ops,
        "peak_rss_mb": peak_rss_mb,
        "sim_p50_us": p50,
        "sim_p999_us": p999,
        "completed_share": ops / offered,
    }
    for key, value in metrics.items():
        if not math.isfinite(value) or value == 0:
            failures.append(f"{key} is {value}")
    return {"workload": name, "seed": seed, "trace": 0, "repeats": len(whole),
            "ops_per_round": ops, "latency_samples": samples,
            "attempted": attempted, "failed": attempted - completed,
            "metrics": metrics, "spreads": spreads,
            "fingerprint": {str(s): g["print"] for s, g in zip(seeds, groups)},
            "failures": failures}


def measure_per_layer(name: str, seed: int, scale: float,
                      pstats_path: str = "") -> dict:
    import layers
    from workloads import WORKLOADS, build_fabric_floor

    build = WORKLOADS[name]
    sub_seed = sub_seeds(seed)[0]
    failures = []
    _, warm, _, _ = timed_repeat(build, sub_seed, scale * WARMUP_SCALE)
    failures += [f"warm-up: {f}" for f in warm.failures]

    # Untraced, full size: the exact counts and the CPU the trace is
    # compared against.
    runner, plain, _, slices = timed_repeat(build, sub_seed, scale)
    failures += [f"untraced: {f}" for f in plain.failures]
    ops = plain.completed
    metrics = layers.count_metrics(layers.exact_counts(runner), ops)
    plain_wall_s = sum(w for w, _ in slices)
    cpu_us_per_op = sum(c for _, c in slices) * 1e6 / ops
    del runner

    # Traced, half size.
    gc.collect()
    runner = build(sub_seed, scale * TRACED_SCALE)
    c1 = time.process_time()
    stats = layers.profile(runner.run)
    traced_cpu_s = time.process_time() - c1
    traced = runner.finish()
    failures += [f"traced: {f}" for f in traced.failures]
    folded = layers.fold(stats, traced.completed, layers.exact_counts(runner))
    del runner
    metrics.update(folded["metrics"])
    metrics["trace.overhead_ratio"] = (
        traced_cpu_s * 1e6 / traced.completed / cpu_us_per_op)
    metrics["sim.cpu_ns_per_event"] = (
        cpu_us_per_op * 1e3 / metrics["sim.events_per_op"]
        if metrics["sim.events_per_op"] else 0.0)

    # What the counters and samples cost: only where every layer that
    # runs can take the no-op tracer.
    metrics["obs.tracer_cost_share"] = 0.0
    if name == "fabric_floor":
        _, bare, _, slices = timed_repeat(
            lambda s, k: build_fabric_floor(s, k, tracing=False), sub_seed, scale)
        failures += [f"tracing off: {f}" for f in bare.failures]
        metrics["obs.tracer_cost_share"] = (
            1.0 - sum(w for w, _ in slices) / plain_wall_s)

    for key, value in metrics.items():
        if not math.isfinite(value):
            failures.append(f"{key} is {value}")
    if pstats_path:
        stats.dump_stats(pstats_path)
    attempted = plain.attempted + traced.attempted
    return {"workload": name, "seed": seed, "trace": 1, "ops": ops,
            "traced_ops": traced.completed, "attempted": attempted,
            "failed": attempted - plain.completed - traced.completed,
            "metrics": metrics, "cpu_us_per_op": cpu_us_per_op,
            "traced_us_per_op": folded["traced_us_per_op"],
            "self_seconds": folded["self_seconds"],
            "boundaries": folded["boundaries"], "failures": failures}


def print_detail(detail: dict, units: dict) -> None:
    """Every metric by name, with its unit and the kind of time it is."""
    name = detail["workload"]
    if detail["trace"] == 0:
        samples = detail["latency_samples"]
        print(f"{name}: seed {detail['seed']}, {detail['repeats']} timed repeats "
              f"over {SUB_SEEDS} sub-seeds, {detail['ops_per_round']} ops a "
              f"round; {samples} latency samples pooled, "
              f"{samples - math.ceil(0.999 * samples)} beyond p99.9")
        for key in units:
            value = detail["metrics"].get(key, math.nan)
            kind = "simulated" if key in SIMULATED else "host"
            line = f"  {key:<18}{value:>14.4f} {units[key]:<6} {kind:<9}"
            spread = detail["spreads"].get(key)
            if spread:
                line += (f" whole repeats: min {spread['min']:.4f} "
                         f"q1 {spread['q1']:.4f} median {spread['median']:.4f} "
                         f"q3 {spread['q3']:.4f} max {spread['max']:.4f}")
            print(line)
        for part in ("import_s", "build_s"):
            spread = detail["spreads"][part]
            print(f"  {'setup_s: ' + part:<18}{spread['median']:>14.4f} s      "
                  f"host      median of {spread['n']}: min {spread['min']:.4f} "
                  f"max {spread['max']:.4f}")
    else:
        from layers import HOST_TIME

        print(f"{name}: seed {detail['seed']}, per layer; exact counts from "
              f"{detail['ops']} untraced ops, profile from "
              f"{detail['traced_ops']} traced ops "
              f"({detail['traced_us_per_op']:.2f} us/op traced)")
        for key in units:
            kind = "host" if key in HOST_TIME else "exact"
            value = detail["metrics"].get(key, math.nan)
            print(f"  {key:<36}{value:>14.4f} {units[key]:<6} {kind}")
    for failure in detail["failures"]:
        print(f"  CHECK FAILED: {failure}")


def run_child(args, spec: dict) -> int:
    scale = SMOKE_SCALE if args.smoke else 1.0
    if args.trace == 0:
        detail = measure_end_to_end(args.workload, args.seed, args.seconds,
                                    scale)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        detail = measure_per_layer(args.workload, args.seed, scale, args.pstats)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if set(units) != set(detail["metrics"]):
        detail["failures"].append(
            "metrics measured and BENCHMARK.json disagree: "
            + ", ".join(sorted(set(units) ^ set(detail["metrics"]))))
    print_detail(detail, units)
    correct = not detail["failures"]
    print(DETAIL_PREFIX + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {key: {"value": detail["metrics"][key], "unit": unit}
                    for key, unit in units.items() if key in detail["metrics"]}}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# every workload, each in its own subprocess
# ---------------------------------------------------------------------------


def run_set(args, spec: dict, out_dir: str = "") -> dict:
    """One full set: {workload: {0: detail, 1: detail}}; exits on a
    child that fails its checks."""
    names = [args.workload] if args.workload else [w["name"]
                                                   for w in spec["workloads"]]
    results = {}
    for name in names:
        results[name] = {}
        for trace in (0, 1):
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                command.append("--smoke")
            if trace == 1 and out_dir:
                command += ["--pstats",
                            os.path.join(out_dir, f"trace_{name}.pstats")]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            for line in done.stdout.splitlines()[:-1]:
                if line.startswith(DETAIL_PREFIX):
                    results[name][trace] = json.loads(line[len(DETAIL_PREFIX):])
                else:
                    print(line)
            sys.stdout.flush()
            if done.returncode != 0:
                sys.exit(f"{name} --trace {trace} exited {done.returncode}")
    return results


def write_outputs(results: dict, path: str) -> None:
    """``path`` gets every metric; the folded traces go beside it."""
    out_dir = os.path.dirname(os.path.abspath(path))
    with open(path, "w") as handle:
        json.dump({name: {"end_to_end": pair[0],
                          "per_layer": pair[1]["metrics"]}
                   for name, pair in results.items()}, handle,
                  indent=1, sort_keys=True)
    for name, pair in results.items():
        with open(os.path.join(out_dir, f"trace_{name}.json"), "w") as handle:
            json.dump(pair[1], handle, indent=1, sort_keys=True)


def check(first: dict, second: dict, spec: dict) -> int:
    """Compare two sets of the same code: host time within its bound,
    everything simulated or counted identical."""
    from layers import HOST_TIME

    exit_code = 0
    print(f"\n{'workload':<18}{'metric':<38}{'first':>14}{'second':>14}"
          f"{'ratio':>8}  verdict")
    for name in first:
        diff = differing_keys(first[name][0]["fingerprint"],
                              second[name][0]["fingerprint"])
        if diff:
            print(f"{name:<18}simulated fingerprint differs: {', '.join(diff[:8])}")
            exit_code = 1
        for trace, group in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            for metric in group:
                key = metric["name"]
                a = first[name][trace]["metrics"][key]
                b = second[name][trace]["metrics"][key]
                ratio = b / a if a else (1.0 if b == a else math.inf)
                if key in SIMULATED or (trace == 1 and key not in HOST_TIME):
                    verdict = "PASS (exact)" if a == b else "DIFFERS"
                    if a != b:
                        exit_code = 1
                elif trace == 1:
                    verdict = "-"  # per-layer host time has no bound
                else:
                    within = abs(ratio - 1.0) <= metric["bound"]
                    verdict = "PASS" if within else "UNRESOLVED"
                print(f"{name:<18}{key:<38}{a:>14.4f}{b:>14.4f}{ratio:>8.3f}  "
                      f"{verdict}")
    return exit_code


def main() -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")) or not os.path.isfile(SPEC_PATH):
        print(f"{sys.argv[0]}: needs the repository around it "
              f"(no {SRC}/repro or no BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    with open(SPEC_PATH) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="timed work per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics; "
                             "needs --workload and runs in this process")
    parser.add_argument("--smoke", action="store_true",
                        help="1/50 size, twice round: for the harness test")
    parser.add_argument("--check", action="store_true",
                        help="run the set twice and compare the two")
    parser.add_argument("--json", metavar="OUT",
                        help="write what was measured, and "
                             "trace_<workload>.json and .pstats beside it")
    parser.add_argument("--pstats", default="", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return run_child(args, spec)
    out_dir = os.path.dirname(os.path.abspath(args.json)) if args.json else ""
    first = run_set(args, spec, out_dir)
    if args.json:
        write_outputs(first, args.json)
    if args.check:
        print("\n-- second set --")
        return check(first, run_set(args, spec), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
