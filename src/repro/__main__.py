"""``python -m repro`` — self-check, cluster report, trace export.

Subcommands (``selfcheck`` is the default when none is given):

* ``selfcheck [--seed N]`` — builds a tiny cluster, runs one rendezvous
  invocation and one discovery sweep point per scheme, and prints what
  happened.  Exits non-zero if any check fails.
* ``report [--seed N] [--jsonl]`` — runs the same workload and prints
  the cluster-wide counter/series snapshot from the metrics registry.
* ``trace {quickstart,pipeline} [--seed N] [--out FILE]`` — runs an
  example workload and writes its invocation span trees as a Chrome
  ``trace_event`` file (open in chrome://tracing or Perfetto).
* ``bench [--quick] [--filter PAT] [--json FILE] [--list]`` —
  runs the deterministic benchmark catalogue and optionally writes a
  schema-versioned ``BENCH.json``; ``bench compare BASELINE CANDIDATE``
  diffs two result files and exits non-zero past the regression
  threshold.  See BENCHMARKS.md.

See OBSERVABILITY.md for what the emitted keys and spans mean.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

_EXAMPLES = ("quickstart", "pipeline")


def _build_cluster(seed: int):
    """The shared 3-host star cluster with a blob on n2 and code on n0."""
    from repro import (FunctionRegistry, GlobalRef, GlobalSpaceRuntime,
                       Simulator, build_star)

    sim = Simulator(seed=seed)
    net = build_star(sim, 3, prefix="n")
    registry = FunctionRegistry()

    @registry.register("selfcheck")
    def selfcheck(ctx, args):
        data = yield ctx.read(args["blob"], 0, 5)
        return data.decode()

    @registry.register("produce")
    def produce(ctx, args):
        data = yield ctx.read(args["blob"], 0, 16)
        return data.hex()

    @registry.register("consume")
    def consume(ctx, args):
        return len(args["part"])

    runtime = GlobalSpaceRuntime(net, registry)
    for name in ("n0", "n1", "n2"):
        runtime.add_node(name)
    blob = runtime.create_object("n2", size=1 << 20)
    blob.write(0, b"hello")
    refs = {"blob": GlobalRef(blob.oid, 0, "read")}
    return sim, net, runtime, refs


def _invoke_once(sim, runtime, code_ref, refs):
    def run():
        result = yield sim.spawn(runtime.invoke("n0", code_ref, data_refs=refs))
        return result
    return sim.run_process(run())


def cmd_selfcheck(args: argparse.Namespace) -> int:
    import repro
    # Imported at call time so tests can monkeypatch the sweep.
    from repro.discovery import SCHEME_CONTROLLER, SCHEME_E2E, run_fig2_point

    print(f"repro {repro.__version__} self-check (seed {args.seed})")
    failures = 0

    sim, _net, runtime, refs = _build_cluster(args.seed)
    _, code_ref = runtime.create_code("n0", "selfcheck", text_size=256)
    result = _invoke_once(sim, runtime, code_ref, refs)
    if result.value == "hello":
        print(f"  rendezvous invoke: ok (ran on {result.executed_at}, "
              f"{result.latency_us:.1f}us simulated)")
    else:
        failures += 1
        print(f"  rendezvous invoke: FAILED (got {result.value!r}, "
              f"wanted 'hello')")

    for scheme in (SCHEME_CONTROLLER, SCHEME_E2E):
        point = run_fig2_point(scheme, 50, n_accesses=30)
        if point.failures == 0:
            print(f"  discovery [{scheme:10s}]: ok "
                  f"(mean {point.mean_rtt_us:.1f}us, "
                  f"{point.broadcasts_per_100:.0f} broadcasts/100)")
        else:
            failures += 1
            print(f"  discovery [{scheme:10s}]: FAILED "
                  f"({point.failures} failed accesses)")

    if failures:
        print(f"self-check FAILED: {failures} check(s) failed")
        return 1
    print("all good — try `pytest tests/` and "
          "`pytest benchmarks/ --benchmark-only` next")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import snapshot_to_jsonl
    from repro.sim.trace import percentile

    sim, net, runtime, refs = _build_cluster(args.seed)
    _, code_ref = runtime.create_code("n0", "selfcheck", text_size=256)
    _invoke_once(sim, runtime, code_ref, refs)
    snapshot = net.metrics.snapshot()
    if args.jsonl:
        sys.stdout.write(snapshot_to_jsonl(snapshot))
        return 0
    print(f"cluster report (seed {args.seed}, t={sim.now:.1f}us, "
          f"{len(net.metrics)} tracers)")
    print("counters:")
    for key in sorted(snapshot["counters"]):
        print(f"  {key:40s} {snapshot['counters'][key]}")
    if snapshot["series"]:
        print("series:  (count / mean / p99, us)")
        for key in sorted(snapshot["series"]):
            values = snapshot["series"][key]
            mean = sum(values) / len(values)
            print(f"  {key:40s} {len(values)} / {mean:.1f} / "
                  f"{percentile(values, 99.0):.1f}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro import GlobalRef
    from repro.core.objectid import ObjectID
    from repro.obs import write_chrome_trace

    sim, net, runtime, refs = _build_cluster(args.seed)
    if args.example == "quickstart":
        _, code_ref = runtime.create_code("n0", "selfcheck", text_size=256)
        results = [_invoke_once(sim, runtime, code_ref, refs)]
    else:  # pipeline: stage 1 materializes where it ran; stage 2 pulls it
        _, produce_ref = runtime.create_code("n0", "produce", text_size=512)
        _, consume_ref = runtime.create_code("n1", "consume", text_size=512)

        def run():
            first = yield sim.spawn(runtime.invoke(
                "n0", produce_ref, data_refs=refs, materialize_result=True))
            intermediate = GlobalRef(
                ObjectID.from_hex(first.value["__materialized__"]), 0, "read")
            second = yield sim.spawn(runtime.invoke(
                "n1", consume_ref, data_refs={"part": intermediate},
                decode_args=["part"], flops=5e6))
            return [first, second]

        results = sim.run_process(run())
    out = args.out or f"trace_{args.example}.json"
    document = write_chrome_trace(out, runtime.spans.spans())
    spans = [e for e in document["traceEvents"] if e.get("ph") == "X"]
    print(f"{args.example}: {len(results)} invocation(s), "
          f"{len(spans)} spans across {len({e['pid'] for e in spans})} trace(s)")
    for result in results:
        phases = runtime.spans.phases(result.invoke_id)
        timeline = ", ".join(f"{name} {us:.1f}us"
                             for name, us in phases.items() if us > 0)
        print(f"  invoke #{result.invoke_id} on {result.executed_at}: "
              f"{result.latency_us:.1f}us = {timeline}")
    print(f"wrote {out} — load it in chrome://tracing or "
          "https://ui.perfetto.dev")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (BenchError, compare_files, dump_document,
                             results_document, run_scenarios, scenario_names,
                             select)

    if getattr(args, "bench_command", None) == "compare":
        return compare_files(args.baseline, args.candidate,
                             threshold=args.threshold)
    if args.list:
        for name in scenario_names():
            print(name)
        return 0
    try:
        specs = select(args.filter)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    mode = "quick" if args.quick else "full"
    print(f"repro bench: {len(specs)} scenario(s), seed {args.seed}, {mode} mode")
    records = run_scenarios(specs, seed=args.seed, quick=args.quick,
                            report=print)
    if args.json:
        document = results_document(records, seed=args.seed, quick=args.quick)
        dump_document(document, args.json)
        print(f"wrote {args.json} (deterministic for this seed)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Self-check, cluster metrics report, and trace export "
                    "for the repro package.")
    sub = parser.add_subparsers(dest="command")

    check = sub.add_parser("selfcheck", help="30-second installation check "
                                             "(the default subcommand)")
    check.add_argument("--seed", type=int, default=1,
                       help="simulation seed (default 1)")
    check.set_defaults(fn=cmd_selfcheck)

    report = sub.add_parser("report",
                            help="print the cluster-wide metrics snapshot")
    report.add_argument("--seed", type=int, default=1,
                        help="simulation seed (default 1)")
    report.add_argument("--jsonl", action="store_true",
                        help="emit JSON lines instead of the table")
    report.set_defaults(fn=cmd_report)

    trace = sub.add_parser("trace",
                           help="run an example and export a Chrome trace")
    trace.add_argument("example", choices=_EXAMPLES,
                       help="which workload to trace")
    trace.add_argument("--seed", type=int, default=1,
                       help="simulation seed (default 1)")
    trace.add_argument("--out", default=None,
                       help="output path (default trace_<example>.json)")
    trace.set_defaults(fn=cmd_trace)

    bench = sub.add_parser(
        "bench", help="run the deterministic benchmark catalogue")
    bench.add_argument("--quick", action="store_true",
                       help="CI-sized scales (seconds, not minutes)")
    bench.add_argument("--filter", default=None, metavar="PAT",
                       help="run only scenarios matching PAT "
                            "(substring or glob)")
    bench.add_argument("--json", default=None, metavar="FILE",
                       help="write results to FILE (deterministic for a "
                            "fixed seed)")
    bench.add_argument("--seed", type=int, default=1,
                       help="simulation seed (default 1)")
    bench.add_argument("--list", action="store_true",
                       help="list scenario names and exit")
    bench.set_defaults(fn=cmd_bench)
    bench_sub = bench.add_subparsers(dest="bench_command")
    compare = bench_sub.add_parser(
        "compare", help="diff two BENCH.json files; exit 1 past threshold")
    compare.add_argument("baseline", help="baseline BENCH.json")
    compare.add_argument("candidate", help="candidate BENCH.json")
    compare.add_argument("--threshold", type=float, default=0.10,
                         help="max tolerated drop in the simulated rate "
                              "(default 0.10 = 10%%)")
    compare.set_defaults(fn=cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # Bare `python -m repro` (or with only flags) means selfcheck, but
    # keep `-h/--help` pointing at the top-level usage.
    if not argv or (argv[0].startswith("-")
                    and argv[0] not in ("-h", "--help")):
        argv.insert(0, "selfcheck")
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
