"""The observability layer: spans, the metrics registry, exporters.

Includes the acceptance check OBSERVABILITY.md promises: one rendezvous
invocation produces a span tree whose phases tile the invocation — the
root's direct children sum to ``result.latency_us``.
"""

import json
import math

import pytest

from repro import (FunctionRegistry, GlobalRef, GlobalSpaceRuntime,
                   MetricsRegistry, Simulator, build_star)
from repro.obs import (SpanRecorder, chrome_trace_to_spans, snapshot_to_jsonl,
                       spans_to_jsonl, to_chrome_trace, write_chrome_trace)
from repro.obs.keys import VOCABULARY, KeySpec
from repro.obs.registry import RegistryError
from repro.obs.span import KEEP_RECENT, KEEP_SLOWEST
from repro.sim import Timeout
from repro.sim.trace import Tracer


# ---------------------------------------------------------------------------
# Span / SpanRecorder
# ---------------------------------------------------------------------------

def drive(sim, gen):
    return sim.run_process(gen)


class TestSpans:
    def test_parent_child_ordering_under_sim_clock(self, sim):
        rec = SpanRecorder(sim)

        def flow():
            root = rec.start("invoke", node="n0")
            yield Timeout(5.0)
            child_a = rec.start("request", parent=root, node="n0")
            yield Timeout(10.0)
            rec.finish(child_a)
            child_b = rec.start("compute", parent=root, node="n1")
            yield Timeout(25.0)
            rec.finish(child_b)
            rec.finish(root)
            return root

        root = drive(sim, flow())
        children = rec.children(root)
        assert [c.name for c in children] == ["request", "compute"]
        # Children start in event-loop order and nest inside the parent.
        assert children[0].start_us == 5.0
        assert children[0].end_us == 15.0
        assert children[1].start_us == 15.0
        assert children[1].end_us == 40.0
        assert root.start_us == 0.0 and root.end_us == 40.0
        for child in children:
            assert root.start_us <= child.start_us <= child.end_us <= root.end_us
        # Same trace, correct parent links.
        assert {c.trace_id for c in children} == {root.trace_id}
        assert {c.parent_id for c in children} == {root.span_id}

    def test_parent_by_id_and_cross_host_finish(self, sim):
        rec = SpanRecorder(sim)
        root = rec.start("invoke", node="n0")
        # Span ids travel in payloads; a child can be opened/closed by id.
        child = rec.start("return", parent=root.span_id, node="n1")
        rec.finish_id(child.span_id, ok=True)
        assert child.parent_id == root.span_id
        assert child.trace_id == root.trace_id
        assert child.finished and child.tags["ok"] is True

    def test_double_finish_and_open_duration_raise(self, sim):
        rec = SpanRecorder(sim)
        span = rec.start("compute")
        with pytest.raises(ValueError):
            span.duration_us
        rec.finish(span)
        with pytest.raises(ValueError):
            rec.finish(span)

    def test_tree_and_phases_views(self, sim):
        rec = SpanRecorder(sim)

        def flow():
            root = rec.start("invoke")
            stage = rec.start("stage_in", parent=root)
            fetch = rec.start("fetch", parent=stage)
            yield Timeout(3.0)
            rec.finish(fetch)
            rec.finish(stage)
            compute = rec.start("compute", parent=root)
            yield Timeout(7.0)
            rec.finish(compute)
            rec.finish(root)
            return root

        root = drive(sim, flow())
        tree = rec.tree(root.trace_id)
        assert tree["name"] == "invoke"
        assert [c["name"] for c in tree["children"]] == ["stage_in", "compute"]
        assert tree["children"][0]["children"][0]["name"] == "fetch"
        phases = rec.phases(root.trace_id)
        assert phases == {"stage_in": 3.0, "compute": 7.0}
        assert sum(phases.values()) == root.duration_us


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_register_get_or_create_and_conflicts(self):
        reg = MetricsRegistry()
        made = reg.register("myproto.shard0")          # fresh tracer
        assert reg.register("myproto.shard0") is made  # get-or-create
        with pytest.raises(RegistryError):
            reg.register("myproto.shard0", Tracer())   # different object
        other = Tracer()
        assert reg.register("myproto.shard0", other, replace=True) is other
        with pytest.raises(RegistryError):
            reg.register("bad name")                   # space not allowed
        assert "myproto.shard0" in reg and len(reg) == 1

    def test_snapshot_flattens_with_colon_keys(self):
        reg = MetricsRegistry()
        reg.register("net.host.n0").count("host.tx", 3)
        reg.register("runtime.engine").sample("runtime.invoke_us", 12.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"net.host.n0:host.tx": 3}
        assert snap["series"] == {"runtime.engine:runtime.invoke_us": [12.5]}



# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------

def _recorded_tree(sim):
    rec = SpanRecorder(sim)

    def flow():
        root = rec.start("invoke", node="n0", mode="eager")
        req = rec.start("request", parent=root, node="n0")
        yield Timeout(4.0)
        rec.finish(req)
        compute = rec.start("compute", parent=root, node="n1")
        yield Timeout(9.0)
        rec.finish(compute, compute_us=9.0)
        rec.finish(root)

    sim.run_process(flow())
    return rec


class TestChromeTrace:
    def test_document_is_valid_and_well_formed(self, sim):
        rec = _recorded_tree(sim)
        document = to_chrome_trace(rec.spans())
        # Round-trips through the JSON encoder (what chrome loads).
        reloaded = json.loads(json.dumps(document))
        assert set(reloaded) == {"traceEvents", "displayTimeUnit", "otherData"}
        events = reloaded["traceEvents"]
        assert all(e["ph"] in ("X", "M", "i") for e in events)
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 3
        for event in complete:
            assert event["dur"] >= 0.0 and event["ts"] >= 0.0
            assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
        # Metadata names every process and thread.
        meta = [e for e in events if e["ph"] == "M"]
        assert {m["name"] for m in meta} == {"process_name", "thread_name"}

    def test_reimport_round_trip(self, sim, tmp_path):
        rec = _recorded_tree(sim)
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), rec.spans())
        with open(path, encoding="utf-8") as fh:
            reimported = chrome_trace_to_spans(json.load(fh))
        original = sorted(rec.spans(), key=lambda s: (s.start_us, s.span_id))
        assert len(reimported) == len(original)
        for before, after in zip(original, reimported):
            assert after.span_id == before.span_id
            assert after.name == before.name
            assert after.trace_id == before.trace_id
            assert after.parent_id == before.parent_id
            assert after.node == before.node
            assert after.start_us == before.start_us
            assert after.end_us == before.end_us
        # Tags survive minus the reserved transport fields.
        by_id = {s.span_id: s for s in reimported}
        root = next(s for s in reimported if s.parent_id is None)
        assert by_id[root.span_id].tags["mode"] == "eager"

    def test_unfinished_spans_skipped_by_default(self, sim):
        rec = SpanRecorder(sim)
        rec.start("invoke")  # never finished
        assert [e for e in to_chrome_trace(rec.spans())["traceEvents"]
                if e["ph"] == "X"] == []
        kept = [e for e in
                to_chrome_trace(rec.spans(), skip_unfinished=False)["traceEvents"]
                if e["ph"] == "X"]
        assert len(kept) == 1 and kept[0]["args"]["unfinished"] is True

    def test_jsonl_exports_parse_line_by_line(self, sim):
        rec = _recorded_tree(sim)
        for line in spans_to_jsonl(rec.spans()).splitlines():
            assert json.loads(line)["type"] == "span"
        reg = MetricsRegistry()
        reg.register("net.host.n0").count("host.tx")
        lines = snapshot_to_jsonl(reg.snapshot()).splitlines()
        assert json.loads(lines[0]) == {"type": "counter",
                                        "key": "net.host.n0:host.tx",
                                        "value": 1}


# ---------------------------------------------------------------------------
# The acceptance check: an invocation's span tree reconciles with latency
# ---------------------------------------------------------------------------

def _star_runtime(seed=7):
    sim = Simulator(seed=seed)
    net = build_star(sim, 3, prefix="n")
    registry = FunctionRegistry()

    @registry.register("read5")
    def read5(ctx, args):
        data = yield ctx.read(args["blob"], 0, 5)
        return data.decode()

    runtime = GlobalSpaceRuntime(net, registry)
    for name in ("n0", "n1", "n2"):
        runtime.add_node(name)
    blob = runtime.create_object("n2", size=1 << 20)
    blob.write(0, b"hello")
    return sim, net, runtime, {"blob": GlobalRef(blob.oid, 0, "read")}


class TestInvocationSpanTree:
    def test_remote_invoke_phases_tile_latency(self):
        sim, net, runtime, refs = _star_runtime()
        _, code_ref = runtime.create_code("n0", "read5", text_size=256)

        def main():
            result = yield sim.spawn(
                runtime.invoke("n0", code_ref, data_refs=refs))
            return result

        result = sim.run_process(main())
        assert result.value == "hello"
        root = runtime.spans.root(result.invoke_id)
        assert root.name == "invoke"
        assert root.duration_us == result.latency_us
        phases = runtime.spans.phases(result.invoke_id)
        # The documented phase set, ≥ 4 phases, summing to the latency.
        assert set(phases) >= {"placement", "request", "compute", "return"}
        assert len(phases) >= 4
        assert math.isclose(sum(phases.values()), result.latency_us,
                            rel_tol=1e-9, abs_tol=1e-9)
        # Every span of the trace is finished and nested in the root.
        for span in runtime.spans.spans(result.invoke_id):
            assert span.finished
            assert root.start_us <= span.start_us <= span.end_us <= root.end_us
        # Staging the code object shows up as a fetch child of stage_in.
        tree = runtime.spans.tree(result.invoke_id)
        stage = next(c for c in tree["children"] if c["name"] == "stage_in")
        assert [c["name"] for c in stage["children"]].count("fetch") >= 1

    def test_local_invoke_has_zero_width_wire_phases(self):
        sim, net, runtime, refs = _star_runtime()
        # Code and data both on n2: the engine places the call there too
        # when n2 invokes, so every wire phase is zero-width.
        _, code_ref = runtime.create_code("n2", "read5", text_size=256)

        def main():
            result = yield sim.spawn(
                runtime.invoke("n2", code_ref, data_refs=refs))
            return result

        result = sim.run_process(main())
        assert result.executed_at == "n2"
        phases = runtime.spans.phases(result.invoke_id)
        assert phases["return"] == 0.0
        assert "request" not in phases
        assert math.isclose(sum(phases.values()), result.latency_us,
                            rel_tol=1e-9, abs_tol=1e-9)

    def test_cluster_snapshot_covers_runtime_and_network(self):
        sim, net, runtime, refs = _star_runtime()
        _, code_ref = runtime.create_code("n0", "read5", text_size=256)

        def main():
            result = yield sim.spawn(
                runtime.invoke("n0", code_ref, data_refs=refs))
            return result

        result = sim.run_process(main())
        snap = net.metrics.snapshot()
        assert snap["counters"]["runtime.engine:runtime.invocations"] == 1
        placed = f"runtime.engine:runtime.placed_at.{result.executed_at}"
        assert snap["counters"][placed] == 1
        assert snap["counters"]["core.placement:placement.decisions"] == 1
        assert snap["series"]["runtime.engine:runtime.invoke_us"] == \
            [result.latency_us]
        # The network registered its own tracers on the same registry.
        assert any(key.startswith("net.host.") for key in snap["counters"])
        assert snap["counters"]["net.host.n0:host.tx_bytes"] > 0


# ---------------------------------------------------------------------------
# Retention: memory bounded by the traces in flight, not the run length
# ---------------------------------------------------------------------------

# The slow invocation runs after the first KEEP_SLOWEST, so only its
# latency can keep it, and before the last KEEP_RECENT.
SLOW_AT = KEEP_SLOWEST + 8
N_INVOKES = KEEP_SLOWEST + KEEP_RECENT + 48


@pytest.fixture(scope="module")
def long_run():
    sim, net, runtime, refs = _star_runtime()
    _, code_ref = runtime.create_code("n0", "read5", text_size=256)

    def main():
        results = []
        for i in range(N_INVOKES):
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref, data_refs=refs,
                flops=1e8 if i == SLOW_AT else 1e6))
            results.append(result)
        return results

    return runtime, sim.run_process(main())


class TestRetention:
    def test_retained_spans_stay_under_the_bound(self, long_run):
        runtime, results = long_run
        kept = {s.trace_id for s in runtime.spans.spans()}
        assert len(kept) <= KEEP_RECENT + KEEP_SLOWEST
        dropped = [r for r in results if not runtime.spans.spans(r.invoke_id)]
        assert len(dropped) >= N_INVOKES - KEEP_RECENT - KEEP_SLOWEST
        widest = max(len(runtime.spans.spans(t)) for t in kept)
        assert len(runtime.spans) <= (KEEP_RECENT + KEEP_SLOWEST) * widest

    def test_last_traces_are_readable_and_tile_latency(self, long_run):
        runtime, results = long_run
        for result in results[-KEEP_RECENT:]:
            phases = runtime.spans.phases(result.invoke_id)
            assert math.isclose(sum(phases.values()), result.latency_us,
                                rel_tol=1e-9, abs_tol=1e-9)

    def test_slowest_invocation_keeps_its_whole_tree(self, long_run):
        runtime, results = long_run
        slow = results[SLOW_AT]
        assert slow.latency_us == max(r.latency_us for r in results)
        trace = runtime.spans.spans(slow.invoke_id)
        assert all(s.finished for s in trace)
        tree = runtime.spans.tree(slow.invoke_id)
        assert {c["name"] for c in tree["children"]} >= {
            "placement", "stage_in", "queue", "compute", "return"}
        phases = runtime.spans.phases(slow.invoke_id)
        assert math.isclose(sum(phases.values()), slow.latency_us,
                            rel_tol=1e-9, abs_tol=1e-9)

    def test_a_trace_with_an_open_root_is_never_dropped(self, sim):
        rec = SpanRecorder(sim)

        def flow():
            held = rec.start("invoke")
            child = rec.start("compute", parent=held)
            for i in range(KEEP_RECENT + KEEP_SLOWEST + 10):
                root = rec.start("invoke")
                yield Timeout(float(i % 5))
                rec.finish(root)
            assert rec.spans(held.trace_id) == [held, child]
            rec.finish(child)
            rec.finish(held)
            return held

        held = drive(sim, flow())
        assert rec.phases(held.trace_id) == {"compute": held.duration_us}
        assert len({s.trace_id for s in rec.spans()}) <= KEEP_RECENT + KEEP_SLOWEST

    def test_a_child_of_a_dropped_trace_is_not_kept(self, sim):
        rec = SpanRecorder(sim)
        first = rec.start("invoke")
        rec.finish(first)  # zero-width: every later trace is slower

        def flow():
            for _ in range(KEEP_RECENT + KEEP_SLOWEST):
                root = rec.start("invoke")
                yield Timeout(1.0)
                rec.finish(root)

        drive(sim, flow())
        assert rec.spans(first.trace_id) == []
        before = len(rec)
        late = rec.start("return", parent=first)
        late.finish()
        assert len(rec) == before and rec.find(late.span_id) is None


# ---------------------------------------------------------------------------
# Vocabulary sanity
# ---------------------------------------------------------------------------

class TestVocabulary:
    def test_specs_are_unique_and_valid(self):
        names = [spec.name for spec in VOCABULARY]
        assert len(names) == len(set(names))
        specs = {spec.name: spec for spec in VOCABULARY}
        assert specs["host.tx_bytes"].unit == "bytes"

    def test_unit_suffix_conventions_hold(self):
        for spec in VOCABULARY:
            base = spec.name[:-2] if spec.name.endswith(".*") else spec.name
            if spec.kind == "span":
                continue
            if base.endswith("_us"):
                assert spec.unit == "µs", spec.name
            elif base.endswith("_bytes"):
                assert spec.unit == "bytes", spec.name
            else:
                assert spec.unit == "1", spec.name

    def test_bad_kind_or_unit_rejected(self):
        with pytest.raises(ValueError):
            KeySpec("x", "gauge", "1", "nope")
        with pytest.raises(ValueError):
            KeySpec("x", "counter", "ms", "nope")
