"""E16 / §5: query-planning co-design vs. invoker-mediated pipelines.

Paper: "We plan to explore placement issues through a co-design between
query planning and optimization, and network-level scheduling."

A three-stage analytics pipeline (extract a large dataset resident in
the cloud, transform, summarize) run two ways from an edge invoker:

* **planned** — :func:`repro.runtime.run_plan`: each stage placed by the
  rendezvous engine, intermediates materialized where produced and
  pulled by the next stage's executor;
* **invoker-mediated** — the RPC idiom: each stage is a separate
  invocation whose full result returns to the invoker, which re-sends it
  as the next stage's argument.

The plan keeps the pipeline's bulk off the invoker's slow access link.
"""

import pytest

from repro.core import CostModel, FunctionRegistry, GlobalRef
from repro.net.topology import Network
from repro.runtime import GlobalSpaceRuntime, Plan, PlanStep, run_plan
from repro.sim import Simulator

from conftest import print_table

DATASET_BYTES = 200_000
EDGE_LATENCY_US = 200.0


def build(seed=97):
    sim = Simulator(seed=seed)
    net = Network(sim, default_latency_us=5.0)
    net.add_switch("edge_sw")
    net.add_switch("cloud_sw")
    net.connect("edge_sw", "cloud_sw", latency_us=50.0)
    net.add_host("edge")
    net.connect("edge", "edge_sw", latency_us=EDGE_LATENCY_US)
    for name in ("store", "compute"):
        net.add_host(name)
        net.connect(name, "cloud_sw")
    registry = FunctionRegistry()

    @registry.register("p_extract")
    def p_extract(ctx, args):
        raw = yield ctx.read(args["source"], 0, args["n"])
        return [b for b in raw if b > 128]

    @registry.register("p_transform")
    def p_transform(ctx, args):
        return sorted(set(args["rows"]))

    @registry.register("p_summarize")
    def p_summarize(ctx, args):
        rows = args["rows"]
        return {"count": len(rows), "lo": rows[0], "hi": rows[-1]}

    runtime = GlobalSpaceRuntime(
        net, registry, cost_model=CostModel(link_bandwidth_gbps=10.0))
    runtime.add_node("edge", speed=0.3)
    runtime.add_node("store")
    runtime.add_node("compute")
    dataset = runtime.create_object("store", size=DATASET_BYTES,
                                    label="dataset")
    dataset.write(0, bytes(range(256)) * (DATASET_BYTES // 256))
    code = {}
    for entry in ("p_extract", "p_transform", "p_summarize"):
        _, code[entry] = runtime.create_code("edge", entry, text_size=1024)
    return sim, runtime, dataset, code


def _steps(dataset, code):
    return [
        PlanStep("extract", code["p_extract"],
                 data_refs={"source": GlobalRef(dataset.oid, 0, "read")},
                 values={"n": DATASET_BYTES}, flops=2e5),
        PlanStep("transform", code["p_transform"],
                 inputs_from={"rows": "extract"}, flops=1e5),
        PlanStep("summarize", code["p_summarize"],
                 inputs_from={"rows": "transform"}, flops=1e4),
    ]


def run_planned(seed=97):
    sim, runtime, dataset, code = build(seed)
    edge_links = runtime.network.node("edge").links

    def proc():
        result = yield sim.spawn(run_plan(
            runtime, "edge", Plan(steps=_steps(dataset, code))))
        return result

    result = sim.run_process(proc())
    uplink = sum(link.bytes_carried for link in edge_links)
    return result.value, result.latency_us, uplink, result.executed_at


def run_invoker_mediated(seed=97):
    """Each stage's full result returns to the edge and is re-sent."""
    sim, runtime, dataset, code = build(seed)
    edge_links = runtime.network.node("edge").links
    steps = _steps(dataset, code)

    def proc():
        start = sim.now
        executed = []
        value = None
        for step in steps:
            values = dict(step.values)
            if value is not None:
                values["rows"] = value  # re-sent by value from the edge
            result = yield sim.spawn(runtime.invoke(
                "edge", step.code_ref, data_refs=step.data_refs,
                values=values, flops=step.flops))
            value = result.value
            executed.append(result.executed_at)
        return value, sim.now - start, executed

    value, latency, executed = sim.run_process(proc())
    uplink = sum(link.bytes_carried for link in edge_links)
    return value, latency, uplink, executed


@pytest.fixture(scope="module")
def outcomes():
    return {"planned": run_planned(), "mediated": run_invoker_mediated()}


def test_pipeline_table(outcomes):
    rows = []
    for name, (value, latency, uplink, executed) in outcomes.items():
        rows.append([name, latency, uplink, "->".join(executed)])
    print_table(
        "3-stage pipeline from the edge: planned vs invoker-mediated",
        ["strategy", "latency_us", "edge_uplink_B", "placements"],
        rows,
    )


def test_same_answer_both_ways(outcomes):
    assert outcomes["planned"][0] == outcomes["mediated"][0]


def test_planned_pipeline_is_faster(outcomes):
    assert outcomes["planned"][1] < outcomes["mediated"][1]


def test_planned_keeps_bulk_off_the_edge_link(outcomes):
    planned_uplink = outcomes["planned"][2]
    mediated_uplink = outcomes["mediated"][2]
    assert planned_uplink < mediated_uplink / 3


def test_planned_stages_run_in_the_cloud(outcomes):
    placements = outcomes["planned"][3]
    # Bulk stages at the data; only the summary may come home.
    assert placements[0] in ("store", "compute")
    assert placements[1] in ("store", "compute")
