"""E5 / Figure 1: three strategies for the rendezvous of data and compute.

Paper (Figure 1 + §3.1): (1) manual copy through the invoker, (2) an
invoker-orchestrated direct pull, (3) automatic placement and movement
by the system.  "Solid red arrows are additional infrastructure-level
tasks that are not fundamental to the requested computation."

Measures, for each strategy (plus the Wang et al. ref-RPC midpoint):
end-to-end latency, bytes pushed through the invoker's edge uplink, and
the number of placement decisions the application had to make.  Includes
the §3.1 cost-model ablation: a transfer-blind placement engine (the
pre-serialization-era estimator) against the transfer-aware one.
"""

import math

import pytest

from repro.core import NodeProfile, PlacementEngine, PlacementItem, PlacementRequest
from repro.workloads import STRATEGIES, build_scenario, run_strategy

from conftest import print_table


@pytest.fixture(scope="module")
def results():
    scenario = build_scenario()
    collected = {}

    def runner():
        for strategy in STRATEGIES:
            record = yield scenario.sim.spawn(run_strategy(scenario, strategy))
            collected[strategy] = record
        # A second rendezvous shows the warm path (code already staged).
        record = yield scenario.sim.spawn(run_strategy(scenario, "rendezvous"))
        collected["rendezvous_warm"] = record
        return None

    scenario.sim.run_process(runner())
    collected["__expected__"] = scenario.expected_score()
    collected["__model_bytes__"] = scenario.partition_obj.size
    return collected


def test_fig1_regenerate(results):
    order = ["rpc_via_alice", "rpc_direct_pull", "refrpc",
             "rendezvous", "rendezvous_warm"]
    rows = [
        [name, results[name].latency_us, results[name].invoker_uplink_bytes,
         results[name].orchestration_steps, results[name].executed_at]
        for name in order
    ]
    print_table(
        "Figure 1: rendezvous strategies (invoker = Alice)",
        ["strategy", "latency_us", "edge_uplink_B", "app_steps", "ran_at"],
        rows,
    )


def test_all_strategies_agree_on_the_answer(results):
    expected = results["__expected__"]
    for name in STRATEGIES:
        assert math.isclose(results[name].score, expected, rel_tol=1e-6)


def test_manual_copy_pays_double_through_the_edge(results):
    model_bytes = results["__model_bytes__"]
    assert results["rpc_via_alice"].invoker_uplink_bytes > 1.5 * model_bytes
    for name in ("rpc_direct_pull", "refrpc", "rendezvous"):
        assert results[name].invoker_uplink_bytes < model_bytes / 10


def test_latency_ordering(results):
    # (1) is the slowest; the automatic warm path beats every
    # RPC-family strategy.
    assert results["rpc_via_alice"].latency_us == max(
        results[name].latency_us for name in STRATEGIES)
    assert (results["rendezvous_warm"].latency_us
            < results["refrpc"].latency_us)
    assert (results["rendezvous_warm"].latency_us
            < results["rpc_direct_pull"].latency_us)


def test_orchestration_burden_vanishes(results):
    assert results["rpc_via_alice"].orchestration_steps == 3
    assert results["rpc_direct_pull"].orchestration_steps == 2
    assert results["refrpc"].orchestration_steps == 1
    assert results["rendezvous"].orchestration_steps == 0


def test_system_picks_the_idle_cloud_host(results):
    # Bob is overloaded; Alice never named Carol, the system did.
    assert results["rendezvous"].executed_at == "carol"


def test_cost_model_ablation_transfer_blind():
    """§3.1: with serialization gone, transfer costs 'can now be included
    in cost-models... more easily.'  A transfer-blind engine ships a
    huge input to a marginally faster node; the transfer-aware engine
    stays with the data."""

    from repro.core import GlobalRef, ObjectID

    request = PlacementRequest(
        code=PlacementItem(GlobalRef(ObjectID(1), 0, "read"), 4096, ("slowbox",)),
        inputs=(PlacementItem(GlobalRef(ObjectID(2), 0, "read"),
                              200_000_000, ("slowbox",)),),
        invoker="slowbox",
        flops=1e7,
    )
    nodes = [NodeProfile("slowbox", speed=1.0),
             NodeProfile("fastbox", speed=2.0)]
    distance = lambda a, b: 0 if a == b else 3
    aware = PlacementEngine(transfer_blind=False).decide(request, nodes, distance)
    blind = PlacementEngine(transfer_blind=True).decide(request, nodes, distance)
    assert aware.node == "slowbox"
    assert blind.node == "fastbox"
    # And the blind choice really is worse once transfers are priced:
    blind_true_cost = (blind.stage_in_us + blind.queue_us
                       + blind.compute_us + blind.result_return_us)
    assert blind_true_cost > aware.total_us
