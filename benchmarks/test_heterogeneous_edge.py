"""E7 / §5: the Dave case — heterogeneous edge devices.

Paper: "a subsequent classification request from client device Dave will
be forced to run inference on the server side even if it is equipped
with the resources to do the work locally... the optimization... in
which Dave (the powerful edge device) performs inference locally could
not be realized via any RPC mechanism."

Runs the same classification from Alice (weak, no local model) and Dave
(capable, local model) under all four invocation models and shows that
only the rendezvous model adapts per device.
"""

import math

import pytest

from repro.workloads import STRATEGIES, build_scenario, run_strategy

from conftest import print_table


@pytest.fixture(scope="module")
def results():
    scenario = build_scenario(dave_has_local_model=True)
    collected = {}

    def runner():
        for invoker in ("alice", "dave"):
            for strategy in STRATEGIES:
                record = yield scenario.sim.spawn(
                    run_strategy(scenario, strategy, invoker=invoker))
                collected[(invoker, strategy)] = record
        return None

    scenario.sim.run_process(runner())
    collected["__expected__"] = scenario.expected_score()
    return collected


def test_heterogeneous_edge_table(results):
    rows = []
    for (invoker, strategy), record in sorted(
            (k, v) for k, v in results.items() if isinstance(k, tuple)):
        rows.append([invoker, strategy, record.latency_us,
                     record.executed_at, record.invoker_uplink_bytes])
    print_table(
        "Per-device adaptivity: where each invocation model runs the job",
        ["invoker", "strategy", "latency_us", "ran_at", "uplink_B"],
        rows,
    )


def test_every_model_computes_the_right_answer(results):
    expected = results["__expected__"]
    for key, record in results.items():
        if isinstance(key, tuple):
            assert math.isclose(record.score, expected, rel_tol=1e-6)


def test_rpc_family_pins_dave_to_the_server(results):
    for strategy in ("rpc_via_alice", "rpc_direct_pull", "refrpc"):
        assert results[("dave", strategy)].executed_at != "dave"


def test_rendezvous_adapts_per_device(results):
    # Same code, same call: Alice's run lands in the cloud, Dave's on
    # his own device.
    assert results[("alice", "rendezvous")].executed_at == "carol"
    assert results[("dave", "rendezvous")].executed_at == "dave"


def test_dave_local_run_is_network_free(results):
    record = results[("dave", "rendezvous")]
    assert record.invoker_uplink_bytes == 0


def test_dave_local_beats_every_server_side_model(results):
    local = results[("dave", "rendezvous")].latency_us
    for strategy in ("rpc_via_alice", "rpc_direct_pull", "refrpc"):
        assert local < results[("dave", strategy)].latency_us / 5


def test_alice_still_served_by_the_cloud(results):
    # Adaptivity must not break the weak-device path: Alice's
    # rendezvous is at least competitive with her best RPC option.
    alice_rpc_best = min(
        results[("alice", s)].latency_us
        for s in ("rpc_via_alice", "rpc_direct_pull"))
    assert results[("alice", "rendezvous")].latency_us < alice_rpc_best
