"""Integration tests: the §2 / Figure 1 scenario across all four
invocation models, end to end over the simulated network."""

import math

import pytest

from repro.core import GlobalRef
from repro.workloads import STRATEGIES, build_scenario, run_strategy
from repro.workloads.inference import partition_flops


def _run_all(scenario, invoker="alice", strategies=STRATEGIES, repeats=1):
    results = []

    def runner():
        for strategy in strategies:
            for _ in range(repeats):
                result = yield scenario.sim.spawn(
                    run_strategy(scenario, strategy, invoker=invoker))
                results.append(result)
        return results

    return scenario.sim.run_process(runner())


class TestCorrectness:
    def test_all_strategies_compute_the_same_score(self):
        scenario = build_scenario()
        expected = scenario.expected_score()
        results = _run_all(scenario)
        assert len(results) == 4
        for result in results:
            assert math.isclose(result.score, expected, rel_tol=1e-6), result

    def test_unknown_strategy_rejected(self):
        scenario = build_scenario()

        def proc():
            yield scenario.sim.spawn(run_strategy(scenario, "teleport"))

        with pytest.raises(Exception):
            scenario.sim.run_process(proc())


class TestFigure1Shapes:
    """The qualitative claims of Figure 1 must hold."""

    def test_manual_copy_moves_model_through_invoker(self):
        scenario = build_scenario()
        results = {r.strategy: r for r in _run_all(scenario)}
        model_bytes = scenario.partition_obj.size
        # Fig 1(1) pushes the model through Alice's uplink twice.
        assert results["rpc_via_alice"].invoker_uplink_bytes > 1.5 * model_bytes
        # Fig 1(2) and beyond keep the model off the edge link entirely.
        assert results["rpc_direct_pull"].invoker_uplink_bytes < model_bytes / 10
        assert results["refrpc"].invoker_uplink_bytes < model_bytes / 10
        assert results["rendezvous"].invoker_uplink_bytes < model_bytes / 10

    def test_orchestration_steps_decrease_left_to_right(self):
        scenario = build_scenario()
        results = {r.strategy: r for r in _run_all(scenario)}
        steps = [results[s].orchestration_steps for s in STRATEGIES]
        assert steps == sorted(steps, reverse=True)
        assert results["rendezvous"].orchestration_steps == 0

    def test_manual_copy_is_slowest(self):
        scenario = build_scenario()
        results = {r.strategy: r for r in _run_all(scenario)}
        slowest = max(results.values(), key=lambda r: r.latency_us)
        assert slowest.strategy == "rpc_via_alice"

    def test_rendezvous_places_on_idle_cloud(self):
        scenario = build_scenario()
        results = {r.strategy: r for r in _run_all(scenario)}
        # Bob is overloaded and Alice lacks memory: the system picks Carol
        # without Alice's code saying so.
        assert results["rendezvous"].executed_at == "carol"

    def test_warm_rendezvous_beats_refrpc(self):
        scenario = build_scenario()
        warm = _run_all(scenario, strategies=("rendezvous",), repeats=2)[-1]
        refrpc = _run_all(scenario, strategies=("refrpc",))[0]
        assert warm.latency_us < refrpc.latency_us


class TestDaveCase:
    """§5: only the rendezvous model lets a capable edge device run the
    inference locally."""

    def test_dave_runs_locally_under_rendezvous(self):
        scenario = build_scenario(dave_has_local_model=True)
        results = _run_all(scenario, invoker="dave",
                           strategies=("rendezvous",), repeats=2)
        assert all(r.executed_at == "dave" for r in results)

    def test_dave_invocations_use_no_network(self):
        # Dave ships with the code and holds the model: every rendezvous
        # invocation is entirely on-device.
        scenario = build_scenario(dave_has_local_model=True)
        results = _run_all(scenario, invoker="dave",
                           strategies=("rendezvous",), repeats=2)
        assert all(r.invoker_uplink_bytes == 0 for r in results)
        assert all(r.latency_us < 100.0 for r in results)

    def test_rpc_variants_cannot_run_on_dave(self):
        scenario = build_scenario(dave_has_local_model=True)
        results = _run_all(scenario, invoker="dave",
                           strategies=("rpc_via_alice", "rpc_direct_pull",
                                       "refrpc"))
        assert all(r.executed_at != "dave" for r in results)

    def test_dave_local_beats_every_rpc_variant(self):
        scenario = build_scenario(dave_has_local_model=True)
        rendezvous = _run_all(scenario, invoker="dave",
                              strategies=("rendezvous",), repeats=2)[-1]
        rpc_results = _run_all(scenario, invoker="dave",
                               strategies=("rpc_direct_pull", "refrpc"))
        assert all(rendezvous.latency_us < r.latency_us for r in rpc_results)

    def test_without_local_model_dave_uses_cloud(self):
        # With a large fragment, pulling it through Dave's slow edge
        # uplink clearly loses to running in the cloud; and the cloud
        # host placement picks is the one that finishes first when each
        # candidate is made to run the job alone.
        def run(candidates):
            scenario = build_scenario(dave_has_local_model=False,
                                      partition_entries=100_000)
            return scenario.sim.run_process(scenario.runtime.invoke(
                "dave", scenario.code_ref,
                data_refs={"partition": GlobalRef(
                    scenario.partition_obj.oid, 0, "read")},
                values={"activation": scenario.activation.values,
                        "partition_bytes": scenario.partition_obj.size},
                flops=partition_flops(scenario.partition),
                candidates=candidates))

        placed = run(["dave", "bob", "carol"]).executed_at
        realized = {name: run([name]).latency_us
                    for name in ("dave", "bob", "carol")}
        assert placed != "dave"
        assert placed == min(realized, key=realized.get)


class TestSerializationShare:
    """§2: the deserialize+load share of RPC model serving (~70%)."""

    def test_deserialize_share_of_processing_is_seventy_percent(self):
        # §2: "As much as 70% of the processing time for these
        # model-serving applications is spent deserializing and loading."
        from repro.core import CostModel
        from repro.workloads.inference import serving_compute_us

        model = CostModel()
        nbytes = 10_000_000
        deserialize = model.deserialize_time_us(nbytes)
        compute = serving_compute_us(nbytes, model)
        share = deserialize / (deserialize + compute)
        assert share == pytest.approx(0.70, abs=0.02)

    def test_object_path_eliminates_marshalling(self):
        from repro.core import CostModel

        # Across the scenario's 10 Gbps edge-to-cloud route.
        path = build_scenario().net.path("alice", "bob")
        model = CostModel()
        nbytes = 10_000_000
        rpc = model.rpc_transfer(nbytes, path)
        obj = model.object_transfer(nbytes, path)
        # "alleviating 100% of the loading overhead ... leaving only data
        # transfer costs, which are fundamental" (§3.1).
        assert obj.total_us < rpc.total_us / 2
        assert obj.transfer_us == rpc.transfer_us
