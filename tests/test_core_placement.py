"""Unit tests for the rendezvous placement engine."""

import pytest

from repro.core import (
    GlobalRef,
    NodeProfile,
    ObjectID,
    PlacementEngine,
    PlacementError,
    PlacementItem,
    PlacementRequest,
)


def ref(n: int) -> GlobalRef:
    return GlobalRef(ObjectID(n), 0, "read")


def flat_distance(a: str, b: str) -> int:
    return 0 if a == b else 2


def make_request(code_at="alice", data_at="bob", data_size=1_000_000,
                 invoker="alice", flops=1e6):
    return PlacementRequest(
        code=PlacementItem(ref(1), 4096, (code_at,)),
        inputs=(PlacementItem(ref(2), data_size, (data_at,)),),
        invoker=invoker,
        result_bytes=512,
        flops=flops,
    )


BASIC_NODES = [
    NodeProfile("alice", speed=0.2),
    NodeProfile("bob", speed=1.0),
    NodeProfile("carol", speed=1.0),
]


class TestDecide:
    def test_runs_where_the_data_is(self):
        engine = PlacementEngine()
        decision = engine.decide(make_request(), BASIC_NODES, flat_distance)
        assert decision.node == "bob"

    def test_overload_shifts_to_idle_node(self):
        # The §2 scenario: Bob overloaded, Carol idle.
        engine = PlacementEngine()
        engine.QUEUE_PENALTY_US = 500.0
        nodes = [
            NodeProfile("alice", speed=0.2),
            NodeProfile("bob", speed=1.0, active_jobs=20),
            NodeProfile("carol", speed=1.0, active_jobs=0),
        ]
        decision = engine.decide(make_request(), nodes, flat_distance)
        assert decision.node == "carol"
        # The plan moves the data from Bob to Carol, not through Alice.
        moves = {(m.source, m.destination) for m in decision.movements
                 if m.ref == ref(2)}
        assert moves == {("bob", "carol")}

    def test_small_data_large_compute_prefers_fast_node(self):
        engine = PlacementEngine()
        request = make_request(data_size=100, flops=1e9)
        nodes = [
            NodeProfile("alice", speed=0.1),
            NodeProfile("fast", speed=4.0),
        ]
        decision = engine.decide(request, nodes, flat_distance)
        assert decision.node == "fast"

    def test_capacity_excludes_node(self):
        engine = PlacementEngine()
        request = make_request(data_size=10_000_000)
        nodes = [
            NodeProfile("tiny", speed=10.0, capacity_bytes=1024),
            NodeProfile("bob", speed=1.0),
        ]
        decision = engine.decide(request, nodes, flat_distance)
        assert decision.node == "bob"

    def test_no_candidates(self):
        with pytest.raises(PlacementError):
            PlacementEngine().decide(make_request(), [], flat_distance)

    def test_all_infeasible(self):
        nodes = [NodeProfile("x", capacity_bytes=0)]
        with pytest.raises(PlacementError):
            PlacementEngine().decide(make_request(), nodes, flat_distance)

    def test_considered_records_all_feasible(self):
        engine = PlacementEngine()
        decision = engine.decide(make_request(), BASIC_NODES, flat_distance)
        assert set(decision.considered) == {"alice", "bob", "carol"}
        assert decision.considered[decision.node] == min(decision.considered.values())

    def test_resident_inputs_not_moved(self):
        engine = PlacementEngine()
        decision = engine.decide(make_request(), BASIC_NODES, flat_distance)
        moved_refs = {m.ref for m in decision.movements}
        assert ref(2) not in moved_refs  # data already at bob
        assert ref(1) in moved_refs      # code comes from alice

    def test_bytes_moved_accounting(self):
        engine = PlacementEngine()
        decision = engine.decide(make_request(), BASIC_NODES, flat_distance)
        assert decision.bytes_moved == sum(m.size_bytes for m in decision.movements)

    def test_result_return_free_when_local(self):
        engine = PlacementEngine()
        request = make_request(code_at="alice", data_at="alice", data_size=100)
        decision = engine.decide(request, [NodeProfile("alice")], flat_distance)
        assert decision.result_return_us == 0.0
        assert decision.stage_in_us == 0.0

    def test_transfer_blind_ablation_ignores_movement(self):
        # With transfer costs ignored, the fastest node wins even if all
        # data must cross the network to reach it.
        request = make_request(data_size=50_000_000, flops=1e6)
        nodes = [
            NodeProfile("bob", speed=1.0),
            NodeProfile("turbo", speed=8.0),
        ]
        aware = PlacementEngine(transfer_blind=False).decide(
            request, nodes, flat_distance)
        blind = PlacementEngine(transfer_blind=True).decide(
            request, nodes, flat_distance)
        assert aware.node == "bob"
        assert blind.node == "turbo"

    def test_nearest_replica_chosen(self):
        engine = PlacementEngine()
        request = PlacementRequest(
            code=PlacementItem(ref(1), 1024, ("exec",)),
            inputs=(PlacementItem(ref(2), 1_000_000, ("far", "near")),),
            invoker="exec",
        )

        def distance(a, b):
            if a == b:
                return 0
            return {"far": 5, "near": 1, "exec": 0}.get(a, 3)

        decision = engine.decide(request, [NodeProfile("exec")], distance)
        sources = {m.source for m in decision.movements}
        assert sources == {"near"}


class TestValidation:
    def test_item_requires_location(self):
        with pytest.raises(PlacementError):
            PlacementItem(ref(1), 10, ())

    def test_item_rejects_negative_size(self):
        with pytest.raises(PlacementError):
            PlacementItem(ref(1), -1, ("a",))

    def test_profile_validation(self):
        with pytest.raises(PlacementError):
            NodeProfile("x", speed=0)
        with pytest.raises(PlacementError):
            NodeProfile("x", active_jobs=-1)
        with pytest.raises(PlacementError):
            NodeProfile("x", capacity_bytes=-5)
