"""Unit and integration tests for packet subscriptions."""

import pytest

from repro.core import IDAllocator
from repro.net import build_paper_topology
from repro.pubsub import (
    And,
    CompileError,
    Eq,
    FormatError,
    FormatField,
    InRange,
    Or,
    PacketFormat,
    PredicateError,
    PubSubFabric,
    TRUE,
    compile_subscriptions,
)
from repro.faults import FaultInjector, FaultPlan, HealthLedger
from repro.net.pipeline import SramModel
from repro.sim import Simulator, Timeout

FMT = PacketFormat("telemetry", [
    FormatField("kind", 16),
    FormatField("severity", 8),
    FormatField("region", 8),
])


class TestPredicates:
    def test_eq_matches(self):
        assert Eq("kind", 3).matches({"kind": 3})
        assert not Eq("kind", 3).matches({"kind": 4})
        assert not Eq("kind", 3).matches({})

    def test_range_matches_inclusive(self):
        predicate = InRange("severity", 2, 4)
        assert predicate.matches({"severity": 2})
        assert predicate.matches({"severity": 4})
        assert not predicate.matches({"severity": 5})

    def test_empty_range_rejected(self):
        with pytest.raises(PredicateError):
            InRange("x", 5, 4)

    def test_and_or_composition(self):
        predicate = (Eq("kind", 1) & InRange("severity", 5, 9)) | Eq("kind", 2)
        assert predicate.matches({"kind": 1, "severity": 7})
        assert predicate.matches({"kind": 2, "severity": 0})
        assert not predicate.matches({"kind": 1, "severity": 1})

    def test_true_matches_everything(self):
        assert TRUE.matches({})
        assert TRUE.matches({"anything": 1})

    def test_dnf_of_nested(self):
        predicate = Eq("a", 1) & (Eq("b", 2) | Eq("c", 3))
        terms = predicate.dnf()
        assert len(terms) == 2
        assert all(len(term) == 2 for term in terms)

    def test_combinators_require_children(self):
        with pytest.raises(PredicateError):
            And()
        with pytest.raises(PredicateError):
            Or()


class TestFormats:
    def test_header_size(self):
        assert FMT.header_bits == 32
        assert FMT.header_bytes == 4

    def test_unknown_field(self):
        with pytest.raises(FormatError):
            FMT.field("missing")

    def test_validate_ranges(self):
        FMT.validate({"kind": 65535, "severity": 0})
        with pytest.raises(FormatError):
            FMT.validate({"severity": 256})
        with pytest.raises(FormatError):
            FMT.validate({"kind": -1})

    def test_duplicate_fields_rejected(self):
        with pytest.raises(FormatError):
            PacketFormat("bad", [FormatField("x", 8), FormatField("x", 8)])

    def test_field_width_bounds(self):
        with pytest.raises(FormatError):
            FormatField("x", 0)
        with pytest.raises(FormatError):
            FormatField("x", 129)

    def test_key_bits(self):
        assert FMT.key_bits(["kind", "severity"]) == 24


class TestCompiler:
    def test_eq_becomes_exact_rule(self):
        ruleset = compile_subscriptions(FMT, [(1, Eq("kind", 7))])
        assert ruleset.entries_used() == 1
        assert ruleset.classify({"kind": 7}) == {1}
        assert ruleset.classify({"kind": 8}) == set()

    def test_conjunction_single_rule(self):
        ruleset = compile_subscriptions(
            FMT, [(1, Eq("kind", 7) & Eq("severity", 2))])
        assert ruleset.entries_used() == 1
        assert ruleset.classify({"kind": 7, "severity": 2}) == {1}
        assert ruleset.classify({"kind": 7, "severity": 3}) == set()

    def test_disjunction_multiple_rules(self):
        ruleset = compile_subscriptions(FMT, [(1, Eq("kind", 1) | Eq("kind", 2))])
        assert ruleset.entries_used() == 2

    def test_narrow_range_expanded(self):
        ruleset = compile_subscriptions(FMT, [(1, InRange("severity", 3, 6))])
        assert ruleset.entries_used() == 4
        assert ruleset.residuals == []
        assert ruleset.classify({"severity": 5}) == {1}

    def test_wide_range_stays_residual(self):
        ruleset = compile_subscriptions(
            FMT, [(1, InRange("kind", 0, 10_000))])
        assert ruleset.entries_used() == 0
        assert len(ruleset.residuals) == 1
        assert ruleset.classify({"kind": 9_999}) == {1}

    def test_unknown_field_residual(self):
        ruleset = compile_subscriptions(FMT, [(1, Eq("not_in_format", 1))])
        assert ruleset.entries_used() == 0
        assert ruleset.classify({"not_in_format": 1}) == {1}

    def test_true_subscription_is_residual(self):
        ruleset = compile_subscriptions(FMT, [(1, TRUE)])
        assert ruleset.classify({"kind": 0}) == {1}

    def test_contradictory_conjunction_matches_nothing(self):
        ruleset = compile_subscriptions(FMT, [(1, Eq("kind", 1) & Eq("kind", 2))])
        assert ruleset.entries_used() == 0
        assert ruleset.classify({"kind": 1}) == set()

    def test_sram_accounting(self):
        ruleset = compile_subscriptions(FMT, [(1, Eq("kind", 7))])
        assert ruleset.sram_words_used() == 1  # 16-bit key -> 1 word

    def test_budget_overflow_raises(self):
        tiny = SramModel(total_words=2)
        with pytest.raises(CompileError):
            compile_subscriptions(
                FMT, [(1, InRange("severity", 0, 9))], sram=tiny)

    def test_multiple_subscriptions_share_table(self):
        ruleset = compile_subscriptions(FMT, [
            (1, Eq("kind", 1)),
            (2, Eq("kind", 1)),
            (3, Eq("kind", 2)),
        ])
        assert ruleset.classify({"kind": 1}) == {1, 2}
        assert ruleset.classify({"kind": 2}) == {3}


class TestFabric:
    def _bed(self, seed=1):
        sim = Simulator(seed=seed)
        net = build_paper_topology(sim)
        fabric = PubSubFabric(net, FMT)
        topic = IDAllocator(seed=seed + 1).allocate()
        return sim, net, fabric, topic

    def test_delivery_to_subscriber(self):
        sim, net, fabric, topic = self._bed()
        got = []
        fabric.subscribe("resp1", topic, lambda fields, payload: got.append(fields))

        def proc():
            fabric.publish("driver", topic, {"kind": 1, "severity": 2}, b"data")
            yield Timeout(1000)

        sim.run_process(proc())
        assert got == [{"kind": 1, "severity": 2}]

    def test_residual_filtering_at_subscriber(self):
        sim, net, fabric, topic = self._bed()
        got = []
        sub = fabric.subscribe("resp1", topic,
                               lambda fields, payload: got.append(fields),
                               predicate=Eq("kind", 5))

        def proc():
            fabric.publish("driver", topic, {"kind": 5}, b"yes")
            fabric.publish("driver", topic, {"kind": 6}, b"no")
            yield Timeout(1000)

        sim.run_process(proc())
        assert len(got) == 1
        assert sub.delivered == 1
        assert sub.filtered == 1

    def test_multicast_to_multiple_subscribers(self):
        sim, net, fabric, topic = self._bed()
        got1, got2 = [], []
        fabric.subscribe("resp1", topic, lambda f, p: got1.append(f))
        fabric.subscribe("resp2", topic, lambda f, p: got2.append(f))

        def proc():
            fabric.publish("driver", topic, {"kind": 1}, b"x")
            yield Timeout(1000)

        sim.run_process(proc())
        assert len(got1) == 1 and len(got2) == 1

    def test_non_subscribers_do_not_receive(self):
        sim, net, fabric, topic = self._bed()
        got1 = []
        fabric.subscribe("resp1", topic, lambda f, p: got1.append(f))
        other_topic = IDAllocator(seed=99).allocate()
        got_other = []
        fabric.subscribe("resp2", other_topic, lambda f, p: got_other.append(f))

        def proc():
            fabric.publish("driver", topic, {"kind": 1}, b"x")
            yield Timeout(1000)

        sim.run_process(proc())
        assert len(got1) == 1
        assert got_other == []

    def test_unsubscribe_stops_delivery(self):
        sim, net, fabric, topic = self._bed()
        got = []
        sub = fabric.subscribe("resp1", topic, lambda f, p: got.append(f))

        def proc():
            fabric.publish("driver", topic, {"kind": 1}, b"x")
            yield Timeout(1000)
            fabric.unsubscribe(sub)
            fabric.publish("driver", topic, {"kind": 1}, b"y")
            yield Timeout(1000)

        sim.run_process(proc())
        assert len(got) == 1

    def test_invalid_publication_rejected(self):
        sim, net, fabric, topic = self._bed()
        with pytest.raises(FormatError):
            fabric.publish("driver", topic, {"severity": 999})

    def test_compiled_rules_accessible(self):
        sim, net, fabric, topic = self._bed()
        fabric.subscribe("resp1", topic, lambda f, p: None, predicate=Eq("kind", 1))
        ruleset = fabric.compiled_rules()
        assert ruleset.entries_used() == 1


class TestIngressReentrancy:
    """Handlers that mutate the subscription table mid-delivery must not
    perturb the in-flight fan-out (regression: `_ingress` used to iterate
    the live `_by_topic` list)."""

    def _bed(self, seed=1):
        sim = Simulator(seed=seed)
        net = build_paper_topology(sim)
        fabric = PubSubFabric(net, FMT)
        topic = IDAllocator(seed=seed + 1).allocate()
        return sim, net, fabric, topic

    def test_handler_unsubscribing_peer_skips_it_for_inflight_packet(self):
        sim, net, fabric, topic = self._bed()
        got_b = []
        subs = {}
        fabric.subscribe("resp1", topic,
                         lambda f, p: fabric.unsubscribe(subs["b"]))
        subs["b"] = fabric.subscribe("resp1", topic,
                                     lambda f, p: got_b.append(f))

        def proc():
            fabric.publish("driver", topic, {"kind": 1}, b"x")
            yield Timeout(1000)

        sim.run_process(proc())
        # The peer was unsubscribed by an earlier handler of the SAME
        # packet: it must not see the in-flight publication.
        assert got_b == []

    def test_handler_subscribing_new_sub_excludes_inflight_packet(self):
        sim, net, fabric, topic = self._bed()
        got_new = []
        subs = {}

        def handler_a(f, p):
            if "new" not in subs:
                subs["new"] = fabric.subscribe(
                    "resp1", topic, lambda f2, p2: got_new.append(f2))

        fabric.subscribe("resp1", topic, handler_a)

        def proc():
            fabric.publish("driver", topic, {"kind": 1}, b"x")
            yield Timeout(1000)
            fabric.publish("driver", topic, {"kind": 2}, b"y")
            yield Timeout(1000)

        sim.run_process(proc())
        # The subscription created during delivery of packet 1 sees only
        # packet 2.
        assert got_new == [{"kind": 2}]

    def test_handler_unsubscribing_itself_is_safe(self):
        sim, net, fabric, topic = self._bed()
        got = []
        subs = {}

        def once(f, p):
            got.append(f)
            fabric.unsubscribe(subs["me"])

        subs["me"] = fabric.subscribe("resp1", topic, once)

        def proc():
            fabric.publish("driver", topic, {"kind": 1}, b"x")
            yield Timeout(1000)
            fabric.publish("driver", topic, {"kind": 2}, b"y")
            yield Timeout(1000)

        sim.run_process(proc())
        assert got == [{"kind": 1}]


class TestDeliveryOrder:
    """The (topic, host) subscription index must preserve the original
    per-host delivery order (subscription order filtered to the host)."""

    def test_per_host_order_matches_subscription_order(self):
        sim = Simulator(seed=7)
        net = build_paper_topology(sim)
        fabric = PubSubFabric(net, FMT)
        topic = IDAllocator(seed=8).allocate()
        order = []
        for tag in ("a1", "b1", "a2", "b2", "a3"):
            host = "resp1" if tag.startswith("a") else "resp2"
            fabric.subscribe(host, topic,
                             lambda f, p, tag=tag: order.append(tag))

        def proc():
            fabric.publish("driver", topic, {"kind": 1}, b"x")
            yield Timeout(1000)

        sim.run_process(proc())
        assert [t for t in order if t.startswith("a")] == ["a1", "a2", "a3"]
        assert [t for t in order if t.startswith("b")] == ["b1", "b2"]


class TestNoRoute:
    def _bed(self, seed=1):
        sim = Simulator(seed=seed)
        net = build_paper_topology(sim)
        fabric = PubSubFabric(net, FMT)
        topic = IDAllocator(seed=seed + 1).allocate()
        return sim, net, fabric, topic

    def test_publish_before_subscribe_counts_no_route(self):
        sim, net, fabric, topic = self._bed()
        got = []

        def proc():
            fabric.publish("driver", topic, {"kind": 1}, b"early")
            yield Timeout(1000)
            fabric.subscribe("resp1", topic, lambda f, p: got.append(f))
            fabric.publish("driver", topic, {"kind": 2}, b"late")
            yield Timeout(1000)

        sim.run_process(proc())
        assert fabric.tracer.counters.get("pubsub.no_route") == 1
        assert got == [{"kind": 2}]

    def test_publish_after_last_unsubscribe_counts_no_route(self):
        sim, net, fabric, topic = self._bed()
        got = []
        sub = fabric.subscribe("resp1", topic, lambda f, p: got.append(f))

        def proc():
            fabric.publish("driver", topic, {"kind": 1}, b"x")
            yield Timeout(1000)
            fabric.unsubscribe(sub)
            fabric.publish("driver", topic, {"kind": 2}, b"gone")
            yield Timeout(1000)

        sim.run_process(proc())
        assert fabric.tracer.counters.get("pubsub.no_route") == 1
        assert got == [{"kind": 1}]


class TestDeadRoutePruning:
    """Suspecting a crashed subscriber prunes its multicast ports; the
    ledger clearing it reinstalls them (regression: dead-subscriber
    routes used to stay installed forever)."""

    def _bed(self, seed=1):
        sim = Simulator(seed=seed)
        net = build_paper_topology(sim)
        health = HealthLedger(sim)
        health.SUSPICION_TTL_US = 10_000_000.0
        fabric = PubSubFabric(net, FMT, health=health)
        topic = IDAllocator(seed=seed + 1).allocate()
        return sim, net, health, fabric, topic

    def test_suspected_subscriber_routes_pruned_then_restored(self):
        sim, net, health, fabric, topic = self._bed()
        got1, got2 = [], []
        fabric.subscribe("resp1", topic, lambda f, p: got1.append(f))
        fabric.subscribe("resp2", topic, lambda f, p: got2.append(f))
        plan = FaultPlan().crash("resp1", at=1_000).recover("resp1", at=50_000)
        FaultInjector(net, plan).arm()
        dead_host = net.host("resp1")
        dropped = []

        def proc():
            yield Timeout(2_000)  # resp1 is now crashed, not yet suspected
            fabric.publish("driver", topic, {"kind": 1}, b"a")
            yield Timeout(5_000)
            # Switches still replicated toward the dead NIC.
            dropped.append(dead_host.tracer.counters.get(
                "host.dropped_while_failed"))
            health.suspect("resp1")  # e.g. the bus noticed missing acks
            fabric.publish("driver", topic, {"kind": 2}, b"b")
            yield Timeout(5_000)
            dropped.append(dead_host.tracer.counters.get(
                "host.dropped_while_failed"))
            yield Timeout(50_000)  # resp1 recovered at t=50ms
            health.clear("resp1")
            fabric.publish("driver", topic, {"kind": 3}, b"c")
            yield Timeout(5_000)

        sim.run_process(proc())
        # Publication 1 hit the dead NIC; after pruning, publication 2
        # was not replicated toward resp1 at all.
        assert dropped[0] >= 1
        assert dropped[1] == dropped[0]
        assert fabric.tracer.counters.get("pubsub.dead_route_pruned") == 1
        # resp2 saw everything; resp1 resumed after restore.
        assert [f["kind"] for f in got2] == [1, 2, 3]
        assert [f["kind"] for f in got1] == [3]

    def test_prune_without_health_subscriptions_survive(self):
        sim, net, health, fabric, topic = self._bed()
        got = []
        fabric.subscribe("resp1", topic, lambda f, p: got.append(f))
        fabric.prune_host("resp1")
        fabric.prune_host("resp1")  # idempotent

        def proc():
            fabric.publish("driver", topic, {"kind": 1}, b"x")
            yield Timeout(2_000)
            fabric.restore_host("resp1")
            fabric.publish("driver", topic, {"kind": 2}, b"y")
            yield Timeout(2_000)

        sim.run_process(proc())
        assert [f["kind"] for f in got] == [2]
        assert fabric.tracer.counters.get("pubsub.dead_route_pruned") == 1
