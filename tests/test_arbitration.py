"""Tests for traffic classification and deficit-WRR egress arbitration.

The link's default egress is strict FIFO; installing per-class weights
via :meth:`Link.set_egress_weights` turns each direction into a deficit
round-robin arbiter.  These tests pin the classifier, the weight
guarantees under saturation, the deficit counter's large-frame
behaviour, and the per-tenant class override plumbed through loadgen.
"""

import os

import pytest

from repro.net import (
    HEADER_BYTES,
    Network,
    Packet,
    TCLASS_COHERENCE,
    TCLASS_PUBSUB,
    TCLASS_TRANSPORT,
    build_star,
    traffic_class,
)
from repro.sim import Simulator, Timeout

# Shift every seed below by REPRO_SEED_OFFSET so CI's fault-seed matrix
# reruns the suite over disjoint seed ranges.
SEED_OFFSET = int(os.environ.get("REPRO_SEED_OFFSET", "0"))


def _seed(n: int) -> int:
    return n + SEED_OFFSET


class TestTrafficClass:
    def test_explicit_tclass_wins(self):
        packet = Packet(kind="coh.acquire", src="a", dst="b", tclass="gold")
        assert traffic_class(packet) == "gold"

    def test_coherence_kinds_classified(self):
        packet = Packet(kind="coh.probe_inv", src="a", dst="b")
        assert traffic_class(packet) == TCLASS_COHERENCE

    def test_pubsub_kinds_classified(self):
        packet = Packet(kind="ps.publish", src="a", dst="b")
        assert traffic_class(packet) == TCLASS_PUBSUB

    def test_everything_else_is_transport(self):
        for kind in ("mp.data", "rpc.call", "hello"):
            assert traffic_class(Packet(kind=kind, src="a", dst="b")) \
                == TCLASS_TRANSPORT

    def test_flood_clones_keep_the_class(self):
        packet = Packet(kind="m", src="a", dst="b", tclass="gold")
        assert packet.clone_for_flood().tclass == "gold"

    def test_host_stamps_default_tclass(self):
        sim = Simulator(seed=_seed(1))
        net = build_star(sim, 2)
        net.host("h0").default_tclass = "gold"
        got = []
        net.host("h1").on("m", lambda p: got.append(p))

        def proc():
            net.host("h0").send(Packet(kind="m", src="h0", dst="h1"))
            # An explicitly classed packet keeps its own stamp.
            net.host("h0").send(
                Packet(kind="m", src="h0", dst="h1", tclass="probe"))
            yield Timeout(100)

        sim.run_process(proc())
        assert [p.tclass for p in got] == ["gold", "probe"]


def _contended_egress(seed, weights, quantum_bytes=None):
    """Two fast senders, one slow egress: a saturated arbitration point.

    Returns (sim, net, got) where ``got`` maps kind -> list of arrival
    times at the shared receiver behind the slow link.
    """
    sim = Simulator(seed=seed)
    net = Network(sim)
    net.add_switch("s0")
    for name in ("a", "b", "c"):
        net.add_host(name)
    net.connect("a", "s0")
    net.connect("b", "s0")
    # 0.1 Gbps = 12.5 B/us: ~43us per 500-byte frame, instantly backlogged.
    slow = net.connect("c", "s0", bandwidth_gbps=0.1)
    if weights is not None:
        kwargs = {} if quantum_bytes is None else {"quantum_bytes": quantum_bytes}
        slow.set_egress_weights(weights, **kwargs)
    got = {}
    net.host("c").set_default_handler(
        lambda p: got.setdefault(p.kind, []).append(sim.now))
    return sim, net, got


class TestWrrArbitration:
    def test_validation(self):
        sim = Simulator(seed=_seed(2))
        net = build_star(sim, 2)
        link = net.links[0]
        with pytest.raises(ValueError):
            link.set_egress_weights({"a": 1}, quantum_bytes=0)
        with pytest.raises(ValueError):
            link.set_egress_weights({"a": 0})
        with pytest.raises(ValueError):
            link.set_egress_weights({"a": 1}, default_weight=0)

    def test_single_class_preserves_fifo_order(self):
        sim, net, got = _contended_egress(_seed(3), weights={"transport": 1})
        seq = []
        net.host("c").on("m", lambda p: seq.append(p.payload["i"]))

        def proc():
            net.host("c").send(Packet(kind="hello", src="c", dst="a"))
            yield Timeout(100)
            for i in range(10):
                net.host("a").send(Packet(kind="m", src="a", dst="c",
                                          payload={"i": i},
                                          payload_bytes=500))
            yield Timeout(10_000)

        sim.run_process(proc())
        assert seq == list(range(10))

    def test_disabling_weights_restores_plain_fifo(self):
        def arrivals(configure):
            sim = Simulator(seed=_seed(4))
            net = build_star(sim, 2)
            configure(net.links[0])
            times = []
            net.host("h1").on("m", lambda p: times.append(sim.now))

            def proc():
                for i in range(8):
                    net.host("h0").send(Packet(kind="m", src="h0", dst="h1",
                                               payload_bytes=200 * (i + 1)))
                yield Timeout(10_000)

            sim.run_process(proc())
            return times

        plain = arrivals(lambda link: None)
        disabled = arrivals(lambda link: (
            link.set_egress_weights({"transport": 4}),
            link.set_egress_weights(None)))
        assert plain == disabled

    @pytest.mark.parametrize("gold_weight", [1, 3, 7])
    def test_weights_respected_under_saturation(self, gold_weight):
        """Property: with both classes permanently backlogged and equal
        frame sizes, delivered counts track the configured weights."""
        sim, net, got = _contended_egress(
            _seed(5), weights={"gold": gold_weight, "silver": 1})
        net.host("a").default_tclass = "gold"
        net.host("b").default_tclass = "silver"

        def proc():
            net.host("c").send(Packet(kind="hello", src="c", dst="a"))
            yield Timeout(100)
            for i in range(120):
                net.host("a").send(Packet(kind="gold.m", src="a", dst="c",
                                          payload_bytes=500))
                net.host("b").send(Packet(kind="silver.m", src="b", dst="c",
                                          payload_bytes=500))
            yield Timeout(60_000)

        sim.run_process(proc())
        # Count only arrivals from the saturated regime: by 4000us both
        # queues were still backlogged at every tested weight (total
        # drain takes ~10ms; the gold queue alone outlasts 4ms even at
        # weight 7), so the service ratio is the arbiter's doing.
        cutoff = 4_000.0
        gold = sum(1 for t in got.get("gold.m", ()) if t <= cutoff)
        silver = sum(1 for t in got.get("silver.m", ()) if t <= cutoff)
        assert silver > 0 and gold > 0
        ratio = gold / silver
        assert gold_weight * 0.8 <= ratio <= gold_weight * 1.25, (
            f"weights {gold_weight}:1 but served {gold}:{silver}")

    def test_deficit_counter_equalizes_bytes_across_frame_sizes(self):
        """Equal weights, one class sending 2500-byte frames against one
        sending 250-byte frames: the deficit carry must keep *byte*
        service equal — big frames wait for credit instead of rounding
        up to a free full frame per visit."""
        sim, net, got = _contended_egress(
            _seed(6), weights={"big": 1, "small": 1}, quantum_bytes=500)
        net.host("a").default_tclass = "big"
        net.host("b").default_tclass = "small"

        def proc():
            net.host("c").send(Packet(kind="hello", src="c", dst="a"))
            yield Timeout(100)
            for i in range(60):
                net.host("a").send(Packet(kind="big.m", src="a", dst="c",
                                          payload_bytes=2500))
            for i in range(600):
                net.host("b").send(Packet(kind="small.m", src="b", dst="c",
                                          payload_bytes=250))
            yield Timeout(100_000)

        sim.run_process(proc())
        big_bytes = len(got.get("big.m", ())) * (2500 + HEADER_BYTES)
        small_bytes = len(got.get("small.m", ())) * (250 + HEADER_BYTES)
        assert big_bytes > 0 and small_bytes > 0
        ratio = big_bytes / small_bytes
        assert 0.7 <= ratio <= 1.4, (
            f"byte service skewed across frame sizes: {ratio:.2f}")

    def test_wrr_counters_emitted(self):
        sim = Simulator(seed=_seed(7))
        net = build_star(sim, 2, tracing=True)
        net.links[0].set_egress_weights({"transport": 2})

        def proc():
            net.host("h0").send(Packet(kind="m", src="h0", dst="h1",
                                       payload_bytes=100))
            yield Timeout(1_000)

        sim.run_process(proc())
        counters = net.metrics.snapshot()["counters"]
        assert counters["net.links:switch.wrr.enqueued"] >= 1
        assert counters["net.links:switch.wrr.tx.transport"] >= 1


class TestTenantClassOverride:
    def test_tenant_spec_pins_client_host_class(self):
        from repro.loadgen import LoadGenerator, TenantSpec
        from repro.runtime.engine import GlobalSpaceRuntime

        sim = Simulator(seed=_seed(8))
        net = build_star(sim, 3, default_latency_us=2.0)
        runtime = GlobalSpaceRuntime(net)
        runtime.add_node("h0")
        runtime.add_node("h1")
        spec = TenantSpec(name="gold", client="h0", rate_per_sec=5_000.0,
                          keyspace=100, tclass="gold")
        LoadGenerator(runtime, [spec], duration_us=1_000.0)
        assert net.host("h0").default_tclass == "gold"
        # Unclassed tenants leave their client host untouched.
        plain = TenantSpec(name="plain", client="h1", rate_per_sec=5_000.0,
                           keyspace=100)
        LoadGenerator(runtime, [plain], duration_us=1_000.0)
        assert net.host("h1").default_tclass is None


class TestWrrReconfiguration:
    """Regression: replacing or disabling the arbiter while packets were
    queued orphaned them forever and leaked ``_in_flight`` (inflating
    ``queue_depth`` for the life of the link)."""

    def _burst_then(self, seed, reconfigure):
        sim = Simulator(seed=seed)
        # 0.01 Gbps = 1.25 B/us: a 542-byte frame takes ~434us, so the
        # burst is still deeply queued when the reconfigure lands.
        net = build_star(sim, 2, default_bandwidth_gbps=0.01)
        for link in net.links:
            link.set_egress_weights({"transport": 2})
        got = []
        net.host("h1").on("m", lambda p: got.append(p.payload["i"]))

        def proc():
            for i in range(10):
                net.host("h0").send(Packet(kind="m", src="h0", dst="h1",
                                           payload={"i": i},
                                           payload_bytes=500))
            yield Timeout(100.0)  # mid-burst: first frame still on the wire
            for link in net.links:
                reconfigure(link)
            yield Timeout(120_000.0)

        sim.run_process(proc())
        return net, got

    def _assert_drained(self, net, got):
        assert sorted(got) == list(range(10)), (
            f"queued packets stranded by reconfiguration: delivered {got}")
        for link in net.links:
            assert link.end_ab.queue_depth == 0, "leaked _in_flight (ab)"
            assert link.end_ba.queue_depth == 0, "leaked _in_flight (ba)"

    def test_reconfigure_midburst_drains_queued_packets(self):
        net, got = self._burst_then(
            _seed(30),
            lambda link: link.set_egress_weights({"transport": 1, "gold": 4}))
        self._assert_drained(net, got)

    def test_disable_midburst_falls_back_to_fifo_without_stranding(self):
        net, got = self._burst_then(
            _seed(31), lambda link: link.set_egress_weights(None))
        self._assert_drained(net, got)
        # Disabled means disabled: later sends take the FIFO path.
        for link in net.links:
            assert link.end_ab._arb is None and link.end_ba._arb is None

    def test_fifo_order_preserved_across_single_class_reconfigure(self):
        net, got = self._burst_then(
            _seed(32), lambda link: link.set_egress_weights({"transport": 8}))
        assert got == list(range(10)), (
            f"single-class drain must preserve FIFO order: {got}")
