"""The contract of counter cells and of ``Packet.size_bytes``.

A per-packet site binds ``tracer.cell(key)`` once and adds to the list
it got; everything else calls ``tracer.count``.  Both must land in one
value, and binding must be invisible until something is counted."""

import dataclasses

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import IDAllocator
from repro.net import BROADCAST, HEADER_BYTES, OID_FIELD_BYTES, Packet
from repro.obs import MetricsRegistry
from repro.sim import NULL_TRACER, Tracer


class TestOneStoreTwoSpellings:
    def test_count_and_cell_adds_land_in_one_value(self):
        tracer = Tracer()
        tracer.count("k", 2)
        cell = tracer.cell("k")
        cell[0] += 3
        tracer.count("k")
        cell[0] += 1
        assert tracer.counters.get("k") == 7
        assert tracer.counters.as_dict() == {"k": 7}
        assert tracer.cell("k") is cell

    def test_bound_but_never_incremented_cell_is_invisible(self):
        registry = MetricsRegistry()
        tracer = registry.register("net.host.h0")
        tracer.count("seen")
        tracer.cell("bound.early")
        assert tracer.counters.as_dict() == {"seen": 1}
        assert registry.snapshot()["counters"] == {"net.host.h0:seen": 1}

    def test_first_add_through_a_cell_shows_in_snapshot_and_as_dict(self):
        registry = MetricsRegistry()
        tracer = registry.register("net.host.h0")
        cell = tracer.cell("host.tx")
        assert registry.snapshot()["counters"] == {}
        cell[0] += 1
        assert registry.snapshot()["counters"] == {"net.host.h0:host.tx": 1}
        assert tracer.counters.as_dict() == {"host.tx": 1}

    def test_negative_count_still_raises_and_adds_nothing(self):
        tracer = Tracer()
        tracer.count("k", 2)
        with pytest.raises(ValueError):
            tracer.count("k", -1)
        assert tracer.counters.get("k") == 2

    def test_null_tracer_cell_accepts_adds_and_records_nothing(self):
        cell = NULL_TRACER.cell("host.tx")
        cell[0] += 1
        cell[0] += 41
        assert NULL_TRACER.counters.as_dict() == {}
        assert NULL_TRACER.counters.get("host.tx") == 0
        assert NULL_TRACER.cell("host.tx")[0] == 0


_KEYS = st.sampled_from(["a", "b", "c.d"])
_AMOUNTS = st.integers(min_value=0, max_value=5)


class CounterAgainstDict(RuleBasedStateMachine):
    """``Tracer`` counters against a plain ``dict`` of ints."""

    def __init__(self):
        super().__init__()
        self.tracer = Tracer()
        self.model = {}
        self.bound = {}

    @rule(key=_KEYS, amount=_AMOUNTS)
    def count(self, key, amount):
        self.tracer.count(key, amount)
        self.model[key] = self.model.get(key, 0) + amount

    @rule(key=_KEYS, amount=_AMOUNTS)
    def add_through_cell(self, key, amount):
        # Bound once, like a site.
        cell = self.bound.setdefault(key, self.tracer.cell(key))
        cell[0] += amount
        self.model[key] = self.model.get(key, 0) + amount

    @invariant()
    def reads_agree(self):
        counters = self.tracer.counters
        for key in ("a", "b", "c.d", "never"):
            assert counters.get(key) == self.model.get(key, 0)
        assert counters.as_dict() == {k: v for k, v in self.model.items() if v}


TestCounterAgainstDict = CounterAgainstDict.TestCase
TestCounterAgainstDict.settings = settings(max_examples=60, deadline=None)


class TestPacketSizeFixedAtConstruction:
    OID = IDAllocator(seed=7).allocate()

    def test_host_addressed(self):
        assert Packet(kind="x", src="a", dst="b",
                      payload_bytes=64).size_bytes == HEADER_BYTES + 64
        assert Packet(kind="x", src="a", dst="b", oid=self.OID,
                      payload_bytes=64).size_bytes == (
            HEADER_BYTES + 64 + OID_FIELD_BYTES)

    def test_broadcast(self):
        assert Packet(kind="x", src="a", dst=BROADCAST,
                      payload_bytes=16).size_bytes == HEADER_BYTES + 16

    def test_identity_routed(self):
        packet = Packet(kind="x", src="a", oid=self.OID, payload_bytes=10)
        assert packet.is_identity_routed
        assert packet.size_bytes == HEADER_BYTES + 10 + OID_FIELD_BYTES

    def test_flood_clone_keeps_the_size(self):
        for oid in (None, self.OID):
            packet = Packet(kind="x", src="a", dst=BROADCAST, oid=oid,
                            payload_bytes=33)
            assert packet.clone_for_flood().size_bytes == packet.size_bytes

    def test_reply_is_sized_from_its_own_payload(self):
        request = Packet(kind="req", src="a", dst="b", oid=self.OID,
                         payload={"req_id": 9}, payload_bytes=500)
        reply = request.reply("rsp", payload_bytes=20)
        assert reply.size_bytes == HEADER_BYTES + 20 + OID_FIELD_BYTES
        plain = Packet(kind="req", src="a", dst="b", payload_bytes=500)
        assert plain.reply("rsp").size_bytes == HEADER_BYTES

    def test_validation_errors_come_first(self):
        with pytest.raises(ValueError, match="payload_bytes"):
            Packet(kind="x", src="a", payload_bytes=-1)
        with pytest.raises(ValueError, match="needs a destination"):
            Packet(kind="x", src="a", payload_bytes=4)

    def test_size_is_an_attribute_not_a_field(self):
        assert "size_bytes" not in {f.name for f in dataclasses.fields(Packet)}
        assert "size_bytes" in vars(Packet(kind="x", src="a", dst="b"))
