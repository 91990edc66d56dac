"""The switch's pipeline fold: a known unicast to an attached host
leaves at ingress, with the 0.5 us delay handed to ``LinkEnd.transmit``
as its ``ready`` instant, instead of waiting in a ``_forward`` event.

The fold must not change what the fabric does.  A hypothesis test runs
random traffic on a star and on the looped four-switch paper topology
against a reference switch that always takes the pipeline event, and
one regression test per fold condition (``repro.net.switch``) scripts
the case that condition exists for.  Each regression test passes with
or without the fold.
"""

import os
import random
from functools import partial
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.net import (
    BROADCAST, HEADER_BYTES, Host, Link, Packet, Switch, build_star, topology)
from repro.net.switch import _DEDUPE_WINDOW
from repro.net.topology import build_paper_topology
from repro.netsync import KIND_SEQ_REQ, KIND_SEQ_RSP, SwitchSequencer
from repro.sim import Simulator

from .transport_script import serialisation_us

# Shift every seed below by REPRO_SEED_OFFSET so CI's fault-seed matrix
# reruns the module over disjoint seed ranges.
SEED_OFFSET = int(os.environ.get("REPRO_SEED_OFFSET", "0"))


class PipelineSwitch(Switch):
    """The reference: every packet waits out the delay in ``_forward``
    (ingress as it was before the fold)."""

    def receive(self, packet, in_port):
        self._n_rx[0] += 1
        uid = packet.uid
        if uid in self._seen_broadcasts or uid in self._seen_unicast:
            self.tracer.count("switch.dup_suppressed")
            return
        dst = packet.dst
        known = (dst is not None and dst != BROADCAST and dst != self.name
                 and dst in self.host_table)
        window = self._seen_unicast if known else self._seen_broadcasts
        window[uid] = None
        if len(window) > _DEDUPE_WINDOW:
            window.popitem(last=False)
        if packet.src:
            self.host_table[packet.src] = in_port
        self._in_pipeline += 1
        self.sim.schedule(self.PROCESSING_DELAY_US, self._forward, packet, in_port)


# -- exactness against the reference ---------------------------------------

def _run(build, schedule, seed, reference):
    """Run ``schedule`` over the fabric ``build`` makes: every host's
    ``(instant, uid)`` log, every node's counters, every link end's
    carried packets and bytes, and the end time."""
    sim = Simulator(seed=seed)
    with mock.patch.object(topology, "Switch",
                           PipelineSwitch if reference else Switch):
        net, service_switch, weighted = build(sim)
    SwitchSequencer(net.switch(service_switch))
    net.link_between(*weighted).set_egress_weights(
        {"transport": 3, "pubsub": 1})
    base = Packet("uid-base", None, BROADCAST).uid
    logs = {}
    for name, node in sorted(net.nodes.items()):
        if isinstance(node, Host):
            log = logs[name] = []
            node.set_default_handler(
                lambda p, log=log: log.append((sim.now, p.uid - base)))
    for at, sender, what, target, nbytes, ttl, tclass in schedule:
        if what == "unicast":
            packet = Packet(kind="x", src=sender, dst=target, payload_bytes=nbytes)
        elif what == "broadcast":
            packet = Packet(kind="x", src=sender, dst=BROADCAST, payload_bytes=nbytes)
        else:
            packet = Packet(kind=KIND_SEQ_REQ, src=sender, dst=service_switch,
                            payload={"stream": "s"}, payload_bytes=16)
        packet.ttl = ttl
        packet.tclass = tclass
        sim.schedule_at(at, net.host(sender).send, packet)
    sim.run()
    counters = {name: node.tracer.counters.as_dict()
                for name, node in net.nodes.items()}
    counters["links"] = net.tracer.counters.as_dict()
    carried = [(end.packets_carried, end.bytes_carried)
               for link in net.links for end in (link.end_ab, link.end_ba)]
    return logs, counters, carried, sim.now


def _star(latency_us, bandwidth_gbps):
    def build(sim):
        net = build_star(sim, 4, default_latency_us=latency_us,
                         default_bandwidth_gbps=bandwidth_gbps)
        return net, "s0", ("h0", "s0")
    return build


def _paper(latency_us, bandwidth_gbps):
    def build(sim):
        net = build_paper_topology(sim, default_bandwidth_gbps=bandwidth_gbps,
                                   default_latency_us=latency_us)
        return net, "s3", ("s1", "s3")
    return build


class TestExactAgainstThePipelineEvent:
    @given(st.integers(0, 2**32), st.sampled_from(["star", "paper"]),
           st.integers(1, 60), st.sampled_from([0.2, 0.5, 5.0]),
           st.sampled_from([0.7, 10.0]))
    @settings(max_examples=200, deadline=None)
    def test_same_deliveries_counters_and_end_time(
            self, seed, shape, count, latency_us, bandwidth_gbps):
        rng = random.Random(seed + SEED_OFFSET)
        build = (_star if shape == "star" else _paper)(latency_us, bandwidth_gbps)
        hosts = (["h0", "h1", "h2", "h3"] if shape == "star"
                 else ["driver", "resp1", "resp2"])
        # Shared instants now and then, and steps of about the pipeline
        # delay, so arrivals land inside each other's delay and tie.
        grid = [rng.uniform(0.0, 20.0) for _ in range(4)]
        schedule = []
        for _ in range(count):
            roll = rng.random()
            if roll < 0.3:
                at = rng.choice(grid)
            elif roll < 0.5 and schedule:
                at = schedule[-1][0] + rng.choice([0.1, 0.25, 0.5])
            else:
                at = rng.uniform(0.0, 20.0)
            what = rng.choices(["unicast", "broadcast", "service"], [6, 1, 1])[0]
            schedule.append((
                at, rng.choice(hosts), what, rng.choice(hosts),
                rng.randrange(0, 1200),
                rng.choice([0, 1, 2, 32, 32, 32, 32, 32]),
                rng.choice(["transport", "pubsub"])))
        folded = _run(build, schedule, seed, reference=False)
        reference = _run(build, schedule, seed, reference=True)
        assert folded == reference


# -- one scripted case per fold condition ----------------------------------

def _taught_star(n_hosts=3, **kwargs):
    """A star whose switch knows every host's port."""
    sim = Simulator(seed=1 + SEED_OFFSET)
    net = build_star(sim, n_hosts, **kwargs)
    logs = {}
    for i in range(n_hosts):
        log = logs[f"h{i}"] = []
        net.host(f"h{i}").set_default_handler(
            lambda p, log=log: log.append((p.kind, p.src)))
    for i in range(n_hosts):
        net.host(f"h{i}").broadcast("warm")
        sim.run()
    for log in logs.values():
        log.clear()
    return sim, net, logs


def test_an_expired_ttl_is_counted_not_forwarded():
    """Condition 1: a known unicast that arrives with no TTL left is
    dropped by the pipeline, one with one hop left is delivered."""
    sim, net, logs = _taught_star()
    for ttl in (0, 1):
        packet = Packet(kind=f"ttl{ttl}", src="h0", dst="h1", payload_bytes=64)
        packet.ttl = ttl
        net.host("h0").send(packet)
    sim.run()
    assert logs["h1"] == [("ttl1", "h0")]
    assert net.switch("s0").tracer.counters["switch.ttl_expired"] == 1


def test_a_destination_learned_inside_the_delay_is_forwarded_not_flooded():
    """Condition 2: the host table is read when the delay ends, so a
    destination first heard from inside it gets the packet by unicast."""
    sim = Simulator(seed=1 + SEED_OFFSET)
    net = build_star(sim, 3)
    logs = {name: [] for name in ("h1", "h2")}
    for name, log in logs.items():
        net.host(name).set_default_handler(lambda p, log=log: log.append(p.kind))
    # Same size, same links: h1's packet reaches s0 0.2 us after h0's.
    sim.schedule_at(0.0, net.host("h0").send,
                    Packet(kind="first", src="h0", dst="h1", payload_bytes=64))
    sim.schedule_at(0.2, net.host("h1").send,
                    Packet(kind="hello", src="h1", dst="h0", payload_bytes=64))
    sim.run()
    counters = net.switch("s0").tracer.counters
    assert logs == {"h1": ["first"], "h2": []}
    assert counters["switch.unknown_unicast"] == 0
    assert counters["switch.tx"] == 2
    assert net.host("h2").tracer.counters["host.filtered"] == 0


def test_an_entry_taught_by_a_relay_follows_a_repointed_entry():
    """Condition 2: a host that sends on others' behalf (an overlay
    gateway keeps the inner source) teaches entries for names that are
    not its own.  A second relay can re-point such an entry inside the
    delay, and the packet leaves by the new entry."""
    sim, net, logs = _taught_star(n_hosts=4)
    relays = [net.host("h2"), net.host("h3")]
    for relay in relays:
        relay.promiscuous = True
    relays[0].send(Packet(kind="relayed", src="far", dst="h0", payload_bytes=64))
    sim.run()
    start = sim.now
    sim.schedule_at(start, net.host("h1").send,
                    Packet(kind="to-far", src="h1", dst="far", payload_bytes=64))
    sim.schedule_at(start + 0.2, relays[1].send,
                    Packet(kind="relayed", src="far", dst="h0", payload_bytes=64))
    sim.run()
    assert (logs["h2"], logs["h3"]) == ([], [("to-far", "h1")])


class _Ingress(Switch):
    """A switch that logs ``(kind, src, in_port)`` of every arrival."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.arrivals = []

    def receive(self, packet, in_port):
        self.arrivals.append((packet.kind, packet.src, in_port))
        super().receive(packet, in_port)


def test_a_destination_behind_another_switch_follows_a_repointed_entry():
    """Condition 2: an entry for a host behind another switch can be
    re-pointed by learning inside the delay (here over a second parallel
    link), and the packet leaves by the new entry."""
    sim = Simulator(seed=1 + SEED_OFFSET)
    a, b = Switch(sim, "sA"), _Ingress(sim, "sB")
    a0, b0 = Host(sim, "a0"), Host(sim, "b0")
    Link(sim, a0, a)
    first, _ = Link(sim, a, b), Link(sim, a, b)  # ports 0 and 1 on sB
    Link(sim, b0, b)
    got = []
    b0.set_default_handler(lambda p: got.append(p.kind))
    a0.set_default_handler(lambda p: None)
    # Equal links: the flood copy over the first arrives first and teaches.
    for host in (a0, b0):
        host.broadcast("warm")
        sim.run()
    assert (a.host_table["b0"], b.host_table["a0"]) == (1, 0)
    a0.send(Packet(kind="plain", src="a0", dst="b0", payload_bytes=64))
    sim.run()

    # Slow the first link, so b0's next flood reaches sA over the second
    # one first, 0.2 us into the delay of a0's packet.
    first.latency_us = 6.0
    plain = Packet(kind="repointed", src="a0", dst="b0", payload_bytes=64)
    flood = Packet(kind="moved", src="b0", dst=BROADCAST)
    wire = partial(serialisation_us, first)
    flood_at_sa = (wire(flood.size_bytes) + 5.0 + b.PROCESSING_DELAY_US
                   + wire(flood.size_bytes) + 5.0)
    plain_at_sa = wire(plain.size_bytes) + 5.0
    start = sim.now
    sim.schedule_at(start, b0.send, flood)
    sim.schedule_at(start + flood_at_sa - 0.2 - plain_at_sa, a0.send, plain)
    sim.run()
    assert a.host_table["b0"] == 2
    assert [arrival for arrival in b.arrivals
            if arrival[0] in ("plain", "repointed")] == [
        ("plain", "a0", 0), ("repointed", "a0", 1)]
    assert got == ["warm", "plain", "repointed"]


def test_a_switch_as_destination_follows_a_repointed_entry():
    """Condition 2: a switch's own packets (its service replies) can
    reach a neighbour first over a longer path, so an entry for a switch
    can be re-pointed inside the delay even when it names the switch's
    own port, and a request addressed to it leaves by the new entry."""
    sim = Simulator(seed=1 + SEED_OFFSET)
    a, b = Switch(sim, "sA"), _Ingress(sim, "sB")
    a0, a1 = Host(sim, "a0"), Host(sim, "a1")
    Link(sim, a0, a)
    Link(sim, a1, a)
    first, _ = Link(sim, a, b), Link(sim, a, b)  # ports 2 and 3 on sA
    SwitchSequencer(b)
    replies = []
    for host in (a0, a1):
        host.set_default_handler(lambda p: replies.append((p.kind, p.dst)))

    def request(host):
        return Packet(kind=KIND_SEQ_REQ, src=host.name, dst="sB",
                      payload={"stream": "s"}, payload_bytes=16)

    # Equal links: sB hears both hosts over the first, and its reply to
    # a0 (unicast back over the first) teaches sA where sB is.
    for host in (a0, a1):
        host.broadcast("warm")
        sim.run()
    a0.send(request(a0))
    sim.run()
    assert a.host_table["sB"] == 2
    # Slow the first link.  a1's request crosses it; a flood from a1
    # crosses the second and reaches sB 0.2 us into the request's delay,
    # so sB answers a1 over the second, and that reply re-points sA's
    # entry for sB 0.2 us into the delay of a0's next request.
    first.latency_us = 6.0
    wire = partial(serialisation_us, first)
    hop, flood_hop = wire(request(a0).size_bytes), wire(HEADER_BYTES)
    request_at_sb = hop + 5.0 + a.PROCESSING_DELAY_US + hop + 6.0
    flood_at_sb = flood_hop + 5.0 + a.PROCESSING_DELAY_US + flood_hop + 5.0
    reply_at_sa = request_at_sb + b.PROCESSING_DELAY_US + hop + 5.0
    start = sim.now
    b.arrivals.clear()
    sim.schedule_at(start, a1.send, request(a1))
    sim.schedule_at(start + request_at_sb + 0.2 - flood_at_sb, a1.broadcast, "moved")
    sim.schedule_at(start + reply_at_sa - 0.2 - (hop + 5.0), a0.send, request(a0))
    sim.run()
    assert [arrival for arrival in b.arrivals if arrival[0] == KIND_SEQ_REQ] == [
        (KIND_SEQ_REQ, "a1", 0), (KIND_SEQ_REQ, "a0", 1)]
    assert replies[-2:] == [(KIND_SEQ_RSP, "a1"), (KIND_SEQ_RSP, "a0")]


def test_a_broadcast_in_the_pipeline_leaves_ahead_of_a_later_unicast():
    """Condition 3: a flood already waiting out its delay goes onto the
    shared egress before a unicast received during that delay."""
    sim, net, logs = _taught_star()
    sim.schedule_at(sim.now, net.host("h0").broadcast, "flood")
    sim.schedule_at(sim.now + 0.2, net.host("h2").send,
                    Packet(kind="unicast", src="h2", dst="h1", payload_bytes=64))
    sim.run()
    assert logs["h1"] == [("flood", "h0"), ("unicast", "h2")]


def test_a_service_reply_leaves_ahead_of_a_unicast_received_during_it():
    """Condition 3: a data-plane service answers when the delay ends;
    its reply goes out before a unicast received during that delay."""
    sim, net, logs = _taught_star()
    SwitchSequencer(net.switch("s0"))
    sim.schedule_at(sim.now, net.host("h0").send, Packet(
        kind=KIND_SEQ_REQ, src="h0", dst="s0", payload={"stream": "s"},
        payload_bytes=16))
    sim.schedule_at(sim.now + 0.2, net.host("h2").send,
                    Packet(kind="unicast", src="h2", dst="h0", payload_bytes=16))
    sim.run()
    assert logs["h0"] == [(KIND_SEQ_RSP, "s0"), ("unicast", "h2")]
