"""One kernel event per link traversal: pinned counts, and exactness
against the two-event path the same code takes on a lossy link."""

import random

from hypothesis import given, settings, strategies as st

from repro.net import Packet
from repro.net.topology import build_star
from repro.sim import Simulator

# The smallest positive float: ``loss_rate > 0`` sends every packet down
# the two-event path, and ``rng.random() < 5e-324`` never drops one.
NEVER_DROPS = 5e-324


class TestEventsPerTraversal:
    """One 64 B unicast across a 2-host star, switch already taught:
    a link event per link.  The switch forwards at ingress, so its
    pipeline delay costs no event of its own.  A lossy link takes two
    events per traversal; a WRR egress does too, and the switch keeps
    its pipeline event in front of it."""

    def _events_for_one_unicast(self, configure=None, **star_kwargs):
        sim = Simulator(seed=1)
        net = build_star(sim, 2, **star_kwargs)
        if configure is not None:
            configure(net)
        got = []
        net.host("h1").on("x", got.append)
        net.host("h0").on("warm", lambda p: None)
        net.host("h1").send(Packet(kind="warm", src="h1", dst="h0"))
        sim.run()
        before = sim.events_dispatched
        net.host("h0").send(Packet(kind="x", src="h0", dst="h1",
                                   payload_bytes=64))
        sim.run()
        assert len(got) == 1 and got[0].hops == 2
        return sim.events_dispatched - before

    def test_loss_free_links_take_two(self):
        assert self._events_for_one_unicast() == 2

    def test_lossy_links_take_four(self):
        assert self._events_for_one_unicast(
            default_loss_rate=NEVER_DROPS) == 4

    def test_wrr_links_take_five(self):
        def weights(net):
            for link in net.links:
                link.set_egress_weights({"transport": 1})
        assert self._events_for_one_unicast(configure=weights) == 5


def _deliveries(schedule, n_hosts, latency_us, loss_rate):
    """Run ``schedule`` (instant, sender, receiver, payload bytes) over a
    star; every host's ``(instant, packet index)`` log and the end time."""
    sim = Simulator(seed=7)
    net = build_star(sim, n_hosts, default_latency_us=latency_us,
                     default_bandwidth_gbps=0.7, default_loss_rate=loss_rate)
    logs = {}
    for name in sorted(net.nodes):
        if name != "s0":
            log = logs[name] = []
            net.host(name).on(
                "x", lambda p, log=log: log.append((sim.now, p.payload["i"])))
    for i, (at, sender, receiver, nbytes) in enumerate(schedule):
        sim.schedule_at(at, net.host(sender).send, Packet(
            kind="x", src=sender, dst=receiver, payload={"i": i},
            payload_bytes=nbytes))
    sim.run()
    return logs, sim.now


class TestExactAgainstTwoEvents:
    @given(st.integers(0, 2**32), st.integers(2, 3), st.integers(1, 40),
           st.sampled_from([0.0, 0.3, 5.0]))
    @settings(max_examples=60, deadline=None)
    def test_same_instants_and_order_as_the_two_event_path(
            self, seed, senders, count, latency_us):
        # A private generator: the reference's links draw from sim.rng.
        rng = random.Random(seed)
        grid = [rng.uniform(0.0, 30.0) for _ in range(4)]
        schedule = []
        for _ in range(count):
            # Shared instants now and then, so same-instant ties occur;
            # mostly h0 as the receiver, so one egress queues.
            at = rng.choice(grid) if rng.random() < 0.3 else rng.uniform(0.0, 30.0)
            sender = f"h{rng.randrange(1, senders + 1)}"
            receiver = "h0" if rng.random() < 0.8 else f"h{senders + 1}"
            schedule.append((at, sender, receiver, rng.randrange(0, 1437)))
        merged = _deliveries(schedule, senders + 2, latency_us, 0.0)
        reference = _deliveries(schedule, senders + 2, latency_us, NEVER_DROPS)
        assert merged == reference
        assert sum(len(log) for log in merged[0].values()) >= count


def test_arrival_is_the_float_two_events_would_produce():
    """``(now + (done - now)) + latency_us``, not ``done + latency_us``:
    the two differ once a backlog puts ``done`` past twice ``now``, and
    a zero latency leaves the last ulp showing."""
    arrivals = {}
    for loss_rate in (0.0, NEVER_DROPS):
        sim = Simulator(seed=3)
        net = build_star(sim, 2, default_latency_us=0.0,
                         default_bandwidth_gbps=0.7,
                         default_loss_rate=loss_rate)
        log = arrivals[loss_rate] = []
        net.host("h1").on("x", lambda p, log=log: log.append(sim.now))
        for k in range(50):
            sim.schedule(1.1 * k, net.host("h0").send, Packet(
                kind="x", src="h0", dst="h1", payload_bytes=7 * k + 3))
        sim.run()
        assert len(log) == 50
    assert arrivals[0.0] == arrivals[NEVER_DROPS]
