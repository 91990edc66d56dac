"""The contract of ``Host.request`` / ``Host.complete``.

Every protocol above the substrate (runtime, discovery, the RPC foils,
netsync, replication) waits for replies through this one primitive, so
what a caller may rely on is pinned here once: at most one completion
per request, ``None`` at the deadline with the table entry gone, late
and duplicate replies dropped, ``timeout_us=None`` waiting for as long
as the grant takes; with ``attempts``, resends one deadline apart under
one ``req_id``, any of whose answers completes the request.

Every seed is shifted by ``REPRO_SEED_OFFSET``, so CI's fault-seed
matrix reruns the module on other simulations; the contract may not
depend on a seed.
"""

import os

from repro.core import IDAllocator, ObjectSpace
from repro.discovery import E2EResolver, ObjectHome, move_object
from repro.discovery.base import AccessRecord
from repro.net import BROADCAST, Packet, build_paper_topology, build_star
from repro.netsync import SwitchLockService, SwitchSequencer, SyncClient
from repro.sim import Simulator, Timeout

REQ, RSP = "t.req", "t.rsp"

SEED_OFFSET = int(os.environ.get("REPRO_SEED_OFFSET", "0"))


def _pair(serve_after_us=0.0):
    """h0 asks, h1 answers ``v + 1`` after ``serve_after_us``."""
    sim = Simulator(seed=1 + SEED_OFFSET)
    net = build_star(sim, 2)
    client, server = net.host("h0"), net.host("h1")
    client.on(RSP, client.complete)

    def answer(packet):
        server.send(packet.reply(RSP, {"v": packet.payload["v"] + 1}, 8))

    server.seen = []

    def serve(packet):
        server.seen.append(packet)
        sim.schedule(serve_after_us, answer, packet)

    server.on(REQ, serve)
    return sim, client, server


def _ask(client, v, timeout_us):
    return client.request(
        Packet(kind=REQ, src="h0", dst="h1", payload={"v": v}, payload_bytes=8),
        timeout_us)


class TestOneExchange:
    def test_reply_resumes_the_caller_with_the_packet(self):
        sim, client, server = _pair()

        def proc():
            reply = yield _ask(client, 41, 10_000.0)
            return reply, sim.now

        reply, resumed_at = sim.run_process(proc())
        assert isinstance(reply, Packet)
        assert (reply.kind, reply.src, reply.payload["v"]) == (RSP, "h1", 42)
        assert reply.payload["req_id"] == server.seen[0].uid
        # Resumed at the instant the reply landed (sent at t=0 + hops),
        # and the deadline timer went with it: the run ends there, not
        # at the 10 ms horizon.
        assert client.tracer.counters["host.rx"] == 1
        assert reply.created_at < resumed_at == sim.now < 100.0
        assert sim.pending_event_count == 0
        assert client.outstanding_requests == 0

    def test_timeout_returns_none_and_empties_the_table(self):
        sim, client, server = _pair()
        server._handlers[REQ] = lambda p: None  # never answers

        def proc():
            before = client.outstanding_requests
            waitable = _ask(client, 1, 250.0)
            during = client.outstanding_requests
            reply = yield waitable
            return before, during, reply, sim.now

        assert sim.run_process(proc()) == (0, 1, None, 250.0)
        assert client.outstanding_requests == 0

    def test_reply_after_the_deadline_is_dropped_not_delivered(self):
        sim, client, server = _pair(serve_after_us=80.0)

        def proc():
            first = yield _ask(client, 10, 50.0)        # answer lands ~t=100
            second = yield _ask(client, 20, 10_000.0)   # in flight when it does
            return first, second.payload["v"], sim.now

        first, second_v, done_at = sim.run_process(proc())
        assert first is None
        # The late answer to request 1 (v=11) must not complete request 2.
        assert second_v == 21
        assert done_at > 50.0 + 80.0
        assert client.tracer.counters["host.rx"] == 2
        assert client.outstanding_requests == 0

    def test_own_crash_between_send_and_reply_is_a_timeout_not_a_hang(self):
        sim, client, server = _pair(serve_after_us=20.0)

        def proc():
            waitable = _ask(client, 1, 500.0)
            sim.schedule(5.0, client.fail)
            reply = yield waitable
            return reply, sim.now

        assert sim.run_process(proc()) == (None, 500.0)
        assert client.tracer.counters["host.dropped_while_failed"] == 1
        assert client.outstanding_requests == 0

    def test_resends_share_one_req_id_and_end_at_the_last_deadline(self):
        sim, client, server = _pair()
        server._handlers[REQ] = server.seen.append  # never answers

        def proc():
            waitable = client.request(Packet(
                kind=REQ, src="h0", dst="h1", payload={"v": 1},
                payload_bytes=8), 250.0, attempts=3)
            reply = yield waitable
            return reply, waitable.sends, sim.now

        assert sim.run_process(proc()) == (None, 3, 750.0)
        assert len({p.payload["req_id"] for p in server.seen}) == 1
        assert len({p.uid for p in server.seen}) == 3
        assert [p.created_at for p in server.seen] == [0.0, 250.0, 500.0]
        assert client.tracer.counters["host.tx"] == 3
        assert client.outstanding_requests == 0
        assert sim.pending_event_count == 0

    def test_a_resent_broadcast_reaches_hosts_that_saw_the_first(self):
        sim = Simulator(seed=1 + SEED_OFFSET)
        net = build_star(sim, 3)
        client = net.host("h0")
        client.on(RSP, client.complete)
        seen = {name: [] for name in ("h1", "h2")}

        def listener(name):
            host = net.host(name)

            def on_request(packet):
                seen[name].append(packet)
                if name == "h1" and len(seen[name]) == 2:
                    host.send(packet.reply(RSP, {}, 8))
            host.on(REQ, on_request)

        for name in seen:
            listener(name)

        def proc():
            waitable = client.request(Packet(
                kind=REQ, src="h0", dst=BROADCAST, payload_bytes=8),
                100.0, attempts=3)
            reply = yield waitable
            return reply.src, waitable.sends

        assert sim.run_process(proc()) == ("h1", 2)
        for packets in seen.values():
            assert len(packets) == 2
            assert packets[0].uid != packets[1].uid
            assert packets[0].payload["req_id"] == packets[1].payload["req_id"]
        assert client.outstanding_requests == 0

    def test_packet_reply_echoes_oid_and_req_id(self):
        oid = IDAllocator(seed=3 + SEED_OFFSET).allocate()
        request = Packet(kind=REQ, src="a", dst=None, oid=oid,
                         payload={"req_id": 7, "offset": 0})
        reply = request.reply(RSP, {"data": b"x"}, 25)
        assert reply.payload == {"data": b"x", "req_id": 7}
        assert (reply.dst, reply.src, reply.oid) == ("a", None, oid)
        # The object-ID field still rides the reply: 42 + 25 + 16.
        assert reply.size_bytes == 83


def _e2e_bed(**resolver_kwargs):
    sim = Simulator(seed=1 + SEED_OFFSET)
    net = build_paper_topology(sim)
    allocator = IDAllocator(seed=2 + SEED_OFFSET)
    homes = {
        name: ObjectHome(net.host(name), ObjectSpace(allocator, host_name=name))
        for name in ("resp1", "resp2")
    }
    resolver = E2EResolver(net.host("driver"), **resolver_kwargs)
    return sim, net, homes, resolver


class TestThroughTheProtocols:
    def test_two_holders_answering_one_find_complete_it_once(self):
        sim, net, homes, resolver = _e2e_bed()
        obj = homes["resp1"].space.create_object(size=256)
        homes["resp2"].space.insert(obj.clone())

        def proc():
            record = AccessRecord(oid=obj.oid, start_us=sim.now)
            found = yield from resolver._find(obj.oid, 0, 64, record,
                                              include_data=False)
            # A second completion would resume this wait early, with a
            # packet instead of the timer's value.
            woke_with = yield Timeout(1_000.0, value="timer")
            return found, woke_with, record.round_trips

        assert sim.run_process(proc()) == (True, "timer", 1)
        answered = [homes[name].tracer.counters["home.find_answered"]
                    for name in ("resp1", "resp2")]
        assert answered == [1, 1]
        assert net.host("driver").tracer.counters["host.rx"] == 2
        assert net.host("driver").outstanding_requests == 0

    def test_forwarded_access_is_answered_to_the_original_requester(self):
        sim, net, homes, resolver = _e2e_bed()
        for home in homes.values():
            home.forward_stale_accesses = True
        obj = homes["resp1"].space.create_object(size=256)

        def proc():
            yield sim.spawn(resolver.access(obj.oid))
            move_object(obj.oid, homes["resp1"], homes["resp2"])
            record = yield sim.spawn(resolver.access(obj.oid))
            return record

        record = sim.run_process(proc())
        # One exchange: resp1 forwarded a copy of the payload (req_id
        # and all) and resp2's reply completed the driver's request.
        assert record.ok and record.round_trips == 1 and record.broadcasts == 0
        assert homes["resp1"].tracer.counters["home.access_forwarded"] == 1
        assert resolver.cache[obj.oid] == "resp2"
        assert net.host("driver").outstanding_requests == 0
        assert len(net.host("resp1").unhandled) == 0

    def test_e2e_late_answer_completes_the_resend(self):
        # Round trip (~33 us over three 5 us hops each way) exceeds the
        # 20 us deadline: the answer to the first send lands during the
        # second.  Both sends carry one req_id, so that answer completes
        # the access on 2 round trips, and the answer to the second send
        # finds nothing waiting and is dropped.
        sim, net, homes, resolver = _e2e_bed(timeout_us=20.0, max_retries=3)
        obj = homes["resp1"].space.create_object(size=256)
        resolver.cache[obj.oid] = "resp1"
        driver = net.host("driver")

        record = sim.run_process(resolver.access(obj.oid))
        assert record.ok
        assert record.round_trips == 2
        assert 20.0 < record.end_us < 40.0
        assert resolver.tracer.counters["e2e.timeout"] == 1
        assert homes["resp1"].tracer.counters["home.access_served"] == 2
        assert driver.tracer.counters["host.rx"] == 2
        assert driver.outstanding_requests == 0

    def test_switch_resident_services_complete_a_hosts_request(self):
        sim = Simulator(seed=1 + SEED_OFFSET)
        net = build_star(sim, 2)
        SwitchSequencer(net.switch("s0"))
        SwitchLockService(net.switch("s0"))
        client = SyncClient(net.host("h0"), "s0")

        def proc():
            ticket = yield from client.next_sequence()
            granted = yield from client.acquire_lock("L")
            return ticket, granted

        assert sim.run_process(proc()) == (1, True)
        assert net.host("h0").outstanding_requests == 0

    def test_no_deadline_waits_across_an_arbitrarily_late_grant(self):
        sim = Simulator(seed=1 + SEED_OFFSET)
        net = build_star(sim, 2)
        SwitchLockService(net.switch("s0"))
        holder = SyncClient(net.host("h0"), "s0")
        waiter = SyncClient(net.host("h1"), "s0")
        seen = {}

        def hold():
            yield from holder.acquire_lock("L")
            yield Timeout(10_000_000.0)  # ten simulated seconds
            seen["outstanding_while_queued"] = net.host("h1").outstanding_requests
            holder.release_lock("L")

        def wait():
            yield Timeout(100.0)
            yield from waiter.acquire_lock("L")
            return sim.now

        sim.spawn(hold())
        granted_at = sim.run_process(wait())
        assert granted_at > 10_000_000.0
        assert seen["outstanding_while_queued"] == 1
        assert net.host("h1").outstanding_requests == 0
