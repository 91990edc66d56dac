"""Three-message ownership transfer: the races it opens, and the rule
that closes them.

A grant no longer always travels the home's FIFO path: the owner
forwards the line to the requester, and a writer collects its sharers'
invalidation acks itself.  So a probe can reach a host before the copy
it is after.  The sweep drives four workers over an asymmetric star
(link latencies 0.5-60 us, so any message can overtake any other that
takes a different path) and checks the load/store contract on what
every operation saw; the scripted cases pin one overtaking each.  All
assertions hold for any seed: CI re-runs the module under several
``REPRO_SEED_OFFSET`` values.
"""

import os
import random

import pytest

from repro.core import IDAllocator
from repro.memproto import (
    PERM_MODIFIED,
    PERM_SHARED,
    CoherenceAgent,
    EVICT_SILENT_DROP,
)
from repro.memproto.messages import (
    MSG_GRANT,
    MSG_PROBE_ACK,
    MSG_PROBE_INVALIDATE,
)
from repro.net.topology import Network
from repro.sim import Simulator, Timeout

SEED_OFFSET = int(os.environ.get("REPRO_SEED_OFFSET", "0"))

LATENCIES_US = (0.5, 2.0, 5.0, 20.0, 60.0)
OBJECT_BYTES = 64
STAMP_BYTES = 8


def _seed(n):
    return n + SEED_OFFSET


def _star(seed, latencies, n_objects=1, **worker_kwargs):
    """``h0`` (the home of every object) and one worker per further
    latency, each on its own link to the switch."""
    sim = Simulator(seed=seed)
    net = Network(sim)
    net.add_switch("s0")
    for i, latency in enumerate(latencies):
        net.add_host(f"h{i}")
        net.connect(f"h{i}", "s0", latency_us=latency)
    home_map = {}
    agents = [CoherenceAgent(net.host("h0"), home_map)]
    agents += [CoherenceAgent(net.host(f"h{i}"), home_map, **worker_kwargs)
               for i in range(1, len(latencies))]
    alloc = IDAllocator(seed=seed)
    oids = [alloc.allocate() for _ in range(n_objects)]
    for i, oid in enumerate(oids):
        agents[0].host_object(oid, bytes([i]) * OBJECT_BYTES)
    return sim, agents, oids


def _delay(agent, kind, delay_us):
    """Every ``kind`` packet ``agent`` sends leaves ``delay_us`` late:
    the scripted way to let another message overtake it."""
    send = agent.host.send

    def late(packet, port=0):
        if packet.kind == kind:
            agent.sim.schedule(delay_us, send, packet, port)
        else:
            send(packet, port)

    agent.host.send = late


def _total(agents, key):
    return sum(agent.tracer.counters.get(key) for agent in agents)


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------

N_WORKERS = 4
N_OBJECTS = 6
OPS_PER_WORKER = 60


def _run_sweep_point(seed, capacity_lines, policy="notify",
                     procs_per_agent=1, home_works=False):
    """One configuration; returns (violations, agents).  A violation is
    a sentence; an exception out of here is the protocol crashing.

    Every worker agent hosts ``procs_per_agent`` processes, each with a
    plan of its own; with ``home_works`` the home hosts as many, reading
    and writing the objects it serves."""
    rng = random.Random(seed)
    latencies = [rng.choice(LATENCIES_US) for _ in range(1 + N_WORKERS)]
    capacity = capacity_lines and capacity_lines * OBJECT_BYTES
    sim, agents, oids = _star(seed, latencies, N_OBJECTS,
                              capacity_bytes=capacity,
                              shared_evict_policy=policy)
    home, workers = agents[0], agents[1:]
    procs = [agent for agent in (agents if home_works else workers)
             for _ in range(procs_per_agent)]
    plans = [[(rng.randrange(N_OBJECTS), rng.random() < 0.4,
               rng.choice((0.0, 1.0, 7.0, 40.0)))
              for _ in range(OPS_PER_WORKER)] for _ in procs]
    # stamp -> (began, ended) of the write that stored it; the initial
    # bytes of object k count as a write that ended before time began.
    writes = {k: {bytes([k]) * STAMP_BYTES: (-2.0, -1.0)}
              for k in range(N_OBJECTS)}
    reads = []   # (object, stamp seen, began, who)
    finished = []

    def worker(index, agent):
        for n, (k, is_write, think) in enumerate(plans[index]):
            began = sim.now
            if is_write:
                stamp = (1 + index * OPS_PER_WORKER + n).to_bytes(
                    STAMP_BYTES, "big")
                yield from agent.write(oids[k], 0, stamp)
                writes[k][stamp] = (began, sim.now)
            else:
                seen = yield from agent.read(oids[k], 0, STAMP_BYTES)
                reads.append((k, seen, began, agent.host.name))
            yield Timeout(think)
        finished.append(index)

    for index, agent in enumerate(procs):
        sim.spawn(worker(index, agent), name=f"worker-{index}")
    sim.run()

    violations = []
    if len(finished) != len(procs):
        violations.append(f"workers {sorted(finished)} finished of "
                          f"{len(procs)}: an operation hangs")
    for k, oid in enumerate(oids):
        owners = [a.host.name for a in workers
                  if a.cached_perm(oid) == PERM_MODIFIED]
        if len(owners) > 1:
            violations.append(f"object {k} Modified at {owners}")

    def superseded_before(k, stamp, instant):
        """A write that began after ``stamp``'s write ended, and itself
        ended before ``instant``: nobody may still see ``stamp`` then."""
        written = writes[k].get(stamp)
        if written is None:
            # Seen while its write was still collecting acks cannot
            # happen: the store is applied only once the wait is over.
            return f"a stamp {stamp.hex()} no completed write stored"
        for other, (began, ended) in writes[k].items():
            if began > written[1] and ended < instant:
                return f"{stamp.hex()} after {other.hex()} completed"
        return None

    for k, seen, began, who in reads:
        stale = superseded_before(k, seen, began)
        if stale:
            violations.append(f"{who} read object {k} at {began}: {stale}")

    def recall():
        for k, oid in enumerate(oids):
            got = yield from home.read(oid, 0, STAMP_BYTES)
            stale = superseded_before(k, got, sim.now)
            if stale:
                violations.append(f"home recalls object {k}: {stale}")

    sim.run_process(recall(), name="recall")
    return violations, agents


SWEEP = [(seed, lines, policy)
         for seed in range(10)
         for lines, policy in ((None, "notify"), (2, "notify"),
                               (2, EVICT_SILENT_DROP))]


def _assert_sweep_clean(procs_per_agent=1, home_works=False):
    held = forwarded = collected = 0
    for seed, lines, policy in SWEEP:
        violations, agents = _run_sweep_point(
            _seed(700 + seed), lines, policy, procs_per_agent, home_works)
        assert not violations, (seed, lines, policy, violations[:3])
        held += _total(agents, "coherence.probe_deferred")
        forwarded += _total(agents, "coherence.forwarded")
        collected += _total(agents, "coherence.ack_collected")
    # The sweep must have met what it is for, not only the easy
    # orderings.
    assert held > 0 and forwarded > 0 and collected > 0


class TestAsymmetricStarSweep:
    def test_load_store_contract_holds_on_every_interleaving(self):
        _assert_sweep_clean()

    @pytest.mark.parametrize("procs_per_agent,home_works", [
        (2, False), (3, False), (1, True), (2, True), (3, True)])
    def test_contract_holds_for_many_processes_and_a_working_home(
            self, procs_per_agent, home_works):
        # What ROADMAP item 2 asks of the agent: every node hosts one
        # process per operation in flight, and is a home and a client.
        _assert_sweep_clean(procs_per_agent, home_works)

    def test_without_the_hold_rule_the_same_sweep_fails(self, monkeypatch):
        """Negative control: probes that name no acquisition are never
        held, and the contract breaks (or the agent crashes) at once."""
        queue = CoherenceAgent._queue

        def unnamed(self, kind, peer, entry):
            if kind == MSG_PROBE_INVALIDATE:
                entry = dict(entry, via=None)
            queue(self, kind, peer, entry)

        monkeypatch.setattr(CoherenceAgent, "_queue", unnamed)
        broken = 0
        for seed, lines, policy in SWEEP[:6]:
            try:
                violations, _ = _run_sweep_point(_seed(700 + seed), lines,
                                                 policy)
            except Exception:
                broken += 1
            else:
                broken += bool(violations)
        assert broken > 0


# ---------------------------------------------------------------------------
# scripted overtakings
# ---------------------------------------------------------------------------


def _stamp(n):
    return n.to_bytes(STAMP_BYTES, "big")


class TestScriptedRaces:
    def test_probe_overtakes_a_forwarded_modified_grant(self):
        # h1 owns the line; h2 writes (h1 forwards, slowly); h3 writes
        # next, so the home probes h2 for a line h2 has not got yet.
        sim, (home, h1, h2, h3), (oid,) = _star(_seed(710), [1.0] * 4)
        _delay(h1, MSG_GRANT, 200.0)
        order = []

        def writer(agent, n, after):
            yield Timeout(after)
            yield from agent.write(oid, 0, _stamp(n))
            order.append(n)

        def script():
            yield from h1.write(oid, 0, _stamp(1))
            sim.spawn(writer(h2, 2, 0.0))
            sim.spawn(writer(h3, 3, 50.0))
            yield Timeout(1_000.0)
            granted = home.tracer.counters["coherence.grant"]
            data = yield from home.read(oid, 0, STAMP_BYTES)
            return data, granted

        data, granted = sim.run_process(script())
        assert data == _stamp(3)
        assert order == [2, 3]
        assert h2.tracer.counters["coherence.probe_deferred"] == 1
        assert h1.tracer.counters["coherence.forwarded"] == 1
        assert h2.tracer.counters["coherence.forwarded"] == 1
        # Both transfers were the owner's: the home granted h1 and
        # nothing since.
        assert granted == 1

    def test_invalidation_overtakes_a_forwarded_shared_grant(self):
        # h1 owns; h2 reads (h1 forwards a Shared copy, slowly); h3
        # writes, so h2 is told to invalidate a copy still on its way.
        sim, (home, h1, h2, h3), (oid,) = _star(_seed(711), [1.0] * 4)
        _delay(h1, MSG_GRANT, 200.0)
        seen = []

        def reader():
            seen.append((yield from h2.read(oid, 0, STAMP_BYTES)))

        def script():
            yield from h1.write(oid, 0, _stamp(1))
            sim.spawn(reader())
            yield Timeout(50.0)
            yield from h3.write(oid, 0, _stamp(2))
            # The write cannot have completed before h2 installed and
            # gave up the copy it was promised.
            assert seen == [_stamp(1)]
            assert h2.cached_perm(oid) is None
            assert h1.cached_perm(oid) is None
            again = yield from h2.read(oid, 0, STAMP_BYTES)
            return again

        assert sim.run_process(script()) == _stamp(2)
        assert h2.tracer.counters["coherence.probe_deferred"] == 1
        assert h3.tracer.counters["coherence.ack_collected"] == 2

    @pytest.mark.parametrize("late", [MSG_GRANT, MSG_PROBE_ACK])
    def test_grant_and_acks_complete_the_write_in_either_order(self, late):
        sim, (home, h1, h2, h3), (oid,) = _star(_seed(712), [1.0] * 4)
        # Either the home's grant or the sharers' acks come last.
        for agent in (home,) if late == MSG_GRANT else (h1, h2):
            _delay(agent, late, 150.0)

        def script():
            yield from h1.read(oid, 0, STAMP_BYTES)
            yield from h2.read(oid, 0, STAMP_BYTES)
            began = sim.now
            yield from h3.write(oid, 0, _stamp(9))
            return sim.now - began

        took = sim.run_process(script())
        assert took > 150.0     # it waited for the late half
        assert h3.cached_perm(oid) == PERM_MODIFIED
        assert h1.cached_perm(oid) is None and h2.cached_perm(oid) is None
        assert h3.tracer.counters["coherence.ack_collected"] == 2
        # The home collected nothing and moved on when it granted.
        directory = home._directory[oid]
        assert directory.owner == "h3" and not directory.sharers
        assert not h3._pending

    def test_owner_that_evicted_the_line_falls_back_to_the_home(self):
        sim, (home, h1, h2), oids = _star(
            _seed(713), [1.0, 1.0, 1.0], n_objects=2,
            capacity_bytes=OBJECT_BYTES)
        a, b = oids
        # h1's writeback of `a` crawls, so the home still names h1 the
        # owner when h2 asks, and its probe finds the line gone.
        _delay(h1, "coh.release", 100.0)

        def script():
            yield from h1.write(a, 0, _stamp(5))
            yield from h1.read(b, 0, STAMP_BYTES)     # evicts dirty `a`
            data = yield from h2.read(a, 0, STAMP_BYTES)
            yield Timeout(500.0)
            return data

        assert sim.run_process(script()) == _stamp(5)
        assert h1.tracer.counters["coherence.forwarded"] == 0
        assert home.tracer.counters["coherence.probe_stale"] == 1
        assert home.tracer.counters["coherence.grant"] == 3  # the fallback
        assert home._directory[a].owner is None
        assert home._directory[a].sharers == {"h2"}

    def test_release_overtakes_the_owners_ack(self):
        # h2 gets the line from h1, writes, and evicts it before h1's
        # ack tells the home the line ever moved: the home must not
        # take h2's bytes for a stranger's.
        sim, (home, h1, h2), oids = _star(
            _seed(714), [1.0, 1.0, 1.0], n_objects=2)
        a, b = oids
        h2.capacity_bytes = OBJECT_BYTES
        _delay(h1, MSG_PROBE_ACK, 300.0)

        def script():
            yield from h1.write(a, 0, _stamp(1))
            yield from h2.write(a, 0, _stamp(2))
            yield from h2.read(b, 0, STAMP_BYTES)     # evicts dirty `a`
            yield Timeout(1_000.0)
            data = yield from home.read(a, 0, STAMP_BYTES)
            return data

        assert sim.run_process(script()) == _stamp(2)
        assert home._directory[a].owner is None
        assert not h2._evicting

    def test_two_writers_on_one_agent_lose_no_store(self):
        # Two processes of h1 store to disjoint halves of one line at the
        # same instant.  The second must not acquire the line again: the
        # home would answer from bytes the first is about to make stale,
        # and that grant would overwrite the first store.
        sim, (home, h1, h2), (oid,) = _star(_seed(717), [1.0] * 3)

        def store(offset, value):
            yield from h1.write(oid, offset, value)

        def script():
            first = sim.spawn(store(0, b"A" * STAMP_BYTES))
            second = sim.spawn(store(STAMP_BYTES, b"B" * STAMP_BYTES))
            yield first
            yield second
            line = yield from h2.read(oid, 0, 2 * STAMP_BYTES)
            return line

        assert sim.run_process(script()) == b"A" * 8 + b"B" * 8
        assert h1.tracer.counters["coherence.write_miss"] == 1
        assert h1.tracer.counters["coherence.cache_hit"] == 1
        assert home.tracer.counters["coherence.grant"] == 1

    def test_home_store_lands_before_the_next_grant(self):
        # h1 holds the line Shared; the home writes (a barrier that
        # invalidates h1) while h2's read is queued behind it.  h2 is
        # granted in the step that ends the barrier, so the home's store
        # must have landed by then.
        sim, (home, h1, h2), (oid,) = _star(_seed(718), [5.0, 5.0, 1.0])

        def reader():
            yield Timeout(1.0)
            return (yield from h2.read(oid, 0, STAMP_BYTES))

        def script():
            yield from h1.read(oid, 0, STAMP_BYTES)
            queued = sim.spawn(reader())
            yield from home.write(oid, 0, _stamp(7))
            seen = yield queued
            again = yield from h2.read(oid, 0, STAMP_BYTES)
            return seen, again

        assert sim.run_process(script()) == (_stamp(7), _stamp(7))
        assert home._directory[oid].sharers == {"h2"}

    def test_batched_reads_over_forwarded_lines(self):
        sim, (home, h1, h2, h3), oids = _star(
            _seed(715), [1.0] * 4, n_objects=4)

        def script():
            for n, oid in enumerate(oids[:3]):
                yield from h1.write(oid, 0, _stamp(n + 1))
            chunks = yield from h2.read_many(oids, 0, STAMP_BYTES)
            images = yield from h3.read_objects(oids)
            return chunks, images

        chunks, images = sim.run_process(script())
        assert chunks == [_stamp(1), _stamp(2), _stamp(3),
                          bytes([3]) * STAMP_BYTES]
        assert [images[oid][:STAMP_BYTES] for oid in oids] == chunks
        # h1 forwarded its three lines in one grant packet and wrote
        # them back on one ack; h3 then found everything Shared.
        assert h1.tracer.counters["coherence.forwarded"] == 3
        assert h1.tracer.counters["coherence.batch.grant_pkts"] == 1
        for oid in oids:
            assert h2.cached_perm(oid) == PERM_SHARED
            assert h3.cached_perm(oid) == PERM_SHARED
            assert home._directory[oid].owner is None

    @pytest.mark.parametrize("batched", ["read_many", "read_objects"])
    def test_scan_holds_probe_for_a_line_on_its_way_not_for_its_loop(
            self, batched):
        # h2 scans [a, b]: `b` is granted by the home at once, `a` is
        # forwarded by h1, slowly.  h3 then writes both.  The probe for
        # `a` waits for the forwarded copy; the probe for `b` must not
        # wait for the scan's loop (still parked on `a`), and no copy
        # may survive the writes.
        sim, (home, h1, h2, h3), oids = _star(
            _seed(716), [1.0] * 4, n_objects=2)
        a, b = oids
        _delay(h1, MSG_GRANT, 200.0)
        done = {}

        def scan():
            if batched == "read_many":
                done["scan"] = yield from h2.read_many(oids, 0, STAMP_BYTES)
            else:
                images = yield from h2.read_objects(oids)
                done["scan"] = [images[oid][:STAMP_BYTES] for oid in oids]

        def write(oid, n):
            yield from h3.write(oid, 0, _stamp(n))
            done[n] = sim.now

        def script():
            yield from h1.write(a, 0, _stamp(1))
            began = sim.now
            sim.spawn(scan())
            yield Timeout(50.0)
            sim.spawn(write(b, 7))
            sim.spawn(write(a, 8))
            yield Timeout(1_000.0)
            return began

        began = sim.run_process(script())
        assert done["scan"] == [_stamp(1), bytes([1]) * STAMP_BYTES]
        assert done[7] - began < 100.0 < 200.0 < done[8] - began
        assert h2.tracer.counters["coherence.probe_deferred"] == 1
        assert h2.cached_perm(a) is None and h2.cached_perm(b) is None
        assert h3.cached_perm(a) == h3.cached_perm(b) == PERM_MODIFIED
