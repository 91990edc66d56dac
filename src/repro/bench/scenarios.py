"""The benchmark scenario catalogue (documented in BENCHMARKS.md).

Every scenario is a pure function of ``(seed, scale)`` that builds its
own simulator, drives a workload, and reports operations, elapsed
simulated time, and the observability counters worth tracking across
PRs.  Scenarios never read the wall clock — the runner wraps them —
so everything returned here is deterministic for a fixed seed.

Scale dictionaries come in ``quick`` (CI smoke, a couple of seconds
total) and ``full`` (local perf work) flavours; both exercise the same
code paths.
"""

from __future__ import annotations

from .runner import ScenarioResult, register

# ---------------------------------------------------------------------------
# kernel: the simulation event loop itself
# ---------------------------------------------------------------------------


@register(
    "kernel.dispatch",
    "plain scheduled callbacks through the event loop",
    quick={"events": 50_000},
    full={"events": 500_000},
)
def kernel_dispatch(seed: int, scale: dict) -> ScenarioResult:
    from repro.sim import Simulator

    sim = Simulator(seed=seed)
    events = scale["events"]
    fired = [0]

    def tick():
        fired[0] += 1

    for i in range(events):
        sim.schedule(float(i % 1000), tick)
    sim.run()
    assert fired[0] == events
    return ScenarioResult(ops=events, sim_time_us=sim.now)


@register(
    "kernel.timeout_churn",
    "generator processes yielding Timeouts back-to-back",
    quick={"yields": 20_000, "procs": 4},
    full={"yields": 200_000, "procs": 4},
)
def kernel_timeout_churn(seed: int, scale: dict) -> ScenarioResult:
    from repro.sim import Simulator, Timeout

    sim = Simulator(seed=seed)
    yields, procs = scale["yields"], scale["procs"]
    per_proc = yields // procs

    def proc():
        for _ in range(per_proc):
            yield Timeout(1.0)
        return None

    for p in range(procs):
        sim.spawn(proc(), name=f"churn-{p}")
    sim.run()
    return ScenarioResult(ops=per_proc * procs, sim_time_us=sim.now)


@register(
    "kernel.signal_churn",
    "Signal trigger/wait cycles fanning out to many waiters",
    quick={"rounds": 2_000, "waiters": 10},
    full={"rounds": 20_000, "waiters": 10},
)
def kernel_signal_churn(seed: int, scale: dict) -> ScenarioResult:
    from repro.sim import Simulator, Timeout

    sim = Simulator(seed=seed)
    rounds, waiters = scale["rounds"], scale["waiters"]
    sig = sim.signal("churn")
    woken = [0]

    def waiter():
        while True:
            value = yield sig
            if value is None:
                return None
            woken[0] += 1

    def driver():
        for _ in range(rounds):
            yield Timeout(1.0)
            sig.trigger(1)
        # Let the last wakeups land, then release the waiters.
        yield Timeout(1.0)
        sig.trigger(None)
        return None

    for w in range(waiters):
        sim.spawn(waiter(), name=f"waiter-{w}")
    sim.spawn(driver(), name="driver")
    sim.run()
    assert woken[0] == rounds * waiters
    return ScenarioResult(ops=rounds * waiters, sim_time_us=sim.now)


@register(
    "kernel.cancel_churn",
    "mass-cancelled far-future timers (heap compaction path)",
    quick={"timers": 50_000, "batch": 5_000},
    full={"timers": 500_000, "batch": 5_000},
)
def kernel_cancel_churn(seed: int, scale: dict) -> ScenarioResult:
    from repro.sim import Simulator

    sim = Simulator(seed=seed)
    timers, batch = scale["timers"], scale["batch"]
    scheduled = 0

    def noop():
        pass

    # Schedule-and-cancel in batches, the retransmit-timer pattern: the
    # deadline is far away, the cancel arrives almost immediately.
    while scheduled < timers:
        n = min(batch, timers - scheduled)
        handles = [sim.schedule(1e9, noop) for _ in range(n)]
        for handle in handles:
            sim.cancel(handle)
        scheduled += n
        sim.schedule(1.0, noop)
        sim.run(until=sim.now + 1.0)
    # Compaction must have kept the heap near its live size — cancelled
    # timers with a t=1e9 deadline must not accumulate.
    heap_entries = len(sim._heap)
    assert heap_entries < batch * 2, "cancelled timers lingering in heap"
    return ScenarioResult(
        ops=timers,
        sim_time_us=sim.now,
        counters={"kernel.heap_entries_after": heap_entries,
                  "kernel.pending_after": sim.pending_event_count},
    )


# ---------------------------------------------------------------------------
# net: links and switches under load
# ---------------------------------------------------------------------------


def _drain_stream(seed: int, scale: dict, tracing: bool) -> ScenarioResult:
    from repro.net import Packet, build_star
    from repro.sim import Simulator, Timeout

    sim = Simulator(seed=seed)
    net = build_star(sim, 2, tracing=tracing)
    src, dst = net.host("h0"), net.host("h1")
    packets = scale["packets"]
    got = [0]
    dst.on("bench", lambda p: got.__setitem__(0, got[0] + 1))

    def sender():
        for i in range(packets):
            src.send(Packet(kind="bench", src="h0", dst="h1",
                            payload_bytes=scale["payload_bytes"]))
            if i % 64 == 63:
                yield Timeout(1.0)  # let the wire drain periodically
        return None

    sim.spawn(sender(), name="sender")
    sim.run()
    assert got[0] == packets
    counters = {}
    if tracing:
        snap = net.metrics.snapshot()["counters"]
        for key in ("net.host.h1:host.rx", "net.host.h1:host.rx_bytes",
                    "net.switch.s0:switch.rx", "net.switch.s0:switch.tx"):
            if key in snap:
                counters[key] = snap[key]
    return ScenarioResult(ops=packets, sim_time_us=sim.now, counters=counters)


@register(
    "net.link_stream",
    "host-to-host packet stream through one switch (traced)",
    quick={"packets": 5_000, "payload_bytes": 256},
    full={"packets": 50_000, "payload_bytes": 256},
)
def net_link_stream(seed: int, scale: dict) -> ScenarioResult:
    return _drain_stream(seed, scale, tracing=True)


@register(
    "net.link_stream_untraced",
    "the same stream with the no-op tracer fast path",
    quick={"packets": 5_000, "payload_bytes": 256},
    full={"packets": 50_000, "payload_bytes": 256},
)
def net_link_stream_untraced(seed: int, scale: dict) -> ScenarioResult:
    return _drain_stream(seed, scale, tracing=False)


@register(
    "net.switch_forward",
    "all-to-all unicast across a learned star fabric",
    quick={"hosts": 8, "rounds": 80, "payload_bytes": 128},
    full={"hosts": 8, "rounds": 800, "payload_bytes": 128},
)
def net_switch_forward(seed: int, scale: dict) -> ScenarioResult:
    from repro.net import Packet, build_star
    from repro.sim import Simulator, Timeout

    sim = Simulator(seed=seed)
    hosts, rounds = scale["hosts"], scale["rounds"]
    net = build_star(sim, hosts)
    received = [0]
    names = [f"h{i}" for i in range(hosts)]
    for name in names:
        net.host(name).on("bench",
                          lambda p: received.__setitem__(0, received[0] + 1))

    def warmup():
        # One broadcast each teaches the switch every host's port.
        for name in names:
            net.host(name).broadcast("bench.warm", payload_bytes=16)
            yield Timeout(50.0)
        return None

    def driver():
        yield sim.spawn(warmup(), name="warmup")
        for r in range(rounds):
            for i, name in enumerate(names):
                peer = names[(i + 1 + r) % hosts]
                net.host(name).send(Packet(
                    kind="bench", src=name, dst=peer,
                    payload_bytes=scale["payload_bytes"]))
            yield Timeout(20.0)
        return None

    sim.spawn(driver(), name="driver")
    sim.run()
    sent = hosts * rounds
    snap = net.metrics.snapshot()["counters"]
    counters = {
        "net.switch.s0:switch.rx": snap.get("net.switch.s0:switch.rx", 0),
        "net.switch.s0:switch.tx": snap.get("net.switch.s0:switch.tx", 0),
        "net.switch.s0:switch.flooded": snap.get("net.switch.s0:switch.flooded", 0),
        "delivered": received[0],
    }
    return ScenarioResult(ops=sent, sim_time_us=sim.now, counters=counters)


# ---------------------------------------------------------------------------
# discovery: E2E vs controller rendezvous at scale
# ---------------------------------------------------------------------------


def _discovery(scheme_name: str, seed: int, scale: dict) -> ScenarioResult:
    from repro.discovery import run_fig2_point

    point = run_fig2_point(
        scheme_name,
        percent_new=scale["percent_new"],
        n_accesses=scale["accesses"],
        seed=seed,
    )
    total_rtt = sum(r.latency_us for r in point.records if r.ok)
    return ScenarioResult(
        ops=scale["accesses"],
        sim_time_us=total_rtt,
        counters={
            "discovery.mean_rtt_x1000": int(point.mean_rtt_us * 1000),
            "discovery.broadcasts_per_100": int(point.broadcasts_per_100),
            "discovery.failures": point.failures,
        },
    )


@register(
    "discovery.e2e",
    "end-to-end broadcast discovery sweep point (50% new objects)",
    quick={"accesses": 30, "percent_new": 50},
    full={"accesses": 200, "percent_new": 50},
)
def discovery_e2e(seed: int, scale: dict) -> ScenarioResult:
    from repro.discovery import SCHEME_E2E

    return _discovery(SCHEME_E2E, seed, scale)


@register(
    "discovery.controller",
    "SDN-controller discovery sweep point (50% new objects)",
    quick={"accesses": 30, "percent_new": 50},
    full={"accesses": 200, "percent_new": 50},
)
def discovery_controller(seed: int, scale: dict) -> ScenarioResult:
    from repro.discovery import SCHEME_CONTROLLER

    return _discovery(SCHEME_CONTROLLER, seed, scale)


# ---------------------------------------------------------------------------
# memproto: reliable transport with and without loss
# ---------------------------------------------------------------------------


def _transport(seed: int, scale: dict, loss: float) -> ScenarioResult:
    from repro.memproto import LightweightTransport
    from repro.net import build_star
    from repro.sim import Simulator

    sim = Simulator(seed=seed)
    net = build_star(sim, 2, default_loss_rate=loss)
    sender = LightweightTransport(net.host("h0"))
    receiver = LightweightTransport(net.host("h1"))
    messages = scale["messages"]
    delivered = [0]
    receiver.on_deliver(
        lambda src, payload, nbytes: delivered.__setitem__(0, delivered[0] + 1))
    for i in range(messages):
        sender.send("h1", {"i": i}, payload_bytes=scale["payload_bytes"])
    sim.run()
    assert delivered[0] == messages
    tx_counts = sender.tracer.counters
    counters = {
        "transport.tx": tx_counts.get("transport.tx"),
        "transport.retransmit": tx_counts.get("transport.retransmit"),
        "transport.acked": tx_counts.get("transport.acked"),
        "kernel.pending_after": sim.pending_event_count,
        # Mass-cancelled retransmit timers must not survive in the heap.
        "kernel.heap_entries_after": len(sim._heap),
    }
    return ScenarioResult(ops=messages, sim_time_us=sim.now, counters=counters)


@register(
    "memproto.transport_clean",
    "lightweight reliable transport, no loss (retransmit-timer churn)",
    quick={"messages": 2_000, "payload_bytes": 512},
    full={"messages": 20_000, "payload_bytes": 512},
)
def memproto_transport_clean(seed: int, scale: dict) -> ScenarioResult:
    return _transport(seed, scale, loss=0.0)


@register(
    "memproto.transport_loss",
    "lightweight reliable transport under 5% loss",
    quick={"messages": 1_000, "payload_bytes": 512},
    full={"messages": 10_000, "payload_bytes": 512},
)
def memproto_transport_loss(seed: int, scale: dict) -> ScenarioResult:
    return _transport(seed, scale, loss=0.05)


@register(
    "memproto.batched_stream",
    "bidirectional request/echo stream: frame coalescing + piggybacked acks",
    quick={"messages": 2_000, "burst": 16, "payload_bytes": 128},
    full={"messages": 20_000, "burst": 16, "payload_bytes": 128},
)
def memproto_batched_stream(seed: int, scale: dict) -> ScenarioResult:
    from repro.memproto import LightweightTransport
    from repro.net import build_star
    from repro.sim import Simulator, Timeout

    sim = Simulator(seed=seed)
    net = build_star(sim, 2, tracing=True)
    requester = LightweightTransport(net.host("h0"))
    responder = LightweightTransport(net.host("h1"))
    messages, burst = scale["messages"], scale["burst"]
    echoes = [0]
    # Every delivered request produces a reverse-direction echo, so the
    # responder's acks ride on data frames instead of standalone packets.
    responder.on_deliver(
        lambda src, payload, nbytes: responder.send(
            src, {"echo": payload["i"]}, payload_bytes=nbytes))
    requester.on_deliver(
        lambda src, payload, nbytes: echoes.__setitem__(0, echoes[0] + 1))

    def driver():
        for start in range(0, messages, burst):
            for i in range(start, min(start + burst, messages)):
                requester.send("h1", {"i": i},
                               payload_bytes=scale["payload_bytes"])
            yield Timeout(50.0)
        return None

    sim.run_process(driver(), name="bench-driver")
    sim.run()
    assert echoes[0] == messages
    snap = net.metrics.snapshot()["counters"]
    req, rsp = requester.tracer.counters, responder.tracer.counters
    counters = {
        # Total wire packets both ways: the batching headline number.
        "wire_packets": (snap.get("net.host.h0:host.tx", 0)
                        + snap.get("net.host.h1:host.tx", 0)),
        "transport.frame.tx": req.get("transport.frame.tx")
                             + rsp.get("transport.frame.tx"),
        "transport.ack.piggybacked": req.get("transport.ack.piggybacked")
                                    + rsp.get("transport.ack.piggybacked"),
        "transport.ack.tx": req.get("transport.ack.tx")
                           + rsp.get("transport.ack.tx"),
        "transport.retransmit": req.get("transport.retransmit")
                               + rsp.get("transport.retransmit"),
    }
    return ScenarioResult(ops=messages * 2, sim_time_us=sim.now,
                          counters=counters)


# ---------------------------------------------------------------------------
# memproto: coherence sequential scan over batched acquisitions
# ---------------------------------------------------------------------------


@register(
    "coherence.scan",
    "sequential-scan reader over remote home objects via read_many",
    quick={"objects": 64, "rounds": 4, "object_bytes": 64},
    full={"objects": 512, "rounds": 8, "object_bytes": 64},
)
def coherence_scan(seed: int, scale: dict) -> ScenarioResult:
    from repro.core import IDAllocator
    from repro.memproto import CoherenceAgent
    from repro.net import build_star
    from repro.sim import Simulator

    sim = Simulator(seed=seed)
    net = build_star(sim, 2, tracing=True)
    home_map = {}
    home = CoherenceAgent(net.host("h0"), home_map)
    reader = CoherenceAgent(net.host("h1"), home_map)
    objects, rounds = scale["objects"], scale["rounds"]
    size = scale["object_bytes"]
    alloc = IDAllocator(seed=seed)
    oids = []
    for i in range(objects):
        oid = alloc.allocate()
        home.host_object(oid, bytes([i % 256]) * size)
        oids.append(oid)

    def proc():
        # Round 1 misses everything (one acquire/grant packet pair per
        # home); later rounds are pure cache hits.
        for r in range(rounds):
            chunks = yield from reader.read_many(oids, 0, size)
            assert len(chunks) == objects
        return None

    sim.run_process(proc(), name="scanner")
    snap = net.metrics.snapshot()["counters"]
    rd, hm = reader.tracer.counters, home.tracer.counters
    counters = {
        "wire_packets": (snap.get("net.host.h0:host.tx", 0)
                        + snap.get("net.host.h1:host.tx", 0)),
        "coherence.read_miss": rd.get("coherence.read_miss"),
        "coherence.cache_hit": rd.get("coherence.cache_hit"),
        "coherence.batch.acquire_pkts": rd.get("coherence.batch.acquire_pkts"),
        "coherence.batch.multi_acquire": rd.get("coherence.batch.multi_acquire"),
        "coherence.batch.grant_pkts": hm.get("coherence.batch.grant_pkts"),
        "coherence.batch.multi_grant": hm.get("coherence.batch.multi_grant"),
    }
    return ScenarioResult(ops=objects * rounds, sim_time_us=sim.now,
                          counters=counters)


# ---------------------------------------------------------------------------
# e2e: the full rendezvous invocation stack
# ---------------------------------------------------------------------------


@register(
    "e2e.invoke",
    "full-stack rendezvous invocations on a 3-host star",
    quick={"invocations": 20},
    full={"invocations": 200},
)
def e2e_invoke(seed: int, scale: dict) -> ScenarioResult:
    from repro import (FunctionRegistry, GlobalRef, GlobalSpaceRuntime,
                       Simulator, build_star)

    sim = Simulator(seed=seed)
    net = build_star(sim, 3, prefix="n")
    registry = FunctionRegistry()

    @registry.register("bench")
    def bench_fn(ctx, args):
        data = yield ctx.read(args["blob"], 0, 5)
        return data.decode()

    runtime = GlobalSpaceRuntime(net, registry)
    for name in ("n0", "n1", "n2"):
        runtime.add_node(name)
    blob = runtime.create_object("n2", size=1 << 20)
    blob.write(0, b"hello")
    refs = {"blob": GlobalRef(blob.oid, 0, "read")}
    _, code_ref = runtime.create_code("n0", "bench", text_size=256)
    invocations = scale["invocations"]

    def driver():
        for _ in range(invocations):
            result = yield sim.spawn(
                runtime.invoke("n0", code_ref, data_refs=refs))
            assert result.value == "hello"
        return None

    sim.run_process(driver(), name="bench-driver")
    snap = net.metrics.snapshot()["counters"]
    counters = {
        "runtime.invocations": invocations,
        "net.host.n0:host.tx": snap.get("net.host.n0:host.tx", 0),
        "net.host.n2:host.rx": snap.get("net.host.n2:host.rx", 0),
    }
    return ScenarioResult(ops=invocations, sim_time_us=sim.now, counters=counters)


# ---------------------------------------------------------------------------
# faults: the invocation path under scripted partial failure
# ---------------------------------------------------------------------------


def _fault_cluster(seed: int, n_hosts: int, speeds: dict = None):
    from repro import FunctionRegistry, GlobalSpaceRuntime, Simulator, build_star

    sim = Simulator(seed=seed)
    net = build_star(sim, n_hosts, prefix="n")
    registry = FunctionRegistry()

    @registry.register("bench")
    def bench_fn(ctx, args):
        data = yield ctx.read(args["blob"], 0, 5)
        return data.decode()

    runtime = GlobalSpaceRuntime(net, registry)
    for i in range(n_hosts):
        name = f"n{i}"
        runtime.add_node(name, speed=(speeds or {}).get(name, 1.0))
    return sim, net, runtime


def _fault_counters(net, extra):
    snap = net.metrics.snapshot()["counters"]
    counters = dict(extra)
    for key in ("runtime.engine:invoke.retries",
                "runtime.engine:invoke.failover",
                "runtime.engine:invoke.deadline_exceeded",
                "runtime.health:health.suspected",
                "runtime.health:health.cleared",
                "faults.injector:faults.injected.crash",
                "faults.injector:faults.injected.recover"):
        counters[key] = snap.get(key, 0)
    return counters


@register(
    "faults.invoke_faulty",
    "invocation stream with crash/recover windows on both blob holders",
    quick={"invocations": 20},
    full={"invocations": 200},
)
def faults_invoke_faulty(seed: int, scale: dict) -> ScenarioResult:
    from repro import GlobalRef, RetryPolicy
    from repro.faults import FaultInjector, FaultPlan
    from repro.runtime import InvokeTimeout

    sim, net, runtime = _fault_cluster(seed, 4)
    blob = runtime.create_object("n1", size=1 << 18)
    blob.write(0, b"hello")
    sim.run_process(runtime.replicate(blob.oid, "n2"))
    refs = {"blob": GlobalRef(blob.oid, 0, "read")}
    _, code_ref = runtime.create_code("n0", "bench", text_size=256)
    invocations = scale["invocations"]
    policy = RetryPolicy(deadline_us=5_000.0, backoff_base_us=500.0)
    # Crash each holder in turn (the windows never overlap, so a live
    # replica always exists somewhere).
    base = sim.now
    plan = (FaultPlan()
            .crash_window("n1", base + 2_000.0, base + 40_000.0)
            .crash_window("n2", base + 60_000.0, base + 90_000.0))
    FaultInjector(net, plan).arm()
    completed, timeouts = [0], [0]

    def driver():
        for _ in range(invocations):
            try:
                result = yield sim.spawn(
                    runtime.invoke("n0", code_ref, data_refs=refs,
                                   retry=policy))
            except InvokeTimeout:
                timeouts[0] += 1
            else:
                assert result.value == "hello"
                completed[0] += 1
        return None

    sim.run_process(driver(), name="faulty-driver")
    assert completed[0] + timeouts[0] == invocations
    counters = _fault_counters(net, {"completed": completed[0],
                                     "invoke_timeouts": timeouts[0]})
    return ScenarioResult(ops=invocations, sim_time_us=sim.now,
                          counters=counters)


@register(
    "faults.invoke_failover",
    "executor crash mid-stream: every invocation must fail over",
    quick={"invocations": 20},
    full={"invocations": 200},
)
def faults_invoke_failover(seed: int, scale: dict) -> ScenarioResult:
    from repro import GlobalRef, RetryPolicy
    from repro.faults import FaultInjector, FaultPlan

    # n2 is the fast node, so placement strictly prefers it while its
    # health is clean — which is what makes its crash force failovers.
    sim, net, runtime = _fault_cluster(seed, 3, speeds={"n2": 2.0})
    blob = runtime.create_object("n2", size=1 << 18)
    blob.write(0, b"hello")
    sim.run_process(runtime.replicate(blob.oid, "n1"))
    refs = {"blob": GlobalRef(blob.oid, 0, "read")}
    _, code_ref = runtime.create_code("n0", "bench", text_size=256)
    invocations = scale["invocations"]
    policy = RetryPolicy(deadline_us=5_000.0, backoff_base_us=500.0)
    # n2 (the preferred executor: it holds the blob and replicated it to
    # n1, so both replicas exist) dies shortly into the stream and never
    # comes back — everything after the crash must complete elsewhere.
    plan = FaultPlan().crash("n2", at=sim.now + 2_000.0)
    FaultInjector(net, plan).arm()

    def driver():
        for _ in range(invocations):
            result = yield sim.spawn(
                runtime.invoke("n0", code_ref, data_refs=refs, retry=policy))
            assert result.value == "hello"
        return None

    sim.run_process(driver(), name="failover-driver")
    snap = net.metrics.snapshot()["counters"]
    assert snap.get("runtime.engine:invoke.failover", 0) >= 1, \
        "the crash never forced a failover"
    counters = _fault_counters(net, {"completed": invocations})
    return ScenarioResult(ops=invocations, sim_time_us=sim.now,
                          counters=counters)


# ---------------------------------------------------------------------------
# discovery: the sharded controller plane with requester-side leases
# ---------------------------------------------------------------------------


@register(
    "discovery.controller_sharded",
    "sharded directory + lease cache across 1/2/4 shards, cache on/off",
    quick={"accesses": 40, "objects": 24, "shards": [1, 2, 4]},
    full={"accesses": 300, "objects": 120, "shards": [1, 2, 4]},
)
def discovery_controller_sharded(seed: int, scale: dict) -> ScenarioResult:
    from repro.discovery import run_sharded_point

    accesses, objects = scale["accesses"], scale["objects"]
    counters, total_ops, total_rtt = {}, 0, 0.0
    configs = [(n, True) for n in scale["shards"]] + [(max(scale["shards"]), False)]
    for n_shards, use_leases in configs:
        point = run_sharded_point(
            n_shards, n_objects=objects, n_accesses=accesses,
            seed=seed, use_leases=use_leases)
        assert point.failures == 0, "sharded access stream must not fail"
        tag = f"sharded.s{n_shards}" + ("" if use_leases else "_nolease")
        counters[f"{tag}.mean_rtt_x1000"] = int(point.mean_rtt_us * 1000)
        counters[f"{tag}.lease_hits"] = point.lease_hits
        counters[f"{tag}.max_shard_load"] = max(point.advertise_load.values())
        total_ops += accesses
        total_rtt += sum(r.latency_us for r in point.records if r.ok)
    return ScenarioResult(ops=total_ops, sim_time_us=total_rtt,
                          counters=counters)


@register(
    "discovery.shard_failover",
    "shard crash mid-stream: leases + successor shards keep accesses flowing",
    quick={"accesses": 60, "objects": 16},
    full={"accesses": 300, "objects": 60},
)
def discovery_shard_failover(seed: int, scale: dict) -> ScenarioResult:
    from repro.discovery import run_sharded_point

    point = run_sharded_point(
        4, n_objects=scale["objects"], n_accesses=scale["accesses"],
        seed=seed, lease_ttl_us=20_000.0, refresh_interval_us=5_000.0,
        gap_us=1_000.0, shard_crash_window=(30_000.0, 90_000.0))
    assert point.failures == 0, "failover must complete the access stream"
    assert point.shard_failovers >= 1, "the crash never forced a failover"
    total_rtt = sum(r.latency_us for r in point.records if r.ok)
    return ScenarioResult(
        ops=scale["accesses"],
        sim_time_us=total_rtt,
        counters={
            "sharded.mean_rtt_x1000": int(point.mean_rtt_us * 1000),
            "sharded.failovers": point.shard_failovers,
            "sharded.lease_hits": point.lease_hits,
            "sharded.lease_misses": point.lease_misses,
            "sharded.lease_invalidated": point.lease_invalidated,
            "sharded.failures": point.failures,
        },
    )


# ---------------------------------------------------------------------------
# proxy: lazy object proxies + FOT reachability prefetching (PROXIES.md, E19)
# ---------------------------------------------------------------------------


def _proxy_cluster(seed: int):
    from repro import FunctionRegistry, GlobalSpaceRuntime, Simulator, build_star

    # Constrained links (0.5 Gbps vs the 10 Gbps default): staging the
    # whole working set up front serializes on the holder's uplink, the
    # regime where one-object-ahead prefetching visibly beats it.
    sim = Simulator(seed=seed)
    net = build_star(sim, 3, prefix="n", default_bandwidth_gbps=0.5)
    registry = FunctionRegistry()
    runtime = GlobalSpaceRuntime(net, registry)
    for name in ("n0", "n1", "n2"):
        runtime.add_node(name)
    return sim, net, registry, runtime


def _proxy_invoke_arm(sim, runtime, code_ref, refs, values, arm, n_objects):
    """Run one ablation arm to completion; returns (latency, proxy counters).

    ``eager`` stages every ref up front, ``lazy`` binds proxies with no
    walk, ``prefetched`` adds a reachability budget wide enough to cover
    the whole chain (budget stress belongs to the ablation benchmark).
    """
    from repro.core import PrefetchBudget
    from repro.runtime import MODE_EAGER, MODE_PROXIED

    mode = MODE_EAGER if arm == "eager" else MODE_PROXIED
    prefetch = None
    if arm == "prefetched":
        prefetch = PrefetchBudget(depth=n_objects + 1, fanout=4,
                                  max_objects=n_objects)
    out = {}

    def driver():
        result = yield sim.spawn(runtime.invoke(
            "n0", code_ref, data_refs=refs, values=values,
            mode=mode, candidates=["n0"], prefetch=prefetch, flops=1))
        out["result"] = result

    sim.run_process(driver(), name=f"proxy-{arm}")
    consumer = runtime.node("n0")
    consumer.proxies.settle()
    return out["result"], consumer.proxies.tracer.counters


def _proxy_arm_counters(counters, by_arm):
    """Fold per-arm latencies and the proxy/prefetch evidence keys."""
    for arm, (latency, tracer) in by_arm.items():
        counters[f"{arm}_us"] = int(latency)
    counters["proxy.resolve.lazy"] = by_arm["lazy"][1].get("proxy.resolve.lazy")
    for key in ("prefetch.issued", "prefetch.wasted",
                "proxy.resolve.prefetch_hit", "proxy.resolve.prefetch_miss"):
        counters[key] = by_arm["prefetched"][1].get(key)
    return counters


@register(
    "proxy.traversal_lazy",
    "eager/lazy/prefetched proxy arms over a pointer-linked list walk",
    quick={"records": 64, "records_per_object": 8, "work_us": 5.0},
    full={"records": 256, "records_per_object": 8, "work_us": 5.0},
)
def proxy_traversal_lazy(seed: int, scale: dict) -> ScenarioResult:
    import random

    from repro import GlobalRef
    from repro.workloads import build_linked_list, register_proxied_traversal

    by_arm = {}
    total_time = 0.0
    for arm in ("eager", "lazy", "prefetched"):
        sim, net, registry, runtime = _proxy_cluster(seed)
        register_proxied_traversal(registry)
        head, objects, _ = build_linked_list(
            runtime.node("n1").space, scale["records"],
            scale["records_per_object"], rng=random.Random(seed))
        for obj in objects:
            runtime.adopt_object("n1", obj)
        _, code_ref = runtime.create_code(
            "n0", "traverse_list_proxied", text_size=256)
        refs = {"head": head}
        if arm == "eager":
            for i, obj in enumerate(objects[1:]):
                refs[f"chunk{i}"] = GlobalRef(obj.oid, 0, "read")
        result, tracer = _proxy_invoke_arm(
            sim, runtime, code_ref, refs,
            {"work_us": scale["work_us"], "limit": scale["records"]},
            arm, len(objects))
        assert result.value["count"] == scale["records"]
        by_arm[arm] = (result.latency_us, tracer)
        total_time += sim.now
    assert by_arm["prefetched"][0] < by_arm["eager"][0] < by_arm["lazy"][0], (
        "expected prefetched < eager < lazy on the traversal walk")
    counters = _proxy_arm_counters({}, by_arm)
    return ScenarioResult(ops=3 * scale["records"], sim_time_us=total_time,
                          counters=counters)


@register(
    "proxy.prefetch_inference",
    "serving a FOT-chained sparse model: eager/lazy/prefetched arms",
    quick={"partitions": 6, "entries": 256, "work_us": 120.0},
    full={"partitions": 16, "entries": 256, "work_us": 120.0},
)
def proxy_prefetch_inference(seed: int, scale: dict) -> ScenarioResult:
    import random

    from repro import GlobalRef
    from repro.workloads import (Activation, SparseModel, build_partition_chain,
                                 register_proxied_serving)

    by_arm = {}
    total_time = 0.0
    activation = Activation.generate(random.Random(seed + 1), 64)
    for arm in ("eager", "lazy", "prefetched"):
        sim, net, registry, runtime = _proxy_cluster(seed)
        register_proxied_serving(registry)
        model = SparseModel.generate(seed, scale["partitions"], scale["entries"])
        head, objects = build_partition_chain(runtime.node("n1").space, model)
        for obj in objects:
            runtime.adopt_object("n1", obj)
        _, code_ref = runtime.create_code(
            "n0", "serve_partition_chain", text_size=256)
        refs = {"head": head}
        if arm == "eager":
            for i, obj in enumerate(objects[1:]):
                refs[f"part{i}"] = GlobalRef(obj.oid, 0, "read")
        result, tracer = _proxy_invoke_arm(
            sim, runtime, code_ref, refs,
            {"activation": activation.values, "work_us": scale["work_us"]},
            arm, len(objects))
        assert result.value["partitions"] == scale["partitions"]
        by_arm[arm] = (result.latency_us, tracer)
        total_time += sim.now
    assert by_arm["prefetched"][0] < by_arm["eager"][0], (
        "expected the prefetched arm to beat eager staging")
    counters = _proxy_arm_counters({}, by_arm)
    return ScenarioResult(ops=3 * scale["partitions"], sim_time_us=total_time,
                          counters=counters)


# ---------------------------------------------------------------------------
# loadgen: open-loop multi-tenant traffic (tail latency under offered load)
# ---------------------------------------------------------------------------


def _loadgen_cluster(seed: int, n_hosts: int, bandwidth_gbps: float):
    """A star fabric sized so a client link saturates at a few thousand
    ops/s — the knee the open-loop scenarios drive traffic across."""
    from repro.net.topology import build_star
    from repro.runtime.engine import GlobalSpaceRuntime
    from repro.sim import Simulator

    sim = Simulator(seed=seed)
    net = build_star(sim, n_hosts, default_bandwidth_gbps=bandwidth_gbps,
                     default_latency_us=2.0)
    runtime = GlobalSpaceRuntime(net)
    for i in range(n_hosts):
        runtime.add_node(f"h{i}")
    return sim, runtime


@register(
    "loadgen.zipf_steady",
    "open-loop Zipf reads/writes swept across the saturation knee",
    quick={"rates": (2_000, 6_000, 12_000, 24_000), "duration_us": 120_000.0,
           "hosts": 4, "keyspace": 50_000, "bandwidth_gbps": 0.01},
    full={"rates": (2_000, 6_000, 12_000, 24_000), "duration_us": 500_000.0,
          "hosts": 8, "keyspace": 1_000_000, "bandwidth_gbps": 0.01},
)
def loadgen_zipf_steady(seed: int, scale: dict) -> ScenarioResult:
    from repro.loadgen import LoadGenerator, TenantSpec

    counters = {}
    total_ops = 0
    total_time = 0.0
    p999_by_rate = []
    for rate in scale["rates"]:
        sim, runtime = _loadgen_cluster(seed, scale["hosts"],
                                        scale["bandwidth_gbps"])
        tenant = TenantSpec(
            name="t0", client="h0", rate_per_sec=float(rate),
            popularity="zipf", skew=1.0, keyspace=scale["keyspace"],
            mix=(("load", 0.8), ("store", 0.2)), max_outstanding=512)
        report = LoadGenerator(runtime, [tenant],
                               duration_us=scale["duration_us"]).run()
        tr = report.tenants["t0"]
        prefix = f"rate{rate}."
        counters[prefix + "offered"] = tr.offered
        counters[prefix + "completed"] = tr.completed
        counters[prefix + "dropped"] = tr.dropped
        counters[prefix + "p50_us"] = int(round(tr.percentile(50)))
        counters[prefix + "p99_us"] = int(round(tr.percentile(99)))
        counters[prefix + "p999_us"] = int(round(tr.percentile(99.9)))
        p999_by_rate.append(tr.percentile(99.9))
        total_ops += tr.completed
        total_time += sim.now
    # The open-loop signature: as offered rate crosses the link's
    # capacity, the tail can only get worse — and past the knee it is
    # catastrophically worse, not marginally.
    assert all(a <= b for a, b in zip(p999_by_rate, p999_by_rate[1:])), (
        f"p999 not monotone across offered rates: {p999_by_rate}")
    assert p999_by_rate[-1] > 5 * p999_by_rate[0], (
        f"no saturation signature: p999 {p999_by_rate[0]} -> {p999_by_rate[-1]}")
    return ScenarioResult(ops=total_ops, sim_time_us=total_time,
                          counters=counters)


@register(
    "loadgen.multitenant_mix",
    "three tenants (skews, rates, op mixes) sharing one fabric",
    quick={"duration_us": 120_000.0, "hosts": 6, "scale_rate": 1.0},
    full={"duration_us": 500_000.0, "hosts": 6, "scale_rate": 1.0},
)
def loadgen_multitenant_mix(seed: int, scale: dict) -> ScenarioResult:
    from repro.loadgen import LoadGenerator, TenantSpec

    sim, runtime = _loadgen_cluster(seed, scale["hosts"], 0.05)
    r = scale["scale_rate"]
    tenants = [
        # A read-heavy tenant with a hot Zipf head: the aggressor.
        TenantSpec(name="hot", client="h0", rate_per_sec=4_000.0 * r,
                   popularity="zipf", skew=1.2, keyspace=100_000,
                   mix=(("load", 0.9), ("store", 0.1))),
        # A mobile-code tenant mixing all four op kinds.
        TenantSpec(name="mixed", client="h1", rate_per_sec=1_200.0 * r,
                   popularity="zipf", skew=0.9, keyspace=10_000,
                   mix=(("load", 0.4), ("store", 0.2), ("invoke", 0.3),
                        ("proxied_invoke", 0.1)), flops=1e5),
        # A metronome tenant over a heavy-tailed Pareto keyspace.
        TenantSpec(name="tail", client="h2", rate_per_sec=800.0 * r,
                   arrival="deterministic", popularity="pareto", skew=1.1,
                   keyspace=1_000_000, mix=(("load", 1.0),)),
    ]
    report = LoadGenerator(runtime, tenants,
                           duration_us=scale["duration_us"]).run()
    total_completed = 0
    for name, tr in report.tenants.items():
        assert tr.offered == tr.completed + tr.dropped + tr.failed, (
            f"tenant {name}: op accounting does not balance")
        assert tr.completed > 0, f"tenant {name} completed nothing"
        total_completed += tr.completed
    return ScenarioResult(ops=total_completed, sim_time_us=sim.now,
                          counters=report.counters())


# ---------------------------------------------------------------------------
# bus: the event bus — contracts, credit backpressure, interference
# ---------------------------------------------------------------------------


@register(
    "bus.telemetry_fanout",
    "telemetry publisher sheds under consumer credit while transactional p999 holds",
    quick={"duration_us": 120_000.0, "hosts": 6, "txn_rate": 2_000.0,
           "telemetry_rate": 20_000.0, "service_us": 100.0},
    full={"duration_us": 500_000.0, "hosts": 8, "txn_rate": 2_000.0,
          "telemetry_rate": 40_000.0, "service_us": 100.0},
)
def bus_telemetry_fanout(seed: int, scale: dict) -> ScenarioResult:
    """The paper's multi-tenant claim, stressed through the event bus.

    Phase A runs a transactional tenant alone and records its p999.
    Phase B re-runs the same seed with a telemetry tenant publishing at
    ~2x its consumers' service capacity onto credit-gated at-most-once
    subscribers.  Backpressure must confine the overload to the
    publisher's buffer (``bus.shed`` grows) instead of the shared
    fabric — so the transactional tail is asserted, in-run, to stay
    within 3x of its unloaded baseline.
    """
    from repro.core import IDAllocator
    from repro.loadgen import LoadGenerator, TenantSpec
    from repro.pubsub import (AT_MOST_ONCE, EventBus, FormatField,
                              PacketFormat, PubSubFabric)

    fmt = PacketFormat("bench-telemetry", [FormatField("kind", 16)])

    def phase(with_telemetry: bool):
        sim, runtime = _loadgen_cluster(seed, scale["hosts"], 0.05)
        fabric = PubSubFabric(runtime.network, fmt)
        bus = EventBus(fabric)
        topic = IDAllocator(seed=seed + 17).allocate()
        # Two slow consumers on their own hosts: each works an event for
        # service_us, so their joint credit grants cap delivery at
        # 1e6/service_us events/s — half the offered telemetry rate.
        for sub_host in ("h2", "h3"):
            bus.subscribe(sub_host, topic, lambda fields, payload: None,
                          contract=AT_MOST_ONCE,
                          service_us=scale["service_us"])
        tenants = [
            TenantSpec(name="txn", client="h0",
                       rate_per_sec=scale["txn_rate"],
                       popularity="zipf", skew=1.0, keyspace=10_000,
                       mix=(("load", 0.7), ("store", 0.3))),
        ]
        if with_telemetry:
            tenants.append(TenantSpec(
                name="telemetry", client="h1",
                rate_per_sec=scale["telemetry_rate"],
                popularity="zipf", skew=0.8, keyspace=4_096,
                mix=(("publish", 1.0),),
                max_outstanding=1024))
        report = LoadGenerator(runtime, tenants,
                               duration_us=scale["duration_us"],
                               bus=bus, topics={"telemetry": topic}).run()
        return sim, bus, report

    _, _, unloaded = phase(with_telemetry=False)
    sim, bus, loaded = phase(with_telemetry=True)

    p999_unloaded = unloaded.tenants["txn"].percentile(99.9)
    p999_loaded = loaded.tenants["txn"].percentile(99.9)
    shed = bus.tracer.counters.get("bus.shed")
    published = bus.tracer.counters.get("bus.published")
    delivered = bus.tracer.counters.get("bus.delivered")
    # The scenario's whole point, asserted in-run: overload is shed at
    # the publisher, not exported to the transactional tenant's tail.
    assert shed > 0, "telemetry overload never shed — no backpressure"
    assert delivered > 0, "consumers made no progress"
    assert p999_loaded <= 3 * p999_unloaded, (
        f"transactional p999 blew out under telemetry load: "
        f"{p999_unloaded:.0f}us -> {p999_loaded:.0f}us")
    counters = {
        "txn.unloaded.p999_us": int(round(p999_unloaded)),
        "txn.loaded.p999_us": int(round(p999_loaded)),
        "txn.completed": loaded.tenants["txn"].completed,
        "telemetry.offered": loaded.tenants["telemetry"].offered,
        "bus.published": published,
        "bus.delivered": delivered,
        "bus.shed": shed,
        "bus.credit_stall": bus.tracer.counters.get("bus.credit_stall"),
        "bus.acked": bus.tracer.counters.get("bus.acked"),
    }
    ops = loaded.tenants["txn"].completed + published
    return ScenarioResult(ops=ops, sim_time_us=sim.now, counters=counters)


# ---------------------------------------------------------------------------
# coherence under multi-tenant pressure: eviction lifecycle + egress fairness
# ---------------------------------------------------------------------------


@register(
    "coherence.storm_fairness",
    "WRR egress keeps a victim tenant's p999 bounded under a coherence scan storm",
    quick={"duration_us": 100_000.0, "txn_rate": 2_000.0, "scanners": 6,
           "storm_objects": 48, "object_bytes": 2_048, "capacity_bytes": 16_384,
           "read_bytes": 1_024, "write_every_us": 1_500.0},
    full={"duration_us": 400_000.0, "txn_rate": 2_000.0, "scanners": 8,
          "storm_objects": 96, "object_bytes": 2_048, "capacity_bytes": 16_384,
          "read_bytes": 1_024, "write_every_us": 1_500.0},
)
def coherence_storm_fairness(seed: int, scale: dict) -> ScenarioResult:
    """The tentpole fairness claim, asserted in-run.

    A transactional tenant (h0 -> runtime node h1) shares the fabric
    with a coherence storm: capacity-bounded silent-drop scanners on h2
    re-missing a working set homed on h1, while a home-side writer keeps
    probing the (often stale) sharers.  Every storm grant serializes on
    the same h1 uplink as the victim's replies.

    Phase A measures the victim alone.  Phase B adds the storm over
    FIFO egress — head-of-line grants must blow the victim's p999 past
    3x its unloaded baseline.  Phase C re-runs the same seed with
    deficit-WRR weights favouring transport; the bound must hold.
    """
    from repro.core import IDAllocator
    from repro.loadgen import LoadGenerator, TenantSpec
    from repro.memproto import EVICT_SILENT_DROP, CoherenceAgent
    from repro.net.topology import build_star
    from repro.runtime.engine import GlobalSpaceRuntime
    from repro.sim import Simulator, Tracer

    duration = scale["duration_us"]
    object_bytes = scale["object_bytes"]

    def phase(with_storm: bool, weights):
        sim = Simulator(seed=seed)
        net = build_star(sim, 3, default_bandwidth_gbps=0.05,
                         default_latency_us=2.0, tracing=True)
        runtime = GlobalSpaceRuntime(net)
        runtime.add_node("h0")
        runtime.add_node("h1")
        if weights is not None:
            for link in net.links:
                link.set_egress_weights(weights)
        home_tracer = Tracer()
        scan_tracer = Tracer()
        if with_storm:
            home_map = {}
            home = CoherenceAgent(net.host("h1"), home_map,
                                  tracer=home_tracer)
            scanner = CoherenceAgent(
                net.host("h2"), home_map, tracer=scan_tracer,
                capacity_bytes=scale["capacity_bytes"],
                shared_evict_policy=EVICT_SILENT_DROP)
            alloc = IDAllocator(seed=seed + 23)
            oids = []
            for i in range(scale["storm_objects"]):
                oid = alloc.allocate()
                home.host_object(oid, bytes([i % 256]) * object_bytes)
                oids.append(oid)

            def scan(slice_oids):
                # Capacity misses forever: the working set never fits,
                # so every pass re-acquires (and re-ships) every object.
                while sim.now < duration:
                    for oid in slice_oids:
                        if sim.now >= duration:
                            return
                        yield from scanner.read(oid, 0, object_bytes)

            n_scan = scale["scanners"]
            for k in range(n_scan):
                sim.spawn(scan(oids[k::n_scan]), name=f"storm-scan-{k}")

            def churn():
                # Home-side writes force probe rounds at the scanners —
                # most hit silently-dropped lines and come back stale.
                i = 0
                while sim.now < duration:
                    yield sim.timeout(scale["write_every_us"])
                    yield from home.write(oids[i % len(oids)], 0, b"\x7f")
                    i += 1

            sim.spawn(churn(), name="storm-churn")
        victim = TenantSpec(
            name="txn", client="h0", rate_per_sec=scale["txn_rate"],
            popularity="zipf", skew=1.0, keyspace=10_000,
            mix=(("load", 0.7), ("store", 0.3)),
            read_bytes=scale["read_bytes"], write_bytes=256,
            tclass="txn")
        report = LoadGenerator(runtime, [victim], duration_us=duration).run()
        return sim, net, report, home_tracer, scan_tracer

    wrr_weights = {"txn": 8, "transport": 8, "coherence": 1}
    _, _, unloaded, _, _ = phase(with_storm=False, weights=None)
    _, _, fifo, _, _ = phase(with_storm=True, weights=None)
    sim, net, wrr, home_tracer, scan_tracer = phase(
        with_storm=True, weights=wrr_weights)

    p999_base = unloaded.tenants["txn"].percentile(99.9)
    p999_fifo = fifo.tenants["txn"].percentile(99.9)
    p999_wrr = wrr.tenants["txn"].percentile(99.9)
    # The scenario's whole point, asserted in-run: FIFO exports the
    # storm into the victim's tail, deficit-WRR confines it.
    assert p999_fifo > 3 * p999_base, (
        f"no interference signature under FIFO: "
        f"{p999_base:.0f}us -> {p999_fifo:.0f}us")
    assert p999_wrr <= 3 * p999_base, (
        f"victim p999 blew out despite WRR: "
        f"{p999_base:.0f}us -> {p999_wrr:.0f}us")
    snap = net.metrics.snapshot()["counters"]
    counters = {
        "txn.unloaded.p999_us": int(round(p999_base)),
        "txn.fifo.p999_us": int(round(p999_fifo)),
        "txn.wrr.p999_us": int(round(p999_wrr)),
        "txn.completed": wrr.tenants["txn"].completed,
        "storm.read_miss": scan_tracer.counters.get("coherence.read_miss"),
        "storm.evict.shared": scan_tracer.counters.get("coherence.evict.shared"),
        "storm.probe_stale": home_tracer.counters.get("coherence.probe_stale"),
        "wrr.tx.coherence": snap.get("net.links:switch.wrr.tx.coherence", 0),
        "wrr.tx.transport": snap.get("net.links:switch.wrr.tx.transport", 0),
        "wrr.tx.txn": snap.get("net.links:switch.wrr.tx.txn", 0),
    }
    ops = (unloaded.tenants["txn"].completed + fifo.tenants["txn"].completed
           + wrr.tenants["txn"].completed)
    return ScenarioResult(ops=ops, sim_time_us=sim.now, counters=counters)


@register(
    "coherence.capacity_sweep",
    "hit-rate vs eviction-writeback crossover as cache capacity grows",
    quick={"objects": 48, "object_bytes": 1_024, "rounds": 6,
           "write_every": 4, "capacities": (12_288, 24_576, 49_152)},
    full={"objects": 256, "object_bytes": 1_024, "rounds": 8,
          "write_every": 4, "capacities": (65_536, 131_072, 262_144)},
)
def coherence_capacity_sweep(seed: int, scale: dict) -> ScenarioResult:
    """Sweep ``capacity_bytes`` across a fixed working set: as capacity
    grows, cache hits rise and eviction writebacks fall to zero once the
    set fits — the crossover the capacity knob exists to expose.

    The access pattern interleaves a sequential scan (LRU's worst case)
    with reuse of a small hot subset, so intermediate capacities land
    between the extremes instead of cliff-dropping to zero hits."""
    from repro.core import IDAllocator
    from repro.memproto import CoherenceAgent
    from repro.net import build_star
    from repro.sim import Simulator

    objects = scale["objects"]
    size = scale["object_bytes"]
    rounds = scale["rounds"]
    write_every = scale["write_every"]
    counters = {}
    hits_by_cap = []
    writebacks_by_cap = []
    total_ops = 0
    total_time = 0.0
    for capacity in scale["capacities"]:
        sim = Simulator(seed=seed)
        net = build_star(sim, 2, tracing=True)
        home_map = {}
        home = CoherenceAgent(net.host("h0"), home_map)
        worker = CoherenceAgent(net.host("h1"), home_map,
                                capacity_bytes=capacity)
        alloc = IDAllocator(seed=seed)
        oids = []
        for i in range(objects):
            oid = alloc.allocate()
            home.host_object(oid, bytes([i % 256]) * size)
            oids.append(oid)

        hot = max(1, objects // 8)

        def proc():
            for r in range(rounds):
                for i, oid in enumerate(oids):
                    if (i + r) % write_every == 0:
                        yield from worker.write(oid, 0, b"\x42")
                    else:
                        yield from worker.read(oid, 0, size)
                    # Hot-subset reuse: stays resident once capacity
                    # covers the reuse distance, giving mid capacities
                    # a partial hit rate.
                    yield from worker.read(oids[i % hot], 0, size)
            return None

        sim.run_process(proc(), name=f"sweep-{capacity}")
        wc = worker.tracer.counters
        hits = wc.get("coherence.cache_hit")
        writebacks = wc.get("coherence.evict.writeback")
        prefix = f"cap{capacity}."
        counters[prefix + "cache_hit"] = hits
        counters[prefix + "miss"] = (wc.get("coherence.read_miss")
                                     + wc.get("coherence.write_miss"))
        counters[prefix + "evict.shared"] = wc.get("coherence.evict.shared")
        counters[prefix + "evict.modified"] = wc.get("coherence.evict.modified")
        counters[prefix + "evict.writeback"] = writebacks
        hits_by_cap.append(hits)
        writebacks_by_cap.append(writebacks)
        total_ops += rounds * objects * 2
        total_time += sim.now
    assert all(a <= b for a, b in zip(hits_by_cap, hits_by_cap[1:])), (
        f"cache hits not monotone in capacity: {hits_by_cap}")
    assert all(a >= b for a, b in zip(writebacks_by_cap,
                                      writebacks_by_cap[1:])), (
        f"writebacks not monotone in capacity: {writebacks_by_cap}")
    assert writebacks_by_cap[0] > 0, "smallest capacity produced no writebacks"
    assert writebacks_by_cap[-1] == 0, (
        "largest capacity (== working set) still evicted")
    return ScenarioResult(ops=total_ops, sim_time_us=total_time,
                          counters=counters)


# ---------------------------------------------------------------------------
# memproto: the shared-memory pool tier vs the batched packet transport
# ---------------------------------------------------------------------------


@register(
    "pool.crossover",
    "pool load vs batched transport fetch across object sizes (E23)",
    quick={"sizes": (256, 1_024, 4_096, 16_384, 65_536)},
    full={"sizes": (128, 256, 512, 1_024, 2_048, 4_096, 8_192,
                    16_384, 32_768, 65_536, 131_072)},
)
def pool_crossover(seed: int, scale: dict) -> ScenarioResult:
    """Object-size sweep of the two ways to reach a remote object: a
    zero-copy load through the rack pool (one far-memory latency, port
    rate streaming) against a request/response fetch over the batched
    reliable transport (fixed per-packet round trip, NIC-rate bulk).
    The pool must win below the crossover and lose above it — the sign
    of (pool - transport) flips exactly once as size grows — and the
    pool's byte accounting must balance exactly."""
    from repro.core import IDAllocator
    from repro.memproto import (CoherenceAgent, LightweightTransport,
                                SharedMemoryPool)
    from repro.net import build_star
    from repro.sim import Simulator

    sizes = scale["sizes"]
    counters = {}
    diffs = []
    total_time = 0.0
    crossover = None
    for size in sizes:
        sim = Simulator(seed=seed)
        net = build_star(sim, 2)
        # Arm A: fetch over the batched transport — a small request to
        # the holder, the object image back as one bulk payload.
        server = LightweightTransport(net.host("h0"))
        client = LightweightTransport(net.host("h1"))
        done = {}
        server.on_deliver(
            lambda src, payload, nbytes, _s=size: server.send(
                src, {"rsp": payload["i"]}, payload_bytes=_s))
        client.on_deliver(
            lambda src, payload, nbytes: done.__setitem__("at", sim.now))
        start = sim.now
        client.send("h0", {"i": 0}, payload_bytes=64)
        sim.run()
        transport_us = done["at"] - start
        # Arm B: the same object, pool-mapped by its home and read by a
        # rack-mate through the coherence agent's pool fast path.
        home_map = {}
        home = CoherenceAgent(net.host("h0"), home_map)
        reader = CoherenceAgent(net.host("h1"), home_map)
        pool = SharedMemoryPool(sim, "rack0", ("h0", "h1"),
                                capacity_bytes=max(sizes) * 2)
        home.attach_pool(pool)
        reader.attach_pool(pool)
        alloc = IDAllocator(seed=seed)
        oid = alloc.allocate()
        home.host_object(oid, b"\x5a" * size)
        home.map_to_pool(oid)
        start = sim.now

        def proc():
            chunk = yield from reader.read(oid, 0, size)
            assert len(chunk) == size
            return None

        sim.run_process(proc(), name=f"pool-read-{size}")
        pool_us = sim.now - start
        assert reader.tracer.counters.get("coherence.pool_hit") == 1, (
            "pool-mapped read did not take the pool fast path")
        # Accounting balance: every reserved byte is visible in the
        # counters, and unmapping returns the pool to empty.
        pc = pool.tracer.counters
        assert pool.reserved_bytes == (pc.get("pool.map_bytes")
                                       - pc.get("pool.release_bytes")), (
            "pool reservation does not match map/release counters")
        assert pool.unmap(oid)
        assert pool.reserved_bytes == 0 and pool.mapped_count() == 0
        pc = pool.tracer.counters
        assert pc.get("pool.map_bytes") == pc.get("pool.release_bytes"), (
            "pool byte accounting does not balance after unmap")
        diff = pool_us - transport_us
        diffs.append(diff)
        if crossover is None and diff >= 0:
            crossover = size
        counters[f"s{size}.pool_us"] = round(pool_us)
        counters[f"s{size}.net_us"] = round(transport_us)
        total_time += sim.now
    # The economics the tier exists for: the pool wins on small objects
    # (no per-hop request leg, no marshalling) and loses on bulk (its
    # port streams below NIC rate), flipping exactly once.
    assert diffs[0] < 0, (
        f"pool slower than transport even at {sizes[0]}B: {diffs[0]:+.2f}us")
    assert diffs[-1] > 0, (
        f"pool still faster at {sizes[-1]}B — no crossover in sweep")
    assert all(a < b for a, b in zip(diffs, diffs[1:])), (
        f"pool-vs-transport gap not monotone in size: {diffs}")
    counters["crossover_bytes"] = crossover
    return ScenarioResult(ops=len(sizes) * 2, sim_time_us=total_time,
                          counters=counters)


@register(
    "pool.capacity_pressure",
    "overcommitted pool: LRU eviction and graceful fallback to packets",
    quick={"objects": 32, "object_bytes": 1_024, "rounds": 3,
           "capacities": (8_192, 16_384, 32_768)},
    full={"objects": 128, "object_bytes": 1_024, "rounds": 4,
          "capacities": (16_384, 32_768, 65_536, 131_072)},
)
def pool_capacity_pressure(seed: int, scale: dict) -> ScenarioResult:
    """Sweep pool capacity across a fixed working set the home tries to
    map in full.  Under overcommit the pool LRU-evicts earlier mappings;
    readers of evicted objects degrade to the packet path instead of
    failing.  As capacity grows, evictions fall monotonically to zero
    and pool hits rise until the whole set is served by loads."""
    from repro.core import IDAllocator
    from repro.memproto import CoherenceAgent, SharedMemoryPool
    from repro.net import build_star
    from repro.sim import Simulator

    objects = scale["objects"]
    size = scale["object_bytes"]
    rounds = scale["rounds"]
    counters = {}
    evictions_by_cap = []
    pool_hits_by_cap = []
    fallbacks_by_cap = []
    total_time = 0.0
    for capacity in scale["capacities"]:
        sim = Simulator(seed=seed)
        net = build_star(sim, 2)
        home_map = {}
        home = CoherenceAgent(net.host("h0"), home_map)
        reader = CoherenceAgent(net.host("h1"), home_map)
        pool = SharedMemoryPool(sim, "rack0", ("h0", "h1"),
                                capacity_bytes=capacity)
        home.attach_pool(pool)
        reader.attach_pool(pool)
        alloc = IDAllocator(seed=seed)
        oids = []
        for i in range(objects):
            oid = alloc.allocate()
            home.host_object(oid, bytes([i % 256]) * size)
            oids.append(oid)
            # Overcommitted mapping: later maps evict the LRU mappings.
            home.map_to_pool(oid)

        def proc():
            for _ in range(rounds):
                for oid in oids:
                    chunk = yield from reader.read(oid, 0, size)
                    assert len(chunk) == size
            return None

        sim.run_process(proc(), name=f"pressure-{capacity}")
        pc = pool.tracer.counters
        rc = reader.tracer.counters
        evictions = pc.get("pool.evict")
        pool_hits = rc.get("coherence.pool_hit")
        fallbacks = rc.get("coherence.read_miss")
        prefix = f"cap{capacity}."
        counters[prefix + "evict"] = evictions
        counters[prefix + "pool_hit"] = pool_hits
        counters[prefix + "read_miss"] = fallbacks
        counters[prefix + "mapped_after"] = pool.mapped_count()
        evictions_by_cap.append(evictions)
        pool_hits_by_cap.append(pool_hits)
        fallbacks_by_cap.append(fallbacks)
        total_time += sim.now
    assert all(a >= b for a, b in zip(evictions_by_cap,
                                      evictions_by_cap[1:])), (
        f"evictions not monotone non-increasing: {evictions_by_cap}")
    assert all(a <= b for a, b in zip(pool_hits_by_cap,
                                      pool_hits_by_cap[1:])), (
        f"pool hits not monotone non-decreasing: {pool_hits_by_cap}")
    assert all(a >= b for a, b in zip(fallbacks_by_cap,
                                      fallbacks_by_cap[1:])), (
        f"packet fallbacks not monotone non-increasing: {fallbacks_by_cap}")
    assert evictions_by_cap[0] > 0, "smallest capacity evicted nothing"
    assert evictions_by_cap[-1] == 0, (
        "largest capacity (== working set) still evicted")
    assert fallbacks_by_cap[-1] == 0, (
        "full-capacity pool still fell back to the packet path")
    return ScenarioResult(ops=objects * rounds * len(scale["capacities"]),
                          sim_time_us=total_time, counters=counters)
