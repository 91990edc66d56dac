"""The five benchmark workloads.

Each builder is a pure function of ``(seed, scale)``: it makes its
inputs from the seed, builds a fresh cluster, pre-hosts objects and
returns a :class:`Runner`.  ``Runner.run()`` is the timed region (the
runner's own :class:`SliceClock` reads the host clocks);
``Runner.finish()`` checks the outputs and returns an :class:`Outcome`.
Sizes at ``scale == 1.0`` are the frozen constants in :data:`SIZES`;
nothing adapts to how fast the machine is.

The seed also draws every workload's payload size within a few bytes of
its nominal value.  Below the knee the median operation meets no
queueing, so at a fixed size its simulated latency is a constant of the
link model that no seed could move; a metric that never varies cannot
show that the benchmark measured anything.  The jitter is a fraction of
a percent of the median and identical for one seed on every commit.

Why each workload exists is recorded in BENCHMARK.json (one line) and
README.md (at length).
"""

from __future__ import annotations

import math
import random
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.core import IDAllocator
from repro.loadgen import LatencyHistogram, LoadGenerator, TenantSpec
from repro.memproto import CoherenceAgent, LightweightTransport
from repro.net import Packet, build_star
from repro.runtime.engine import GlobalSpaceRuntime
from repro.sim import Simulator, Timeout

# Frozen sizes of one full-scale repeat (about 3 s of host time each on
# the 2-core reference box).  Rescaling any of them redefines the benchmark.
SIZES = {
    "tenant_mix": {"duration_us": 5_000_000.0},
    "invoke_store_mix": {"duration_us": 4_000_000.0},
    "fabric_floor": {"packets": 200_000},
    "coherence_share": {"ops": 50_000},
    "transport_lossy": {"echoes": 60_000},
}

# Finer than the generator's default 32 sub-buckets (3.1% per bucket):
# a reported percentile is a bucket's upper edge, and at 1/1024 the edge
# is within 0.1% of the sample.
_HIST_SUBBUCKETS = 1024


# Host-clock marks per full-size repeat: about 20 ms apart, well under
# the bursts of interference they are there to step around.
_SLICES = 160


@dataclass
class Outcome:
    """What one repeat produced, in simulated time and exact counts.

    ``latencies`` is every operation's simulated latency: an array of
    microseconds, or the generator's ``LatencyHistogram`` for the
    workloads it drives.  :func:`percentiles` pools either kind.
    """

    attempted: int
    completed: int
    sim_now: float
    latencies: object
    failures: List[str] = field(default_factory=list)


class SliceClock:
    """Reads the host clocks at fixed simulated instants.

    Repeats of one seed do identical work between two marks, so the
    harness can compare the same slice of work across repeats.  The
    ticker is one extra simulated process and 160 timeouts per repeat;
    it draws nothing from the simulator's RNG.
    """

    def __init__(self, sim: Simulator, slice_us: float,
                 active: Callable[[], bool]):
        self.sim = sim
        self.slice_us = slice_us
        self.active = active
        self.marks: List[Tuple[float, float]] = []

    def mark(self) -> None:
        self.marks.append((time.perf_counter(), time.process_time()))

    def start(self) -> None:
        """First mark of the timed region; the ticker adds the rest."""
        self.mark()
        self.sim.spawn(self._ticker(), name="slice-clock")

    def _ticker(self):
        while self.active():
            yield Timeout(self.slice_us)
            self.mark()


@dataclass
class Runner:
    """One built repeat: ``run`` is timed, ``finish`` checks outputs.

    ``drive`` starts the workload and runs the simulator dry.
    ``tracers`` are the collectors that no registry names (coherence
    agents, transports); the per-layer account reads them beside
    ``net.metrics``.
    """

    sim: Simulator
    net: object
    clock: SliceClock
    drive: Callable[[], None]
    finish: Callable[[], Outcome]
    tracers: Dict[str, object] = field(default_factory=dict)

    def run(self) -> None:
        """The timed region: the clock's first and last marks bound it."""
        self.clock.start()
        self.drive()
        self.clock.mark()


def percentiles(outcomes: List[Outcome], pcts: Tuple[float, ...]):
    """Nearest-rank percentiles of the pooled latencies, and their count."""
    first = outcomes[0].latencies
    if isinstance(first, array):
        ordered = sorted(x for outcome in outcomes for x in outcome.latencies)
        return ([ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]
                 for p in pcts], len(ordered))
    pooled = LatencyHistogram(first.min_us, first.max_us, first.subbuckets)
    for outcome in outcomes:
        pooled.merge(outcome.latencies)
    return [pooled.percentile(p) for p in pcts], pooled.count


def _jitter(rng: random.Random, nominal: int, spread: int = 4) -> int:
    """``nominal`` +- ``spread`` bytes, drawn from the workload seed."""
    return nominal + rng.randrange(-spread, spread + 1)


# ---------------------------------------------------------------------------
# runtime workloads: the open-loop multi-tenant generator over the full stack
# ---------------------------------------------------------------------------


def _loadgen_runner(name: str, seed: int, scale: float,
                    tenants: List[TenantSpec]) -> Runner:
    duration_us = SIZES[name]["duration_us"] * scale
    sim = Simulator(seed=seed)
    net = build_star(sim, 6, default_bandwidth_gbps=0.05,
                     default_latency_us=2.0)
    runtime = GlobalSpaceRuntime(net)
    for i in range(6):
        runtime.add_node(f"h{i}")
    generator = LoadGenerator(runtime, tenants, duration_us=duration_us,
                              subbuckets=_HIST_SUBBUCKETS)

    def finish() -> Outcome:
        report = generator.report()
        failures = []
        attempted = completed = 0
        for tenant in report.tenants.values():
            attempted += tenant.offered
            completed += tenant.completed
            if tenant.offered != tenant.completed + tenant.dropped + tenant.failed:
                failures.append(f"tenant {tenant.name}: offered {tenant.offered} "
                                f"!= completed {tenant.completed} + dropped "
                                f"{tenant.dropped} + failed {tenant.failed}")
            if tenant.failed:
                failures.append(f"tenant {tenant.name}: {tenant.failed} ops failed")
            if tenant.overall.count != tenant.completed:
                failures.append(f"tenant {tenant.name}: {tenant.overall.count} "
                                f"latency samples for {tenant.completed} "
                                "completions")
        return Outcome(attempted=attempted, completed=completed,
                       sim_now=sim.now, latencies=report.merged_histogram(),
                       failures=failures)

    clock = SliceClock(sim, SIZES[name]["duration_us"] / _SLICES,
                       lambda: sim.now < duration_us)
    return Runner(sim=sim, net=net, clock=clock, drive=generator.run,
                  finish=finish)


def build_tenant_mix(seed: int, scale: float) -> Runner:
    rng = random.Random(seed)
    tenants = [
        TenantSpec(name="hot", client="h0", rate_per_sec=4_000.0,
                   popularity="zipf", skew=1.2, keyspace=100_000,
                   mix=(("load", 0.9), ("store", 0.1)),
                   read_bytes=_jitter(rng, 64), write_bytes=_jitter(rng, 64)),
        TenantSpec(name="mixed", client="h1", rate_per_sec=1_200.0,
                   popularity="zipf", skew=0.9, keyspace=10_000,
                   mix=(("load", 0.4), ("store", 0.2), ("invoke", 0.3),
                        ("proxied_invoke", 0.1)), flops=1e5,
                   read_bytes=_jitter(rng, 64), write_bytes=_jitter(rng, 64)),
        TenantSpec(name="tail", client="h2", rate_per_sec=800.0,
                   arrival="deterministic", popularity="pareto", skew=1.1,
                   keyspace=1_000_000, mix=(("load", 1.0),),
                   read_bytes=_jitter(rng, 64)),
    ]
    return _loadgen_runner("tenant_mix", seed, scale, tenants)


def build_invoke_store_mix(seed: int, scale: float) -> Runner:
    rng = random.Random(seed)
    tenants = [
        TenantSpec(name="writer", client="h0", rate_per_sec=1_800.0,
                   popularity="zipf", skew=0.9, keyspace=10_000,
                   mix=(("store", 0.7), ("load", 0.3)),
                   read_bytes=_jitter(rng, 64), write_bytes=_jitter(rng, 252)),
        TenantSpec(name="compute", client="h1", rate_per_sec=1_200.0,
                   popularity="zipf", skew=0.9, keyspace=10_000,
                   mix=(("invoke", 0.6), ("proxied_invoke", 0.4)), flops=1e5,
                   read_bytes=_jitter(rng, 64)),
    ]
    return _loadgen_runner("invoke_store_mix", seed, scale, tenants)


# ---------------------------------------------------------------------------
# fabric_floor: bare forwarding at the smallest packet
# ---------------------------------------------------------------------------

_FABRIC_HOSTS = 8
_ROUND_GAP_US = 2.0


def build_fabric_floor(seed: int, scale: float, tracing: bool = True) -> Runner:
    rng = random.Random(seed)
    payload_bytes = _jitter(rng, 64)
    rounds_full = SIZES["fabric_floor"]["packets"] // _FABRIC_HOSTS
    rounds = max(8, int(rounds_full * scale))
    # One shift per round, drawn here so the program sees a fixed
    # schedule: round r sends host i to host (i + shift) mod 8, except
    # every eighth round, where hosts 1..7 all send to h0 (the incast
    # that separates p99.9 from the median).
    shifts = [rng.randrange(1, _FABRIC_HOSTS) for _ in range(rounds)]

    sim = Simulator(seed=seed)
    net = build_star(sim, _FABRIC_HOSTS, tracing=tracing)
    names = [f"h{i}" for i in range(_FABRIC_HOSTS)]
    hosts = [net.host(name) for name in names]
    latencies = array("d")
    record = latencies.append

    def on_bench(packet: Packet) -> None:
        record(sim.now - packet.created_at)

    for host in hosts:
        host.on("bench", on_bench)

    # Untimed: one broadcast per host teaches the switch every port, so
    # the timed packets are all known unicast and none is flooded.
    def warmup():
        for host in hosts:
            host.broadcast("bench.warm", payload_bytes=16)
            yield Timeout(50.0)

    for host in hosts:
        host.on("bench.warm", lambda packet: None)
    sim.run_process(warmup(), name="fabric-warmup")
    sent = [0]

    def driver():
        count = 0
        for r, shift in enumerate(shifts):
            if r % 8 == 7:
                for i in range(1, _FABRIC_HOSTS):
                    hosts[i].send(Packet(kind="bench", src=names[i], dst="h0",
                                         payload_bytes=payload_bytes))
                count += _FABRIC_HOSTS - 1
            else:
                for i in range(_FABRIC_HOSTS):
                    hosts[i].send(Packet(
                        kind="bench", src=names[i],
                        dst=names[(i + shift) % _FABRIC_HOSTS],
                        payload_bytes=payload_bytes))
                count += _FABRIC_HOSTS
            yield Timeout(_ROUND_GAP_US)
        sent[0] = count

    clock = SliceClock(sim, rounds_full * _ROUND_GAP_US / _SLICES,
                       lambda: not sent[0])

    def drive() -> None:
        sim.spawn(driver(), name="fabric-driver")
        sim.run()

    def finish() -> Outcome:
        failures = []
        if len(latencies) != sent[0]:
            failures.append(f"delivered {len(latencies)} of {sent[0]} packets")
        if tracing:
            flooded = net.switch("s0").tracer.counters.get("switch.flooded")
            expected = _FABRIC_HOSTS * (_FABRIC_HOSTS - 1)
            if flooded != expected:
                failures.append(f"switch flooded {flooded} copies; the warm-up "
                                f"alone accounts for {expected}")
        return Outcome(attempted=sent[0], completed=len(latencies),
                       sim_now=sim.now, latencies=latencies, failures=failures)

    return Runner(sim=sim, net=net, clock=clock, drive=drive, finish=finish)


# ---------------------------------------------------------------------------
# coherence_share: MSI agents with caches a quarter of the shared set
# ---------------------------------------------------------------------------

_COH_OBJECTS = 512
_COH_WORKERS = 3
_COH_RESIDENT = 128          # objects a worker's cache holds: a quarter
_COH_THINK_US = 5.0
_COH_SIM_US = 460_000.0      # simulated length of a full-size repeat, about
_STAMP_BYTES = 8


def build_coherence_share(seed: int, scale: float) -> Runner:
    rng = random.Random(seed)
    object_bytes = _jitter(rng, 1024, spread=16)
    per_worker = max(8, int(SIZES["coherence_share"]["ops"] * scale)
                     // _COH_WORKERS)
    # Zipf(0.9) over the object ranks, 70% reads: the whole op sequence
    # of every worker is an input, drawn before the cluster exists.
    cum, acc = [], 0.0
    for r in range(_COH_OBJECTS):
        acc += 1.0 / (r + 1) ** 0.9
        cum.append(acc)
    plans = []
    for _ in range(_COH_WORKERS):
        ranks = rng.choices(range(_COH_OBJECTS), cum_weights=cum, k=per_worker)
        writes = [rng.random() < 0.3 for _ in range(per_worker)]
        plans.append(list(zip(ranks, writes)))

    sim = Simulator(seed=seed)
    net = build_star(sim, 1 + _COH_WORKERS)
    home_map: Dict = {}
    home = CoherenceAgent(net.host("h0"), home_map)
    workers = [CoherenceAgent(net.host(f"h{i + 1}"), home_map,
                              capacity_bytes=_COH_RESIDENT * object_bytes)
               for i in range(_COH_WORKERS)]
    alloc = IDAllocator(seed=seed)
    oids = []
    for i in range(_COH_OBJECTS):
        oid = alloc.allocate()
        home.host_object(oid, bytes([i % 256]) * object_bytes)
        oids.append(oid)

    latencies = array("d")
    last_stamp: Dict[int, bytes] = {}
    done = [0]

    def worker_loop(index: int, agent: CoherenceAgent):
        record = latencies.append
        for n, (rank, is_write) in enumerate(plans[index]):
            start = sim.now
            if is_write:
                stamp = (index * per_worker + n + 1).to_bytes(_STAMP_BYTES, "big")
                yield from agent.write(oids[rank], 0, stamp)
                last_stamp[rank] = stamp
            else:
                yield from agent.read(oids[rank], 0, object_bytes)
            record(sim.now - start)
            done[0] += 1
            yield Timeout(_COH_THINK_US)

    attempted = per_worker * _COH_WORKERS
    clock = SliceClock(sim, _COH_SIM_US / _SLICES, lambda: done[0] < attempted)

    def drive() -> None:
        for index, agent in enumerate(workers):
            sim.spawn(worker_loop(index, agent), name=f"coh-worker-{index}")
        sim.run()

    def finish() -> Outcome:
        sim_now = sim.now
        failures = []
        hits = misses = 0
        for agent in workers:
            counts = agent.tracer.counters
            hits += counts.get("coherence.cache_hit")
            misses += (counts.get("coherence.read_miss")
                       + counts.get("coherence.write_miss")
                       + counts.get("coherence.upgrade"))
        if hits + misses != done[0]:
            failures.append(f"hits {hits} + misses {misses} != ops {done[0]}")
        for rank, oid in enumerate(oids):
            owners = [a.host.name for a in workers if a.cached_perm(oid) == "M"]
            if len(owners) > 1:
                failures.append(f"object {rank} Modified at {owners}")
        # Single-writer order check, after the fingerprint is taken: the
        # home recalls every Modified copy and must read back the stamp
        # of the write that completed last.
        def recall():
            for rank, oid in enumerate(oids):
                got = yield from home.read(oid, 0, _STAMP_BYTES)
                want = last_stamp.get(rank, bytes([rank % 256]) * _STAMP_BYTES)
                if got != want:
                    failures.append(f"object {rank}: home reads {got.hex()} "
                                    f"after last write {want.hex()}")
        sim.run_process(recall(), name="coh-recall")
        return Outcome(attempted=attempted, completed=done[0], sim_now=sim_now,
                       latencies=latencies, failures=failures)

    return Runner(sim=sim, net=net, clock=clock, drive=drive, finish=finish,
                  tracers={f"memproto.coherence.{agent.host.name}": agent.tracer
                           for agent in [home] + workers})


# ---------------------------------------------------------------------------
# transport_lossy: the reliable transport's recovery machinery under loss
# ---------------------------------------------------------------------------

_ECHO_WINDOW = 32
_LOSS_RATE = 0.02
_ECHO_SIM_US = 106_000.0     # simulated length of a full-size repeat, about


def build_transport_lossy(seed: int, scale: float) -> Runner:
    rng = random.Random(seed)
    payload_bytes = _jitter(rng, 512, spread=8)
    echoes = max(_ECHO_WINDOW, int(SIZES["transport_lossy"]["echoes"] * scale))

    sim = Simulator(seed=seed)
    net = build_star(sim, 2, default_loss_rate=_LOSS_RATE)
    requester = LightweightTransport(net.host("h0"))
    responder = LightweightTransport(net.host("h1"))
    sent_at: List[float] = []
    latencies = array("d")
    out_of_order: List[int] = []

    def request() -> None:
        requester.send("h1", {"i": len(sent_at)}, payload_bytes=payload_bytes)
        sent_at.append(sim.now)

    def on_request(src: str, payload: dict, nbytes: int) -> None:
        responder.send(src, {"echo": payload["i"]}, payload_bytes=nbytes)

    # Closed loop, 32 outstanding: each echo that comes back releases
    # the next request.  Sending all 60k at t=0 would measure the
    # backlog list, not the protocol.
    def on_echo(src: str, payload: dict, nbytes: int) -> None:
        seq = payload["echo"]
        if seq != len(latencies):
            out_of_order.append(seq)
        latencies.append(sim.now - sent_at[seq])
        if len(sent_at) < echoes:
            request()

    responder.on_deliver(on_request)
    requester.on_deliver(on_echo)

    clock = SliceClock(sim, _ECHO_SIM_US / _SLICES,
                       lambda: len(latencies) < echoes)

    def drive() -> None:
        for _ in range(_ECHO_WINDOW):
            request()
        sim.run()

    def finish() -> Outcome:
        failures = []
        if len(latencies) != echoes:
            failures.append(f"{len(latencies)} echoes for {echoes} requests")
        if out_of_order:
            failures.append(f"{len(out_of_order)} echoes out of order or "
                            f"repeated, first {out_of_order[0]}")
        retransmits = (requester.tracer.counters.get("transport.retransmit")
                       + responder.tracer.counters.get("transport.retransmit"))
        if retransmits == 0:
            failures.append("no retransmission at 2% loss")
        return Outcome(attempted=echoes, completed=len(latencies),
                       sim_now=sim.now, latencies=latencies, failures=failures)

    return Runner(sim=sim, net=net, clock=clock, drive=drive, finish=finish,
                  tracers={"memproto.transport.h0": requester.tracer,
                           "memproto.transport.h1": responder.tracer})


# Why each exists is one line in BENCHMARK.json and a paragraph in README.md.
WORKLOADS: Dict[str, Callable[[int, float], Runner]] = {
    "tenant_mix": build_tenant_mix,
    "invoke_store_mix": build_invoke_store_mix,
    "fabric_floor": build_fabric_floor,
    "coherence_share": build_coherence_share,
    "transport_lossy": build_transport_lossy,
}
