"""The canonical trace-key vocabulary.

Every name a :class:`~repro.sim.Tracer` counter/series/event or a
:class:`~repro.obs.span.Span` may use on the instrumented hot paths is
declared here as a :class:`KeySpec` and documented in OBSERVABILITY.md —
``scripts/check_docs.py`` holds the two in lockstep and verifies each
key is actually emitted by the source.  Two unit rules keep the numbers
composable: durations are **simulated microseconds** (``µs``) and sizes
are **bytes**; dimensionless tallies use unit ``1``.

Names ending in ``.*`` are prefix families: the emitted key appends a
runtime-determined suffix (a node name, an event category).

The ``SPAN_*`` and ``K_*`` constants exist so instrumentation sites and
tests never hand-type these strings; generic span names like
``compute`` could not otherwise be grepped for reliably.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "KeySpec", "VOCABULARY", "KINDS", "UNITS",
    "SPAN_INVOKE", "SPAN_PLACEMENT", "SPAN_REQUEST", "SPAN_STAGE_IN",
    "SPAN_FETCH", "SPAN_QUEUE", "SPAN_COMPUTE", "SPAN_RETURN",
    "K_INVOCATIONS", "K_PLACED_AT", "K_INVOKE_US",
    "K_INVOKE_RETRIES", "K_INVOKE_FAILOVER", "K_INVOKE_DEADLINE",
    "K_HEALTH_SUSPECTED", "K_HEALTH_CLEARED", "K_FAULTS_INJECTED",
]

KINDS = ("counter", "series", "event", "span")
UNITS = ("µs", "bytes", "1")


@dataclass(frozen=True)
class KeySpec:
    """One vocabulary entry: a key name, what records it, its unit."""

    name: str
    kind: str
    unit: str
    description: str

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"bad kind {self.kind!r} for {self.name!r}")
        if self.unit not in UNITS:
            raise ValueError(f"bad unit {self.unit!r} for {self.name!r}")


# -- span names (one tree per invocation; root is `invoke`) -------------------
SPAN_INVOKE = "invoke"
SPAN_PLACEMENT = "placement"
SPAN_REQUEST = "request"
SPAN_STAGE_IN = "stage_in"
SPAN_FETCH = "fetch"
SPAN_QUEUE = "queue"
SPAN_COMPUTE = "compute"
SPAN_RETURN = "return"

# -- counter/series constants used at instrumentation sites ------------------
K_INVOCATIONS = "runtime.invocations"
K_PLACED_AT = "runtime.placed_at."  # prefix family; suffix = node name
K_INVOKE_US = "runtime.invoke_us"
K_INVOKE_RETRIES = "invoke.retries"
K_INVOKE_FAILOVER = "invoke.failover"
K_INVOKE_DEADLINE = "invoke.deadline_exceeded"
K_HEALTH_SUSPECTED = "health.suspected"
K_HEALTH_CLEARED = "health.cleared"
K_FAULTS_INJECTED = "faults.injected."  # prefix family; suffix = event kind


def _k(name: str, kind: str, unit: str, description: str) -> KeySpec:
    return KeySpec(name, kind, unit, description)


VOCABULARY: Tuple[KeySpec, ...] = (
    # ---- spans (recorded by GlobalSpaceRuntime.spans) -----------------------
    _k(SPAN_INVOKE, "span", "µs",
       "Root of each invocation's span tree; duration == result.latency_us."),
    _k(SPAN_PLACEMENT, "span", "µs",
       "Placement decision (zero-width: deciding costs no simulated time)."),
    _k(SPAN_REQUEST, "span", "µs",
       "Wire leg of a remote invocation: request send to serve start."),
    _k(SPAN_STAGE_IN, "span", "µs",
       "Parallel fetch of all missing code/data objects on the executor."),
    _k(SPAN_FETCH, "span", "µs",
       "One object fetch inside stage_in (child span per object)."),
    _k(SPAN_QUEUE, "span", "µs",
       "Executor queue point (zero-width; tags carry active_jobs)."),
    _k(SPAN_COMPUTE, "span", "µs",
       "Function execution window on the chosen node."),
    _k(SPAN_RETURN, "span", "µs",
       "Result return: reply send to arrival (zero-width when local)."),
    # ---- runtime.* (tracer `runtime.engine`) --------------------------------
    _k("runtime.invocations", "counter", "1",
       "Invocations accepted by GlobalSpaceRuntime.invoke."),
    _k("runtime.placed_at.*", "counter", "1",
       "Invocations placed on each node; suffix is the node name."),
    _k("runtime.invoke_us", "series", "µs",
       "End-to-end invocation latency."),
    _k("invoke.retries", "counter", "1",
       "Extra invocation attempts after a deadline or retryable NACK."),
    _k("invoke.failover", "counter", "1",
       "Invocations completed on a re-placed node after a failed attempt."),
    _k("invoke.deadline_exceeded", "counter", "1",
       "Remote-exec attempts whose reply deadline expired."),
    # ---- placement.* (tracer `core.placement`) ------------------------------
    _k("placement.decisions", "counter", "1",
       "Successful placement decisions."),
    _k("placement.rejected", "counter", "1",
       "Candidate nodes skipped (cannot execute or infeasible)."),
    _k("placement.infeasible", "counter", "1",
       "Decisions that failed outright (no feasible candidate)."),
    _k("placement.est_total_us", "series", "µs",
       "Cost model's estimated total latency of each chosen plan."),
    _k("placement.tier.*", "counter", "1",
       "Stage-in items of each winning plan by resolved staging tier "
       "(suffix dram, pool, or network): resident inputs count as dram, "
       "pool-mapped inputs priced through CostModel.pool_transfer as "
       "pool, everything else as a network fetch."),
    # ---- node.* (tracer `runtime.node.<host>`) ------------------------------
    _k("node.exec", "counter", "1", "Function executions started."),
    _k("node.materialized", "counter", "1",
       "Results stored into the executor's object table."),
    _k("node.fetched", "counter", "1", "Objects fetched successfully."),
    _k("node.fetch_timeout", "counter", "1",
       "Fetch attempts that timed out."),
    _k("node.fetch_failover", "counter", "1",
       "Fetches retried against another holder."),
    _k("node.fetch_served", "counter", "1", "Fetch requests served."),
    _k("node.fetch_nack", "counter", "1", "Fetch requests refused."),
    _k("node.fetch_denied", "counter", "1",
       "Fetch requests refused by the ACL."),
    _k("node.read_served", "counter", "1", "Read requests served."),
    _k("node.read_denied", "counter", "1",
       "Read requests refused by the ACL."),
    _k("node.read_timeout", "counter", "1", "Remote reads that timed out."),
    _k("node.remote_read", "counter", "1", "Remote reads completed."),
    _k("node.write_served", "counter", "1", "Write requests served."),
    _k("node.write_denied", "counter", "1",
       "Write requests refused by the ACL."),
    _k("node.write_timeout", "counter", "1", "Remote writes that timed out."),
    _k("node.remote_write", "counter", "1",
       "Stores completed at the object's home from any other node."),
    _k("node.isolated_claim", "counter", "1",
       "Objects claimed for exclusive ownership by an isolated-mode "
       "invocation before its compute window."),
    # ---- health.* (tracer `runtime.health`) ---------------------------------
    _k("health.suspected", "counter", "1",
       "Nodes marked suspected-dead after an invocation deadline."),
    _k("health.cleared", "counter", "1",
       "Suspicions cleared by reply traffic from the node."),
    # ---- host.* (tracer `net.host.<name>`) ----------------------------------
    _k("host.tx", "counter", "1", "Packets sent."),
    _k("host.tx_bytes", "counter", "bytes", "Payload bytes sent."),
    _k("host.tx_broadcast", "counter", "1", "Broadcast packets sent."),
    _k("host.rx", "counter", "1", "Packets received (pre-filter)."),
    _k("host.rx_bytes", "counter", "bytes",
       "Payload bytes received (pre-filter)."),
    _k("host.dup_suppressed", "counter", "1",
       "Duplicate packets dropped by the dedup window."),
    _k("host.filtered", "counter", "1",
       "Packets dropped: not addressed to this host."),
    _k("host.promiscuous_rx", "counter", "1",
       "Foreign packets accepted in promiscuous mode."),
    _k("host.unhandled", "counter", "1",
       "Accepted packets with no registered handler."),
    _k("host.dropped_while_failed", "counter", "1",
       "Packets dropped while the host was failed."),
    _k("host.dropped_partitioned", "counter", "1",
       "Packets dropped at ingress from across a partition."),
    _k("host.failed", "counter", "1", "Failure transitions."),
    _k("host.recovered", "counter", "1", "Recovery transitions."),
    # ---- switch.* (tracer `net.switch.<name>`) ------------------------------
    _k("switch.rx", "counter", "1", "Packets received."),
    _k("switch.rx_bytes", "counter", "bytes", "Payload bytes received."),
    _k("switch.tx", "counter", "1", "Packets forwarded out a port."),
    _k("switch.tx_identity", "counter", "1",
       "Packets forwarded via an identity route."),
    _k("switch.flooded", "counter", "1", "Ports flooded to."),
    _k("switch.dup_suppressed", "counter", "1",
       "Duplicate packets dropped by the dedup window."),
    _k("switch.hairpin_drop", "counter", "1",
       "Packets not sent back out their ingress port."),
    _k("switch.unknown_unicast", "counter", "1",
       "Unicasts with no learned port (flooded instead)."),
    _k("switch.identity_miss", "counter", "1",
       "Identity-routed packets with no matching route."),
    _k("switch.identity_drop", "counter", "1",
       "Identity packets dropped (no route, no fallback)."),
    _k("switch.ttl_expired", "counter", "1", "Packets dropped at TTL 0."),
    _k("switch.route_installed", "counter", "1",
       "Identity routes installed."),
    _k("switch.route_removed", "counter", "1", "Identity routes removed."),
    _k("switch.table_full", "counter", "1",
       "Route installs rejected: table at capacity."),
    _k("switch.service", "counter", "1",
       "In-network service invocations."),
    _k("switch.service_unknown", "counter", "1",
       "Service packets with no registered handler."),
    _k("switch.wrr.*", "counter", "1",
       "Deficit-WRR egress arbiter activity on configured links: "
       "switch.wrr.enqueued per queued packet, switch.wrr.tx.<class> "
       "per transmitted packet by traffic class, switch.wrr.drained "
       "per packet carried over when the discipline is reconfigured "
       "mid-burst."),
    # ---- link.* / event.* (tracer `net.links`, shared) ----------------------
    _k("link.dropped", "counter", "1",
       "Packets lost to link loss_rate or link failure."),
    _k("event.*", "counter", "1",
       "Automatic tally per structured-event category (Tracer.event)."),
    _k("drop", "event", "1",
       "Structured record of one link-level packet drop."),
    # ---- faults.* (tracer `faults.injector`) --------------------------------
    _k("faults.injected.*", "counter", "1",
       "Fault-plan events applied, by kind (crash, recover, link_down, "
       "link_up, degrade, restore, partition, heal)."),
    _k("fault", "event", "1",
       "Structured record of one applied fault-plan event."),
    # ---- discovery: e2e.* (tracer `discovery.e2e`) --------------------------
    _k("e2e.broadcast", "counter", "1", "FIND broadcasts issued."),
    _k("e2e.stale", "counter", "1",
       "Cached locations that turned out stale."),
    _k("e2e.timeout", "counter", "1", "Accesses that timed out."),
    _k("e2e.access_ok", "counter", "1", "Accesses that succeeded."),
    _k("e2e.access_failed", "counter", "1", "Accesses that failed."),
    _k("e2e.access_us", "series", "µs", "Per-access latency."),
    # ---- discovery: identity.* (tracer `discovery.identity`) ----------------
    _k("identity.timeout", "counter", "1", "Accesses that timed out."),
    _k("identity.nack", "counter", "1", "Accesses NACKed by the home."),
    _k("identity.access_ok", "counter", "1", "Accesses that succeeded."),
    _k("identity.access_failed", "counter", "1", "Accesses that failed."),
    _k("identity.access_us", "series", "µs", "Per-access latency."),
    # ---- discovery: controller.* (tracer `discovery.controller`) ------------
    _k("controller.advertised", "counter", "1",
       "Object advertisements accepted."),
    _k("controller.install_failed", "counter", "1",
       "Route installs the switch rejected."),
    # ---- discovery: hybrid.* (tracer `discovery.hybrid`) --------------------
    _k("hybrid.unicast", "counter", "1",
       "Accesses sent straight to a cached location."),
    _k("hybrid.identity_routed", "counter", "1",
       "Accesses that fell back to identity routing."),
    _k("hybrid.timeout", "counter", "1", "Accesses that timed out."),
    _k("hybrid.stale", "counter", "1",
       "Cached locations that turned out stale."),
    _k("hybrid.access_ok", "counter", "1", "Accesses that succeeded."),
    _k("hybrid.access_failed", "counter", "1", "Accesses that failed."),
    _k("hybrid.access_us", "series", "µs", "Per-access latency."),
    # ---- discovery: home.* (tracer `discovery.home.<host>`) -----------------
    _k("home.find_answered", "counter", "1", "FIND queries answered."),
    _k("home.access_served", "counter", "1", "Accesses served locally."),
    _k("home.not_mine", "counter", "1",
       "Accesses for objects this home no longer holds."),
    _k("home.access_forwarded", "counter", "1",
       "Accesses forwarded to the object's new home."),
    _k("home.access_nacked", "counter", "1", "Accesses NACKed."),
    # ---- discovery: shard.* (tracers `discovery.shard.<host>`,
    #      `discovery.advertiser.<host>`, `discovery.lease`) ------------------
    _k("shard.advertised", "counter", "1",
       "Object advertisements accepted by this shard."),
    _k("shard.resolved", "counter", "1",
       "Resolve requests answered with a holder and lease."),
    _k("shard.resolve_unknown", "counter", "1",
       "Resolve requests for objects this shard has no entry for."),
    _k("shard.invalidations", "counter", "1",
       "Lease invalidations pushed after an owner change."),
    _k("shard.failover", "counter", "1",
       "Fallbacks to a successor shard (advertiser and resolver side)."),
    # ---- discovery: lease.* (tracer `discovery.lease`) ----------------------
    _k("lease.hit", "counter", "1",
       "Accesses served from a live cached lease (1 RTT path)."),
    _k("lease.miss", "counter", "1",
       "Accesses that resolved via the owning shard (2 RTT path)."),
    _k("lease.expired", "counter", "1", "Cached leases dropped on TTL expiry."),
    _k("lease.stale", "counter", "1",
       "Leased holders that NACKed (object moved before invalidation)."),
    _k("lease.invalidated", "counter", "1",
       "Cached leases dropped by a shard invalidation push."),
    _k("lease.timeout", "counter", "1",
       "Resolve or access exchanges that timed out."),
    _k("lease.access_ok", "counter", "1", "Accesses that succeeded."),
    _k("lease.access_failed", "counter", "1", "Accesses that failed."),
    _k("lease.access_us", "series", "µs", "Per-access latency."),
    # ---- transport.* (memproto reliable transports) -------------------------
    _k("transport.tx", "counter", "1",
       "Data frames sent: every transmission, retransmissions included."),
    _k("transport.frame.tx", "counter", "1",
       "Frames assembled from the coalescing buffer."),
    _k("transport.frame.msgs", "series", "1",
       "Messages coalesced into each frame."),
    _k("transport.frame.mtu_flush", "counter", "1",
       "Coalescing buffers flushed early because the next message "
       "would overflow the frame budget."),
    _k("transport.retransmit", "counter", "1",
       "Frames retransmitted (RTO and fast retransmit)."),
    _k("transport.fast_retransmit", "counter", "1",
       "Frames retransmitted because a frame sent later was "
       "acknowledged, ahead of the RTO."),
    _k("transport.acked", "counter", "1",
       "Frames confirmed delivered (cumulative or selective ack)."),
    _k("transport.sacked", "counter", "1",
       "Frames confirmed via the selective-ack block while a hole was open."),
    _k("transport.ack.tx", "counter", "1",
       "Standalone cumulative-ack packets sent."),
    _k("transport.ack.delayed", "counter", "1",
       "Standalone acks fired by the delayed-ack timer."),
    _k("transport.ack.piggybacked", "counter", "1",
       "Owed acks carried on reverse-direction data frames."),
    _k("transport.delivered", "counter", "1",
       "Messages delivered in order, exactly once, to the handler."),
    _k("transport.dup_ack", "counter", "1",
       "Standalone acks that acknowledged no frame still inflight, "
       "or came from a dead epoch."),
    _k("transport.dup_data", "counter", "1",
       "Duplicate data frames discarded (and re-acked)."),
    _k("transport.rx_overflow", "counter", "1",
       "Frames dropped without ack: beyond the reorder window."),
    _k("transport.peer_dead", "counter", "1",
       "Peers declared dead after the retransmit budget."),
    _k("transport.handshake", "counter", "1",
       "TCP-like connections established."),
    _k("transport.handshake_abandoned", "counter", "1",
       "Handshakes given up after SYN retries."),
    _k("transport.delivery_us", "series", "µs",
       "First-transmission to cumulative-ack latency per frame."),
    _k("transport.queue_us", "series", "µs",
       "Backlog wait from frame assembly to first transmission."),
    # ---- coherence.* (memproto MSI directory agents) ------------------------
    _k("coherence.home_hit", "counter", "1",
       "Reads served from the local authoritative copy."),
    _k("coherence.home_write", "counter", "1",
       "Writes applied directly to the local authoritative copy."),
    _k("coherence.cache_hit", "counter", "1",
       "Reads/writes served from a valid cached copy."),
    _k("coherence.pool_hit", "counter", "1",
       "Reads served by a zero-copy load from a shared-memory pool "
       "mapping instead of the packet path."),
    _k("coherence.read_miss", "counter", "1",
       "Reads that had to acquire a Shared copy."),
    _k("coherence.write_miss", "counter", "1",
       "Writes that had to acquire a Modified copy."),
    _k("coherence.upgrade", "counter", "1", "S -> M upgrade requests."),
    _k("coherence.upgrade_ack", "counter", "1",
       "Upgrades granted without re-shipping data."),
    _k("coherence.grant", "counter", "1", "Acquisitions granted by the home."),
    _k("coherence.forwarded", "counter", "1",
       "Acquisitions granted by the line's owner, straight to the "
       "requester, on the home's probe."),
    _k("coherence.probe", "counter", "1",
       "Probe/invalidate entries sent to copy holders."),
    _k("coherence.probe_deferred", "counter", "1",
       "Probes held at their target until the copy they name, still on "
       "its way, was installed."),
    _k("coherence.ack_collected", "counter", "1",
       "Invalidation acks a writer received from sharers itself "
       "(the home granted at once and moved on)."),
    _k("coherence.invalidated", "counter", "1",
       "Cached copies dropped in response to a probe."),
    _k("coherence.downgraded", "counter", "1",
       "Modified copies downgraded to Shared by a probe."),
    _k("coherence.evict.shared", "counter", "1",
       "Shared lines evicted by capacity pressure (notify or silent_drop)."),
    _k("coherence.evict.modified", "counter", "1",
       "Modified lines evicted by capacity pressure."),
    _k("coherence.evict.writeback", "counter", "1",
       "Capacity evictions that shipped dirty data back to the home."),
    _k("coherence.probe_stale", "counter", "1",
       "Probe acks answering 'not present': the home pruned a stale "
       "sharer/owner that had silently dropped its copy."),
    _k("coherence.batch.acquire_pkts", "counter", "1",
       "Acquire packets sent (each may carry many requests)."),
    _k("coherence.batch.multi_acquire", "counter", "1",
       "Acquire packets carrying more than one request."),
    _k("coherence.batch.grant_pkts", "counter", "1",
       "Grant packets sent, by the home or by a forwarding owner (each "
       "may answer many requests)."),
    _k("coherence.batch.multi_grant", "counter", "1",
       "Grant packets answering more than one request."),
    _k("coherence.batch.probe_pkts", "counter", "1",
       "Probe packets sent (each may carry many entries)."),
    _k("coherence.batch.multi_probe", "counter", "1",
       "Probe packets carrying more than one entry."),
    _k("coherence.bad_home", "counter", "1",
       "Acquire/release packets for objects this host is not home of."),
    _k("coherence.orphan_grant", "counter", "1",
       "Grant entries with no pending request (duplicate delivery)."),
    _k("coherence.orphan_probe_ack", "counter", "1",
       "Probe-ack entries with no collecting transaction."),
    # ---- pool.* (memproto SharedMemoryPool; tracer `memproto.pool.<name>`) ---
    _k("pool.map", "counter", "1",
       "Objects mapped into the pool (capacity reserved)."),
    _k("pool.map_bytes", "counter", "bytes",
       "Bytes reserved by pool mappings."),
    _k("pool.unmap", "counter", "1",
       "Mappings dropped explicitly by their home."),
    _k("pool.evict", "counter", "1",
       "LRU mappings evicted to make room under capacity pressure."),
    _k("pool.invalidate", "counter", "1",
       "Mappings dropped by an MSI coherence push (a writer was granted "
       "Modified permission)."),
    _k("pool.release_bytes", "counter", "bytes",
       "Bytes released by unmap/evict/invalidate; reserved_bytes always "
       "equals pool.map_bytes - pool.release_bytes."),
    _k("pool.load", "counter", "1", "Pool loads served."),
    _k("pool.load_bytes", "counter", "bytes", "Bytes read by pool loads."),
    _k("pool.store", "counter", "1", "Pool stores applied."),
    _k("pool.store_bytes", "counter", "bytes",
       "Bytes written by pool stores."),
    # ---- proxy.* / prefetch.* (tracer `runtime.proxy.<host>`; see PROXIES.md)
    _k("proxy.resolve.lazy", "counter", "1",
       "Proxies first resolved by a demand dereference with no prefetch cover."),
    _k("proxy.resolve.prefetch_hit", "counter", "1",
       "First dereferences that found prefetched bytes already cached."),
    _k("proxy.resolve.prefetch_miss", "counter", "1",
       "First dereferences that waited on a prefetch batch still in flight."),
    _k("prefetch.issued", "counter", "1",
       "Objects fetched ahead of the access stream by reachability walks."),
    _k("prefetch.wasted", "counter", "1",
       "Prefetched images never dereferenced, or discarded by a raced "
       "invalidation."),
    _k("prefetch.depth_truncated", "counter", "1",
       "Walks cut short by a depth or object budget with reachable work left."),
    # ---- loadgen.* (tracer `workloads.loadgen.<tenant>`; the open-loop
    # traffic generator, per tenant)
    _k("loadgen.offered", "counter", "1",
       "Operations the tenant's open-loop arrival clock generated."),
    _k("loadgen.completed", "counter", "1",
       "Offered operations that ran to completion."),
    _k("loadgen.dropped", "counter", "1",
       "Arrivals shed client-side at the tenant's outstanding cap "
       "(the open-loop safety valve past saturation)."),
    _k("loadgen.failed", "counter", "1",
       "Operations that errored (e.g. an invoke retry budget exhausted "
       "under overload)."),
    _k("loadgen.materialized", "counter", "1",
       "Keyspace ranks lazily materialized as objects on first touch."),
    _k("loadgen.p50_us.*", "series", "µs",
       "Median arrival-to-completion latency per op kind "
       "(suffix `all` spans every op)."),
    _k("loadgen.p99_us.*", "series", "µs",
       "99th-percentile arrival-to-completion latency per op kind."),
    _k("loadgen.p999_us.*", "series", "µs",
       "99.9th-percentile arrival-to-completion latency per op kind."),
    # ---- pubsub.* (the identity-routed pub/sub fabric's tracer) -------------
    _k("pubsub.subscribed", "counter", "1",
       "Subscriptions installed (identity route programmed per topic)."),
    _k("pubsub.published", "counter", "1", "Publications sent into the fabric."),
    _k("pubsub.delivered", "counter", "1",
       "Publication deliveries to matching subscription handlers."),
    _k("pubsub.residual_filtered", "counter", "1",
       "Deliveries dropped host-side by a residual predicate miss."),
    _k("pubsub.install_failed", "counter", "1",
       "Identity-route installs the switch rejected (table full)."),
    _k("pubsub.no_route", "counter", "1",
       "Publications with no subscription anywhere on the topic "
       "(published before the first subscribe or after the last one left)."),
    _k("pubsub.dead_route_pruned", "counter", "1",
       "Topic routes rewritten to exclude a suspected-dead subscriber host."),
    # ---- bus.* (the event bus's tracer; `bus.rejected` is recorded on the
    # executor node's tracer by the admission gate)
    _k("bus.published", "counter", "1", "Events accepted from publishers."),
    _k("bus.delivered", "counter", "1",
       "Events handed to a bus subscriber's handler (once per subscriber)."),
    _k("bus.redelivered", "counter", "1",
       "At-least-once retransmissions by the redelivery timer."),
    _k("bus.deduped", "counter", "1",
       "Duplicate deliveries suppressed by consumer-side sequence tracking."),
    _k("bus.acked", "counter", "1",
       "At-least-once events retired by cumulative acks from every "
       "pending subscriber."),
    _k("bus.shed", "counter", "1",
       "Events dropped: publisher buffer overflow under a drop policy, "
       "or a redelivery budget exhausted."),
    _k("bus.rejected", "counter", "1",
       "Invocation attempts refused by a node's admission budget."),
    _k("bus.credit_stall", "counter", "1",
       "Publishes that could not transmit immediately for lack of "
       "consumer credit (buffered, blocked, or shed)."),
)
