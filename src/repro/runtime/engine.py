"""The rendezvous engine: data-centric invocation over the cluster.

This is the paper's headline API.  The programmer supplies a *code
reference* and *data references* (§3: "the programmer primarily
orchestrates a rendezvous between code and data"); the runtime

1. asks the placement engine where the computation should run (§3.1:
   "the placement decision would be made by the system");
2. stages the code object — and, in eager mode, the data objects — to
   that node as byte-level copies over the simulated network;
3. executes the code there (demand-reading any unstaged data); and
4. returns the small by-value result to the invoker.

Nothing in the caller's code names a host: Figure 1(3) falls out of
``runtime.invoke(code_ref, {...refs...})``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..core.codeobj import FunctionRegistry, code_ref, write_code_object
from ..core.costmodel import DEFAULT_COST_MODEL
from ..core.objectid import ObjectID
from ..core.objects import MemObject
from ..core.placement import (
    NodeProfile,
    PlacementDecision,
    PlacementEngine,
    PlacementError,
    PlacementItem,
    PlacementRequest,
)
from ..core.refs import GlobalRef
from ..core.security import PolicyRegistry
from ..core.space import ObjectSpace
from ..core.objectid import IDAllocator
from ..faults.health import HealthLedger
from ..obs.keys import (
    K_INVOCATIONS,
    K_INVOKE_DEADLINE,
    K_INVOKE_FAILOVER,
    K_INVOKE_RETRIES,
    K_INVOKE_US,
    K_PLACED_AT,
    SPAN_INVOKE,
    SPAN_PLACEMENT,
    SPAN_REQUEST,
    SPAN_RETURN,
)
from ..obs.span import SpanRecorder
from ..sim import Resource, Simulator, Timeout, Tracer
from ..memproto.pool import SharedMemoryPool
from ..net.packet import Packet
from ..net.topology import Network
from ..rpc.serializer import decode, encode
from . import messages as m
from .node import (
    MODE_EAGER,
    MODE_ISOLATED,
    MODE_LAZY,
    MODE_PROXIED,
    ClusterNode,
    ExecRequest,
    RuntimeError_,
)

__all__ = [
    "GlobalSpaceRuntime",
    "InvokeResult",
    "InvokeTimeout",
    "RetryPolicy",
    "MODE_EAGER",
    "MODE_ISOLATED",
    "MODE_LAZY",
    "MODE_PROXIED",
]


class InvokeTimeout(RuntimeError_):
    """An invocation exhausted its retry budget (or its candidates)
    without any executor producing a result — the typed surface of the
    §5 partial-failure case.  Callers catch this instead of a hang."""


@dataclass(frozen=True)
class RetryPolicy:
    """How hard :meth:`GlobalSpaceRuntime.invoke` fights partial failure.

    Each attempt's remote leg is bounded by ``deadline_us`` of simulated
    time; a deadline expiry or a retryable NACK marks the executor
    suspected, waits out a deterministic exponential backoff (doubling
    from ``backoff_base_us``, jittered by up to 10% from the simulator's
    seeded RNG, so runs stay reproducible), and re-runs placement over
    the candidates not yet tried.  At most ``MAX_ATTEMPTS`` placements
    are made, the first included.
    """

    deadline_us: float = 100_000.0
    backoff_base_us: float = 1_000.0

    MAX_ATTEMPTS = 3

    def __post_init__(self):
        if self.deadline_us <= 0:
            raise ValueError("deadline_us must be positive")
        if self.backoff_base_us < 0:
            raise ValueError("backoff must be non-negative")

    def backoff_us(self, attempt: int, rng) -> float:
        """Delay before retry number ``attempt`` (1-based), jittered via
        the (seeded, deterministic) ``rng``."""
        base = self.backoff_base_us * 2.0 ** (attempt - 1)
        return base * (1.0 + 0.1 * (2.0 * rng.random() - 1.0))


class _AttemptFailed(Exception):
    """Internal: one invocation attempt died; carries who to avoid next.

    ``suspect=False`` for retryable NACKs — the executor answered (it is
    alive), it just could not complete; re-place elsewhere without
    poisoning its health record.
    """

    def __init__(self, executor: str, reason: str, suspect: bool = True):
        super().__init__(reason)
        self.executor = executor
        self.reason = reason
        self.suspect = suspect


class ReservationTable:
    """Canonical-order object locks for ``MODE_ISOLATED`` invocations.

    Each object gets a one-slot :class:`~repro.sim.Resource`; callers
    acquire their whole object set in sorted-oid order (so two
    invocations over overlapping sets serialize instead of deadlocking)
    and release in reverse.  This is per-object-set reservation, not a
    global lock: disjoint isolated invocations proceed concurrently.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._locks: Dict[ObjectID, Resource] = {}

    def acquire(self, oids: Iterable[ObjectID]):
        """Process: take every lock, in the caller-provided (canonical)
        order, waiting FIFO behind current holders."""
        for oid in oids:
            lock = self._locks.get(oid)
            if lock is None:
                lock = Resource(self.sim, 1, name=f"resv-{oid.short()}")
                self._locks[oid] = lock
            yield lock.acquire()

    def release(self, oids: Iterable[ObjectID]) -> None:
        for oid in reversed(list(oids)):
            self._locks[oid].release()


@dataclass
class InvokeResult:
    """What an invocation returns to the caller, plus its cost story."""

    value: Any
    executed_at: str
    latency_us: float
    decision: PlacementDecision
    invoke_id: int


class GlobalSpaceRuntime:
    """The cluster-wide object space and its invocation engine.

    One runtime instance per simulation; nodes are added over an
    existing :class:`~repro.net.topology.Network`.  The runtime keeps
    the replica directory (``locations``) that stands in for the
    discovery layer of §4 — data-plane transfers still traverse the
    simulated network and pay full transmission costs.  Each object has
    one home among its holders: every store is applied there, and the
    other copies are caches of it.
    """

    # The share of a lazily bound input placement expects a body to touch.
    LAZY_TOUCH_FRACTION = 0.1

    # Shared with placement; the wire comes from ``network.path``.
    cost_model = DEFAULT_COST_MODEL

    def __init__(self, network: Network,
                 registry: Optional[FunctionRegistry] = None):
        self.network = network
        self.sim: Simulator = network.sim
        self.registry = registry if registry is not None else FunctionRegistry()
        self.placement = PlacementEngine()
        self.policies = PolicyRegistry()
        self.allocator = IDAllocator(seed=1)
        self.retry_policy = RetryPolicy()
        self.health = HealthLedger(self.sim)
        self.tracer = Tracer()
        # Counter cells of invoke() (see Tracer); add_node binds the
        # placed_at family's, one per node.
        self._n_invocations = self.tracer.cell(K_INVOCATIONS)
        self._n_placed_at: Dict[str, List[int]] = {}
        self.spans = SpanRecorder(self.sim)
        # The network owns the cluster-wide registry; the runtime joins
        # it (replace=True: a rebuilt runtime over a reused network wins).
        self.metrics = network.metrics
        self.metrics.register("runtime.engine", self.tracer, replace=True)
        self.metrics.register("core.placement", self.placement.tracer,
                              replace=True)
        self.metrics.register("runtime.health", self.health.tracer,
                              replace=True)
        self.nodes: Dict[str, ClusterNode] = {}
        self._base_profiles: Dict[str, NodeProfile] = {}
        # Incrementally maintained live-profile view (see live_profiles):
        # name -> (profile, suspicion penalty, validity horizon).  Health
        # transitions drop an entry, and a queue depth other than the
        # profile's makes it stale.
        self._profile_cache: Dict[str, Tuple[NodeProfile, int, float]] = {}
        self.health.add_listener(self._invalidate_profile)
        # oid -> the names of its holders, a sorted tuple: placement
        # takes it as an item's locations as it is.
        self.locations: Dict[ObjectID, Tuple[str, ...]] = {}
        self._homes: Dict[ObjectID, str] = {}
        self._sizes: Dict[ObjectID, int] = {}
        self._invoke_ids = iter(range(1, 1 << 62))
        # MODE_ISOLATED object-set reservations (interference freedom).
        self.reservations = ReservationTable(self.sim)
        # Registered shared-memory pools; feeds the placement estimator's
        # tier resolution (see attach_pool).
        self._pools: List[SharedMemoryPool] = []

    # -- cluster construction ------------------------------------------------
    def add_node(self, host_name: str, speed: float = 1.0,
                 capacity_bytes: int = 1 << 40) -> ClusterNode:
        """Join the host named ``host_name`` to the global space."""
        if host_name in self.nodes:
            raise RuntimeError_(f"node {host_name!r} already added")
        host = self.network.host(host_name)
        space = ObjectSpace(self.allocator, host_name=host_name)
        node = ClusterNode(self, host, space)
        self.nodes[host_name] = node
        self._n_placed_at[host_name] = self.tracer.cell(
            f"{K_PLACED_AT}{host_name}")
        self.metrics.register(f"runtime.node.{host_name}", node.tracer,
                              replace=True)
        self.metrics.register(f"runtime.proxy.{host_name}",
                              node.proxies.tracer, replace=True)
        self._base_profiles[host_name] = NodeProfile(
            name=host_name, speed=speed, capacity_bytes=capacity_bytes,
        )
        return node

    def node(self, name: str) -> ClusterNode:
        """Look up a node by name; raises if unknown."""
        node = self.nodes.get(name)
        if node is None:
            raise RuntimeError_(f"unknown node {name!r}")
        return node

    def attach_pool(self, pool: SharedMemoryPool) -> None:
        """Register an intra-rack shared-memory pool with the runtime.

        Joins the pool's tracer to the cluster metrics registry and makes
        the placement estimator tier-aware: stage-in items whose objects
        are mapped into a pool a candidate node is attached to are priced
        through :meth:`CostModel.pool_transfer` instead of assuming a
        network fetch.
        """
        self._pools.append(pool)
        self.metrics.register(f"memproto.pool.{pool.name}", pool.tracer,
                              replace=True)
        self.placement.pool_oracle = self._pool_oracle

    def _pool_oracle(self, node_name: str, oid: ObjectID) -> Optional[str]:
        """Name of a pool through which ``node_name`` can load ``oid``
        right now, else None — the placement estimator's reachability
        oracle."""
        for pool in self._pools:
            if pool.attached(node_name) and pool.mapped(oid):
                return pool.name
        return None

    # -- object lifecycle -----------------------------------------------------
    def create_object(self, node_name: str, size: int, label: str = "") -> MemObject:
        """Create a data object resident on ``node_name``."""
        obj = self.node(node_name).space.create_object(size=size, label=label)
        self._register(obj, node_name)
        return obj

    def create_code(self, node_name: str, entry: str, text_size: int,
                    label: str = "") -> Tuple[MemObject, GlobalRef]:
        """Create a code object for registry entry ``entry``; returns the
        object and a read-only reference suitable for :meth:`invoke`."""
        if entry not in self.registry:
            raise RuntimeError_(f"no registered function {entry!r}")
        obj = write_code_object(self.node(node_name).space, entry, text_size, label)
        self._register(obj, node_name)
        return obj, code_ref(obj)

    def adopt_object(self, node_name: str, obj: MemObject) -> None:
        """Register an externally constructed object as resident."""
        node = self.node(node_name)
        if obj.oid not in node.space:
            node.space.insert(obj)
        self._register(obj, node_name)

    def _register(self, obj: MemObject, home: str) -> None:
        """Enter a new object in the directory, held and homed at ``home``."""
        self.locations[obj.oid] = (home,)
        self._homes[obj.oid] = home
        self._sizes[obj.oid] = obj.wire_size

    # -- directory ------------------------------------------------------------
    def holders(self, oid: ObjectID) -> Set[str]:
        """Host names currently holding a replica of ``oid``."""
        holders = self.locations.get(oid)
        if not holders:
            raise RuntimeError_(f"object {oid.short()} unknown to the runtime")
        return set(holders)

    def holders_by_distance(self, oid: ObjectID, to: str) -> List[str]:
        """Replica holders of ``oid``, least path latency to ``to`` first,
        equidistant ones in name order: the replica placement priced
        first (``PlacementEngine._nearest_source``).  A bare distance key
        would leave ties to set iteration, which varies with hash
        randomization across processes."""
        path = self.network.path
        return sorted(self.holders(oid),
                      key=lambda h: (path(h, to).latency_us, h))

    def home(self, oid: ObjectID) -> str:
        """The node every store to ``oid`` is applied at: where the
        object was created, until :meth:`claim_ownership` moves it."""
        home = self._homes.get(oid)
        if home is None:
            raise RuntimeError_(f"object {oid.short()} unknown to the runtime")
        return home

    def note_copy(self, oid: ObjectID, node_name: str) -> None:
        """Record that ``node_name`` now holds a replica of ``oid``."""
        holders = self.locations.get(oid, ())
        if node_name not in holders:
            self.locations[oid] = tuple(sorted((*holders, node_name)))

    def replicate(self, oid: ObjectID, to: str):
        """Process: copy ``oid`` to node ``to`` over the network (a real
        byte-level fetch paying wire costs); registers the new replica."""
        node = self.node(to)
        obj = yield from node.fetch_object(oid)
        return obj

    def claim_ownership(self, oid: ObjectID, owner: str) -> None:
        """Directory-backed ownership transfer: make ``owner`` the sole
        replica holder of ``oid``, and its home.

        Every other holder's copy is evicted and its proxy cache
        invalidated, so no replica (or proxy image derived from one) can
        serve the pre-write bytes afterwards.  Like the ``locations``
        directory itself this is a control-plane operation — the eviction
        push costs no data-plane transfer (the dropped copies carry no
        dirty state; the owner's copy is authoritative from here on).
        """
        holders = self.holders(oid)
        if owner not in holders:
            raise RuntimeError_(
                f"{owner} holds no replica of {oid.short()} to take ownership of")
        for holder in sorted(holders - {owner}):
            node = self.node(holder)
            if oid in node.space:
                node.space.evict(oid)
            node.proxies.invalidate(oid)
        self.locations[oid] = (owner,)
        self._homes[oid] = owner

    def peek_object(self, oid: ObjectID) -> MemObject:
        """Oracle view of the home's copy (used for FOT resolution when
        the object is not resident where the pointer is being followed)."""
        return self.node(self.home(oid)).space.get(oid)

    # -- access control ---------------------------------------------------------
    def protect(self, oid: ObjectID, owner: str, readers=None, writers=()):
        """Attach an ACL to ``oid`` (see :class:`PolicyRegistry.protect`).

        Confidential inputs constrain placement: nodes outside the
        reader set are never chosen to execute over them.
        """
        from ..core.security import PUBLIC

        return self.policies.protect(
            oid, owner, PUBLIC if readers is None else readers, writers)

    # -- placement inputs ------------------------------------------------------
    def live_profiles(self, candidates: Optional[Iterable[str]] = None) -> List[NodeProfile]:
        """Node profiles with live queue depths folded in.

        Suspected-unhealthy nodes (see :class:`HealthLedger`) appear
        with their queue depth inflated by the suspicion penalty, so
        placement steers new work away from them without hard-excluding
        the only feasible candidate.

        Profiles are served from an incrementally maintained cache:
        health transitions invalidate a node's entry, an entry whose
        queue depth is no longer the node's is rebuilt, and a
        suspicion-penalized entry carries the suspicion's expiry as its
        validity horizon (TTL lapse changes the profile without any
        event firing).  Under open-loop load the former O(hosts) rebuild
        per decision dominated profiles.
        """
        names = list(candidates) if candidates is not None else list(self.nodes)
        cache, nodes = self._profile_cache, self.nodes
        now = self.sim.now
        profiles = []
        for name in names:
            entry = cache.get(name)
            if entry is not None:
                profile, penalty, valid_until = entry
                if (now < valid_until and profile.active_jobs
                        == nodes[name]._active_jobs + penalty):
                    profiles.append(profile)
                    continue
            profiles.append(self._refresh_profile(name))
        return profiles

    def _invalidate_profile(self, name: str) -> None:
        """Drop ``name``'s cached live profile (its health changed)."""
        self._profile_cache.pop(name, None)

    def _compute_profile(self, name: str) -> NodeProfile:
        """Uncached live profile of one node — the cache's ground truth
        (the regression test compares cached against this directly)."""
        base = self._base_profiles[name]
        return NodeProfile(
            name=base.name, speed=base.speed,
            active_jobs=(self.nodes[name]._active_jobs
                         + self.health.penalty_jobs(name)),
            capacity_bytes=base.capacity_bytes,
        )

    def _refresh_profile(self, name: str) -> NodeProfile:
        """Recompute ``name``'s live profile into the cache; returns it."""
        profile = self._compute_profile(name)
        expiry = self.health.suspicion_expiry(name)
        self._profile_cache[name] = (
            profile, profile.active_jobs - self.nodes[name]._active_jobs,
            float("inf") if expiry is None else expiry)
        return profile

    # -- the rendezvous ---------------------------------------------------------
    def invoke(self, invoker: str, code_ref: GlobalRef,
               data_refs: Optional[Dict[str, GlobalRef]] = None,
               values: Optional[Dict[str, Any]] = None,
               flops: float = 1e6, result_bytes: int = 256,
               mode: str = MODE_EAGER,
               candidates: Optional[Iterable[str]] = None,
               decode_args: Iterable[str] = (),
               materialize_result: bool = False,
               retry: Optional[RetryPolicy] = None,
               prefetch=None):
        """Process: run the code behind ``code_ref`` against ``data_refs``.

        ``mode`` picks the data-movement strategy: ``MODE_EAGER`` stages
        every input at the executor before compute, ``MODE_LAZY`` leaves
        bare refs to demand-read, and ``MODE_PROXIED`` binds reference
        arguments as lazy :class:`~repro.core.proxies.ObjectProxy`
        handles — pass ``prefetch`` (a
        :class:`~repro.core.proxies.PrefetchBudget`) to additionally
        start a FOT reachability walk from the arguments so reachable
        objects stream in concurrently with execution (PROXIES.md).
        ``MODE_ISOLATED`` stages eagerly, then reserves the invocation's
        object set up front and claims ownership of every input, so the
        execution sees no interleaved invalidation.

        ``decode_args`` names reference
        arguments whose object bytes are decoded into plain values at the
        executor (pipeline intermediates).  ``materialize_result=True``
        leaves the result as an object at the executor and returns only
        its descriptor — see :mod:`repro.runtime.plan`.  Returns
        :class:`InvokeResult`.

        Remote attempts are bounded by ``retry`` (default: the runtime's
        :class:`RetryPolicy`): on a deadline expiry or retryable NACK the
        invocation backs off, marks the executor suspected, and re-runs
        placement over the candidates not yet tried — failover instead of
        a hang.  When the budget or the candidate set runs out it raises
        :class:`InvokeTimeout`.

        The caller cannot tell which node ran an attempt: each attempt is
        one :class:`ExecRequest` that :meth:`ClusterNode.serve` runs on the
        invoker's node and on any other alike.  Values and the result
        cross as the wire carries them (a tuple result comes back a
        list), and a body that raises surfaces as :class:`RuntimeError_`
        naming the executor and the cause.
        """
        if invoker not in self.nodes:
            raise RuntimeError_(f"invoker {invoker!r} is not a cluster node")
        if mode not in (MODE_EAGER, MODE_LAZY, MODE_PROXIED, MODE_ISOLATED):
            raise RuntimeError_(f"unknown invocation mode {mode!r}")
        if prefetch is not None and mode != MODE_PROXIED:
            raise RuntimeError_("prefetch budgets require MODE_PROXIED")
        data_refs = dict(data_refs or {})
        # Plain arguments cross as the wire carries them on either leg.
        wire_values = encode(values or {})
        start = self.sim.now
        invoke_id = next(self._invoke_ids)
        spans = self.spans
        # One span tree per invocation, trace id == invoke id.  The
        # phases (placement / request / stage_in / queue / compute /
        # return) tile [start, end], so their durations sum to
        # ``latency_us`` — the reconciliation OBSERVABILITY.md promises.
        root = spans.start(SPAN_INVOKE, trace_id=invoke_id,
                           node=invoker, invoker=invoker, mode=mode)
        try:
            # Confidentiality constrains placement: the executor must be
            # allowed to read every input (and the code object).
            oids = [code_ref.oid]
            for ref in data_refs.values():
                oids.append(ref.oid)
            candidate_names = self.policies.readable_nodes(
                oids, candidates if candidates is not None else self.nodes)
            if not candidate_names:
                raise PlacementError(
                    "no candidate node may read every input under the current ACLs")
            candidates = sorted(candidate_names)

            eager_staging = mode in (MODE_EAGER, MODE_ISOLATED)
            # What placement weighs: the code whole, and each input
            # whole if staged, else the share a body is expected to touch.
            scale = 1.0
            items = []
            for ref in [code_ref, *data_refs.values()]:
                size = self._sizes.get(ref.oid)
                holders = self.locations.get(ref.oid)
                if size is None or not holders:
                    raise RuntimeError_(
                        f"object {ref.oid.short()} unknown to the runtime")
                items.append(PlacementItem(
                    ref=ref, size_bytes=max(1, int(size * scale)),
                    locations=holders))
                if not eager_staging:
                    scale = self.LAZY_TOUCH_FRACTION
            request = PlacementRequest(
                code=items[0],
                inputs=tuple(items[1:]),
                invoker=invoker,
                result_bytes=result_bytes,
                flops=flops,
            )
            policy = retry if retry is not None else self.retry_policy
            decode_args = tuple(decode_args)
            attempt = 0
            tried: Set[str] = set()
            remaining = candidates
            while True:
                # Deciding costs no simulated time: a zero-width span
                # that records what was decided (opened, then
                # error-finished by the handler below, if the decision
                # fails).  Each failover attempt gets its own.
                try:
                    # Read per attempt: a retry after a backoff is priced
                    # on the topology of its own instant.
                    decision = self.placement.decide(
                        request, self.live_profiles(remaining),
                        self.network.path)
                except BaseException:
                    spans.start(SPAN_PLACEMENT, parent=root, node=invoker)
                    raise
                executor = decision.node
                spans.point(SPAN_PLACEMENT, root, invoker, {
                    "node": executor, "considered": len(remaining),
                    "est_total_us": decision.total_us})
                if attempt == 0:
                    self._n_invocations[0] += 1
                self._n_placed_at[executor][0] += 1

                stage = [code_ref.oid]
                if eager_staging:
                    for ref in data_refs.values():
                        if executor not in self.locations[ref.oid]:
                            stage.append(ref.oid)
                req = ExecRequest(
                    code_oid=code_ref.oid, stage=tuple(stage), refs=data_refs,
                    args=wire_values, compute_us=decision.compute_us,
                    mode=mode, decode_args=decode_args,
                    materialize=materialize_result, prefetch=prefetch)
                try:
                    if executor == invoker:
                        # The same request and serve path as a remote
                        # attempt, without the wire round trip.
                        reply = yield from self.nodes[invoker].serve(req, root)
                        # Local result handoff is free: zero-width
                        # return phase.
                        spans.point(SPAN_RETURN, root, invoker,
                                    {"local": True})
                    else:
                        # The request span measures the outbound wire
                        # leg: opened here, finished by the executor when
                        # it starts serving.  Span ids ride the payload
                        # but are accounting metadata, not protocol
                        # bytes: payload_bytes models the request alone,
                        # so simulated latencies are unchanged by tracing.
                        req_span = spans.start(SPAN_REQUEST, parent=root,
                                               node=invoker,
                                               executor=executor)
                        packet = yield self.nodes[invoker].host.request(Packet(
                            kind=m.KIND_EXEC_REQ, src=invoker, dst=executor,
                            payload={"req": req, "span_parent": root.span_id,
                                     "span_request": req_span.span_id},
                            payload_bytes=m.EXEC_REQ_OVERHEAD_BYTES
                            + len(req.args) + 24 * len(req.refs),
                        ), policy.deadline_us)
                        if packet is None:
                            # Deadline expired with the request still
                            # outstanding: the executor (or the path to
                            # it) is gone or wedged.  Fail over; a late
                            # reply finds nothing to resume.
                            self.tracer.count(K_INVOKE_DEADLINE)
                            if not req_span.finished:
                                spans.finish(req_span, error="deadline")
                            raise _AttemptFailed(
                                executor, f"no reply within "
                                f"{policy.deadline_us:.0f}us")
                        reply = packet.payload
                        ret_span = reply.get("ret_span")
                        if ret_span is not None:
                            # Closing the executor-opened return span here
                            # stamps the reply's arrival instant: the
                            # inbound wire leg.
                            spans.finish(spans.get(ret_span))
                    # What the reply means, whichever leg carried it:
                    # the result, an attempt to fail over from, or a body
                    # that raised.
                    result = decode(reply["result"])
                    if not reply["ok"]:
                        if reply.get("retryable"):
                            # The executor is alive but could not
                            # complete (its data source timed out under
                            # it): fail over without suspecting it.
                            raise _AttemptFailed(
                                executor, f"retryable failure: {result}",
                                suspect=False)
                        raise RuntimeError_(
                            f"execution on {executor} failed: {result}")
                except _AttemptFailed as failure:
                    if failure.suspect:
                        self.health.suspect(failure.executor)
                    tried.add(failure.executor)
                    attempt += 1
                    if (attempt >= policy.MAX_ATTEMPTS
                            or all(c in tried for c in candidates)):
                        raise InvokeTimeout(
                            f"invocation of {code_ref.oid.short()} gave up "
                            f"after {attempt} attempt(s); last executor "
                            f"{failure.executor}: {failure.reason}") from None
                    self.tracer.count(K_INVOKE_RETRIES)
                    yield Timeout(policy.backoff_us(attempt, self.sim.rng))
                    remaining = [c for c in candidates if c not in tried]
                    continue
                break
            if attempt > 0:
                # Completed, but not on the first executor we asked.
                self.tracer.count(K_INVOKE_FAILOVER)
                self.health.clear(executor)
        except BaseException as exc:
            for span in spans.spans(root.trace_id):
                if not span.finished:
                    spans.finish(span, error=type(exc).__name__)
            raise
        latency = self.sim.now - start
        self.tracer.sample(K_INVOKE_US, latency)
        if attempt > 0:
            spans.finish(root, latency_us=latency, executed_at=executor,
                         attempts=attempt + 1, failover=True)
        else:
            spans.finish(root, latency_us=latency, executed_at=executor)
        return InvokeResult(
            value=result, executed_at=executor, latency_us=latency,
            decision=decision, invoke_id=invoke_id,
        )
