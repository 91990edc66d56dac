"""Cluster nodes: per-host protocol handlers and the execution context.

A :class:`ClusterNode` joins a host's network attachment to its object
space and serves the runtime protocol (fetch / read / write / exec).  An
:class:`ExecutionContext` is what mobile code receives when it runs on a
node: references resolve through it, and any touch of a non-resident
object becomes network traffic — the demand-driven data movement of
§3.1.

Code functions are either plain callables ``fn(ctx, args) -> result``
(purely local logic) or generator functions that ``yield`` the waitables
``ctx`` hands back for remote operations::

    def traverse(ctx, args):
        ref = GlobalRef.from_bytes(args["start"])
        total = 0
        for _ in range(args["steps"]):
            record = yield ctx.read(ref, 0, 16)
            ...
        return total
"""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Tuple

from ..core.codeobj import read_code_entry
from ..core.objectid import ObjectID
from ..core.proxies import ObjectProxy, PrefetchBudget, ProxyCache
from ..core.refs import GlobalRef
from ..core.security import AccessDenied
from ..core.space import ObjectSpace
from ..obs.keys import (
    SPAN_COMPUTE,
    SPAN_FETCH,
    SPAN_QUEUE,
    SPAN_RETURN,
    SPAN_STAGE_IN,
)
from ..sim import AllOf, Simulator, Timeout, Tracer
from ..net.host import Host
from ..net.packet import Packet
from ..rpc.serializer import decode, encode
from . import messages as m

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import GlobalSpaceRuntime

__all__ = ["ClusterNode", "ExecRequest", "ExecutionContext", "FetchTimeout",
           "MODE_EAGER", "MODE_ISOLATED", "MODE_LAZY", "MODE_PROXIED",
           "NodeProxyBackend", "RuntimeError_"]

MODE_EAGER = "eager"      # stage every input object at the executor up front
MODE_LAZY = "lazy"        # stage only the code; data moves on demand
MODE_PROXIED = "proxied"  # stage only the code; bind args as lazy proxies
                          # (optionally covered by a reachability prefetch)
MODE_ISOLATED = "isolated"  # eager staging + up-front object-set
                            # reservation and ownership claim: execute
                            # with no interleaved invalidation


class ExecRequest(NamedTuple):
    """One invocation attempt as its executor receives it: a
    ``gs.exec_req`` packet carries it as it is (the packet's
    ``payload_bytes`` models its wire size), and the invoker's own node
    takes it directly.  A NamedTuple: it is built on every attempt."""

    code_oid: ObjectID
    stage: Tuple[ObjectID, ...]  # fetched here before the body runs
    refs: Dict[str, GlobalRef]   # reference arguments
    args: bytes                  # plain arguments, encoded for the wire
    compute_us: float
    mode: str
    decode_args: Tuple[str, ...]
    materialize: bool
    prefetch: Optional[PrefetchBudget]


class NodeProxyBackend:
    """Adapts a :class:`ClusterNode` to the proxy-resolver protocol of
    :class:`repro.core.proxies.ProxyCache` (see PROXIES.md).

    Resolutions ride the node's self-healing fetch path — a batch fans
    out in parallel, and each fetch fails over across replicas on NACK
    or holder crash — so a lazy dereference survives exactly the §5
    partial-failure cases the eager staging path already survives.
    Stores transfer ownership through the runtime's replica directory:
    every other holder is evicted and its proxy cache invalidated before
    the write lands.
    """

    def __init__(self, node: "ClusterNode"):
        self.node = node

    def resolve_many(self, oids):
        """Process: make every object resident here (parallel, failing
        over across replicas) and return ``{oid: payload bytes}``."""
        node = self.node
        for oid in oids:
            node.runtime.policies.check_read(oid, node.name)
        missing = [oid for oid in oids if oid not in node.space]
        if missing:
            fetches = [
                node.sim.spawn(node.fetch_object(oid),
                               name=f"proxy-fetch-{oid.short()}")
                for oid in missing
            ]
            yield AllOf(fetches)
        out = {}
        for oid in oids:
            obj = node.space.get(oid)
            out[oid] = obj.read(0, obj.size)
        return out

    def store(self, oid, offset, data):
        """Process: ownership transfer, then the local store.

        :meth:`GlobalSpaceRuntime.claim_ownership` makes this node the
        sole replica holder (evicting other copies and invalidating
        their proxies) before the bytes change, so no stale replica can
        serve the old value afterwards.
        """
        node = self.node
        node.runtime.policies.check_write(oid, node.name)
        if oid not in node.space:
            yield from node.fetch_object(oid)
        node.runtime.claim_ownership(oid, node.name)
        node.space.get(oid).write(offset, data)
        return True

    def successors(self, oid, image):
        """FOT targets of a resident object (the reachability edges)."""
        obj = self.node.space.try_get(oid)
        return obj.fot.targets() if obj is not None else []

    def resolve_pointer(self, oid, pointer, image):
        """External-pointer resolution against the resident FOT."""
        obj = self.node.space.try_get(oid)
        if obj is None:
            obj = self.node.runtime.peek_object(oid)
        return obj.resolve(pointer)


class RuntimeError_(Exception):
    """Runtime-layer failures (missing objects, unknown entries...)."""


class FetchTimeout(RuntimeError_):
    """A fetch or demand-read exhausted every replica without a reply,
    or a demand-write's holder did not answer.

    Distinguished from plain :class:`RuntimeError_` so an executor
    serving someone else's invocation can NACK it as *retryable*: the
    executor itself is fine, its data source is the suspect, and the
    invoker should re-place rather than give up."""


class ClusterNode:
    """One host participating in the global object space."""

    def __init__(self, runtime: "GlobalSpaceRuntime", host: Host,
                 space: ObjectSpace):
        self.runtime = runtime
        self.host = host
        self.name: str = host.name
        self.sim: Simulator = host.sim
        self.space = space
        self.tracer = Tracer()
        # Counter cells of the per-op path (see Tracer).
        self._n_write_served = self.tracer.cell("node.write_served")
        self._n_exec = self.tracer.cell("node.exec")
        self._n_remote_read = self.tracer.cell("node.remote_read")
        self._n_remote_write = self.tracer.cell("node.remote_write")
        self._n_fetched = self.tracer.cell("node.fetched")
        self._n_fetch_served = self.tracer.cell("node.fetch_served")
        self.request_timeout_us = 100_000.0
        self._active_jobs = 0
        # serve(): (function, is a generator function) by the code
        # object's (oid, version) it was read from.
        self._code: Dict[Tuple[ObjectID, int], Tuple[Any, bool]] = {}
        # Lazy-proxy table (PROXIES.md): one per node, shared by every
        # invocation that executes here, so prefetched images survive
        # across invocations exactly like staged replicas do.
        self.proxies = ProxyCache(self.sim, NodeProxyBackend(self))
        host.on(m.KIND_FETCH_REQ, self._on_fetch_req)
        host.on(m.KIND_FETCH_RSP, self._on_reply)
        host.on(m.KIND_FETCH_NACK, self._on_reply)
        host.on(m.KIND_READ_REQ, self._on_read_req)
        host.on(m.KIND_READ_RSP, self._on_reply)
        host.on(m.KIND_WRITE_REQ, self._on_write_req)
        host.on(m.KIND_WRITE_RSP, self._on_reply)
        host.on(m.KIND_EXEC_REQ, self._on_exec_req)
        host.on(m.KIND_EXEC_RSP, self._on_reply)

    @property
    def active_jobs(self) -> int:
        """Live execution-queue depth on this node."""
        return self._active_jobs

    @active_jobs.setter
    def active_jobs(self, value: int) -> None:
        self._active_jobs = value

    def _on_reply(self, packet: Packet) -> None:
        # Any reply is proof of life: clear the sender's suspicion (a
        # late reply after our deadline still rehabilitates the node).
        if packet.src is not None:
            self.runtime.health.clear(packet.src)
        self.host.complete(packet)

    # -- server side ----------------------------------------------------------
    def _on_fetch_req(self, packet: Packet) -> None:
        oid = packet.oid
        assert oid is not None
        if (oid not in self.space
                or not self.runtime.policies.allows_read(oid, packet.src)):
            if oid in self.space:
                self.tracer.count("node.fetch_denied")
            self.host.send(packet.reply(
                m.KIND_FETCH_NACK, payload_bytes=m.RSP_OVERHEAD_BYTES))
            return
        wire = self.space.export_object(oid)
        self._n_fetch_served[0] += 1
        # The object image rides the reply: payload_bytes makes the links
        # charge real transmission time for the full copy.
        self.host.send(packet.reply(
            m.KIND_FETCH_RSP, {"wire": wire}, m.RSP_OVERHEAD_BYTES + len(wire)))

    def _on_read_req(self, packet: Packet) -> None:
        oid = packet.oid
        assert oid is not None
        if (oid not in self.space
                or not self.runtime.policies.allows_read(oid, packet.src)):
            if oid in self.space:
                self.tracer.count("node.read_denied")
            self.host.send(packet.reply(
                m.KIND_READ_RSP, {"ok": False}, m.RSP_OVERHEAD_BYTES))
            return
        obj = self.space.get(oid)
        offset = packet.payload["offset"]
        length = min(packet.payload["length"], obj.size - offset)
        data = obj.read(offset, length)
        self.host.send(packet.reply(
            m.KIND_READ_RSP, {"ok": True, "data": data, "version": obj.version},
            m.RSP_OVERHEAD_BYTES + length))

    def _on_write_req(self, packet: Packet) -> None:
        oid = packet.oid
        assert oid is not None
        ok = oid in self.space
        if ok:
            try:
                self.runtime.policies.check_write(oid, packet.src)
            except AccessDenied:
                ok = False
        if ok:
            obj = self.space.get(oid)
            obj.write(packet.payload["offset"], packet.payload["data"])
            self._n_write_served[0] += 1
        self.host.send(packet.reply(
            m.KIND_WRITE_RSP, {"ok": ok}, m.RSP_OVERHEAD_BYTES))

    def _on_exec_req(self, packet: Packet) -> None:
        self.sim.spawn(self._serve_exec(packet), name=f"{self.name}-exec")

    def _serve_exec(self, packet: Packet):
        # Cross-host span plumbing: the invoker opened the root and the
        # request span; serving starts now, so the request (wire) leg
        # ends here.  The recorder is shared through the runtime.  A
        # request the invoker has given up on (it passed its deadline
        # and closed the request span, or the trace was finished and
        # dropped since) is served without spans, so it adds no phase
        # (and no unfinished return) to the trace.
        spans = self.runtime.spans
        payload = packet.payload
        parent = None
        request_span = spans.find(payload.get("span_request"))
        if request_span is not None and request_span.end_us is None:
            spans.finish(request_span)
            parent = spans.get(payload["span_parent"])
        reply = yield from self.serve(payload["req"], parent)
        if parent is not None:
            # The return span opens as the reply leaves and is finished
            # by the invoker on arrival — the inbound wire leg.
            ret = spans.start(SPAN_RETURN, parent=parent, node=self.name,
                              ok=reply["ok"])
            reply["ret_span"] = ret.span_id
        self.host.send(packet.reply(
            m.KIND_EXEC_RSP, reply,
            m.RSP_OVERHEAD_BYTES + len(reply["result"])))

    def serve(self, req: ExecRequest, span=None):
        """Process: run one request here; returns the reply
        payload, ``{"ok", "result"}`` with the result encoded.

        Both legs of an invocation come here, the invoker's own node
        inline and any other from its ``gs.exec_req`` handler, so an
        attempt behaves the same wherever placement ran it.  Every
        failure is an ``ok: False`` payload carrying the error text; a
        :class:`FetchTimeout` is marked ``retryable``, because *our*
        data source is suspect, not this executor.

        Every object in ``req.stage`` is pulled here in parallel before
        the body runs.  The plain arguments (``req.args``, encoded as the
        wire carries them) and the reference arguments merge into the
        args dict the code function receives.  Names in
        ``req.decode_args`` are reference arguments whose object bytes
        are decoded into plain values first (how pipeline intermediates
        arrive).  With ``req.materialize`` the result is written into a
        fresh local object and only its descriptor is returned — the §5
        query-planning pattern: intermediates stay where they were
        produced until the next stage pulls them.

        In ``MODE_PROXIED`` reference arguments are bound as
        :class:`ObjectProxy` instances instead of bare refs — nothing is
        staged for them — and, when ``req.prefetch`` names a budget, a
        reachability walk is spawned from the argument roots *before*
        execution starts, so FOT-reachable objects stream in concurrently
        with the computation (PROXIES.md).

        In ``MODE_ISOLATED`` the invocation's object set is reserved up
        front in canonical oid order — concurrent isolated invocations
        over overlapping sets serialize deterministically instead of
        deadlocking — then, after staging, this node claims ownership of
        every data input so no interleaved invalidation or replica write
        can race the execution (the interference-free model of Schill et
        al.).

        The code object must be resident here once staging is done; the
        function body runs against an :class:`ExecutionContext` after a
        ``req.compute_us`` sleep, counted in the node's queue depth.

        ``span`` is the invocation's root span; when given, the
        stage_in / queue / compute phases are recorded under it (spans
        left open by a failure are error-finished by the invoker if the
        invocation fails).
        """
        rec = self.runtime.spans if span is not None else None
        name = self.name
        reserved: List[ObjectID] = []
        try:
            if req.mode == MODE_ISOLATED:
                oids = sorted({ref.oid for ref in req.refs.values()})
                yield from self.runtime.reservations.acquire(oids)
                reserved = oids
            stage_span = (rec.start(SPAN_STAGE_IN, parent=span, node=name)
                          if rec is not None else None)
            space = self.space
            fetches = []
            for oid in req.stage:
                if oid not in space:
                    fetches.append(self.sim.spawn(
                        self.fetch_object(oid, span=stage_span),
                        name=f"stage-{oid.short()}"))
            if len(fetches) == 1:
                # One fetch is waited on directly: a failure raises here,
                # and the wake-up is the same one event AllOf's would be.
                yield fetches[0]
            elif fetches:
                # A failed fetch is an outcome in AllOf's results: raise
                # the first instead of running the function without its
                # input.
                for outcome in (yield AllOf(fetches)):
                    if isinstance(outcome, BaseException):
                        raise outcome
            staged = len(fetches)
            args: Dict[str, Any] = decode(req.args)
            args.update(req.refs)
            for arg in req.decode_args:
                ref = req.refs[arg]
                if ref.oid not in space:
                    yield self.sim.spawn(
                        self.fetch_object(ref.oid, span=stage_span),
                        name=f"decode-{ref.oid.short()}")
                    staged += 1
                obj = space.get(ref.oid)
                args[arg] = decode(obj.read(0, obj.size))
            for oid in reserved:
                # Interference-free execution: become the sole replica
                # holder, so no other node's copy (or proxy image) can be
                # read or written while this invocation runs — the
                # reservation keeps competing isolated invocations out.
                self.runtime.claim_ownership(oid, name)
                self.tracer.count("node.isolated_claim")
            if req.mode == MODE_PROXIED:
                roots = []
                for arg, ref in req.refs.items():
                    if arg not in req.decode_args:
                        args[arg] = self.proxies.proxy(ref)
                        roots.append(ref)
                if req.prefetch is not None:
                    self.proxies.start_prefetch(roots, budget=req.prefetch)
            compute_span = None
            if rec is not None:
                rec.finish(stage_span, objects=staged)
                # Zero-width queue point: what the executor's load looked
                # like the instant this job reached the front.
                rec.point(SPAN_QUEUE, span, name,
                          {"active_jobs": self._active_jobs})
                compute_span = rec.start(SPAN_COMPUTE, parent=span,
                                         node=name,
                                         compute_us=req.compute_us)
            code = space.try_get(req.code_oid)
            if code is None:
                raise RuntimeError_(
                    f"code object {req.code_oid.short()} not resident on {name}")
            # The function a code object names is read from its bytes
            # once per (oid, version) and kept, with whether it is a
            # generator function: inspect.isgeneratorfunction's test, read
            # off the code object where there is one (functions, bound
            # methods); partials and other callables take inspect's path.
            key = (req.code_oid, code.version)
            entry = self._code.get(key)
            if entry is None:
                fn = self.runtime.registry.lookup(read_code_entry(code)[0])
                flags = getattr(getattr(fn, "__code__", None), "co_flags", None)
                entry = self._code[key] = (fn, (
                    inspect.isgeneratorfunction(fn) if flags is None
                    else bool(flags & inspect.CO_GENERATOR)))
            fn, is_generator = entry
            ctx = ExecutionContext(self)
            self._active_jobs += 1
            self._n_exec[0] += 1
            try:
                yield Timeout(req.compute_us)
                if is_generator:
                    result = yield from fn(ctx, args)
                else:
                    result = fn(ctx, args)
            finally:
                self._active_jobs -= 1
            if req.materialize:
                wire = encode(result)
                out = self.runtime.create_object(
                    name, size=max(len(wire), 1), label="intermediate")
                out.write(0, wire)
                result = {"__materialized__": str(out.oid), "size": out.size}
                if compute_span is not None:
                    rec.finish(compute_span, materialized=True)
            elif compute_span is not None:
                rec.finish(compute_span)
            payload = {"ok": True, "result": encode(result)}
        except Exception as exc:
            payload = {"ok": False, "result": encode(str(exc))}
            if isinstance(exc, FetchTimeout):
                payload["retryable"] = True
        finally:
            if reserved:
                self.runtime.reservations.release(reserved)
        return payload

    # -- client-side primitives ------------------------------------------------
    def _ask_holders(self, kind: str, oid: ObjectID, sources: List[str],
                     fields: dict, payload_bytes: int, timeout_key: str):
        """Process: put one ``kind`` request about ``oid`` to each of
        ``sources`` in turn until one serves it; returns its reply.

        A timeout (crashed holder: the §5 partial-failure case) suspects
        the holder and a NACK or ``ok: False`` (stale or refusing holder)
        does not; both fail over to the next replica, and the last error
        is raised once none is left.
        """
        last_error = None
        for source in sources:
            if source == self.name:
                continue
            reply = yield self.host.request(Packet(
                kind=kind, src=self.name, dst=source, oid=oid,
                payload=dict(fields), payload_bytes=payload_bytes,
            ), self.request_timeout_us)
            if reply is None:
                self.tracer.count(timeout_key)
                self.runtime.health.suspect(source)
                last_error = FetchTimeout(
                    f"{kind} of {oid.short()} to {source} timed out")
            elif reply.kind == m.KIND_FETCH_NACK:
                self.tracer.count("node.fetch_failover")
                last_error = RuntimeError_(
                    f"{source} no longer holds (or refuses) {oid.short()}")
            elif not reply.payload.get("ok", True):
                last_error = RuntimeError_(
                    f"{source} could not serve {kind} of {oid.short()}")
            else:
                return reply
        raise last_error if last_error is not None else RuntimeError_(
            f"no source for object {oid.short()}")

    def fetch_object(self, oid: ObjectID, span=None):
        """Process: pull a full object image into our space from its
        holders, nearest first, failing over across them
        (:meth:`_ask_holders`).  ``span`` (usually the stage_in phase)
        parents a per-object fetch span.
        """
        spans = self.runtime.spans
        fetch_span = None
        if span is not None:
            fetch_span = spans.start(
                SPAN_FETCH, parent=span, node=self.name, oid=oid.short())
        if oid in self.space:
            if fetch_span is not None:
                spans.finish(fetch_span, cached=True)
            return self.space.get(oid)
        try:
            reply = yield from self._ask_holders(
                m.KIND_FETCH_REQ, oid,
                self.runtime.holders_by_distance(oid, self.name), {},
                m.FETCH_REQ_BYTES, "node.fetch_timeout")
        except RuntimeError_:
            if fetch_span is not None:
                spans.finish(fetch_span, error=True)
            raise
        obj = self.space.import_object(oid, reply.payload["wire"], replace=True)
        self._n_fetched[0] += 1
        self.runtime.note_copy(oid, self.name)
        if fetch_span is not None:
            spans.finish(fetch_span, source=reply.src, bytes=obj.wire_size)
        return obj

    def remote_read(self, oid: ObjectID, offset: int, length: int):
        """Process: demand-read a range of a remote object from its
        holders, nearest first, failing over across them on denial,
        staleness, or holder crash."""
        reply = yield from self._ask_holders(
            m.KIND_READ_REQ, oid,
            self.runtime.holders_by_distance(oid, self.name),
            {"offset": offset, "length": length},
            m.READ_REQ_BYTES, "node.read_timeout")
        self._n_remote_read[0] += 1
        return reply.payload["data"]

    def remote_write(self, oid: ObjectID, offset: int, data: bytes):
        """Process: write a range of ``oid`` at its home, from here.

        One ``gs.write_req`` goes to the home; once it is applied there,
        a copy this node holds takes the same bytes, so a writer reads
        its own write.  A home that does not answer in time is suspected
        and the write raises :class:`FetchTimeout`; it is not retried
        elsewhere (a write redirected to a stale copy is divergence, not
        recovery).
        """
        yield from self._ask_holders(
            m.KIND_WRITE_REQ, oid, [self.runtime.home(oid)],
            {"offset": offset, "data": data},
            m.READ_REQ_BYTES + len(data), "node.write_timeout")
        self._n_remote_write[0] += 1
        copy = self.space.try_get(oid)
        if copy is not None:
            copy.write(offset, data)
        return True

    def load(self, oid: ObjectID, offset: int, length: int):
        """Process: read a byte range of ``oid`` from wherever it is — the
        resident copy at this instant, else a :meth:`remote_read`."""
        if oid in self.space:
            yield Timeout(0.0)
            return self.space.get(oid).read(offset, length)
        data = yield from self.remote_read(oid, offset, length)
        return data

    def store(self, oid: ObjectID, offset: int, data: bytes):
        """Process: write a byte range of ``oid`` at its home — in place
        when that is this node, else a :meth:`remote_write`."""
        if self.runtime.home(oid) == self.name:
            yield Timeout(0.0)
            self.space.get(oid).write(offset, data)
            return True
        ok = yield from self.remote_write(oid, offset, data)
        return ok

    def __repr__(self) -> str:
        return f"<ClusterNode {self.name} objects={len(self.space)} jobs={self.active_jobs}>"


class ExecutionContext:
    """What mobile code sees while running on a node.

    Every operation returns a *waitable process* — code yields it and
    receives the value.  Local accesses complete at the current
    simulation instant; remote ones cost real (simulated) round trips,
    which is how the demand-paging experiments measure stalls.
    """

    def __init__(self, node: ClusterNode):
        self.node = node
        self.remote_reads = 0
        self.local_reads = 0
        self.remote_writes = 0
        self.local_writes = 0

    def read(self, ref: GlobalRef, offset: int = 0, length: int = 64):
        """Waitable: read bytes at ``ref.offset + offset``."""
        return self.node.sim.spawn(
            self._read(ref, offset, length), name=f"ctx-read-{self.node.name}")

    def _read(self, ref: GlobalRef, offset: int, length: int):
        if not ref.readable:
            raise RuntimeError_(f"reference {ref} is not readable here")
        # ACL check: the executing node is the principal.
        self.node.runtime.policies.check_read(ref.oid, self.node.name)
        if ref.oid in self.node.space:
            self.local_reads += 1
        else:
            self.remote_reads += 1
        data = yield from self.node.load(ref.oid, ref.offset + offset, length)
        return data

    def write(self, ref: GlobalRef, data: bytes, offset: int = 0):
        """Waitable: write bytes at ``ref.offset + offset``."""
        return self.node.sim.spawn(
            self._write(ref, data, offset), name=f"ctx-write-{self.node.name}")

    def _write(self, ref: GlobalRef, data: bytes, offset: int):
        if not ref.writable:
            raise RuntimeError_(f"reference {ref} is not writable")
        self.node.runtime.policies.check_write(ref.oid, self.node.name)
        if self.node.runtime.home(ref.oid) == self.node.name:
            self.local_writes += 1
        else:
            self.remote_writes += 1
        ok = yield from self.node.store(ref.oid, ref.offset + offset, data)
        return ok

    def follow(self, ref: GlobalRef):
        """Waitable: load the invariant pointer stored at ``ref`` and
        resolve it to a new :class:`GlobalRef`."""
        return self.node.sim.spawn(
            self._follow(ref), name=f"ctx-follow-{self.node.name}")

    def _follow(self, ref: GlobalRef):
        from ..core.pointers import InvariantPointer

        raw = yield self.read(ref, 0, 8)
        pointer = InvariantPointer.from_bytes(raw)
        if pointer.is_null:
            return None
        if pointer.is_internal:
            return GlobalRef(ref.oid, pointer.offset, ref.mode)
        # External pointer: the FOT lives with the object, so resolve it
        # where the object is (locally if resident, else ask the holder's
        # copy via a fetch of the FOT — modelled as a local FOT lookup on
        # whichever replica we can see through the runtime).
        obj = self.node.space.try_get(ref.oid)
        if obj is None:
            obj = self.node.runtime.peek_object(ref.oid)
        target_oid, target_offset = obj.resolve(pointer)
        return GlobalRef(target_oid, target_offset, ref.mode)

    def proxy(self, ref: GlobalRef) -> ObjectProxy:
        """The node's lazy proxy for ``ref`` (PROXIES.md): dereference
        with ``yield from proxy.read(...)``.  Resolution is deferred
        until then, and may already be covered — or in flight — from a
        reachability walk started at argument-binding time."""
        return self.node.proxies.proxy(ref)
