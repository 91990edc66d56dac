"""Ref-RPC: the Wang et al. (HotOS '21) halfway point.

§5: "Recently, Wang et al. proposed an extension to RPC that passes
first class immutable references as well as values in procedure calls...
But it only takes us halfway: RPC remains compute-centric and
programmers must indicate where code should execute."

This module implements that design so experiment E7 can compare all
four invocation models.  Relative to plain RPC:

* arguments may be :class:`RemoteRef` markers naming immutable objects;
* the *system* (server side) fetches referenced objects from wherever
  they live — a byte-level image transfer, no serialization walk;
* immutability makes fetched objects cacheable across calls, avoiding
  repeated copies (the Wang et al. win);

and, crucially, what it does *not* change: the caller still names the
execution endpoint.  A capable edge device (Dave) cannot pull the
computation to itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from ..core.costmodel import DEFAULT_COST_MODEL
from ..core.objectid import ObjectID
from ..sim import Resource, Simulator, Timeout, Tracer
from ..net.host import Host
from ..net.packet import Packet
from ..net.topology import Path
from .serializer import SerializationClock, decode, encode
from .stubs import RpcError, RpcTimeout

__all__ = ["RemoteRef", "RefRpcServer", "RefRpcClient"]

KIND_REFCALL = "refrpc.call"
KIND_REFREPLY = "refrpc.reply"

# Locator: oid -> (holder host name, object size in bytes).
Locator = Callable[[ObjectID], Tuple[str, int]]
# The route between host names (``Network.path``).
DistanceFn = Callable[[str, str], Path]


@dataclass(frozen=True)
class RemoteRef:
    """An immutable reference argument: 'use the object with this ID'."""

    oid: ObjectID

    def wire(self) -> str:
        """The hex wire form of the reference."""
        return str(self.oid)

    @classmethod
    def from_wire(cls, text: str) -> "RemoteRef":
        """Rebuild from the wire descriptor."""
        return cls(ObjectID.from_hex(text))


def _split_args(args: Dict[str, Any]) -> Tuple[Dict[str, Any], Dict[str, str]]:
    """Separate by-value arguments from reference arguments."""
    values = {}
    refs = {}
    for key, value in args.items():
        if isinstance(value, RemoteRef):
            refs[key] = value.wire()
        else:
            values[key] = value
    return values, refs


class RefRpcServer:
    """A compute-pinned endpoint that resolves reference arguments.

    ``fetch_object`` is supplied by the surrounding system (tests wire
    it to object spaces): given an oid it returns the object's bytes.
    The server charges simulated time for the transfer (a fetch along the
    path from the holder plus byte-copy in/out — *no* marshalling walk)
    and caches fetched immutable objects.
    """

    cost_model = DEFAULT_COST_MODEL

    def __init__(self, host: Host, locator: Locator, distance: DistanceFn,
                 fetch_object: Callable[[ObjectID], bytes]):
        self.host = host
        self.sim: Simulator = host.sim
        self.locator = locator
        self.distance = distance
        self.fetch_object = fetch_object
        self.clock = SerializationClock()
        self.tracer = Tracer()
        self.workers = Resource(self.sim, 4, name=f"{host.name}.refrpc-workers")
        self._methods: Dict[str, Tuple[Callable, float]] = {}
        self._ref_cache: Dict[ObjectID, bytes] = {}
        self.bytes_fetched = 0
        host.on(KIND_REFCALL, self._on_call)

    def register(self, name: str, fn: Callable, compute_us: float = 0.0) -> None:
        """Register a method/entry under ``name``."""
        if name in self._methods:
            raise RpcError(f"method {name!r} already registered on {self.host.name}")
        self._methods[name] = (fn, compute_us)

    def _on_call(self, packet: Packet) -> None:
        self.sim.spawn(self._serve(packet), name=f"refrpc-serve-{packet.uid}")

    def _fetch_ref(self, oid: ObjectID) -> Tuple[bytes, float]:
        """Resolve one reference; returns (data, simulated stage-in time)."""
        cached = self._ref_cache.get(oid)
        if cached is not None:
            self.tracer.count("refrpc.ref_cache_hit")
            return cached, 0.0
        holder, size = self.locator(oid)
        path = self.distance(holder, self.host.name)
        estimate = self.cost_model.fetch_transfer(size, path)
        data = self.fetch_object(oid)
        self._ref_cache[oid] = data
        self.bytes_fetched += size
        self.tracer.count("refrpc.ref_fetched")
        return data, estimate.total_us if path.hops > 0 else 0.0

    def _serve(self, packet: Packet):
        wire_values = packet.payload["values"]
        ref_args: Dict[str, str] = packet.payload["refs"]
        yield self.workers.acquire()
        try:
            yield Timeout(self.clock.deserialize_us(len(wire_values)))
            args = decode(wire_values)
            # Stage in every referenced object, in parallel: the slowest
            # fetch bounds the stage-in latency.
            stage_in_us = 0.0
            for key, wire_ref in ref_args.items():
                data, fetch_us = self._fetch_ref(RemoteRef.from_wire(wire_ref).oid)
                args[key] = data
                stage_in_us = max(stage_in_us, fetch_us)
            if stage_in_us > 0:
                yield Timeout(stage_in_us)
            entry = self._methods.get(packet.payload["method"])
            if entry is None:
                self.host.send(self._reply(
                    packet, False, f"no such method {packet.payload['method']!r}"))
                return
            fn, compute_us = entry
            yield Timeout(compute_us)
            try:
                result = fn(**args)
            except Exception as exc:
                self.host.send(self._reply(packet, False, str(exc)))
                return
            self.tracer.count("refrpc.served")
            self.host.send(self._reply(packet, True, result))
        finally:
            self.workers.release()

    def _reply(self, packet: Packet, ok: bool, result: Any) -> Packet:
        wire = encode(result)
        return packet.reply(
            KIND_REFREPLY, {"ok": ok, "result": wire}, 16 + len(wire))


class RefRpcClient:
    """Caller stub: values are serialized, references travel as 24-byte
    descriptors no matter how large the referenced object is."""

    def __init__(self, host: Host):
        self.host = host
        self.sim: Simulator = host.sim
        self.timeout_us = 1_000_000.0
        self.clock = SerializationClock()
        self.tracer = Tracer()
        host.on(KIND_REFREPLY, host.complete)

    def call(self, endpoint: str, method: str, **args: Any):
        """Process: invoke ``method`` at ``endpoint``; :class:`RemoteRef`
        arguments are passed by reference, the rest by value."""
        start = self.sim.now
        values, refs = _split_args(args)
        wire_values = encode(values)
        yield Timeout(self.clock.serialize_us(len(wire_values)))
        reply = yield self.host.request(Packet(
            kind=KIND_REFCALL, src=self.host.name, dst=endpoint,
            payload={"method": method, "values": wire_values, "refs": refs},
            payload_bytes=24 + len(wire_values) + 24 * len(refs),
        ), self.timeout_us)
        if reply is None:
            raise RpcTimeout(f"{endpoint}.{method} timed out")
        wire_result = reply.payload["result"]
        yield Timeout(self.clock.deserialize_us(len(wire_result)))
        result = decode(wire_result)
        self.tracer.sample("refrpc.call_us", self.sim.now - start)
        if not reply.payload["ok"]:
            raise RpcError(f"{endpoint}.{method}: {result}")
        return result
