"""The RPC baseline: clients, servers, and call-by-value semantics.

This is the incumbent the paper argues against: location-centric
(callers name an *endpoint*), compute-centric (the function runs where
the server is, full stop), and call-by-value (arguments and returns are
serialized in their entirety and shipped both ways).

The stack is faithful about costs: arguments are *actually* encoded with
:mod:`repro.rpc.serializer` (so wire sizes are real), marshalling time
is charged to the simulated clock on both sides, and servers have a
bounded pool of worker slots so an overloaded Bob queues requests — the
§2 scenario.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Optional, Tuple

from ..sim import Resource, Simulator, Timeout, Tracer
from ..net.host import Host
from ..net.packet import Packet
from .serializer import SerializationClock, decode, encode

__all__ = ["RpcServer", "RpcClient", "RpcError", "RpcTimeout", "RpcMethod"]

KIND_CALL = "rpc.call"
KIND_REPLY = "rpc.reply"

# handler(args) -> (result, compute_us); generators may yield sim waitables.
RpcMethod = Callable[..., Any]


class RpcError(Exception):
    """Raised for unknown methods, remote faults, or misuse."""


class RpcTimeout(RpcError):
    """The reply did not arrive in time."""


class RpcServer:
    """An RPC endpoint: named methods, worker slots, marshalling costs.

    Methods are plain callables ``fn(**args) -> result``; their compute
    time is declared at registration (``compute_us``) or computed per
    call via ``compute_us_fn(args)``, and is charged to the simulated
    clock while a worker slot is held.
    """

    def __init__(self, host: Host, workers: int = 4,
                 clock: Optional[SerializationClock] = None,
                 tracer: Optional[Tracer] = None):
        self.host = host
        self.sim: Simulator = host.sim
        self.clock = clock if clock is not None else SerializationClock()
        self.tracer = tracer or Tracer()
        self.workers = Resource(self.sim, workers, name=f"{host.name}.rpc-workers")
        self._methods: Dict[str, Tuple[RpcMethod, Callable[[dict], float]]] = {}
        host.on(KIND_CALL, self._on_call)

    def register(self, name: str, fn: RpcMethod, compute_us: float = 0.0,
                 compute_us_fn: Optional[Callable[[dict], float]] = None) -> None:
        """Expose ``fn`` as method ``name``.

        ``compute_us`` (or the per-call ``compute_us_fn``) is the
        simulated execution time charged while holding a worker slot.
        """
        if name in self._methods:
            raise RpcError(f"method {name!r} already registered on {self.host.name}")
        cost_fn = compute_us_fn if compute_us_fn is not None else (lambda args: compute_us)
        self._methods[name] = (fn, cost_fn)

    def _on_call(self, packet: Packet) -> None:
        self.sim.spawn(self._serve(packet), name=f"rpc-serve-{packet.uid}")

    def _serve(self, packet: Packet):
        method_name = packet.payload["method"]
        wire_args = packet.payload["args"]
        yield self.workers.acquire()
        try:
            # Deserialize the arguments: a real decode walk plus the
            # simulated time it costs at this byte count.
            yield Timeout(self.clock.deserialize_us(len(wire_args)))
            args = decode(wire_args)
            entry = self._methods.get(method_name)
            if entry is None:
                yield from self._reply_error(
                    packet, f"no such method {method_name!r}")
                return
            fn, cost_fn = entry
            yield Timeout(cost_fn(args))
            try:
                if inspect.isgeneratorfunction(fn):
                    # Generator methods may perform their own simulated
                    # waits — including nested RPC calls to other hosts.
                    result = yield from fn(**args)
                else:
                    result = fn(**args)
            except Exception as exc:  # application fault -> RPC error reply
                yield from self._reply_error(packet, str(exc))
                return
            wire_result = encode(result)
            yield Timeout(self.clock.serialize_us(len(wire_result)))
            self.tracer.count("rpc.served")
            self.host.send(packet.reply(
                KIND_REPLY, {"ok": True, "result": wire_result},
                16 + len(wire_result)))
        finally:
            self.workers.release()

    def _reply_error(self, packet: Packet, message: str):
        self.tracer.count("rpc.faulted")
        wire = encode(message)
        yield Timeout(self.clock.serialize_us(len(wire)))
        self.host.send(packet.reply(
            KIND_REPLY, {"ok": False, "result": wire}, 16 + len(wire)))


class RpcClient:
    """Caller-side stub: serialize, send, await, deserialize."""

    def __init__(self, host: Host, timeout_us: float = 1_000_000.0,
                 clock: Optional[SerializationClock] = None,
                 tracer: Optional[Tracer] = None):
        self.host = host
        self.sim: Simulator = host.sim
        self.timeout_us = timeout_us
        self.clock = clock if clock is not None else SerializationClock()
        self.tracer = tracer or Tracer()
        host.on(KIND_REPLY, host.complete)

    def call(self, endpoint: str, method: str, **args: Any):
        """Process: invoke ``method`` at ``endpoint`` with ``args``.

        Returns the deserialized result; raises :class:`RpcError` on a
        remote fault and :class:`RpcTimeout` if no reply arrives.
        """
        start = self.sim.now
        wire_args = encode(args)
        yield Timeout(self.clock.serialize_us(len(wire_args)))
        reply = yield self.host.request(Packet(
            kind=KIND_CALL, src=self.host.name, dst=endpoint,
            payload={"method": method, "args": wire_args},
            payload_bytes=24 + len(wire_args),
        ), self.timeout_us)
        if reply is None:
            self.tracer.count("rpc.timeout")
            raise RpcTimeout(f"{endpoint}.{method} timed out after {self.timeout_us}us")
        wire_result = reply.payload["result"]
        yield Timeout(self.clock.deserialize_us(len(wire_result)))
        result = decode(wire_result)
        self.tracer.sample("rpc.call_us", self.sim.now - start)
        if not reply.payload["ok"]:
            self.tracer.count("rpc.remote_fault")
            raise RpcError(f"{endpoint}.{method}: {result}")
        self.tracer.count("rpc.ok")
        return result
