"""RPC middleware: discovery services and load balancers.

§1: "data center operators often deploy discovery services, load
balancers, or other forms of middleware.  These extra indirection layers
make the execution endpoint abstract, but at the cost of increased
latency and added system complexity."

Both pieces are real network participants, so their indirection cost
shows up honestly in the simulated latency:

* :class:`ServiceRegistry` — a name service: backends register service
  names, clients resolve a name to an endpoint (one extra RPC on the
  first call; clients cache).
* :class:`LoadBalancer` — a proxy endpoint that forwards calls to
  backends round-robin; every call pays the extra network hop and the
  balancer's per-packet processing time.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from ..sim import Simulator, Tracer
from ..net.host import Host
from ..net.packet import Packet
from .stubs import KIND_CALL, KIND_REPLY, RpcClient, RpcError, RpcServer

__all__ = ["ServiceRegistry", "ResolvingClient", "LoadBalancer"]


class ServiceRegistry:
    """A name service implemented *as an RPC server* (it is middleware
    made of the very mechanism it serves)."""

    def __init__(self, host: Host):
        self.host = host
        self._endpoints: Dict[str, List[str]] = {}
        self._rr: Dict[str, itertools.cycle] = {}
        self.server = RpcServer(host, workers=8)
        self.server.register("register", self._register, compute_us=1.0)
        self.server.register("resolve", self._resolve, compute_us=1.0)

    def _register(self, service: str, backend: str) -> bool:
        backends = self._endpoints.setdefault(service, [])
        if backend not in backends:
            backends.append(backend)
            self._rr[service] = itertools.cycle(list(backends))
        return True

    def _resolve(self, service: str) -> str:
        backends = self._endpoints.get(service)
        if not backends:
            raise ValueError(f"no backends registered for {service!r}")
        return next(self._rr[service])

    def known_services(self) -> List[str]:
        """Sorted names of registered services."""
        return sorted(self._endpoints)


class ResolvingClient:
    """An RPC client that goes through the registry: resolve, then call.

    The first call to a service pays the resolution round trip; the
    endpoint is cached afterwards (and re-resolved on fault), which is
    exactly the indirection/latency trade §1 describes.
    """

    def __init__(self, host: Host, registry_endpoint: str,
                 timeout_us: float = 1_000_000.0):
        self.client = RpcClient(host, timeout_us=timeout_us)
        self.registry_endpoint = registry_endpoint
        self._cache: Dict[str, str] = {}
        self.resolutions = 0

    def call(self, service: str, method: str, **args):
        """Process: resolve ``service`` (cached) and invoke ``method``."""
        endpoint = self._cache.get(service)
        if endpoint is None:
            endpoint = yield from self.client.call(
                self.registry_endpoint, "resolve", service=service)
            self.resolutions += 1
            self._cache[service] = endpoint
        try:
            result = yield from self.client.call(endpoint, method, **args)
        except RpcError:
            # Stale endpoint: drop the cache entry and re-resolve once.
            self._cache.pop(service, None)
            endpoint = yield from self.client.call(
                self.registry_endpoint, "resolve", service=service)
            self.resolutions += 1
            self._cache[service] = endpoint
            result = yield from self.client.call(endpoint, method, **args)
        return result


class LoadBalancer:
    """An L7 proxy: accepts RPC calls and relays them to backends.

    Adds one hop each way plus ``proxy_delay_us`` of processing — the
    modelled cost of making the endpoint abstract.
    """

    def __init__(self, host: Host, backends: List[str],
                 proxy_delay_us: float = 5.0, tracer: Optional[Tracer] = None):
        if not backends:
            raise RpcError("load balancer needs at least one backend")
        self.host = host
        self.sim: Simulator = host.sim
        self.backends = list(backends)
        self.proxy_delay_us = proxy_delay_us
        self.tracer = tracer or Tracer()
        self._next = 0
        # req_id -> original caller, so replies can be relayed back.
        self._inflight: Dict[int, str] = {}
        host.on(KIND_CALL, self._on_call)
        host.on(KIND_REPLY, self._on_reply)

    def _pick_backend(self) -> str:
        backend = self.backends[self._next % len(self.backends)]
        self._next += 1
        return backend

    def _on_call(self, packet: Packet) -> None:
        self.tracer.count("lb.forwarded")
        self._inflight[packet.payload["req_id"]] = packet.src
        backend = self._pick_backend()
        self.sim.schedule(self.proxy_delay_us, self._relay, packet, backend)

    def _relay(self, packet: Packet, backend: str) -> None:
        self.host.send(Packet(
            kind=KIND_CALL, src=self.host.name, dst=backend,
            payload=packet.payload, payload_bytes=packet.payload_bytes,
        ))

    def _on_reply(self, packet: Packet) -> None:
        caller = self._inflight.pop(packet.payload["req_id"], None)
        if caller is None:
            self.tracer.count("lb.orphan_reply")
            return
        self.tracer.count("lb.replied")
        self.sim.schedule(self.proxy_delay_us, self._relay_reply, packet, caller)

    def _relay_reply(self, packet: Packet, caller: str) -> None:
        self.host.send(Packet(
            kind=KIND_REPLY, src=self.host.name, dst=caller,
            payload=packet.payload, payload_bytes=packet.payload_bytes,
        ))
