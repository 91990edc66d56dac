"""The hybrid discovery scheme: combining E2E and controller routing.

§4: "we are building both schemes so we can compare their efficacy at
larger scales (and consider combinations of approaches in case of
limited hardware capabilities)."

The combination implemented here layers a host-side destination cache
(the E2E ingredient) over controller-installed identity routes (the SDN
ingredient), so each mechanism covers the other's weakness:

1. **cache hit** — unicast to the cached holder: 1 RTT, no switch state
   consumed;
2. **cache miss** — an identity-routed request: 1 RTT through installed
   routes when the switch table covers the object, and still 1 RTT via
   flood-on-miss when it does not (paying broadcast traffic instead of
   latency); the reply teaches the cache, so each object floods at most
   once per requester.

With an *unlimited* table this behaves like the controller scheme; with
*zero* table it degrades to first-touch flooding plus cached unicast —
and the interesting regime is in between, which the E12h benchmark
sweeps.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.objectid import ObjectID
from ..obs.registry import MetricsRegistry
from ..sim import Simulator, Tracer
from ..net.host import Host
from ..net.packet import Packet
from .base import (
    ACCESS_BYTES,
    KIND_ACCESS_NACK,
    KIND_ACCESS_REQ,
    KIND_ACCESS_RSP,
    AccessRecord,
    DiscoveryError,
)

__all__ = ["HybridAccessor"]


class HybridAccessor:
    """Requester-side hybrid: destination cache over identity routing."""

    def __init__(self, host: Host, timeout_us: float = 50_000.0,
                 max_retries: int = 3, tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 metrics_name: str = "discovery.hybrid"):
        if timeout_us <= 0:
            raise DiscoveryError("timeout must be positive")
        self.host = host
        self.sim: Simulator = host.sim
        self.timeout_us = timeout_us
        self.max_retries = max_retries
        self.tracer = tracer or Tracer()
        if metrics is not None:
            metrics.register(metrics_name, self.tracer, replace=True)
        self.cache: Dict[ObjectID, str] = {}
        host.on(KIND_ACCESS_RSP, host.complete)
        host.on(KIND_ACCESS_NACK, host.complete)

    def access(self, oid: ObjectID, offset: int = 0, length: int = ACCESS_BYTES):
        """Process: read one cache line of ``oid``; returns AccessRecord."""
        record = AccessRecord(oid=oid, start_us=self.sim.now)
        cached = self.cache.get(oid)
        record.was_new = cached is None
        for attempt in range(self.max_retries):
            if cached is not None:
                self.tracer.count("hybrid.unicast")
                dst = cached
            else:
                self.tracer.count("hybrid.identity_routed")
                dst = None  # identity-routed; switches resolve or flood
            record.round_trips += 1
            reply = yield self.host.request(Packet(
                kind=KIND_ACCESS_REQ, src=self.host.name, dst=dst, oid=oid,
                payload={"offset": offset, "length": length}, payload_bytes=24,
            ), self.timeout_us)
            if reply is None:
                self.tracer.count("hybrid.timeout")
                cached = None  # drop to identity routing on retry
                continue
            if reply.kind == KIND_ACCESS_RSP:
                self.cache[oid] = reply.payload["holder"]
                record.ok = True
                break
            # NACK: the cached holder no longer has it.
            self.tracer.count("hybrid.stale")
            record.was_stale = True
            self.cache.pop(oid, None)
            cached = reply.payload.get("hint")
        record.end_us = self.sim.now
        self.tracer.sample("hybrid.access_us", record.latency_us)
        self.tracer.count("hybrid.access_ok" if record.ok else "hybrid.access_failed")
        return record
