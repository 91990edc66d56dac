"""The end-to-end (E2E) discovery scheme.

§4: "In E2E, hosts store a destination cache, recording a map of object
IDs and hosts that it must use broadcast to discover on first access...
The E2E scheme is potentially more scalable, but has worst-case latency
of 2 round-trip times (RTTs) if the cache grows stale (as this triggers
a broadcast discovery packet followed by the unicast access packet)."

Protocol, as reproduced (interpretation documented in EXPERIMENTS.md):

* **cache hit** — unicast access to the cached holder: 1 RTT;
* **first access (new object)** — broadcast ``find`` answered by the
  holder (1 RTT), then the unicast access (1 RTT): 2 RTTs total and one
  broadcast on the wire (Figure 2's rising E2E line);
* **stale entry (object moved)** — the unicast access bounces with a
  NACK, and the requester re-discovers with a *combined* find+access
  broadcast whose reply carries the data: 2 RTTs total, matching
  Figure 3's 1 -> 2 RTT climb;
* **forwarding variant** (``use_forwarding_hints``) — the old holder
  forwards the access to where it sent the object instead of NACKing,
  the §4 closing "network can absorb some of the cost" ablation.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..core.objectid import ObjectID
from ..obs.registry import MetricsRegistry
from ..sim import Simulator, Tracer
from ..net.host import Host
from ..net.packet import BROADCAST, Packet
from .base import (
    ACCESS_BYTES,
    KIND_ACCESS_NACK,
    KIND_ACCESS_REQ,
    KIND_ACCESS_RSP,
    KIND_FIND,
    KIND_FOUND,
    AccessRecord,
    DiscoveryError,
)

__all__ = ["E2EResolver"]


class E2EResolver:
    """Requester-side E2E discovery: destination cache + broadcast find."""

    def __init__(self, host: Host, timeout_us: float = 50_000.0,
                 max_retries: int = 3, tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 metrics_name: str = "discovery.e2e"):
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
        host.on(KIND_FOUND, host.complete)
        host.on(KIND_ACCESS_RSP, host.complete)
        host.on(KIND_ACCESS_NACK, host.complete)

    # -- exchange helper ---------------------------------------------------
    def _exchange(self, make_request: Callable[[], Packet], record: AccessRecord):
        """Process: send ``make_request()`` and await its reply, retrying
        (a fresh request each time, so only an answer to the attempt in
        flight counts) up to ``max_retries`` times on timeout.  Returns
        the reply packet or None if every attempt timed out.

        Each attempt is a full request/reply exchange on the wire, so
        ``round_trips`` is counted here, per send — counting once at the
        call site would under-report latency accounting under loss."""
        for _ in range(self.max_retries):
            record.round_trips += 1
            reply = yield self.host.request(make_request(), self.timeout_us)
            if reply is not None:
                return reply
            self.tracer.count("e2e.timeout")
        return None

    # -- the access operation ------------------------------------------------
    def access(self, oid: ObjectID, offset: int = 0, length: int = ACCESS_BYTES):
        """Process: read one cache line of ``oid``; returns AccessRecord."""
        record = AccessRecord(oid=oid, start_us=self.sim.now)
        cached_holder = self.cache.get(oid)
        if cached_holder is None:
            record.was_new = True
            ok = yield from self._discover_then_access(oid, offset, length, record)
        else:
            ok = yield from self._access_via(cached_holder, oid, offset, length, record)
        record.ok = ok
        record.end_us = self.sim.now
        self.tracer.sample("e2e.access_us", record.latency_us)
        self.tracer.count("e2e.access_ok" if ok else "e2e.access_failed")
        return record

    def _access_via(self, holder: str, oid: ObjectID, offset: int, length: int,
                    record: AccessRecord):
        """Unicast access to a (possibly stale) holder."""
        reply = yield from self._exchange(lambda: Packet(
            kind=KIND_ACCESS_REQ, src=self.host.name, dst=holder, oid=oid,
            payload={"offset": offset, "length": length}, payload_bytes=24,
        ), record)
        if reply is None:
            return False
        if reply.kind == KIND_ACCESS_RSP:
            self.cache[oid] = reply.payload["holder"]
            return True
        # NACK: our cache was stale.  Re-discover with data piggybacked.
        record.was_stale = True
        self.tracer.count("e2e.stale")
        self.cache.pop(oid, None)
        hint = reply.payload.get("hint")
        if hint:
            # NACK carried a forwarding hint: retry unicast, no broadcast.
            return (yield from self._access_via(hint, oid, offset, length, record))
        return (yield from self._find(oid, offset, length, record, include_data=True))

    def _discover_then_access(self, oid: ObjectID, offset: int, length: int,
                              record: AccessRecord):
        """First access: plain discovery broadcast, then unicast access."""
        found = yield from self._find(oid, offset, length, record, include_data=False)
        if not found:
            return False
        return (yield from self._access_via(self.cache[oid], oid, offset, length, record))

    def _find(self, oid: ObjectID, offset: int, length: int,
              record: AccessRecord, include_data: bool):
        """Broadcast a find; on ``include_data`` the reply doubles as the
        access response (the stale-retry fast path)."""
        def find():
            record.broadcasts += 1
            self.tracer.count("e2e.broadcast")
            return Packet(
                kind=KIND_FIND, src=self.host.name, dst=BROADCAST, oid=oid,
                payload={"include_data": include_data, "offset": offset,
                         "length": length},
                payload_bytes=24,
            )

        reply = yield from self._exchange(find, record)
        if reply is None:
            return False
        self.cache[oid] = reply.payload["holder"]
        return True
