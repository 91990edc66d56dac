"""Client-side helpers for the in-network synchronization services."""

from __future__ import annotations

from typing import Optional

from ..sim import Simulator, Tracer
from ..net.host import Host
from ..net.packet import Packet
from .services import (
    KIND_LOCK_ACQ,
    KIND_LOCK_GRANT,
    KIND_LOCK_REL,
    KIND_SEQ_REQ,
    KIND_SEQ_RSP,
)

__all__ = ["SyncClient"]


class SyncClient:
    """A host's handle on a sequencer / lock service.

    ``service`` is the *name* of whichever element runs the service —
    a switch (in-network) or a host (baseline); the wire protocol is
    identical, which is what makes the E13 comparison clean.
    """

    def __init__(self, host: Host, service: str,
                 tracer: Optional[Tracer] = None):
        self.host = host
        self.sim: Simulator = host.sim
        self.service = service
        self.tracer = tracer or Tracer()
        host.on(KIND_SEQ_RSP, host.complete)
        host.on(KIND_LOCK_GRANT, host.complete)

    def _request(self, kind: str, payload: dict):
        """Waitable: the service's answer, however long the grant takes."""
        return self.host.request(Packet(
            kind=kind, src=self.host.name, dst=self.service,
            payload=payload, payload_bytes=24,
        ))

    def next_sequence(self, stream: str = "default"):
        """Process: obtain the next ticket of ``stream``."""
        start = self.sim.now
        reply = yield self._request(KIND_SEQ_REQ, {"stream": stream})
        self.tracer.sample("sync.seq_us", self.sim.now - start)
        return reply.payload["value"]

    def acquire_lock(self, name: str):
        """Process: block until the named lock is granted to us."""
        start = self.sim.now
        yield self._request(KIND_LOCK_ACQ, {"name": name})
        self.tracer.sample("sync.lock_us", self.sim.now - start)
        return True

    def release_lock(self, name: str) -> None:
        """Fire-and-forget release (the service ignores stale releases)."""
        self.host.send(Packet(
            kind=KIND_LOCK_REL, src=self.host.name, dst=self.service,
            payload={"name": name}, payload_bytes=24,
        ))
