"""In-network synchronization services (§5).

"At the level of the system co-design, we will experiment with
offloading some synchronization and arbitration concerns to the
programmable network (which now functions somewhat as a memory bus)" —
citing NetChain's sub-RTT coordination and in-network optimistic
concurrency control.

Two services that run *inside a switch* (data-plane state, half the
round trip of a host-based server on the same path), plus host-based
baselines with identical wire protocols so benchmarks compare like for
like:

* **sequencer** — per-stream monotone counters (ticket dispensers,
  transaction timestamping);
* **lock manager** — named exclusive locks with FIFO grant queues.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from ..sim import Tracer
from ..net.host import Host
from ..net.packet import Packet
from ..net.switch import Switch

__all__ = [
    "SwitchSequencer",
    "HostSequencer",
    "SwitchLockService",
    "HostLockService",
    "KIND_SEQ_REQ",
    "KIND_SEQ_RSP",
    "KIND_LOCK_ACQ",
    "KIND_LOCK_GRANT",
    "KIND_LOCK_REL",
]

KIND_SEQ_REQ = "sync.seq_req"
KIND_SEQ_RSP = "sync.seq_rsp"
KIND_LOCK_ACQ = "sync.lock_acq"
KIND_LOCK_GRANT = "sync.lock_grant"
KIND_LOCK_REL = "sync.lock_rel"


class _SequencerCore:
    """Shared per-stream counter logic."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self.tickets_issued = 0

    def next_value(self, stream: str) -> int:
        """Issue the next ticket of ``stream``."""
        value = self._counters.get(stream, 0) + 1
        self._counters[stream] = value
        self.tickets_issued += 1
        return value


class SwitchSequencer:
    """A sequencer living in the switch pipeline.

    Requests addressed to the switch's own name are answered from
    register state in one pipeline pass — the requester pays exactly the
    RTT to the switch, not to any host behind it.
    """

    def __init__(self, switch: Switch, tracer: Optional[Tracer] = None):
        self.switch = switch
        self.core = _SequencerCore()
        self.tracer = tracer or Tracer()
        switch.register_service(KIND_SEQ_REQ, self._on_request)

    def _on_request(self, packet: Packet) -> None:
        value = self.core.next_value(packet.payload["stream"])
        self.tracer.count("sequencer.ticket")
        self.switch.send_from_service(
            packet.reply(KIND_SEQ_RSP, {"value": value}, 16))


class HostSequencer:
    """The baseline: the same sequencer as an end-host server."""

    def __init__(self, host: Host, tracer: Optional[Tracer] = None):
        self.host = host
        self.core = _SequencerCore()
        self.tracer = tracer or Tracer()
        host.on(KIND_SEQ_REQ, self._on_request)

    def _on_request(self, packet: Packet) -> None:
        value = self.core.next_value(packet.payload["stream"])
        self.tracer.count("sequencer.ticket")
        self.host.send(packet.reply(KIND_SEQ_RSP, {"value": value}, 16))


class _LockCore:
    """Named exclusive locks with FIFO waiters.

    Returns, for each event, the (holder, request) pairs that should
    receive grants now.
    """

    def __init__(self) -> None:
        self._holders: Dict[str, str] = {}
        self._waiters: Dict[str, Deque[Tuple[str, int]]] = {}
        self.grants = 0
        self.queued = 0

    def acquire(self, name: str, requester: str, req_id: int):
        """Try to take the lock; returns grants to deliver now."""
        if name not in self._holders:
            self._holders[name] = requester
            self.grants += 1
            return [(requester, req_id)]
        self._waiters.setdefault(name, deque()).append((requester, req_id))
        self.queued += 1
        return []

    def release(self, name: str, requester: str):
        """Release a holder; returns follow-on grants to deliver."""
        if self._holders.get(name) != requester:
            return []  # stale or duplicate release: ignore
        waiters = self._waiters.get(name)
        if waiters:
            next_requester, req_id = waiters.popleft()
            self._holders[name] = next_requester
            self.grants += 1
            return [(next_requester, req_id)]
        del self._holders[name]
        return []

    def holder_of(self, name: str) -> Optional[str]:
        """Current holder of the named lock, or None."""
        return self._holders.get(name)


class SwitchLockService:
    """Exclusive locks arbitrated in the switch (NetChain-flavoured)."""

    def __init__(self, switch: Switch, tracer: Optional[Tracer] = None):
        self.switch = switch
        self.core = _LockCore()
        self.tracer = tracer or Tracer()
        switch.register_service(KIND_LOCK_ACQ, self._on_acquire)
        switch.register_service(KIND_LOCK_REL, self._on_release)

    def _grant(self, requester: str, req_id: int, name: str) -> None:
        self.tracer.count("locks.granted")
        self.switch.send_from_service(Packet(
            kind=KIND_LOCK_GRANT, src=self.switch.name, dst=requester,
            payload={"req_id": req_id, "name": name}, payload_bytes=24,
        ))

    def _on_acquire(self, packet: Packet) -> None:
        grants = self.core.acquire(packet.payload["name"], packet.src,
                                   packet.payload["req_id"])
        for requester, req_id in grants:
            self._grant(requester, req_id, packet.payload["name"])

    def _on_release(self, packet: Packet) -> None:
        grants = self.core.release(packet.payload["name"], packet.src)
        for requester, req_id in grants:
            self._grant(requester, req_id, packet.payload["name"])


class HostLockService:
    """The baseline: the same lock manager as an end-host server."""

    def __init__(self, host: Host, tracer: Optional[Tracer] = None):
        self.host = host
        self.core = _LockCore()
        self.tracer = tracer or Tracer()
        host.on(KIND_LOCK_ACQ, self._on_acquire)
        host.on(KIND_LOCK_REL, self._on_release)

    def _grant(self, requester: str, req_id: int, name: str) -> None:
        self.tracer.count("locks.granted")
        self.host.send(Packet(
            kind=KIND_LOCK_GRANT, src=self.host.name, dst=requester,
            payload={"req_id": req_id, "name": name}, payload_bytes=24,
        ))

    def _on_acquire(self, packet: Packet) -> None:
        grants = self.core.acquire(packet.payload["name"], packet.src,
                                   packet.payload["req_id"])
        for requester, req_id in grants:
            self._grant(requester, req_id, packet.payload["name"])

    def _on_release(self, packet: Packet) -> None:
        grants = self.core.release(packet.payload["name"], packet.src)
        for requester, req_id in grants:
            self._grant(requester, req_id, packet.payload["name"])
