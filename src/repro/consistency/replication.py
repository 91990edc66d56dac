"""Gossip replication of CRDT state across hosts.

The movement-time auto-merge of §5: replicas of a progressive object
exchange serialized CRDT state over the simulated network and join it
into their local copy.  Because the underlying types are convergent,
any gossip pattern (pairwise, ring, random) reaches the same fixed
point; the harness measures rounds-to-convergence and bytes shipped.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..sim import Simulator, Tracer
from ..net.host import Host
from ..net.packet import Packet

__all__ = ["Replica", "gossip_round", "converge"]

KIND_SYNC = "crdt.sync"
KIND_SYNC_ACK = "crdt.sync_ack"


class Replica:
    """One host's replica of a CRDT instance.

    ``decode_merge`` is how incoming state joins local state — it is
    supplied by the CRDT type (e.g. ``GCounter.from_bytes`` + merge).
    """

    def __init__(self, host: Host, crdt: Any):
        self.host = host
        self.sim: Simulator = host.sim
        self.crdt = crdt
        self.tracer = Tracer()
        self.bytes_sent = 0
        self.merges = 0
        host.on(KIND_SYNC, self._on_sync)
        host.on(KIND_SYNC_ACK, host.complete)

    def _on_sync(self, packet: Packet) -> None:
        incoming = type(self.crdt).from_bytes(
            packet.payload["state"], self.crdt.replica_id)
        self.crdt.merge(incoming)
        self.merges += 1
        self.tracer.count("replica.merged")
        # Reply with our (now merged) state so one exchange symmetrizes.
        state = self.crdt.to_bytes()
        self.bytes_sent += len(state)
        self.host.send(packet.reply(
            KIND_SYNC_ACK, {"state": state}, 16 + len(state)))

    def sync_with(self, peer: str):
        """Process: one symmetric state exchange with ``peer``.

        After it completes, both replicas hold the join of their states.
        """
        state = self.crdt.to_bytes()
        self.bytes_sent += len(state)
        self.tracer.count("replica.sync_started")
        reply = yield self.host.request(Packet(
            kind=KIND_SYNC, src=self.host.name, dst=peer,
            payload={"state": state}, payload_bytes=16 + len(state),
        ))
        incoming = type(self.crdt).from_bytes(
            reply.payload["state"], self.crdt.replica_id)
        self.crdt.merge(incoming)
        self.merges += 1
        return True


def gossip_round(replicas: List[Replica], rng) -> "generator":
    """Process: every replica syncs with one random peer, sequentially
    (deterministic given the seeded rng)."""
    def _round():
        for replica in replicas:
            peers = [r for r in replicas if r is not replica]
            peer = rng.choice(peers)
            yield replica.sim.spawn(
                replica.sync_with(peer.host.name), name="gossip")
        return None
    return _round()


def converge(replicas: List[Replica], rng,
             equal: Optional[Callable[[Any, Any], bool]] = None):
    """Process: gossip until every replica's state compares equal.

    Returns the number of rounds taken; raises after 32 rounds
    (convergence failure — a real bug, since these are CvRDTs).
    """
    max_rounds = 32
    if equal is None:
        equal = lambda a, b: a == b

    def _converged() -> bool:
        first = replicas[0].crdt
        return all(equal(first, replica.crdt) for replica in replicas[1:])

    def _drive():
        for round_number in range(1, max_rounds + 1):
            yield replicas[0].sim.spawn(gossip_round(replicas, rng), name="round")
            if _converged():
                return round_number
        raise AssertionError(f"no convergence after {max_rounds} gossip rounds")

    return _drive()
