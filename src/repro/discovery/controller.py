"""The controller-based discovery scheme.

§4: "in the controller scheme, hosts notify controllers about objects,
which are then responsible for updating forwarding tables of switches...
the controller scheme has uniform latency of 1 RTT (and is unicast)."

Three pieces (the advertisement ingress itself lives in
:class:`DirectoryController`, shared with the sharded plane in
:mod:`repro.discovery.sharded`):

* :class:`SdnController` — logic attached to the controller host; on an
  ``ctl.advertise`` it computes, for every switch, the shortest-path
  egress port toward the owner and installs an exact-match identity
  route (respecting switch table capacity — installs can fail when the
  table fills, the E12 scaling wall).
* :func:`advertise` — owner-side: advertise on creation and on
  movement (``Testbed.create_object`` and ``Testbed.move`` call it).
* :class:`IdentityAccessor` — requester-side: accesses are a single
  identity-routed request (no host address; switches forward on the
  object ID) answered by a unicast reply: uniform 1 RTT, zero broadcast.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.objectid import ObjectID
from ..obs.registry import MetricsRegistry
from ..sim import Simulator, Tracer
from ..net.host import Host
from ..net.packet import Packet
from ..net.topology import Network
from .base import (
    ACCESS_BYTES,
    KIND_ACCESS_NACK,
    KIND_ACCESS_REQ,
    KIND_ACCESS_RSP,
    KIND_ADVERTISE,
    AccessRecord,
    DiscoveryError,
)

__all__ = ["CONTROLLER_HOST", "DirectoryController", "SdnController",
           "IdentityAccessor", "advertise"]

# The host an owner's advertisement goes to.  The topology builders in
# ``repro.net`` spell it out, since ``net`` sits below ``discovery``.
CONTROLLER_HOST = "controller"


class DirectoryController:
    """Advertisement ingress shared by every controller-plane variant.

    Owns the ``{oid: owner}`` directory and the ``ctl.advertise``
    handler; subclasses decide what accepting an advertisement *does* —
    the single :class:`SdnController` pushes identity routes into switch
    tables, the sharded directory (:mod:`repro.discovery.sharded`) acks
    the owner and invalidates outstanding leases.
    """

    def __init__(self, host: Host, metrics: Optional[MetricsRegistry] = None,
                 metrics_name: Optional[str] = None):
        self.host = host
        self.sim: Simulator = host.sim
        self.tracer = Tracer()
        if metrics is not None and metrics_name is not None:
            metrics.register(metrics_name, self.tracer, replace=True)
        self.owner_of: Dict[ObjectID, str] = {}
        host.on(KIND_ADVERTISE, self._on_advertise)

    def _on_advertise(self, packet: Packet) -> None:
        oid = packet.oid
        assert oid is not None
        owner = packet.payload["owner"]
        previous = self.owner_of.get(oid)
        self.owner_of[oid] = owner
        self._accepted(oid, owner, previous, packet)

    def _accepted(self, oid: ObjectID, owner: str, previous: Optional[str],
                  packet: Packet) -> None:
        """Hook: an advertisement was stored (``previous`` may equal
        ``owner`` on a refresh)."""

    def supersedes(self, oid: ObjectID, owner: str) -> bool:
        """True while ``owner`` is still the directory's answer for
        ``oid`` — deferred work (route installs) checks this so a newer
        advertisement wins."""
        return self.owner_of.get(oid) == owner


class SdnController(DirectoryController):
    """Controller logic: advertisement ingress + switch table updates.

    ``INSTALL_DELAY_US`` models the control-channel and table-write
    time per switch; installs across switches proceed in parallel.  The
    controller is attached to a real host, so advertisements themselves
    traverse the data network (they are control traffic, off the access
    path — Figure 2 measures access RTT, not advertisement cost).
    """

    INSTALL_DELAY_US = 20.0

    def __init__(self, network: Network, host: Host,
                 metrics: Optional[MetricsRegistry] = None):
        super().__init__(host, metrics=metrics,
                         metrics_name="discovery.controller")
        self.network = network
        self.install_failures = 0

    def _accepted(self, oid: ObjectID, owner: str, previous: Optional[str],
                  packet: Packet) -> None:
        self.sim.schedule(self.INSTALL_DELAY_US, self._install_routes, oid, owner)

    def _install_routes(self, oid: ObjectID, owner: str) -> None:
        """Point every switch's identity table at ``owner`` for ``oid``."""
        if not self.supersedes(oid, owner):
            return  # a newer advertisement superseded this one
        for switch in self.network.switches:
            port = self.network.port_toward(switch.name, owner)
            if not switch.install_identity_route(oid, port):
                self.install_failures += 1


def advertise(host: Host, oid: ObjectID) -> None:
    """Owner-side: tell the controller (the host named
    :data:`CONTROLLER_HOST`) this host holds ``oid``.

    Called at object creation and again after movement (the §4 model:
    "hosts notify controllers about objects").
    """
    host.send(Packet(
        kind=KIND_ADVERTISE, src=host.name, dst=CONTROLLER_HOST, oid=oid,
        payload={"owner": host.name}, payload_bytes=24,
    ))


class IdentityAccessor:
    """Requester-side accessor that routes on object identity.

    No destination cache, no discovery step: the switches *are* the
    location service.  Every access is one identity-routed request and
    one unicast reply.
    """

    def __init__(self, host: Host, timeout_us: float = 50_000.0,
                 max_retries: int = 3):
        if timeout_us <= 0:
            raise DiscoveryError("timeout must be positive")
        self.host = host
        self.sim: Simulator = host.sim
        self.timeout_us = timeout_us
        self.max_retries = max_retries
        host.on(KIND_ACCESS_RSP, host.complete)
        host.on(KIND_ACCESS_NACK, host.complete)

    def access(self, oid: ObjectID, offset: int = 0, length: int = ACCESS_BYTES):
        """Process: read one cache line of ``oid``; returns AccessRecord."""
        record = AccessRecord(oid=oid, start_us=self.sim.now)
        for _ in range(self.max_retries):
            record.round_trips += 1
            reply = yield self.host.request(Packet(
                kind=KIND_ACCESS_REQ, src=self.host.name, dst=None, oid=oid,
                payload={"offset": offset, "length": length}, payload_bytes=24,
            ), self.timeout_us)
            if reply is None:
                continue
            if reply.kind == KIND_ACCESS_RSP:
                record.ok = True
                break
            # NACK: routes are mid-update after a movement; retry.
        record.end_us = self.sim.now
        return record
