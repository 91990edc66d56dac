"""Network nodes: the common base for hosts and switches."""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..sim import Simulator, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .link import Link
    from .packet import Packet

__all__ = ["Node", "NodeError"]


class NodeError(Exception):
    """Raised on mis-wiring (unknown ports, duplicate names...)."""


class Node:
    """A named network element with numbered ports.

    Ports are created by attaching links; ``receive`` is the ingress
    entry point subclasses override.  Every node owns a :class:`Tracer`
    so experiments can read per-node counters.

    ``tracer`` is assigned here and never again: :class:`Host`,
    :class:`Switch` and the protocol layers above bind the counter cells
    of their per-packet sites right after it is set, so one swapped in
    later would be bypassed.  Construct the node with the tracer it
    should have.
    """

    def __init__(self, sim: Simulator, name: str, tracer: Optional[Tracer] = None):
        if not name:
            raise NodeError("node needs a non-empty name")
        self.sim = sim
        self.name = name
        self.tracer = tracer or Tracer()
        self.links: List["Link"] = []
        # Per-port transmit ends, resolved once at wiring time so the
        # per-packet egress path is a single list index instead of a
        # link lookup + endpoint comparison (see Link.__init__, which
        # fills the slot its attach() call reserves here).
        self._tx_ends: List = []

    def attach(self, link: "Link") -> int:
        """Register ``link`` on the next free port; returns the port index."""
        self.links.append(link)
        self._tx_ends.append(None)
        return len(self.links) - 1

    @property
    def port_count(self) -> int:
        """Number of attached links."""
        return len(self.links)

    def send_on_port(self, port: int, packet: "Packet") -> None:
        """Transmit ``packet`` out of ``port``."""
        ends = self._tx_ends
        if not 0 <= port < len(ends):
            raise NodeError(f"{self.name}: no port {port} (have {len(ends)})")
        ends[port].transmit(packet)

    def neighbor(self, port: int) -> "Node":
        """The node on the far end of ``port``."""
        if not 0 <= port < len(self.links):
            raise NodeError(f"{self.name}: no port {port}")
        return self.links[port].other(self)

    def receive(self, packet: "Packet", in_port: int) -> None:
        """Ingress handler; subclasses must override."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} ports={self.port_count}>"
