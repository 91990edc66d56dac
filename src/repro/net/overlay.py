"""WAN overlay: hierarchical identity routing across regions.

§4: "we plan to continue our investigation more broadly, and will
consider overlay networks to layer on WAN routing"; §3.2: "To scale to
larger deployments, we will explore hierarchical identifier overlay
schemes."

The overlay keeps each region's switch tables bounded by *local*
objects: a rack switch holds identity entries only for objects homed in
its own region, so the §3.2 capacity wall is per-region rather than
global.  Cross-region traffic goes through gateways:

* an identity-routed packet whose object is foreign misses the local
  identity table and is **punted** to the region's gateway;
* the gateway consults the :class:`RegionDirectory` (oid -> region,
  host -> region: the hierarchical level of the identifier space),
  encapsulates the packet, and tunnels it over the WAN to the remote
  gateway, which re-injects it into its rack where local identity
  routing completes delivery;
* replies addressed to a foreign host are picked up promiscuously by
  the gateway and tunnelled home the same way.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.objectid import ObjectID
from ..sim import Simulator, Tracer
from .host import Host
from .packet import Packet
from .switch import MISS_PUNT
from .topology import Network

__all__ = ["RegionDirectory", "OverlayGateway", "MultiRegionNetwork",
           "build_multi_region", "KIND_TUNNEL"]

KIND_TUNNEL = "ovl.tunnel"
TUNNEL_OVERHEAD_BYTES = 40


class RegionDirectory:
    """The hierarchical level of the identifier space: which region an
    object (or host) belongs to.  One shared instance stands in for the
    replicated control plane a real deployment would run."""

    def __init__(self) -> None:
        self._object_region: Dict[ObjectID, str] = {}
        self._host_region: Dict[str, str] = {}

    def register_object(self, oid: ObjectID, region: str) -> None:
        """Record which region ``oid`` is homed in."""
        self._object_region[oid] = region

    def register_host(self, host_name: str, region: str) -> None:
        """Record which region ``host_name`` belongs to."""
        self._host_region[host_name] = region

    def region_of_object(self, oid: ObjectID) -> Optional[str]:
        """Region housing ``oid``, or None."""
        return self._object_region.get(oid)

    def region_of_host(self, host_name: str) -> Optional[str]:
        """Region housing ``host_name``, or None."""
        return self._host_region.get(host_name)

    @property
    def object_count(self) -> int:
        """Number of registered objects."""
        return len(self._object_region)


class OverlayGateway:
    """A region's border element: punted/foreign traffic goes through it.

    Its host's port 0 faces the region's rack, port 1 the WAN."""

    RACK_PORT = 0
    WAN_PORT = 1

    def __init__(self, host: Host, region: str, directory: RegionDirectory,
                 gateway_of: Dict[str, str]):
        self.host = host
        self.sim: Simulator = host.sim
        self.region = region
        self.directory = directory
        self.gateway_of = gateway_of  # region -> gateway host name
        self.tracer = Tracer()
        host.promiscuous = True
        host.on(KIND_TUNNEL, self._on_tunnel)
        host.set_default_handler(self._on_transit)

    # -- egress: traffic leaving this region -----------------------------------
    def _tunnel_to(self, region: str, packet: Packet) -> None:
        remote_gateway = self.gateway_of[region]
        self.tracer.count("gateway.tunnelled")
        self._send_wan(Packet(
            kind=KIND_TUNNEL, src=self.host.name, dst=remote_gateway,
            payload={
                "kind": packet.kind,
                "src": packet.src,
                "dst": packet.dst,
                "oid": str(packet.oid) if packet.oid is not None else None,
                "payload": packet.payload,
                "payload_bytes": packet.payload_bytes,
            },
            payload_bytes=TUNNEL_OVERHEAD_BYTES + packet.size_bytes,
        ))

    def _send_wan(self, packet: Packet) -> None:
        self.host.send(packet, port=self.WAN_PORT)

    def _send_rack(self, packet: Packet) -> None:
        self.host.send(packet, port=self.RACK_PORT)

    def _on_transit(self, packet: Packet) -> None:
        """A packet surfaced at the gateway: identity-routed punts and
        promiscuously captured foreign unicast."""
        if packet.src == self.host.name:
            return  # our own transmissions echoed by flooding
        if packet.is_identity_routed:
            region = self.directory.region_of_object(packet.oid)
            if region is None or region == self.region:
                self.tracer.count("gateway.unroutable")
                return
            self._tunnel_to(region, packet)
            return
        if packet.dst is not None:
            region = self.directory.region_of_host(packet.dst)
            if region is None or region == self.region:
                # Local or unknown destination: the rack handles it.
                self.tracer.count("gateway.local_ignored")
                return
            self._tunnel_to(region, packet)

    # -- ingress: traffic arriving from the WAN ---------------------------------
    def _on_tunnel(self, packet: Packet) -> None:
        if packet.dst != self.host.name:
            # Promiscuous capture of a tunnel bound for another gateway
            # (the WAN core flooded an unlearned destination): not ours.
            self.tracer.count("gateway.tunnel_ignored")
            return
        inner = packet.payload
        self.tracer.count("gateway.delivered")
        oid = ObjectID.from_hex(inner["oid"]) if inner["oid"] else None
        self._send_rack(Packet(
            kind=inner["kind"],
            src=inner["src"],
            dst=inner["dst"],
            oid=oid,
            payload=inner["payload"],
            payload_bytes=inner["payload_bytes"],
        ))


class MultiRegionNetwork:
    """A WAN-connected set of regional fabrics plus their overlay."""

    def __init__(self, network: Network, directory: RegionDirectory,
                 gateways: Dict[str, OverlayGateway],
                 hosts_by_region: Dict[str, List[str]]):
        self.network = network
        self.directory = directory
        self.gateways = gateways
        self.hosts_by_region = hosts_by_region

    def region_switch(self, region: str):
        """The rack switch of ``region``."""
        return self.network.switch(f"{region}_sw")

    def register_local_object(self, oid: ObjectID, region: str,
                              holder: str) -> None:
        """Control plane: record the object's region and install the
        identity route *inside that region only*."""
        self.directory.register_object(oid, region)
        switch = self.region_switch(region)
        port = self.network.port_toward(switch.name, holder)
        switch.install_identity_route(oid, port)


def build_multi_region(
    sim: Simulator,
    n_regions: int,
    hosts_per_region: int,
) -> MultiRegionNetwork:
    """Regions of (switch + hosts + gateway), joined by a WAN core switch.

    Region r contributes hosts ``r{r}_h{i}``, switch ``r{r}_sw``, and
    gateway ``r{r}_gw``.  Rack switches punt identity misses to their
    gateway; the WAN core is an ordinary switch with slow fat links
    (2 ms, 1 Gbps; rack links are 5 us).
    """
    if n_regions < 2:
        raise ValueError("an overlay needs at least two regions")
    net = Network(sim, default_latency_us=5.0)
    directory = RegionDirectory()
    gateway_of: Dict[str, str] = {}
    hosts_by_region: Dict[str, List[str]] = {}
    net.add_switch("wan_core")
    for r in range(n_regions):
        region = f"r{r}"
        switch = net.add_switch(f"{region}_sw", miss_behavior=MISS_PUNT)
        hosts_by_region[region] = []
        for i in range(hosts_per_region):
            name = f"{region}_h{i}"
            net.add_host(name)
            net.connect(name, f"{region}_sw")
            directory.register_host(name, region)
            hosts_by_region[region].append(name)
        gateway_name = f"{region}_gw"
        net.add_host(gateway_name)
        net.connect(gateway_name, f"{region}_sw")
        net.connect(gateway_name, "wan_core", latency_us=2_000.0,
                    bandwidth_gbps=1.0)
        directory.register_host(gateway_name, region)
        gateway_of[region] = gateway_name
    gateways = {}
    for r in range(n_regions):
        region = f"r{r}"
        gateway = OverlayGateway(net.host(f"{region}_gw"), region,
                                 directory, gateway_of)
        gateways[region] = gateway
        # Punt identity misses to the gateway's rack port.
        switch = net.switch(f"{region}_sw")
        gateway_port = net.port_toward(switch.name, f"{region}_gw")

        def make_punt(sw, port):
            def punt(packet: Packet, in_port: int) -> None:
                if port != in_port:
                    sw.send_on_port(port, packet)
            return punt

        switch.set_punt_handler(make_punt(switch, gateway_port))
    return MultiRegionNetwork(net, directory, gateways, hosts_by_region)
