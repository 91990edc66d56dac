"""Topology construction and path queries.

Provides the rack-scale topologies the experiments run on, including the
paper's §4 setup: three hosts attached to four interconnected switches.
The :class:`Network` wrapper owns the simulator's nodes and links and
answers the two control-plane questions the schemes need:

* the route between two nodes, as hops, latency and per-byte time, both
  summed the way a store-and-forward fabric charges a frame (what
  placement prices a transfer on);
* for a given switch, which egress port leads toward a given host
  (what the SDN controller computes before installing identity routes).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

from ..obs.registry import MetricsRegistry
from ..sim import NULL_TRACER, Simulator, Tracer
from .host import Host
from .link import DEFAULT_BANDWIDTH_GBPS, DEFAULT_LATENCY_US, Link
from .node import Node, NodeError
from .switch import Switch

__all__ = [
    "Network",
    "Path",
    "build_paper_topology",
    "build_star",
    "build_line",
    "build_two_tier",
]


class Path(NamedTuple):
    """The route packets take from one node to another: the hop-shortest
    one, priced as an uncontended frame crosses it.  Every link
    serialises the whole frame again (store-and-forward), so
    ``us_per_byte`` sums each link's transmission time per byte;
    ``latency_us`` sums the link latencies and the pipeline delay of
    every switch the frame passes through.  A frame of ``n`` bytes
    arrives ``latency_us + n * us_per_byte`` after it is sent.  A node's
    path to itself has no hops and costs nothing."""

    hops: int
    latency_us: float
    us_per_byte: float


_HERE = Path(0, 0.0, 0.0)


class _Routes(NamedTuple):
    """What one BFS from a root records for each node that reaches it."""

    toward: Dict[str, str]  # the neighbour one step closer to the root
    paths: Dict[str, Path]  # the node's path to the root


class Network:
    """A named collection of hosts, switches, and links over one simulator."""

    def __init__(
        self,
        sim: Simulator,
        default_bandwidth_gbps: float = DEFAULT_BANDWIDTH_GBPS,
        default_latency_us: float = DEFAULT_LATENCY_US,
        default_loss_rate: float = 0.0,
        tracing: bool = True,
    ):
        self.sim = sim
        self.default_bandwidth_gbps = default_bandwidth_gbps
        self.default_latency_us = default_latency_us
        self.default_loss_rate = default_loss_rate
        self.nodes: Dict[str, Node] = {}
        self.links: List[Link] = []
        # ``tracing=False`` builds an untraced network: every node and
        # link shares the no-op NULL_TRACER, so hot paths skip all
        # counter bookkeeping (the bench runner measures raw forwarding
        # this way).  The registry skips null tracers at snapshot time.
        self.tracing = tracing
        self.tracer = Tracer() if tracing else NULL_TRACER
        # Cluster-wide view: every node tracer lands here under a
        # hierarchical name, and upper layers (runtime, discovery) add
        # their own — see OBSERVABILITY.md.
        self.metrics = MetricsRegistry()
        self.metrics.register("net.links", self.tracer)
        # The path table: one BFS record per root asked about, walked on
        # first use, dropped whole on a topology change (a node, a link or
        # a link latency); ``version`` counts those changes.
        self._routes: Dict[str, _Routes] = {}
        self.version = 0
        self.path = self._path  # rebound by _topology_changed

    # -- construction ----------------------------------------------------
    def _register(self, node: Node) -> None:
        if node.name in self.nodes:
            raise NodeError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        kind = "host" if isinstance(node, Host) else "switch"
        self.metrics.register(f"net.{kind}.{node.name}", node.tracer)
        self._topology_changed()

    def add_host(self, name: str) -> Host:
        """Create and register a host."""
        host = Host(self.sim, name,
                    tracer=None if self.tracing else NULL_TRACER)
        self._register(host)
        return host

    def add_switch(self, name: str, **kwargs) -> Switch:
        """Create and register a switch."""
        if not self.tracing:
            kwargs.setdefault("tracer", NULL_TRACER)
        switch = Switch(self.sim, name, **kwargs)
        self._register(switch)
        return switch

    def connect(
        self,
        a: str,
        b: str,
        bandwidth_gbps: Optional[float] = None,
        latency_us: Optional[float] = None,
    ) -> Link:
        """Link two nodes (defaults from the network)."""
        link = Link(
            self.sim,
            self.node(a),
            self.node(b),
            bandwidth_gbps=bandwidth_gbps or self.default_bandwidth_gbps,
            latency_us=self.default_latency_us if latency_us is None else latency_us,
            loss_rate=self.default_loss_rate,
            tracer=self.tracer,
        )
        link.network = self
        self.links.append(link)
        self._topology_changed()
        return link

    def _topology_changed(self) -> None:
        self._routes.clear()
        self.version += 1
        # Bound afresh on every change: ``path`` is one object for exactly
        # one topology, so a cache keyed on it (placement's memo) starts
        # over exactly when its answers may have gone stale.
        self.path = self._path

    # -- lookup ------------------------------------------------------------
    def node(self, name: str) -> Node:
        """Look up a node by name; raises if unknown."""
        node = self.nodes.get(name)
        if node is None:
            raise NodeError(f"unknown node {name!r}")
        return node

    def host(self, name: str) -> Host:
        """Look up a host by name; raises if not a host."""
        node = self.node(name)
        if not isinstance(node, Host):
            raise NodeError(f"node {name!r} is not a host")
        return node

    def switch(self, name: str) -> Switch:
        """Look up a switch by name; raises if not a switch."""
        node = self.node(name)
        if not isinstance(node, Switch):
            raise NodeError(f"node {name!r} is not a switch")
        return node

    def link_between(self, a: str, b: str) -> Link:
        """The (first) link directly joining nodes ``a`` and ``b``."""
        node_a, node_b = self.node(a), self.node(b)
        for link in node_a.links:
            if link.other(node_a) is node_b:
                return link
        raise NodeError(f"no link between {a!r} and {b!r}")

    # -- partitions --------------------------------------------------------
    def set_partition(self, groups: Sequence[Iterable[str]]) -> None:
        """Split the named hosts into isolated groups.

        Hosts in different groups drop each other's traffic at ingress;
        hosts named in no group keep talking to everyone.  Packets still
        traverse links and switches (and pay their costs) — the filter
        models endpoint unreachability, which is what the discovery and
        runtime layers observe during a real partition.
        """
        mapping: Dict[str, int] = {}
        for index, group in enumerate(groups):
            for name in group:
                self.host(name)  # raises on unknown / non-host names
                if name in mapping:
                    raise NodeError(f"host {name!r} appears in two groups")
                mapping[name] = index
        for host in self.hosts:
            group = mapping.get(host.name)
            if group is None:
                host.clear_partition()
            else:
                host.set_partition(group, mapping)

    def clear_partition(self) -> None:
        """Heal any partition: every host accepts all traffic again."""
        for host in self.hosts:
            host.clear_partition()

    @property
    def hosts(self) -> List[Host]:
        """All hosts in the network."""
        return [n for n in self.nodes.values() if isinstance(n, Host)]

    @property
    def switches(self) -> List[Switch]:
        """All switches in the network."""
        return [n for n in self.nodes.values() if isinstance(n, Switch)]

    # -- path queries --------------------------------------------------------
    def _bfs(self, root_name: str) -> _Routes:
        """Next node toward, and path to, ``root_name`` for every node
        that can reach it."""
        parent: Dict[str, str] = {}
        paths = {root_name: _HERE}
        queue = deque([root_name])
        while queue:
            current = queue.popleft()
            node = self.node(current)
            via = paths[current]
            # A frame bound for the root waits out the pipeline of every
            # switch it passes through, not that of the root itself.
            delay = (node.PROCESSING_DELAY_US
                     if current != root_name and isinstance(node, Switch)
                     else 0.0)
            for link in node.links:
                neighbor = link.other(node).name
                if neighbor not in paths:
                    parent[neighbor] = current
                    paths[neighbor] = Path(
                        via.hops + 1,
                        via.latency_us + delay + link.latency_us,
                        via.us_per_byte + 1.0 / link._bytes_per_us)
                    queue.append(neighbor)
        return _Routes(parent, paths)

    def _path(self, a: str, b: str) -> Path:
        """The :class:`Path` from ``a`` to ``b``, from the path table's
        record rooted at ``b`` (walked on first use); raises if there is
        none.  Called as ``network.path(a, b)``."""
        routes = self._routes.get(b)
        if routes is None:
            routes = self._routes[b] = self._bfs(b)
        path = routes.paths.get(a)
        if path is None:
            raise NodeError(f"no path from {a!r} to {b!r}")
        return path

    def port_toward(self, switch_name: str, target_name: str) -> int:
        """The egress port on ``switch_name`` for shortest-path traffic
        toward ``target_name`` — what the controller installs."""
        switch = self.switch(switch_name)
        if switch_name == target_name:
            raise NodeError("a switch has no port toward itself")
        self._path(switch_name, target_name)  # raises unless one exists
        next_hop = self._routes[target_name].toward[switch_name]
        for port in range(switch.port_count):
            if switch.neighbor(port).name == next_hop:
                return port
        raise NodeError(
            f"inconsistent topology: {switch_name!r} has no port to {next_hop!r}"
        )  # pragma: no cover


def build_paper_topology(
    sim: Simulator,
    with_controller_host: bool = False,
    switch_kwargs: Optional[dict] = None,
    **kwargs,
) -> Network:
    """The §4 experimental setup: three hosts, four interconnected switches.

    Switches form a ring with one chord (s1-s3), so paths are redundant
    and flooding must cope with loops — the property that makes the E2E
    broadcast cost visible.  The driver host sits on s1; the two
    responder hosts sit on s3 and s4.  ``with_controller_host`` adds a
    controller attachment on s2 for the SDN scheme.  Links take the
    network's defaults (10 Gbps, 5 us) unless ``kwargs`` set others.
    """
    net = Network(sim, **kwargs)
    for i in range(1, 5):
        net.add_switch(f"s{i}", **(switch_kwargs or {}))
    net.connect("s1", "s2")
    net.connect("s2", "s3")
    net.connect("s3", "s4")
    net.connect("s4", "s1")
    net.connect("s1", "s3")  # the chord: "interconnected", not just a ring
    net.add_host("driver")
    net.add_host("resp1")
    net.add_host("resp2")
    net.connect("driver", "s1")
    net.connect("resp1", "s3")
    net.connect("resp2", "s4")
    if with_controller_host:
        net.add_host("controller")
        net.connect("controller", "s2")
    return net


def build_star(sim: Simulator, n_hosts: int, prefix: str = "h",
               **kwargs) -> Network:
    """One switch, ``n_hosts`` hosts — the minimal rendezvous fabric."""
    if n_hosts < 1:
        raise ValueError("need at least one host")
    net = Network(sim, **kwargs)
    net.add_switch("s0")
    for i in range(n_hosts):
        name = f"{prefix}{i}"
        net.add_host(name)
        net.connect(name, "s0")
    return net


def build_line(sim: Simulator, n_switches: int, **kwargs) -> Network:
    """A chain of switches ``s<i>``, each with one host ``h<i>_0`` —
    worst-case diameter."""
    if n_switches < 1:
        raise ValueError("need at least one switch")
    net = Network(sim, **kwargs)
    for i in range(n_switches):
        net.add_switch(f"s{i}")
        if i > 0:
            net.connect(f"s{i - 1}", f"s{i}")
        net.add_host(f"h{i}_0")
        net.connect(f"h{i}_0", f"s{i}")
    return net


def build_two_tier(
    sim: Simulator,
    n_leaves: int,
    hosts_per_leaf: int,
    switch_kwargs: Optional[dict] = None,
    **kwargs,
) -> Network:
    """Leaf-spine fabric for the scaling experiments (E12): two spines."""
    if n_leaves < 1:
        raise ValueError("need at least one leaf")
    n_spines = 2
    net = Network(sim, **kwargs)
    for s in range(n_spines):
        net.add_switch(f"spine{s}", **(switch_kwargs or {}))
    for leaf in range(n_leaves):
        net.add_switch(f"leaf{leaf}", **(switch_kwargs or {}))
        for s in range(n_spines):
            net.connect(f"leaf{leaf}", f"spine{s}")
        for h in range(hosts_per_leaf):
            name = f"h{leaf}_{h}"
            net.add_host(name)
            net.connect(name, f"leaf{leaf}")
    return net
