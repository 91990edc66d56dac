"""Network-level pub/sub on data identity.

Topics *are* object IDs: subscribing to a topic installs identity
routes (multicast port sets) in every switch, and publishing sends one
identity-routed packet that the switches replicate toward all
subscribers — no broker host on the data path.  Fine-grained predicates
compiled to residuals are applied at the subscriber NIC.

This is the §3.2 prototype — "pub/sub-style communication based on
user-defined packet formats... forwarding rules installed in a
P4-defined forwarding pipeline" — rebuilt over the simulated switches.

Robustness surface (PR 8): ingress fan-out iterates a snapshot so
handlers may (un)subscribe mid-delivery; subscriptions are indexed by
``(topic, host)`` so per-packet work is O(local subs), not O(all subs
on the topic); publications with no subscribers are accounted as
``pubsub.no_route``; and an optional :class:`~repro.faults.HealthLedger`
prunes multicast ports toward suspected (crashed) subscriber hosts so
the switches stop replicating toward dead NICs — routes reinstall when
the host is cleared.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..core.objectid import ObjectID
from ..sim import Simulator, Tracer
from ..net.packet import Packet
from ..net.topology import Network
from .compiler import RuleSet, compile_subscriptions
from .formats import PacketFormat
from .predicates import Predicate, TRUE

__all__ = ["PubSubFabric", "Subscription"]

KIND_PUBLISH = "ps.pub"

# Wire overhead of the bus envelope (publisher id + sequence number)
# when a publication carries delivery-contract metadata.
META_BYTES = 16

_subscription_ids = itertools.count(1)

DeliveryHandler = Callable[[Dict[str, int], bytes], None]


class Subscription:
    """One subscriber's registration for a topic."""

    def __init__(self, sid: int, host_name: str, topic: ObjectID,
                 predicate: Predicate, handler: DeliveryHandler,
                 wants_meta: bool = False):
        self.sid = sid
        self.host_name = host_name
        self.topic = topic
        self.predicate = predicate
        self.handler = handler
        self.wants_meta = wants_meta
        self.delivered = 0
        self.filtered = 0


class PubSubFabric:
    """Control plane for identity pub/sub over one network."""

    def __init__(self, network: Network, fmt: PacketFormat,
                 health: Optional[Any] = None):
        self.network = network
        self.sim: Simulator = network.sim
        self.format = fmt
        self.tracer = Tracer()
        self.health = health
        self._subs: Dict[int, Subscription] = {}
        self._by_topic: Dict[ObjectID, List[Subscription]] = {}
        self._by_topic_host: Dict[Tuple[ObjectID, str], List[Subscription]] = {}
        self._hosts_wired: Set[str] = set()
        self._pruned_hosts: Set[str] = set()
        if health is not None:
            health.add_listener(self._on_health_event)

    # -- control plane --------------------------------------------------------
    def subscribe(self, host_name: str, topic: ObjectID,
                  handler: DeliveryHandler,
                  predicate: Predicate = TRUE,
                  wants_meta: bool = False) -> Subscription:
        """Register interest; updates every switch's multicast group."""
        host = self.network.host(host_name)
        if host_name not in self._hosts_wired:
            host.on(KIND_PUBLISH, self._make_ingress(host_name))
            self._hosts_wired.add(host_name)
        sub = Subscription(next(_subscription_ids), host_name, topic,
                           predicate, handler, wants_meta)
        self._subs[sub.sid] = sub
        self._by_topic.setdefault(topic, []).append(sub)
        self._by_topic_host.setdefault((topic, host_name), []).append(sub)
        self._reinstall_topic(topic)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Remove a subscription and update switch state."""
        self._subs.pop(sub.sid, None)
        local = [s for s in self._by_topic_host.get((sub.topic, sub.host_name), [])
                 if s.sid != sub.sid]
        if local:
            self._by_topic_host[(sub.topic, sub.host_name)] = local
        else:
            self._by_topic_host.pop((sub.topic, sub.host_name), None)
        remaining = [s for s in self._by_topic.get(sub.topic, []) if s.sid != sub.sid]
        if remaining:
            self._by_topic[sub.topic] = remaining
            self._reinstall_topic(sub.topic)
        else:
            self._by_topic.pop(sub.topic, None)
            for switch in self.network.switches:
                switch.remove_identity_route(sub.topic)

    def _reinstall_topic(self, topic: ObjectID) -> None:
        """Recompute each switch's multicast port set for ``topic``."""
        subscribers = {s.host_name for s in self._by_topic.get(topic, [])
                       if s.host_name not in self._pruned_hosts}
        if not subscribers:
            # Every subscriber is suspected dead: install an explicit
            # drop entry (empty multicast group).  Removing the route
            # would fall back to flood-on-miss and replicate the
            # publication everywhere — the opposite of pruning.
            for switch in self.network.switches:
                switch.install_identity_route(topic, ())
            return
        for switch in self.network.switches:
            ports = tuple(sorted({
                self.network.port_toward(switch.name, subscriber)
                for subscriber in subscribers
            }))
            switch.install_identity_route(
                topic, ports if len(ports) > 1 else ports[0])

    # -- health-driven route pruning -----------------------------------------
    def _on_health_event(self, node: str) -> None:
        if self.health is not None and self.health.is_suspected(node):
            self.prune_host(node)
        else:
            self.restore_host(node)

    def _host_topics(self, host_name: str) -> Set[ObjectID]:
        return {s.topic for s in self._subs.values()
                if s.host_name == host_name}

    def prune_host(self, host_name: str) -> None:
        """Drop multicast ports toward a suspected-dead subscriber host.

        Its subscriptions stay registered — delivery-contract layers
        (the event bus) keep redelivering over unicast — but the
        switches stop replicating publications toward the dead NIC."""
        if host_name in self._pruned_hosts:
            return
        self._pruned_hosts.add(host_name)
        for topic in self._host_topics(host_name):
            self._reinstall_topic(topic)
            self.tracer.count("pubsub.dead_route_pruned")

    def restore_host(self, host_name: str) -> None:
        """Reinstall multicast ports toward a recovered subscriber host."""
        if host_name not in self._pruned_hosts:
            return
        self._pruned_hosts.discard(host_name)
        for topic in self._host_topics(host_name):
            self._reinstall_topic(topic)

    # -- data plane ----------------------------------------------------------
    def publish(self, host_name: str, topic: ObjectID,
                fields: Dict[str, int], payload: bytes = b"",
                meta: Optional[Dict[str, Any]] = None) -> None:
        """Send one publication; switches replicate it to subscribers.

        ``meta`` is an optional contract envelope (publisher id,
        sequence number) stamped by the event bus; it costs
        ``META_BYTES`` on the wire and is handed to subscriptions
        registered with ``wants_meta=True``."""
        self.format.validate(fields)
        host = self.network.host(host_name)
        if not self._by_topic.get(topic):
            self.tracer.count("pubsub.no_route")
        body: Dict[str, Any] = {"fields": dict(fields), "payload": payload}
        size = self.format.header_bytes + len(payload)
        if meta is not None:
            body["meta"] = meta
            size += META_BYTES
        host.send(Packet(
            kind=KIND_PUBLISH, src=host_name, dst=None, oid=topic,
            payload=body, payload_bytes=size,
        ))

    def _make_ingress(self, host_name: str) -> Callable[[Packet], None]:
        def _ingress(packet: Packet) -> None:
            self._fan_out(host_name, packet.oid,
                          packet.payload["fields"], packet.payload["payload"],
                          packet.payload.get("meta"))
        return _ingress

    def _fan_out(self, host_name: str, topic: ObjectID,
                 fields: Dict[str, int], payload: bytes,
                 meta: Optional[Dict[str, Any]]) -> None:
        subs = self._by_topic_host.get((topic, host_name))
        if not subs:
            return
        # Snapshot: handlers may subscribe/unsubscribe mid-delivery.  A
        # sub removed by an earlier handler of this packet is skipped;
        # one added mid-delivery only sees the next packet.
        for sub in tuple(subs):
            if sub.sid not in self._subs:
                continue
            if sub.predicate.matches(fields):
                sub.delivered += 1
                self.tracer.count("pubsub.delivered")
                if sub.wants_meta:
                    sub.handler(fields, payload, meta)
                else:
                    sub.handler(fields, payload)
            else:
                sub.filtered += 1
                self.tracer.count("pubsub.residual_filtered")

    # -- accounting -------------------------------------------------------------
    def compiled_rules(self) -> RuleSet:
        """Compile all current predicates against the format — the
        table-usage view a real deployment would push to hardware."""
        return compile_subscriptions(
            self.format,
            [(sub.sid, sub.predicate) for sub in self._subs.values()],
        )
