"""Event bus: delivery contracts and backpressure over identity pub/sub.

The fabric underneath (:mod:`repro.pubsub.fabric`) is fire-and-forget:
one identity-routed packet, replicated by the switches, dropped silently
at any dead NIC or overloaded consumer.  The bus layers the two
properties a production event plane needs on top of it, without putting
a broker host on the data path:

* **Delivery contracts.**  ``AT_MOST_ONCE`` names today's behavior (and
  accounts it); ``AT_LEAST_ONCE`` adds per-event sequence numbers
  stamped into the publication's meta envelope, per-subscriber
  cumulative acks, deterministic redelivery timers with a bounded
  per-subscriber attempt budget, and consumer-side dedup — so events
  published while a subscriber host is crashed or partitioned are
  delivered (exactly once to the handler) after it recovers.

* **Credit-based backpressure.**  Subscribers grant credits as they
  *consume* (not merely receive) events; publishers pace against the
  minimum outstanding credit across live subscribers, buffering at most
  ``BUFFER_CAP`` events; a full buffer sheds its oldest event (counted
  as ``bus.shed``).  A slow consumer therefore bounds memory instead of
  growing queues silently.

Redelivery rides unicast (not multicast), so it keeps working after the
fabric prunes a suspected subscriber's multicast ports; repeated
ack-less redelivery rounds are what *feed* the
:class:`~repro.faults.HealthLedger` suspicion that triggers pruning,
and the first grant from a recovered host clears it and restores its
routes.

One bus instance per network: it claims the ``bus.grant`` /
``bus.redeliver`` packet kinds on every host it touches.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from ..core.objectid import ObjectID
from ..net.packet import Packet
from ..sim import Simulator, Timeout, Tracer
from .fabric import META_BYTES, PubSubFabric
from .predicates import Predicate, TRUE

__all__ = [
    "AT_LEAST_ONCE",
    "AT_MOST_ONCE",
    "BusError",
    "BusSubscriber",
    "EventBus",
]

AT_MOST_ONCE = "at_most_once"
AT_LEAST_ONCE = "at_least_once"
CONTRACTS = (AT_MOST_ONCE, AT_LEAST_ONCE)

KIND_GRANT = "bus.grant"
KIND_REDELIVER = "bus.redeliver"

# Wire size of an ack/credit grant (sid + cumulative seq + credit count).
GRANT_BYTES = 24

_bus_sub_ids = itertools.count(1)


class BusError(Exception):
    """Misuse of the event bus (bad contract or window)."""


class BusSubscriber:
    """One consumer endpoint: a bounded inbox drained at ``service_us``
    per event, granting credit back to publishers as events are consumed.

    ``credits`` is the consumer's receive window: the publisher never has
    more than that many unconsumed events outstanding toward this
    subscriber.  Under ``AT_LEAST_ONCE`` the subscriber also keeps
    per-publisher cumulative-ack and dedup state so redelivered copies
    are suppressed before the handler sees them.
    """

    def __init__(self, bus: "EventBus", host_name: str, topic: ObjectID,
                 handler: Callable[[Dict[str, int], bytes], None],
                 contract: str, credits: int, service_us: float,
                 predicate: Predicate):
        self.bus = bus
        self.sid = next(_bus_sub_ids)
        self.host_name = host_name
        self.topic = topic
        self.handler = handler
        self.contract = contract
        self.credit_window = credits
        self.service_us = service_us
        self.predicate = predicate
        self.inbox: Deque[Tuple[str, Dict[str, int], bytes]] = deque()
        self.delivered = 0
        self.deduped = 0
        self.filtered = 0
        self._pumping = False
        # Per publisher host: next contiguous sequence number expected,
        # plus the sparse set of sequence numbers seen ahead of it.
        self._next_cum: Dict[str, int] = {}
        self._ahead: Dict[str, Set[int]] = {}
        self._fabric_sub = None  # set by EventBus.subscribe

    # -- arrival (multicast ingress or unicast redelivery) -----------------
    def _on_event(self, publisher: Optional[str], seq: Optional[int],
                  fields: Dict[str, int], payload: bytes) -> None:
        if publisher is None or seq is None:
            # A bare fabric publication (no bus envelope): hand it
            # through without contract bookkeeping.
            self.handler(fields, payload)
            return
        if self.contract == AT_LEAST_ONCE:
            nxt = self._next_cum.setdefault(publisher, seq)
            ahead = self._ahead.setdefault(publisher, set())
            if seq < nxt or seq in ahead:
                self.deduped += 1
                self.bus.tracer.count("bus.deduped")
                self._grant(publisher, credits=0)  # re-ack, no credit
                return
            ahead.add(seq)
            while nxt in ahead:
                ahead.discard(nxt)
                nxt += 1
            self._next_cum[publisher] = nxt
        if not self.predicate.matches(fields):
            # Filtered events are still consumed for contract purposes:
            # ack them and return their credit, or redelivery never ends.
            self.filtered += 1
            self._grant(publisher, credits=1)
            return
        self.inbox.append((publisher, fields, payload))
        if not self._pumping:
            self._pumping = True
            self.bus.sim.spawn(self._pump(), name=f"bus-pump-{self.sid}")

    def _pump(self):
        while self.inbox:
            publisher, fields, payload = self.inbox.popleft()
            if self.service_us > 0:
                yield Timeout(self.service_us)
            self.handler(fields, payload)
            self.delivered += 1
            self.bus.tracer.count("bus.delivered")
            self._grant(publisher, credits=1)
        self._pumping = False

    def _grant(self, publisher: str, credits: int) -> None:
        ack = None
        if self.contract == AT_LEAST_ONCE and publisher in self._next_cum:
            ack = self._next_cum[publisher] - 1
        self.bus._send_grant(self, publisher, credits, ack)


class _Unacked:
    """Publisher-side record of one event awaiting at-least-once acks."""

    __slots__ = ("event", "pending", "attempts", "last_tx_us")

    def __init__(self, event: "_Event", pending: Set[int], now: float):
        self.event = event
        self.pending = pending          # sids still owing an ack
        self.attempts: Dict[int, int] = {}
        self.last_tx_us = now


class _Event:
    __slots__ = ("seq", "fields", "payload")

    def __init__(self, seq: int, fields: Dict[str, int], payload: bytes):
        self.seq = seq
        self.fields = fields
        self.payload = payload


class _PubState:
    """Per (publisher host, topic) flow state."""

    __slots__ = ("host_name", "topic", "seq", "buffer", "credits",
                 "unacked", "timer_armed")

    def __init__(self, host_name: str, topic: ObjectID):
        self.host_name = host_name
        self.topic = topic
        self.seq = 0
        self.buffer: Deque[_Event] = deque()
        self.credits: Dict[int, int] = {}   # sid -> outstanding credit
        self.unacked: Dict[int, _Unacked] = {}
        self.timer_armed = False


class EventBus:
    """Delivery contracts + flow control over one :class:`PubSubFabric`.

    Health comes from the fabric's ledger, so a consumer the bus
    suspects is also pruned from the fabric's routes."""

    # Events a publisher holds for lack of consumer credit.
    BUFFER_CAP = 64
    # A subscriber's credit window when it names none.
    DEFAULT_CREDITS = 8
    # The at-least-once redelivery period, and the redeliveries of one
    # event to one subscriber before it is shed.
    REDELIVERY_US = 5_000.0
    REDELIVERY_BUDGET = 5
    # Unacked redeliveries after which a subscriber host is suspected.
    SUSPECT_AFTER = 3

    def __init__(self, fabric: PubSubFabric):
        self.fabric = fabric
        self.network = fabric.network
        self.sim: Simulator = fabric.sim
        self.health = fabric.health
        self.tracer = Tracer()
        self._pub_states: Dict[Tuple[str, ObjectID], _PubState] = {}
        self._subs: Dict[int, BusSubscriber] = {}
        self._subs_by_topic: Dict[ObjectID, List[BusSubscriber]] = {}
        self._grant_wired: Set[str] = set()
        self._redeliver_wired: Set[str] = set()

    # -- subscriber side ---------------------------------------------------
    def subscribe(self, host_name: str, topic: ObjectID,
                  handler: Callable[[Dict[str, int], bytes], None],
                  contract: str = AT_MOST_ONCE,
                  credits: Optional[int] = None,
                  service_us: float = 0.0,
                  predicate: Predicate = TRUE) -> BusSubscriber:
        """Register a consumer with a delivery contract and a credit window."""
        if contract not in CONTRACTS:
            raise BusError(f"unknown delivery contract {contract!r}")
        window = self.DEFAULT_CREDITS if credits is None else credits
        if window <= 0:
            raise BusError("credit window must be positive")
        sub = BusSubscriber(self, host_name, topic, handler, contract,
                            window, service_us, predicate)
        # Bus subscriptions take the raw stream (predicate applied after
        # dedup so filtered events still ack) plus the contract envelope.
        sub._fabric_sub = self.fabric.subscribe(
            host_name, topic, self._make_arrival(sub), wants_meta=True)
        self._subs[sub.sid] = sub
        self._subs_by_topic.setdefault(topic, []).append(sub)
        if host_name not in self._redeliver_wired:
            self.network.host(host_name).on(
                KIND_REDELIVER, self._make_redeliver_ingress(host_name))
            self._redeliver_wired.add(host_name)
        for st in self._pub_states.values():
            if st.topic == topic:
                st.credits.setdefault(sub.sid, window)
        return sub

    def unsubscribe(self, sub: BusSubscriber) -> None:
        """Withdraw a consumer; the publisher stops owing it anything."""
        if self._subs.pop(sub.sid, None) is None:
            return
        remaining = [s for s in self._subs_by_topic.get(sub.topic, [])
                     if s.sid != sub.sid]
        if remaining:
            self._subs_by_topic[sub.topic] = remaining
        else:
            self._subs_by_topic.pop(sub.topic, None)
        self.fabric.unsubscribe(sub._fabric_sub)
        for st in self._pub_states.values():
            if st.topic != sub.topic:
                continue
            st.credits.pop(sub.sid, None)
            retired = []
            for seq, rec in st.unacked.items():
                rec.pending.discard(sub.sid)
                if not rec.pending:
                    retired.append(seq)
            for seq in retired:
                del st.unacked[seq]
                self.tracer.count("bus.acked")
            self._drain(st)

    def _make_arrival(self, sub: BusSubscriber):
        def _arrival(fields: Dict[str, int], payload: bytes,
                     meta: Optional[Dict[str, Any]]) -> None:
            if meta is None:
                sub._on_event(None, None, fields, payload)
            else:
                sub._on_event(meta["pub"], meta["seq"], fields, payload)
        return _arrival

    def _make_redeliver_ingress(self, host_name: str):
        def _ingress(packet: Packet) -> None:
            p = packet.payload
            sub = self._subs.get(p["sid"])
            if sub is None or sub.host_name != host_name:
                return
            sub._on_event(p["pub"], p["seq"], p["fields"], p["payload"])
        return _ingress

    def _send_grant(self, sub: BusSubscriber, publisher: str,
                    credits: int, ack: Optional[int]) -> None:
        if sub.host_name == publisher:
            self._apply_grant(publisher, sub.topic, sub.sid, credits, ack,
                              from_host=sub.host_name)
            return
        self.network.host(sub.host_name).send(Packet(
            kind=KIND_GRANT, src=sub.host_name, dst=publisher,
            payload={"topic": sub.topic, "sid": sub.sid,
                     "credits": credits, "ack": ack},
            payload_bytes=GRANT_BYTES,
        ))

    # -- publisher side ----------------------------------------------------
    def publish(self, host_name: str, topic: ObjectID,
                fields: Dict[str, int], payload: bytes = b"") -> None:
        """Publish one event, pacing against consumer credit: it is sent
        now, or buffered, shedding the oldest buffered event when the
        buffer is full."""
        st = self._pub_state(host_name, topic)
        self.tracer.count("bus.published")
        st.seq += 1
        ev = _Event(st.seq, dict(fields), payload)
        if not st.buffer and self._min_credit(st, topic) > 0:
            self._transmit(st, ev)
            return
        # Deferred for lack of consumer credit (or behind earlier
        # deferred events): publisher-side buffering with a hard cap.
        self.tracer.count("bus.credit_stall")
        if len(st.buffer) >= self.BUFFER_CAP:
            st.buffer.popleft()
            self.tracer.count("bus.shed")
        st.buffer.append(ev)

    def _pub_state(self, host_name: str, topic: ObjectID) -> _PubState:
        key = (host_name, topic)
        st = self._pub_states.get(key)
        if st is None:
            st = _PubState(host_name, topic)
            for sub in self._subs_by_topic.get(topic, []):
                st.credits[sub.sid] = sub.credit_window
            self._pub_states[key] = st
            if host_name not in self._grant_wired:
                self.network.host(host_name).on(
                    KIND_GRANT, self._make_grant_ingress(host_name))
                self._grant_wired.add(host_name)
        return st

    def _live_subs(self, topic: ObjectID) -> List[BusSubscriber]:
        subs = self._subs_by_topic.get(topic, [])
        if self.health is None:
            return list(subs)
        return [s for s in subs if not self.health.is_suspected(s.host_name)]

    def _min_credit(self, st: _PubState, topic: ObjectID) -> float:
        live = self._live_subs(topic)
        if not live:
            return float("inf")
        return min(st.credits.setdefault(s.sid, s.credit_window)
                   for s in live)

    def _transmit(self, st: _PubState, ev: _Event) -> None:
        subs = self._subs_by_topic.get(st.topic, [])
        alo = {s.sid for s in subs if s.contract == AT_LEAST_ONCE}
        if alo:
            st.unacked[ev.seq] = _Unacked(ev, alo, self.sim.now)
            self._arm_timer(st)
        for sub in self._live_subs(st.topic):
            st.credits[sub.sid] = st.credits.get(sub.sid, sub.credit_window) - 1
        self.fabric.publish(st.host_name, st.topic, ev.fields, ev.payload,
                            meta={"pub": st.host_name, "seq": ev.seq})

    def _make_grant_ingress(self, host_name: str):
        def _ingress(packet: Packet) -> None:
            p = packet.payload
            self._apply_grant(host_name, p["topic"], p["sid"],
                              p["credits"], p["ack"], from_host=packet.src)
        return _ingress

    def _apply_grant(self, pub_host: str, topic: ObjectID, sid: int,
                     credits: int, ack: Optional[int], from_host: str) -> None:
        st = self._pub_states.get((pub_host, topic))
        if st is None:
            return
        # Any grant proves the consumer host is alive again.
        self.fabric.restore_host(from_host)
        if self.health is not None and self.health.is_suspected(from_host):
            self.health.clear(from_host)
        if ack is not None:
            retired = [seq for seq in st.unacked if seq <= ack]
            for seq in sorted(retired):
                rec = st.unacked[seq]
                rec.pending.discard(sid)
                if not rec.pending:
                    del st.unacked[seq]
                    self.tracer.count("bus.acked")
        if credits and sid in self._subs:
            st.credits[sid] = st.credits.get(sid, 0) + credits
        self._drain(st)

    def _drain(self, st: _PubState) -> None:
        while st.buffer and self._min_credit(st, st.topic) > 0:
            self._transmit(st, st.buffer.popleft())

    # -- redelivery --------------------------------------------------------
    def _arm_timer(self, st: _PubState) -> None:
        if st.timer_armed or not st.unacked:
            return
        st.timer_armed = True
        self.sim.schedule(self.REDELIVERY_US, self._tick, st)

    def _tick(self, st: _PubState) -> None:
        st.timer_armed = False
        if not st.unacked:
            return
        now = self.sim.now
        retired = []
        for seq in sorted(st.unacked):
            rec = st.unacked[seq]
            if now - rec.last_tx_us + 1e-9 < self.REDELIVERY_US:
                continue
            for sid in sorted(rec.pending):
                sub = self._subs.get(sid)
                if sub is None:
                    rec.pending.discard(sid)
                    continue
                attempts = rec.attempts.get(sid, 0)
                if attempts >= self.REDELIVERY_BUDGET:
                    # Budget exhausted: give up on this consumer for
                    # this event — bounded work, accounted as shed.
                    rec.pending.discard(sid)
                    self.tracer.count("bus.shed")
                    continue
                rec.attempts[sid] = attempts + 1
                if (self.health is not None
                        and attempts + 1 >= self.SUSPECT_AFTER
                        and not self.health.is_suspected(sub.host_name)):
                    self.health.suspect(sub.host_name)
                self._send_redelivery(st, rec.event, sub)
            rec.last_tx_us = now
            if not rec.pending:
                retired.append(seq)
        for seq in retired:
            del st.unacked[seq]
        if st.unacked:
            st.timer_armed = True
            self.sim.schedule(self.REDELIVERY_US, self._tick, st)

    def _send_redelivery(self, st: _PubState, ev: _Event,
                         sub: BusSubscriber) -> None:
        self.tracer.count("bus.redelivered")
        if sub.host_name == st.host_name:
            sub._on_event(st.host_name, ev.seq, ev.fields, ev.payload)
            return
        self.network.host(st.host_name).send(Packet(
            kind=KIND_REDELIVER, src=st.host_name, dst=sub.host_name,
            payload={"topic": st.topic, "sid": sub.sid, "pub": st.host_name,
                     "seq": ev.seq, "fields": ev.fields, "payload": ev.payload},
            payload_bytes=(self.fabric.format.header_bytes
                           + len(ev.payload) + META_BYTES),
        ))

    # -- accounting --------------------------------------------------------
    def outstanding(self, host_name: str, topic: ObjectID) -> int:
        """Unacked events a publisher still owes at-least-once consumers."""
        st = self._pub_states.get((host_name, topic))
        return len(st.unacked) if st is not None else 0
