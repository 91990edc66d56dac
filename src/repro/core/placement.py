"""The rendezvous placement engine.

§3.1: "in our model the programmer would not be directly asking Carol to
perform the computation; instead the placement decision would be made by
the system."  The programmer supplies a code reference and data
references; this engine picks the execution node by minimizing an
estimated completion time that accounts for:

* sending the request to a candidate other than the invoker;
* moving every non-resident input (code included — code is just another
  object) to the candidate node, in parallel, and, for inputs bound
  lazily as proxies, the fetch each one's first touch makes;
* queueing behind the candidate's current load (Bob is overloaded, Carol
  is idle — the §2 scenario);
* compute time scaled by the candidate's speed;
* returning the result to the invoker.

Because object movement is a byte-level copy, the estimator only needs
*transfer* costs — the §3.1 observation that removing the serialization
walk makes placement cost models simpler and more accurate.  Every leg
is priced as the frame the runtime sends (the engine's ``*_FRAME_BYTES``
constants; the caller hands the exec request frame, which grows with
the arguments, in :class:`PlacementRequest`) crossing the path
``Network.path`` answers, store-and-forward: for an uncontended transfer
the estimate is the time the simulated fabric charges, to the float.  The
``transfer_blind`` flag disables the transfer terms for the E5 ablation.

Only the queue term changes from one decision to the next; the other
three depend on what the inputs weigh and where they live, not on which
objects they are.  The engine memoizes them (see :meth:`decide`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import (TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

from ..net.packet import HEADER_BYTES, OID_FIELD_BYTES
from ..sim import Tracer
from .costmodel import (
    CostModel,
    DEFAULT_COST_MODEL,
    TIER_DRAM,
    TIER_NETWORK,
    TIER_POOL,
)
from .objectid import ObjectID
from .refs import GlobalRef

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.topology import Path

__all__ = [
    "NodeProfile",
    "MovementPlan",
    "PlacementItem",
    "PlacementRequest",
    "PlacementDecision",
    "PlacementEngine",
    "PlacementError",
    "PoolOracle",
]

# The route between two named nodes; the runtime supplies
# ``Network.path``, which answers from the simulated topology.
DistanceFn = Callable[[str, str], "Path"]

# Pool oracle: ``(node_name, oid) -> pool name`` when the object is
# reachable through a shared-memory pool the node is attached to, else
# None.  The runtime supplies one backed by its registered pools.
PoolOracle = Callable[[str, ObjectID], Optional[str]]


_latency = attrgetter("latency_us")


class PlacementError(Exception):
    """Raised when no feasible execution node exists."""


@dataclass(frozen=True)
class NodeProfile:
    """Static + dynamic description of a candidate execution node.

    * ``speed`` — relative compute throughput (1.0 = reference server);
    * ``active_jobs`` — current queue depth (queueing multiplies compute);
    * ``capacity_bytes`` — memory available for staged inputs (0 = none:
      a node that cannot hold the model cannot run the job, the "Alice's
      fragment is too large" constraint).
    """

    name: str
    speed: float = 1.0
    active_jobs: int = 0
    capacity_bytes: int = 1 << 40

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise PlacementError(f"node {self.name!r}: speed must be positive")
        if self.active_jobs < 0:
            raise PlacementError(f"node {self.name!r}: negative load")
        if self.capacity_bytes < 0:
            raise PlacementError(f"node {self.name!r}: negative capacity")


# PlacementItem, PlacementRequest and MovementPlan are immutable value
# records built on every invocation: NamedTuples, which construct in one
# C call where a frozen dataclass sets each field through
# object.__setattr__.

class _PlacementItem(NamedTuple):
    ref: GlobalRef
    size_bytes: int
    locations: Tuple[str, ...]


class PlacementItem(_PlacementItem):
    """One input the computation needs: a reference, its size, and where
    replicas currently live (host names)."""

    __slots__ = ()

    def __new__(cls, ref: GlobalRef, size_bytes: int,
                locations: Tuple[str, ...]) -> "PlacementItem":
        if size_bytes < 0:
            raise PlacementError("item size must be non-negative")
        if not locations:
            raise PlacementError(f"item {ref} has no resident location")
        return _PlacementItem.__new__(cls, ref, size_bytes, locations)


class PlacementRequest(NamedTuple):
    """Everything the engine needs to place one invocation.

    ``request_frame_bytes`` is the whole frame that sends the invocation
    to an executor other than the invoker, as the caller builds it (it
    grows with the arguments; at 0 the leg is priced its latency alone).
    With ``touch_inputs`` the inputs are not staged: the body fetches
    each one when it first touches it, after it has started.
    """

    code: PlacementItem
    inputs: Tuple[PlacementItem, ...]
    invoker: str
    result_bytes: int = 1024
    flops: float = 1e6
    request_frame_bytes: int = 0
    touch_inputs: bool = False


class MovementPlan(NamedTuple):
    """One planned object movement: what, from where, to where, cost.

    ``tier`` records which staging tier priced the movement — a pool
    movement's ``source`` names the pool, not a replica host."""

    ref: GlobalRef
    size_bytes: int
    source: str
    destination: str
    transfer_us: float
    tier: str = TIER_NETWORK


@dataclass
class PlacementDecision:
    """The engine's answer: where to run and the predicted timeline.

    ``request_us`` and ``result_return_us`` are the two legs of the
    request to an executor other than the invoker (0 at the invoker);
    ``stage_in_us`` is the slowest staged input plus every fetch a first
    touch makes.  ``total_us`` adds the five phases (the two transfer
    ones not when ``transfer_blind``)."""

    node: str
    movements: List[MovementPlan]
    request_us: float
    stage_in_us: float
    queue_us: float
    compute_us: float
    result_return_us: float
    total_us: float
    considered: Dict[str, float] = field(default_factory=dict)
    # Per-tier item counts of the winning plan (resident inputs land in
    # the dram tier even though they plan no movement).
    tiers: Dict[str, int] = field(default_factory=dict)

    @property
    def bytes_moved(self) -> int:
        """Total bytes across all planned movements."""
        return sum(m.size_bytes for m in self.movements)


class PlacementEngine:
    """Chooses the execution node minimizing estimated completion time."""

    # Predicted wait per job already queued at a candidate.
    QUEUE_PENALTY_US = 50.0
    # The frames the runtime wraps around the legs it sends, in bytes:
    # a fetch's request whole, what a fetch's reply adds to the object
    # image, and what an exec reply adds to the result.  Each is the
    # header plus the message's 24 bytes of fields, and a fetch's frames
    # carry the object ID (runtime/messages.py sizes its packets so).
    FETCH_REQ_FRAME_BYTES = HEADER_BYTES + OID_FIELD_BYTES + 24
    FETCH_RSP_FRAME_BYTES = HEADER_BYTES + OID_FIELD_BYTES + 24
    EXEC_RSP_FRAME_BYTES = HEADER_BYTES + 24
    # Request shapes the memo holds before it starts over.  The busiest
    # benchmark workload (invoke_store_mix) holds at most 71 at once, of
    # 203 it meets over a run, and 98.6% of its candidate terms are
    # memo hits; 1024 is over ten times that peak, about 2.5 MB at six
    # candidates a shape.  A caller whose shapes never repeat (a new
    # ``flops`` per request) starts over every 1024 decisions instead of
    # growing without bound.
    MEMO_SHAPES = 1024
    # What every estimate is priced with; the wire comes from the paths.
    cost_model: CostModel = DEFAULT_COST_MODEL

    def __init__(self, transfer_blind: bool = False):
        self.transfer_blind = transfer_blind
        self.tracer = Tracer()
        # Counter cells of decide() (see Tracer): one per staging tier.
        self._n_decisions = self.tracer.cell("placement.decisions")
        self._n_tier = {tier: self.tracer.cell(f"placement.tier.{tier}")
                        for tier in (TIER_DRAM, TIER_POOL, TIER_NETWORK)}
        # Set by GlobalSpaceRuntime.attach_pool: which pool, if any, a
        # node can load an object through.
        self.pool_oracle: Optional[PoolOracle] = None
        # decide()'s memo: request shape -> candidate -> [_score terms,
        # the winner's plan or None], for one distance function.
        self._memo: Dict[tuple, Dict[tuple, list]] = {}
        self._memo_distance: Optional[DistanceFn] = None

    # -- candidate evaluation ------------------------------------------------
    def _nearest_source(
        self, item: PlacementItem, node: str, distance: DistanceFn
    ) -> Tuple[str, "Path"]:
        """The replica of ``item`` with the least path latency to ``node``
        (host name, path); the first listed wins a tie, as the runtime's
        ``holders_by_distance`` orders them."""
        paths = [distance(loc, node) for loc in item.locations]
        nearest = min(paths, key=_latency)
        return item.locations[paths.index(nearest)], nearest

    def _score(
        self,
        request: PlacementRequest,
        node: NodeProfile,
        distance: DistanceFn,
        items: Tuple[PlacementItem, ...],
    ) -> Optional[Tuple[float, float, float]]:
        """The terms of ``_evaluate(...).total_us`` but the queue, from
        scalars alone: ``(request_us + stage_in_us, compute_us,
        result_return_us)`` as the total adds them (transfer terms
        zeroed when ``transfer_blind``), or None where ``_evaluate`` is
        None.  The same floats in the same order, nothing built;
        ``decide`` adds the queue term between the first two."""
        name, cost, oracle = node.name, self.cost_model, self.pool_oracle
        fetch_frame = self.FETCH_REQ_FRAME_BYTES
        image_frame = self.FETCH_RSP_FRAME_BYTES
        touch = request.touch_inputs
        staged_bytes, stage_in_us, touched_us = 0, 0.0, 0.0
        for index, item in enumerate(items):
            if name in item.locations:
                continue
            path = self._nearest_source(item, name, distance)[1]
            pooled = (oracle is not None
                      and oracle(name, item.ref.oid) is not None)
            item_us = cost.resolve_tier(item.size_bytes, cost.fetch_time_us(
                item.size_bytes, path, fetch_frame, image_frame), pooled)[1]
            if touch and index:
                touched_us += item_us
            else:
                stage_in_us = max(stage_in_us, item_us)
            staged_bytes += item.size_bytes
        if staged_bytes > node.capacity_bytes:
            return None
        stage_in_us += touched_us
        compute_us = cost.compute_time_us(request.flops) / node.speed
        request_us, result_return_us = self._exec_legs(request, name,
                                                       distance)
        if self.transfer_blind:
            request_us = stage_in_us = result_return_us = 0.0
        return request_us + stage_in_us, compute_us, result_return_us

    def _exec_legs(self, request: PlacementRequest, name: str,
                   distance: DistanceFn) -> Tuple[float, float]:
        """The request and reply frames between the invoker and ``name``,
        ``(request_us, result_return_us)``; none when ``name`` is the
        invoker."""
        invoker = request.invoker
        if name == invoker:
            return 0.0, 0.0
        cost = self.cost_model
        return (cost.wire_time_us(request.request_frame_bytes,
                                  distance(invoker, name)),
                cost.wire_time_us(self.EXEC_RSP_FRAME_BYTES
                                  + request.result_bytes,
                                  distance(name, invoker)))

    def _evaluate(
        self,
        request: PlacementRequest,
        node: NodeProfile,
        distance: DistanceFn,
    ) -> Optional[PlacementDecision]:
        cost, oracle = self.cost_model, self.pool_oracle
        movements: List[MovementPlan] = []
        staged_bytes = 0
        stage_in_us = touched_us = 0.0
        tiers: Dict[str, int] = {}
        for index, item in enumerate((request.code,) + request.inputs):
            if node.name in item.locations:
                tiers[TIER_DRAM] = tiers.get(TIER_DRAM, 0) + 1
                continue  # already resident
            source, path = self._nearest_source(item, node.name, distance)
            pool_name = (oracle(node.name, item.ref.oid)
                         if oracle is not None else None)
            tier, item_us = cost.resolve_tier(
                item.size_bytes, cost.fetch_time_us(
                    item.size_bytes, path, self.FETCH_REQ_FRAME_BYTES,
                    self.FETCH_RSP_FRAME_BYTES),
                pool_name is not None)
            if tier == TIER_POOL:
                source = pool_name  # staged as a load from the pool, not a replica
            tiers[tier] = tiers.get(tier, 0) + 1
            movements.append(MovementPlan(
                item.ref, item.size_bytes, source, node.name, item_us, tier))
            staged_bytes += item.size_bytes
            if request.touch_inputs and index:
                # Fetched when the body first touches it: after staging.
                touched_us += item_us
            else:
                # Staged in parallel: latency is the slowest fetch.
                stage_in_us = max(stage_in_us, item_us)
        if staged_bytes > node.capacity_bytes:
            return None
        stage_in_us += touched_us
        queue_us = node.active_jobs * self.QUEUE_PENALTY_US
        compute_us = cost.compute_time_us(request.flops) / node.speed
        request_us, result_return_us = self._exec_legs(request, node.name,
                                                       distance)
        blind = self.transfer_blind
        total = ((0.0 if blind else request_us)
                 + (0.0 if blind else stage_in_us) + queue_us + compute_us
                 + (0.0 if blind else result_return_us))
        return PlacementDecision(
            node=node.name,
            movements=movements,
            request_us=request_us,
            stage_in_us=stage_in_us,
            queue_us=queue_us,
            compute_us=compute_us,
            result_return_us=result_return_us,
            total_us=total,
            tiers=tiers,
        )

    def decide(
        self,
        request: PlacementRequest,
        candidates: Sequence[NodeProfile],
        distance: DistanceFn,
    ) -> PlacementDecision:
        """Pick the best execution node among ``candidates``.

        Raises :class:`PlacementError` if no candidate is feasible (all
        lack the capacity to stage its inputs).

        Each candidate's :meth:`_score` terms, and the winner's plan,
        are memoized by everything they read but the objects' identity:
        every item's size and locations and every other field of the
        request (its *shape*); the candidate's name,
        speed and capacity; and, with a pool oracle attached, the pool
        each item is reachable through from the candidate.  The queue
        term is added at decide time, in the order ``_evaluate`` adds
        it, so every total is the float ``_evaluate`` computes.  The
        memo belongs to one ``distance`` object: passing another (by
        identity) starts it over, so a caller whose distances change
        passes a new function.  The runtime passes ``Network.path``,
        which the network binds anew on every topology change.
        """
        if not candidates:
            raise PlacementError("no candidate nodes supplied")
        memo = self._memo
        if distance is not self._memo_distance or len(memo) >= self.MEMO_SHAPES:
            memo = self._memo = {}
            self._memo_distance = distance
        items = (request.code,) + request.inputs
        shape = [*request[2:]]
        for item in items:
            shape.append(item.size_bytes)
            shape.append(item.locations)
        shape = tuple(shape)
        row = memo.get(shape)
        if row is None:
            row = memo[shape] = {}
        oracle = self.pool_oracle
        penalty = self.QUEUE_PENALTY_US
        winner: Optional[NodeProfile] = None
        best_entry: list = []
        best_total = 0.0
        considered: Dict[str, float] = {}
        for node in candidates:
            name = node.name
            key = (name, node.speed, node.capacity_bytes)
            if oracle is not None:
                key += tuple([oracle(name, item.ref.oid) for item in items])
            entry = row.get(key)
            if entry is None:
                entry = row[key] = [
                    self._score(request, node, distance, items), None]
            terms = entry[0]
            if terms is None:
                continue
            total = (terms[0] + node.active_jobs * penalty
                     + terms[1] + terms[2])
            considered[name] = total
            if winner is None or total < best_total:
                winner, best_entry, best_total = node, entry, total
        if winner is None:
            raise PlacementError(
                "no feasible execution node: every candidate lacks the "
                "capacity to stage the inputs"
            )
        plan = best_entry[1]
        if plan is None:
            # The winner's plan, less what changes with the queue or
            # names the objects: each movement's source, time and tier,
            # the tier counts, and the four queue-free phases.
            full = self._evaluate(request, winner, distance)
            plan = best_entry[1] = (
                tuple([(m.source, m.transfer_us, m.tier)
                       for m in full.movements]),
                full.tiers, full.request_us, full.stage_in_us,
                full.compute_us, full.result_return_us)
        # The plan, with this request's objects in its movements and
        # this decision's queue and total.
        (moves, tiers, request_us, stage_in_us, compute_us,
         result_return_us) = plan
        name = winner.name
        movements: List[MovementPlan] = []
        for item in items:
            if name not in item.locations:
                source, transfer_us, tier = moves[len(movements)]
                movements.append(MovementPlan(
                    item.ref, item.size_bytes, source, name, transfer_us,
                    tier))
        best = PlacementDecision(
            node=name,
            movements=movements,
            request_us=request_us,
            stage_in_us=stage_in_us,
            queue_us=winner.active_jobs * penalty,
            compute_us=compute_us,
            result_return_us=result_return_us,
            total_us=best_total,
            considered=considered,
            tiers=dict(tiers),
        )
        self._n_decisions[0] += 1
        self.tracer.sample("placement.est_total_us", best.total_us)
        for tier, n in best.tiers.items():
            self._n_tier[tier][0] += n
        return best
