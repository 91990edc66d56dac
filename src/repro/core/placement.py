"""The rendezvous placement engine.

§3.1: "in our model the programmer would not be directly asking Carol to
perform the computation; instead the placement decision would be made by
the system."  The programmer supplies a code reference and data
references; this engine picks the execution node by minimizing an
estimated completion time that accounts for:

* moving every non-resident input (code included — code is just another
  object) to the candidate node, in parallel;
* queueing behind the candidate's current load (Bob is overloaded, Carol
  is idle — the §2 scenario);
* compute time scaled by the candidate's speed;
* returning the result to the invoker.

Because object movement is a byte-level copy, the estimator only needs
*transfer* costs — the §3.1 observation that removing the serialization
walk makes placement cost models simpler and more accurate.  The
``transfer_blind`` flag disables the transfer term for the E5 ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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

# Hop-count oracle between named nodes; the runtime supplies one backed
# by the simulated topology.
DistanceFn = Callable[[str, str], int]

# Pool oracle: ``(node_name, oid) -> pool name`` when the object is
# reachable through a shared-memory pool the node is attached to, else
# None.  The runtime supplies one backed by its registered pools.
PoolOracle = Callable[[str, ObjectID], Optional[str]]


class PlacementError(Exception):
    """Raised when no feasible execution node exists."""


@dataclass(frozen=True)
class NodeProfile:
    """Static + dynamic description of a candidate execution node.

    * ``speed`` — relative compute throughput (1.0 = reference server);
    * ``active_jobs`` — current queue depth (queueing multiplies compute);
    * ``capacity_bytes`` — memory available for staged inputs (0 = none:
      a node that cannot hold the model cannot run the job, the "Alice's
      fragment is too large" constraint);
    * ``can_execute`` — policy bit (e.g., a privacy rule may forbid
      running on a cloud node).
    """

    name: str
    speed: float = 1.0
    active_jobs: int = 0
    capacity_bytes: int = 1 << 40
    can_execute: bool = True

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise PlacementError(f"node {self.name!r}: speed must be positive")
        if self.active_jobs < 0:
            raise PlacementError(f"node {self.name!r}: negative load")
        if self.capacity_bytes < 0:
            raise PlacementError(f"node {self.name!r}: negative capacity")


@dataclass(frozen=True)
class PlacementItem:
    """One input the computation needs: a reference, its size, and where
    replicas currently live (host names)."""

    ref: GlobalRef
    size_bytes: int
    locations: Tuple[str, ...]
    pinned: bool = False  # True: may not be moved (privacy/local-only data)

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise PlacementError("item size must be non-negative")
        if not self.locations:
            raise PlacementError(f"item {self.ref} has no resident location")


@dataclass(frozen=True)
class PlacementRequest:
    """Everything the engine needs to place one invocation."""

    code: PlacementItem
    inputs: Tuple[PlacementItem, ...]
    invoker: str
    result_bytes: int = 1024
    flops: float = 1e6


@dataclass(frozen=True)
class MovementPlan:
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
    """The engine's answer: where to run and the predicted timeline."""

    node: str
    movements: List[MovementPlan]
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

    def __init__(
        self,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        queue_penalty_us: float = 50.0,
        transfer_blind: bool = False,
        tracer: Optional[Tracer] = None,
        pool_oracle: Optional[PoolOracle] = None,
    ):
        self.cost_model = cost_model
        self.queue_penalty_us = queue_penalty_us
        self.transfer_blind = transfer_blind
        self.tracer = tracer if tracer is not None else Tracer()
        # Counter cells of decide() (see Tracer): one per staging tier.
        self._n_decisions = self.tracer.cell("placement.decisions")
        self._n_tier = {tier: self.tracer.cell(f"placement.tier.{tier}")
                        for tier in (TIER_DRAM, TIER_POOL, TIER_NETWORK)}
        self.pool_oracle = pool_oracle

    # -- candidate evaluation ------------------------------------------------
    def _nearest_source(
        self, item: PlacementItem, node: str, distance: DistanceFn
    ) -> Tuple[str, int]:
        """Closest replica of ``item`` to ``node`` (host name, hop count);
        the first listed wins a tie."""
        hops = [distance(loc, node) for loc in item.locations]
        nearest = min(hops)
        return item.locations[hops.index(nearest)], nearest

    def _score(
        self,
        request: PlacementRequest,
        node: NodeProfile,
        distance: DistanceFn,
        items: Tuple[PlacementItem, ...],
    ) -> Optional[float]:
        """``_evaluate(...).total_us``, or None where that is None, from
        scalars alone: the same floats in the same order, nothing built.
        ``decide`` scores every candidate and builds only the winner."""
        name, cost = node.name, self.cost_model
        staged_bytes, stage_in_us = 0, 0.0
        for item in items:
            if name in item.locations:
                continue
            if item.pinned:
                return None
            hops = min(distance(loc, name) for loc in item.locations)
            pooled = (self.pool_oracle is not None
                      and self.pool_oracle(name, item.ref.oid) is not None)
            stage_in_us = max(stage_in_us, cost.stage_in_time_us(
                item.size_bytes, max(hops, 1), pooled))
            staged_bytes += item.size_bytes
        if staged_bytes > node.capacity_bytes:
            return None
        queue_us = node.active_jobs * self.queue_penalty_us
        compute_us = cost.compute_time_us(request.flops) / node.speed
        result_hops = distance(name, request.invoker)
        result_return_us = (
            0.0 if result_hops == 0
            else cost.object_time_us(request.result_bytes, result_hops))
        if self.transfer_blind:
            stage_in_us = result_return_us = 0.0
        return stage_in_us + queue_us + compute_us + result_return_us

    def _evaluate(
        self,
        request: PlacementRequest,
        node: NodeProfile,
        distance: DistanceFn,
    ) -> Optional[PlacementDecision]:
        movements: List[MovementPlan] = []
        staged_bytes = 0
        stage_in_us = 0.0
        tiers: Dict[str, int] = {}
        for item in (request.code,) + request.inputs:
            if node.name in item.locations:
                tiers[TIER_DRAM] = tiers.get(TIER_DRAM, 0) + 1
                continue  # already resident
            if item.pinned:
                return None  # this input may not move; node infeasible
            source, hops = self._nearest_source(item, node.name, distance)
            pool_name = (
                self.pool_oracle(node.name, item.ref.oid)
                if self.pool_oracle is not None
                else None
            )
            tier, transfer = self.cost_model.resolve_tier(
                item.size_bytes, hops=max(hops, 1), pooled=pool_name is not None
            )
            if tier == TIER_POOL:
                source = pool_name  # staged as a load from the pool, not a replica
            tiers[tier] = tiers.get(tier, 0) + 1
            movements.append(
                MovementPlan(
                    item.ref, item.size_bytes, source, node.name, transfer.total_us, tier
                )
            )
            staged_bytes += item.size_bytes
            # Inputs are fetched in parallel: latency is the slowest fetch.
            stage_in_us = max(stage_in_us, transfer.total_us)
        if staged_bytes > node.capacity_bytes:
            return None
        queue_us = node.active_jobs * self.queue_penalty_us
        compute_us = self.cost_model.compute_time_us(request.flops) / node.speed
        result_hops = distance(node.name, request.invoker)
        result_return_us = (
            0.0
            if result_hops == 0
            else self.cost_model.object_transfer(request.result_bytes, hops=result_hops).total_us
        )
        effective_stage_in = 0.0 if self.transfer_blind else stage_in_us
        effective_return = 0.0 if self.transfer_blind else result_return_us
        total = effective_stage_in + queue_us + compute_us + effective_return
        return PlacementDecision(
            node=node.name,
            movements=movements,
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
        lack capacity, permission, or required pinned inputs).
        """
        if not candidates:
            self.tracer.count("placement.infeasible")
            raise PlacementError("no candidate nodes supplied")
        winner: Optional[NodeProfile] = None
        best_total = 0.0
        considered: Dict[str, float] = {}
        # The item tuple is candidate-invariant; build it once, not per
        # scored node (open-loop load makes decide() a hot path).
        items = (request.code,) + request.inputs
        for node in candidates:
            total = (self._score(request, node, distance, items)
                     if node.can_execute else None)
            if total is None:
                self.tracer.count("placement.rejected")
                continue
            considered[node.name] = total
            if winner is None or total < best_total:
                winner, best_total = node, total
        if winner is None:
            self.tracer.count("placement.infeasible")
            raise PlacementError(
                "no feasible execution node: every candidate lacks capacity, "
                "permission, or a required pinned input"
            )
        best = self._evaluate(request, winner, distance)
        best.considered = considered
        self._n_decisions[0] += 1
        self.tracer.sample("placement.est_total_us", best.total_us)
        for tier, n in best.tiers.items():
            self._n_tier[tier][0] += n
        return best
