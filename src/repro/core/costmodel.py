"""The memory/storage/network latency hierarchy and transfer cost model.

§1 grounds the case for revisiting DSM in two ratios: referencing remote
memory is ~100x slower than local DRAM, but ~100x faster than local SSD.
This module pins those constants, provides the transfer/serialization
cost functions every other layer shares, and exposes the placement cost
estimator used by the rendezvous engine (experiment E5) — including the
§3.1 point that once serialization is gone, *transfer* is the only cost
a placement decision needs to model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

__all__ = [
    "LatencyHierarchy",
    "CostModel",
    "TransferEstimate",
    "DEFAULT_HIERARCHY",
    "DEFAULT_COST_MODEL",
    "TIER_DRAM",
    "TIER_POOL",
    "TIER_NETWORK",
]

# Staging tiers the placement estimator resolves between: an input is
# either already resident (local DRAM), reachable as a load/store
# through an intra-rack shared-memory pool, or fetched over the packet
# network.
TIER_DRAM = "dram"
TIER_POOL = "pool"
TIER_NETWORK = "network"


@dataclass(frozen=True)
class LatencyHierarchy:
    """Access latencies in microseconds for one word/cache line.

    Defaults encode the paper's ratios: DRAM 0.1 us, remote memory
    100x that (10 us), local SSD another 100x (1000 us).
    """

    local_dram_us: float = 0.1
    remote_memory_us: float = 10.0
    local_ssd_us: float = 1000.0

    def __post_init__(self) -> None:
        if not 0 < self.local_dram_us < self.remote_memory_us < self.local_ssd_us:
            raise ValueError("hierarchy must be DRAM < remote memory < SSD")

    @property
    def remote_vs_dram(self) -> float:
        """How much slower remote memory is than DRAM (paper: ~100x)."""
        return self.remote_memory_us / self.local_dram_us

    @property
    def ssd_vs_remote(self) -> float:
        """How much slower local SSD is than remote memory (paper: ~100x)."""
        return self.local_ssd_us / self.remote_memory_us


DEFAULT_HIERARCHY = LatencyHierarchy()


@dataclass(frozen=True)
class TransferEstimate:
    """Breakdown of one estimated data/code movement."""

    bytes_moved: int
    serialize_us: float
    transfer_us: float
    deserialize_us: float

    @property
    def total_us(self) -> float:
        """Sum of all phases of this transfer."""
        return self.serialize_us + self.transfer_us + self.deserialize_us


@dataclass(frozen=True)
class CostModel:
    """Shared cost parameters.

    * ``link_bandwidth_gbps`` / ``link_latency_us`` — wire costs for bulk
      movement estimates (the actual network simulation uses per-link
      parameters; this is the *estimator* placement consults).
    * ``serialize_ns_per_byte`` / ``deserialize_ns_per_byte`` — the RPC
      marshalling walk.  Deserialization is costlier than serialization
      (pointer fixup, allocation); the defaults are calibrated so that
      deserialize+load dominates sparse-model serving at ~70% (§2, E4).
    * ``byte_copy_ns_per_byte`` — the global-address-space alternative: a
      straight memcpy of the object image.
    * ``pool_bandwidth_gbps`` — effective streaming rate of synchronous
      load/store through an intra-rack shared-memory pool port.  Far
      lower than NIC line rate: pool accesses are CPU loads against far
      memory, which do not pipeline like DMA — so the pool tier wins on
      fixed cost (one ``remote_memory_us`` access, no request leg, no
      marshalling) and loses on bulk, the crossover experiment E23
      measures.
    """

    link_bandwidth_gbps: float = 100.0
    link_latency_us: float = 2.0
    serialize_ns_per_byte: float = 2.0
    deserialize_ns_per_byte: float = 6.0
    byte_copy_ns_per_byte: float = 0.05
    compute_ns_per_flop: float = 0.25
    pool_bandwidth_gbps: float = 2.0
    hierarchy: LatencyHierarchy = field(default_factory=LatencyHierarchy)

    def __post_init__(self) -> None:
        if self.link_bandwidth_gbps <= 0 or self.pool_bandwidth_gbps <= 0:
            raise ValueError("bandwidth must be positive")
        if min(
            self.link_latency_us,
            self.serialize_ns_per_byte,
            self.deserialize_ns_per_byte,
            self.byte_copy_ns_per_byte,
            self.compute_ns_per_flop,
        ) < 0:
            raise ValueError("cost parameters must be non-negative")

    # -- primitive costs ---------------------------------------------------
    def wire_time_us(self, nbytes: int, hops: int = 1) -> float:
        """Propagation + transmission time for ``nbytes`` over ``hops`` links."""
        if nbytes < 0 or hops < 0:
            raise ValueError("bytes and hops must be non-negative")
        bytes_per_us = self.link_bandwidth_gbps * 1e9 / 8 / 1e6
        return hops * self.link_latency_us + nbytes / bytes_per_us

    def serialize_time_us(self, nbytes: int) -> float:
        """Simulated serialization walk time for ``nbytes``."""
        return nbytes * self.serialize_ns_per_byte / 1000.0

    def deserialize_time_us(self, nbytes: int) -> float:
        """Simulated deserialization walk time for ``nbytes``."""
        return nbytes * self.deserialize_ns_per_byte / 1000.0

    def byte_copy_time_us(self, nbytes: int) -> float:
        """Simulated memcpy time for ``nbytes``."""
        return nbytes * self.byte_copy_ns_per_byte / 1000.0

    def compute_time_us(self, flops: float) -> float:
        """Simulated compute time for ``flops``."""
        return flops * self.compute_ns_per_flop / 1000.0

    # -- composite movement estimates ---------------------------------------
    def rpc_transfer(self, nbytes: int) -> TransferEstimate:
        """Moving ``nbytes`` the RPC way over one hop: serialize, wire,
        deserialize."""
        return TransferEstimate(
            bytes_moved=nbytes,
            serialize_us=self.serialize_time_us(nbytes),
            transfer_us=self.wire_time_us(nbytes, 1),
            deserialize_us=self.deserialize_time_us(nbytes),
        )

    def object_transfer(self, nbytes: int, hops: int = 1) -> TransferEstimate:
        """Moving ``nbytes`` as an invariant object image: memcpy out,
        wire, memcpy in — no marshalling walk on either side."""
        copy_us = self.byte_copy_time_us(nbytes)
        return TransferEstimate(
            bytes_moved=nbytes,
            serialize_us=copy_us,
            transfer_us=self.wire_time_us(nbytes, hops),
            deserialize_us=copy_us,
        )

    def fetch_transfer(self, nbytes: int, hops: int = 1) -> TransferEstimate:
        """A *pulled* object movement: a small request travels to the
        holder (one propagation leg), then the object image comes back.
        Placement stage-in estimates use this — an object fetch costs a
        full round trip, not half of one."""
        request_leg_us = hops * self.link_latency_us
        copy_us = self.byte_copy_time_us(nbytes)
        return TransferEstimate(
            bytes_moved=nbytes,
            serialize_us=copy_us,
            transfer_us=request_leg_us + self.wire_time_us(nbytes, hops),
            deserialize_us=copy_us,
        )

    # -- the same totals as bare floats ---------------------------------------
    # Placement scores every candidate and builds one; these add the same
    # terms in the same order as the estimate each names, building nothing.
    def object_time_us(self, nbytes: int, hops: int = 1) -> float:
        """``object_transfer(nbytes, hops).total_us``."""
        copy_us = self.byte_copy_time_us(nbytes)
        return copy_us + self.wire_time_us(nbytes, hops) + copy_us

    def stage_in_time_us(self, nbytes: int, hops: int, pooled: bool) -> float:
        """``resolve_tier(nbytes, hops, pooled)[1].total_us``."""
        copy_us = self.byte_copy_time_us(nbytes)
        total = copy_us + (hops * self.link_latency_us
                           + self.wire_time_us(nbytes, hops)) + copy_us
        if pooled:
            total = min(total, self.hierarchy.remote_memory_us
                        + nbytes / (self.pool_bandwidth_gbps * 1e9 / 8 / 1e6))
        return total

    # -- staging tiers --------------------------------------------------------
    def pool_transfer(self, nbytes: int) -> TransferEstimate:
        """Staging ``nbytes`` through an intra-rack shared-memory pool:
        one far-memory access (``hierarchy.remote_memory_us``) plus
        synchronous load/store streaming at the pool port rate.  No
        request leg, no serialization walk, no staging memcpy — the
        mapping is zero-copy."""
        if nbytes < 0:
            raise ValueError("bytes must be non-negative")
        bytes_per_us = self.pool_bandwidth_gbps * 1e9 / 8 / 1e6
        return TransferEstimate(
            bytes_moved=nbytes,
            serialize_us=0.0,
            transfer_us=self.hierarchy.remote_memory_us + nbytes / bytes_per_us,
            deserialize_us=0.0,
        )

    def resolve_tier(self, nbytes: int, hops: int = 1,
                     pooled: bool = False) -> Tuple[str, TransferEstimate]:
        """Cheapest staging tier for a non-resident ``nbytes``:
        ``(tier, estimate)``.

        The network fetch competes with the pool tier when ``pooled``
        says a mapped copy is reachable.  The pool wins on small objects
        (no per-hop request leg) and loses on bulk (its port streams
        below NIC line rate), so the choice genuinely flips with size.
        """
        tier, estimate = TIER_NETWORK, self.fetch_transfer(nbytes, hops)
        if pooled:
            via_pool = self.pool_transfer(nbytes)
            if via_pool.total_us < estimate.total_us:
                tier, estimate = TIER_POOL, via_pool
        return tier, estimate


DEFAULT_COST_MODEL = CostModel()
