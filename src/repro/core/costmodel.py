"""The memory/storage/network latency hierarchy and transfer cost model.

§1 grounds the case for revisiting DSM in two ratios: referencing remote
memory is ~100x slower than local DRAM, but ~100x faster than local SSD.
This module pins those constants, provides the transfer/serialization
cost functions every other layer shares, and exposes the placement cost
estimator used by the rendezvous engine (experiment E5) — including the
§3.1 point that once serialization is gone, *transfer* is the only cost
a placement decision needs to model.  A transfer is priced as the
simulated fabric charges it: each frame pays the path's latency and its
own bytes once per link (:meth:`CostModel.wire_time_us`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.topology import Path

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

    The wire is not one of them: every wire estimate takes the
    :class:`~repro.net.Path` it crosses, as ``Network.path`` answers it,
    and charges a frame what the store-and-forward fabric does: the
    path's latency (links and switch pipelines) plus the frame's bytes
    at every link's rate in turn.  The rest are constants:

    * ``SERIALIZE_NS_PER_BYTE`` / ``DESERIALIZE_NS_PER_BYTE`` — the RPC
      marshalling walk.  Deserialization is costlier than serialization
      (pointer fixup, allocation); the values are calibrated so that
      deserialize+load dominates sparse-model serving at ~70% (§2, E4).
    * ``BYTE_COPY_NS_PER_BYTE`` — the global-address-space alternative: a
      straight memcpy of the object image.
    * ``COMPUTE_NS_PER_FLOP`` — compute time at speed 1.0.
    * ``POOL_BANDWIDTH_GBPS`` — effective streaming rate of synchronous
      load/store through an intra-rack shared-memory pool port.  Far
      lower than NIC line rate: pool accesses are CPU loads against far
      memory, which do not pipeline like DMA — so the pool tier wins on
      fixed cost (one ``remote_memory_us`` access, no request leg, no
      marshalling) and loses on bulk, the crossover experiment E23
      measures.
    """

    SERIALIZE_NS_PER_BYTE = 2.0
    DESERIALIZE_NS_PER_BYTE = 6.0
    BYTE_COPY_NS_PER_BYTE = 0.05
    COMPUTE_NS_PER_FLOP = 0.25
    POOL_BANDWIDTH_GBPS = 2.0
    hierarchy: LatencyHierarchy = field(default_factory=LatencyHierarchy)

    # -- primitive costs ---------------------------------------------------
    def wire_time_us(self, nbytes: int, path: "Path") -> float:
        """When a frame of ``nbytes`` sent along ``path`` arrives,
        uncontended: the path's latency plus its per-byte time (each
        link serialises the whole frame again)."""
        if nbytes < 0:
            raise ValueError("bytes must be non-negative")
        return path.latency_us + nbytes * path.us_per_byte

    def fetch_time_us(self, nbytes: int, path: "Path", request_bytes: int,
                      reply_bytes: int) -> float:
        """A pull of an ``nbytes`` image along ``path``, uncontended: a
        ``request_bytes`` frame to the holder, then a frame of the image
        plus ``reply_bytes`` back.  The path serves both legs."""
        return (self.wire_time_us(request_bytes, path)
                + self.wire_time_us(reply_bytes + nbytes, path))

    def serialize_time_us(self, nbytes: int) -> float:
        """Simulated serialization walk time for ``nbytes``."""
        return nbytes * self.SERIALIZE_NS_PER_BYTE / 1000.0

    def deserialize_time_us(self, nbytes: int) -> float:
        """Simulated deserialization walk time for ``nbytes``."""
        return nbytes * self.DESERIALIZE_NS_PER_BYTE / 1000.0

    def byte_copy_time_us(self, nbytes: int) -> float:
        """Simulated memcpy time for ``nbytes``."""
        return nbytes * self.BYTE_COPY_NS_PER_BYTE / 1000.0

    def compute_time_us(self, flops: float) -> float:
        """Simulated compute time for ``flops``."""
        return flops * self.COMPUTE_NS_PER_FLOP / 1000.0

    # -- composite movement estimates ---------------------------------------
    def rpc_transfer(self, nbytes: int, path: "Path") -> TransferEstimate:
        """Moving ``nbytes`` the RPC way along ``path``: serialize, wire,
        deserialize."""
        return TransferEstimate(
            bytes_moved=nbytes,
            serialize_us=self.serialize_time_us(nbytes),
            transfer_us=self.wire_time_us(nbytes, path),
            deserialize_us=self.deserialize_time_us(nbytes),
        )

    def object_transfer(self, nbytes: int, path: "Path") -> TransferEstimate:
        """Moving ``nbytes`` as an invariant object image: memcpy out,
        wire, memcpy in — no marshalling walk on either side."""
        copy_us = self.byte_copy_time_us(nbytes)
        return TransferEstimate(
            bytes_moved=nbytes,
            serialize_us=copy_us,
            transfer_us=self.wire_time_us(nbytes, path),
            deserialize_us=copy_us,
        )

    def fetch_transfer(self, nbytes: int, path: "Path") -> TransferEstimate:
        """A *pulled* object movement: an empty request frame travels to
        the holder, then the object image comes back — an object fetch
        costs a full round trip, not half of one."""
        copy_us = self.byte_copy_time_us(nbytes)
        return TransferEstimate(
            bytes_moved=nbytes,
            serialize_us=copy_us,
            transfer_us=self.fetch_time_us(nbytes, path, 0, 0),
            deserialize_us=copy_us,
        )

    # -- staging tiers --------------------------------------------------------
    def pool_transfer(self, nbytes: int) -> TransferEstimate:
        """Staging ``nbytes`` through an intra-rack shared-memory pool:
        one far-memory access (``hierarchy.remote_memory_us``) plus
        synchronous load/store streaming at the pool port rate.  No
        request leg, no serialization walk, no staging memcpy — the
        mapping is zero-copy."""
        if nbytes < 0:
            raise ValueError("bytes must be non-negative")
        bytes_per_us = self.POOL_BANDWIDTH_GBPS * 1e9 / 8 / 1e6
        return TransferEstimate(
            bytes_moved=nbytes,
            serialize_us=0.0,
            transfer_us=self.hierarchy.remote_memory_us + nbytes / bytes_per_us,
            deserialize_us=0.0,
        )

    def resolve_tier(self, nbytes: int, fetch_us: float,
                     pooled: bool = False) -> Tuple[str, float]:
        """Cheapest staging tier for a non-resident ``nbytes`` whose
        network fetch takes ``fetch_us``: ``(tier, time)``.

        The network fetch competes with the pool tier when ``pooled``
        says a mapped copy is reachable.  The pool wins on small objects
        (no request leg) and loses on bulk wherever its port streams
        slower than the path, so the choice genuinely flips with size.
        """
        if pooled:
            pool_us = self.pool_transfer(nbytes).total_us
            if pool_us < fetch_us:
                return TIER_POOL, pool_us
        return TIER_NETWORK, fetch_us


DEFAULT_COST_MODEL = CostModel()
