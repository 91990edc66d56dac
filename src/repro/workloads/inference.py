"""The §2 workload: distributed inference over sparse giant models.

The motivating example: edge devices (Alice, Dave) hold activations and
small local models; cloud hosts (Bob, Carol) hold partitions of a sparse
global model, personalized per user.  Model-serving over RPC pays a
deserialize-and-load step at request time that §2 (citing TriMS) puts at
"as much as 70% of the processing time".

A partition is a list of (index, weight) pairs — genuinely sparse, so
the RPC serializer must walk every entry while the object-space path
moves the same partition as a flat binary image.  Both representations
hold identical numbers, and :func:`dot_product` is the shared inference
kernel, so the comparison isolates exactly the marshalling cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.objects import MemObject
from ..core.pointers import POINTER_BYTES, InvariantPointer
from ..core.refs import GlobalRef
from ..core.space import ObjectSpace

__all__ = [
    "ModelPartition",
    "SparseModel",
    "Activation",
    "dot_product",
    "write_partition_object",
    "read_partition_object",
    "build_partition_chain",
    "register_proxied_serving",
    "personalize",
    "partition_flops",
    "serving_compute_us",
    "SERVING_COMPUTE_RATIO",
]

# Calibration for the §2 / TriMS claim: model-serving spends ~70% of its
# processing time deserializing and loading the model, so the remaining
# request work is ~0.43x the deserialization time
# (0.7 = d / (d + 0.43 d)).  EXPERIMENTS.md documents this calibration.
SERVING_COMPUTE_RATIO = 0.43

_ENTRY_BYTES = 12  # 4B index + 8B weight (fixed-point) in the packed image
_WEIGHT_SCALE = 1 << 32


@dataclass
class ModelPartition:
    """One shard of a sparse model: (feature index, weight) pairs."""

    partition_id: int
    entries: List[Tuple[int, float]]

    @classmethod
    def generate(cls, rng: random.Random, partition_id: int,
                 n_entries: int) -> "ModelPartition":
        """Deterministically synthesize a partition from a seeded RNG,
        its indices drawn from a 2**24 feature space."""
        if n_entries <= 0:
            raise ValueError("a partition needs at least one entry")
        entries = [
            (rng.randrange(1 << 24), rng.uniform(-1.0, 1.0))
            for _ in range(n_entries)
        ]
        return cls(partition_id, entries)

    @property
    def n_entries(self) -> int:
        """Number of (index, weight) entries."""
        return len(self.entries)

    @property
    def packed_size(self) -> int:
        """Bytes of the flat binary image (the object-space encoding)."""
        return 8 + _ENTRY_BYTES * len(self.entries)

    def to_value(self) -> Dict:
        """Codec-friendly structured value (the RPC encoding): the
        serializer must walk every entry of the nested list."""
        return {
            "partition_id": self.partition_id,
            "entries": [[index, weight] for index, weight in self.entries],
        }

    @classmethod
    def from_value(cls, value: Dict) -> "ModelPartition":
        """Rebuild from the codec-friendly structured value."""
        return cls(value["partition_id"],
                   [(index, weight) for index, weight in value["entries"]])

    def pack(self) -> bytes:
        """Flat binary image: header + fixed-width entries.

        Weights are stored as signed 64-bit fixed point so the image is
        byte-exact across hosts (floats would be too, but fixed point
        keeps the equality checks in tests simple).
        """
        parts = [self.partition_id.to_bytes(4, "big"),
                 len(self.entries).to_bytes(4, "big")]
        for index, weight in self.entries:
            parts.append(index.to_bytes(4, "big"))
            parts.append(int(weight * _WEIGHT_SCALE).to_bytes(8, "big", signed=True))
        return b"".join(parts)

    @classmethod
    def unpack(cls, raw: bytes) -> "ModelPartition":
        """Rebuild from the flat binary image."""
        partition_id = int.from_bytes(raw[0:4], "big")
        count = int.from_bytes(raw[4:8], "big")
        entries = []
        for i in range(count):
            at = 8 + i * _ENTRY_BYTES
            index = int.from_bytes(raw[at : at + 4], "big")
            fixed = int.from_bytes(raw[at + 4 : at + 12], "big", signed=True)
            entries.append((index, fixed / _WEIGHT_SCALE))
        return cls(partition_id, entries)


@dataclass
class SparseModel:
    """A sparse model as a list of partitions."""

    partitions: List[ModelPartition]

    @classmethod
    def generate(cls, seed: int, n_partitions: int,
                 entries_per_partition: int) -> "SparseModel":
        """Deterministically synthesize an instance from a seed."""
        rng = random.Random(seed)
        return cls([
            ModelPartition.generate(rng, pid, entries_per_partition)
            for pid in range(n_partitions)
        ])

    @property
    def total_entries(self) -> int:
        """Entries across all partitions."""
        return sum(p.n_entries for p in self.partitions)


@dataclass
class Activation:
    """An input vector from an edge device."""

    values: List[float]

    @classmethod
    def generate(cls, rng: random.Random, dimension: int) -> "Activation":
        """Deterministically synthesize an instance from a seed."""
        if dimension <= 0:
            raise ValueError("activation needs a positive dimension")
        return cls([rng.uniform(-1.0, 1.0) for _ in range(dimension)])


def dot_product(partition: ModelPartition, activation: Activation) -> float:
    """The inference kernel both stacks share: a sparse dot product.

    Feature indices fold into the activation dimension, so any
    partition/activation pair composes.
    """
    dim = len(activation.values)
    return sum(weight * activation.values[index % dim]
               for index, weight in partition.entries)


def partition_flops(partition: ModelPartition) -> float:
    """Nominal FLOP count for placement cost estimates (2 per entry)."""
    return 2.0 * partition.n_entries


def serving_compute_us(partition_bytes: int, cost_model) -> float:
    """The non-deserialization share of serving one request over a
    ``partition_bytes`` model (inference + request handling), calibrated
    so that deserialize+load is ~70% of RPC-path processing time."""
    return cost_model.deserialize_time_us(partition_bytes) * SERVING_COMPUTE_RATIO


def personalize(base: ModelPartition, rng: random.Random,
                fraction: float = 0.1) -> ModelPartition:
    """Last-mile customization: perturb ``fraction`` of the weights.

    Models the §2 point that inference tasks for different users hit
    *slightly different* models, defeating a shared warm cache.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    entries = list(base.entries)
    n_changes = int(len(entries) * fraction)
    for _ in range(n_changes):
        at = rng.randrange(len(entries))
        index, weight = entries[at]
        entries[at] = (index, weight + rng.uniform(-0.05, 0.05))
    return ModelPartition(base.partition_id, entries)


def write_partition_object(space: ObjectSpace, partition: ModelPartition,
                           label: str = "") -> MemObject:
    """Store a partition as a flat object image in ``space``."""
    image = partition.pack()
    obj = space.create_object(size=len(image),
                              label=label or f"partition-{partition.partition_id}")
    obj.write(0, image)
    return obj


def read_partition_object(obj: MemObject) -> ModelPartition:
    """Rebuild a partition from its object image (a byte-level copy —
    contrast with the serializer walk in :mod:`repro.rpc.serializer`)."""
    return ModelPartition.unpack(obj.read(0, obj.size))


def build_partition_chain(
    space: ObjectSpace, model: SparseModel,
) -> Tuple[GlobalRef, List[MemObject]]:
    """Store the model as a chain of per-partition objects.

    Each object is ``[8B next pointer][packed image]``, and partition
    i -> i+1 is linked through the FOT — so both an embedded-pointer
    walk and a pure reachability (FOT) walk see the same chain.  This is
    the shape the §2 serving path takes once partitions are objects
    instead of RPC payloads: the next shard is *reachable*, which is
    exactly what the prefetcher needs (PROXIES.md).  Returns the head
    reference and the objects in chain order.
    """
    objs = []
    for partition in model.partitions:
        image = partition.pack()
        obj = space.create_object(size=POINTER_BYTES + len(image),
                                  label=f"pchain-{partition.partition_id}")
        obj.write(POINTER_BYTES, image)
        objs.append(obj)
    for i, obj in enumerate(objs):
        if i + 1 < len(objs):
            index = obj.fot.add(objs[i + 1].oid)
            pointer = InvariantPointer.external(index, 0)
        else:
            pointer = InvariantPointer.null()
        obj.write(0, pointer.to_bytes())
    return GlobalRef(objs[0].oid, 0, "read"), objs


def register_proxied_serving(registry) -> None:
    """Register ``serve_partition_chain``, the inference E19 entry.

    Walks a :func:`build_partition_chain` chain from ``args['head']`` —
    a staged :class:`GlobalRef` (eager arm) or an
    :class:`~repro.core.proxies.ObjectProxy` (``MODE_PROXIED``) — and
    scores ``args['activation']`` against every partition, spending
    ``args['work_us']`` of request handling per partition.
    """
    if "serve_partition_chain" in registry:
        return

    def serve_partition_chain(ctx, args):
        """Score the activation against each partition of the chain;
        returns {'score', 'partitions'}."""
        from ..core.proxies import ObjectProxy
        from ..sim import Timeout

        head = args["head"]
        activation = Activation(list(args["activation"]))
        work_us = float(args.get("work_us", 0.0))
        score = 0.0
        served = 0
        if isinstance(head, ObjectProxy):
            proxy = head
            while proxy is not None:
                raw = yield from proxy.read_all()
                partition = ModelPartition.unpack(raw[POINTER_BYTES:])
                score += dot_product(partition, activation)
                served += 1
                if work_us:
                    yield Timeout(work_us)
                next_ref = yield from proxy.follow(0)
                proxy = ctx.proxy(next_ref) if next_ref is not None else None
        else:
            ref = head
            while ref is not None:
                header = yield ctx.read(ref, POINTER_BYTES, 8)
                n_entries = int.from_bytes(header[4:8], "big")
                image = yield ctx.read(ref, POINTER_BYTES,
                                       8 + _ENTRY_BYTES * n_entries)
                partition = ModelPartition.unpack(image)
                score += dot_product(partition, activation)
                served += 1
                if work_us:
                    yield Timeout(work_us)
                ref = yield ctx.follow(ref)
        return {"score": score, "partitions": served}

    registry.register("serve_partition_chain", serve_partition_chain)
