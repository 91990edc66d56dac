"""Remote data-structure traversal: linked records across objects.

One of the §1 motivating cases RPC cannot express: "the invoker may wish
to traverse a remote data structure."  This module builds linked lists
whose records span many objects (each ``next`` field is a 64-bit
invariant pointer, cross-object hops go through FOTs) and provides both
traversal strategies:

* a *mobile-code* traversal (registered as ``traverse_list`` for the
  runtime): the computation moves to the data and walks it locally;
* a *remote* traversal driven from the invoker: every hop is a network
  round trip — what shoehorning traversal onto RPC/remote-read costs.

It also feeds the prefetch experiment (E8): traversal order follows
pointers, so the FOT reachability graph predicts the next objects
exactly, while allocation-order adjacency is only right when layout
happens to match link order.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..core.objects import MemObject
from ..core.refs import GlobalRef
from ..core.space import ObjectSpace
from ..core.views import Field, StructLayout

__all__ = [
    "LIST_NODE",
    "build_linked_list",
    "local_traverse",
    "register_traversal",
    "register_proxied_traversal",
]

# One list record: a next pointer and an inline payload.
LIST_NODE = StructLayout("list_node", [
    Field("next", "ptr"),
    Field("value", "u64"),
    Field("payload", "bytes", length=48),
])


def build_linked_list(
    space: ObjectSpace,
    n_records: int,
    records_per_object: int,
    rng: Optional[random.Random] = None,
    shuffle_objects: bool = False,
) -> Tuple[GlobalRef, List[MemObject], List[int]]:
    """Build an ``n_records`` list spread over ceil(n/records_per_object)
    objects; returns (head ref, objects in creation order, values in
    link order).

    ``shuffle_objects=True`` assigns records to objects in a shuffled
    order, so link order and allocation order disagree — the case that
    separates reachability prefetching from the adjacency heuristic.
    """
    if n_records <= 0 or records_per_object <= 0:
        raise ValueError("need positive record counts")
    rng = rng if rng is not None else random.Random(0)
    n_objects = (n_records + records_per_object - 1) // records_per_object
    object_size = 64 + LIST_NODE.size * records_per_object
    objects = [
        space.create_object(size=object_size, label=f"list-chunk-{i}")
        for i in range(n_objects)
    ]
    # Which object hosts record i?
    assignment = [i // records_per_object for i in range(n_records)]
    if shuffle_objects:
        chunk_order = list(range(n_objects))
        rng.shuffle(chunk_order)
        assignment = [chunk_order[a] for a in assignment]
    views = []
    values = []
    for i in range(n_records):
        view = LIST_NODE.allocate_in(objects[assignment[i]])
        value = rng.randrange(1 << 32)
        view.set("value", value)
        view.set("payload", f"record-{i}".encode())
        views.append(view)
        values.append(value)
    # Link them: record i -> record i+1 (cross-object pointers go
    # through the FOT automatically).
    for i in range(n_records - 1):
        views[i].set_pointer_to("next", views[i + 1])
    head = GlobalRef(views[0].obj.oid, views[0].offset, "read")
    return head, objects, values


def local_traverse(space: ObjectSpace, head: GlobalRef,
                   max_steps: int = 1 << 20) -> List[int]:
    """Walk the list entirely within one space; returns the values.

    Requires every chunk to be resident — the state the mobile-code
    path reaches after staging.
    """
    values: List[int] = []
    oid, offset = head.oid, head.offset
    for _ in range(max_steps):
        obj = space.get(oid)
        view = LIST_NODE.view(obj, offset)
        values.append(view.get("value"))
        pointer = view.get("next")
        if pointer.is_null:
            return values
        oid, offset = obj.resolve(pointer)
    raise RuntimeError("list longer than max_steps (cycle?)")


def register_traversal(registry) -> None:
    """Register the mobile-code traversal entry ``traverse_list``.

    The function runs where the runtime placed it; if chunks are staged
    (eager mode) every hop is local, while lazy mode demand-reads record
    by record — both paths exercise the same pointer decoding.
    """
    if "traverse_list" in registry:
        return

    def traverse_list(ctx, args):
        """Mobile-code entry: walk the list from ``args['head']``,
        returning {'sum', 'count'} over up to ``args['limit']`` records."""
        head: GlobalRef = args["head"]
        limit = args.get("limit", 1 << 20)
        total = 0
        count = 0
        ref = head
        for _ in range(limit):
            raw = yield ctx.read(ref, 0, LIST_NODE.size)
            value = int.from_bytes(raw[8:16], "big")
            total += value
            count += 1
            from ..core.pointers import InvariantPointer

            pointer = InvariantPointer.from_bytes(raw[0:8])
            if pointer.is_null:
                break
            if pointer.is_internal:
                ref = GlobalRef(ref.oid, pointer.offset, ref.mode)
            else:
                next_ref = yield ctx.follow(ref)
                ref = next_ref
        return {"sum": total, "count": count}

    registry.register("traverse_list", traverse_list)


def register_proxied_traversal(registry) -> None:
    """Register ``traverse_list_proxied``, the E19 ablation entry.

    The same pointer walk as ``traverse_list``, but it accepts either a
    staged :class:`GlobalRef` head (the eager arm) or a lazy
    :class:`~repro.core.proxies.ObjectProxy` head (``MODE_PROXIED``),
    and spends a fixed ``work_us`` of compute per record — execution
    time a reachability prefetch can hide transfers under (PROXIES.md).
    """
    if "traverse_list_proxied" in registry:
        return

    def traverse_list_proxied(ctx, args):
        """Walk the list from ``args['head']`` (ref or proxy), spending
        ``args['work_us']`` per record; returns {'sum', 'count'}."""
        from ..core.pointers import InvariantPointer
        from ..core.proxies import ObjectProxy
        from ..sim import Timeout

        head = args["head"]
        limit = args.get("limit", 1 << 20)
        work_us = float(args.get("work_us", 0.0))
        total = 0
        count = 0
        if isinstance(head, ObjectProxy):
            proxy, offset = head, head.ref.offset
            for _ in range(limit):
                raw = yield from proxy.read(offset, LIST_NODE.size)
                total += int.from_bytes(raw[8:16], "big")
                count += 1
                if work_us:
                    yield Timeout(work_us)
                pointer = InvariantPointer.from_bytes(raw[0:8])
                if pointer.is_null:
                    break
                next_ref = yield from proxy.follow(offset)
                if next_ref.oid != proxy.oid:
                    proxy = ctx.proxy(next_ref)
                offset = next_ref.offset
        else:
            ref = head
            for _ in range(limit):
                raw = yield ctx.read(ref, 0, LIST_NODE.size)
                total += int.from_bytes(raw[8:16], "big")
                count += 1
                if work_us:
                    yield Timeout(work_us)
                pointer = InvariantPointer.from_bytes(raw[0:8])
                if pointer.is_null:
                    break
                if pointer.is_internal:
                    ref = GlobalRef(ref.oid, pointer.offset, ref.mode)
                else:
                    ref = yield ctx.follow(ref)
        return {"sum": total, "count": count}

    registry.register("traverse_list_proxied", traverse_list_proxied)
