#!/usr/bin/env python
"""Quickstart: the global object space in five minutes.

Walks through the core abstractions of the reproduction:

1. objects with 128-bit identity and invariant 64-bit pointers;
2. byte-level copies between hosts (no serialization walk);
3. first-class global references;
4. the rendezvous: invoking a code reference against data references
   and letting the *system* decide where the computation runs.

Run:  python examples/quickstart.py
"""

from repro import (
    FunctionRegistry,
    GlobalRef,
    GlobalSpaceRuntime,
    Simulator,
    build_star,
)
from repro.core import IDAllocator, ObjectSpace


def part_one_objects_and_pointers():
    print("== 1. Objects, identity, and invariant pointers ==")
    space = ObjectSpace(IDAllocator(seed=7), host_name="alpha")
    doc = space.create_object(size=4096, label="document")
    index = space.create_object(size=4096, label="index")
    print(f"created {doc!r}")
    print(f"created {index!r}")

    # Store a cross-object pointer: 64 bits on the wire, referencing a
    # 128-bit space, via the document's Foreign Object Table.
    slot = doc.alloc(8)
    pointer = doc.point_to(slot, index, target_offset=256)
    print(f"pointer stored at +{slot:#x}: {pointer}")
    target_oid, target_offset = doc.resolve(doc.load_pointer(slot))
    assert (target_oid, target_offset) == (index.oid, 256)
    print(f"resolves to object {target_oid.short()} offset {target_offset:#x}")
    return space, doc, index, slot


def part_two_byte_level_copy(space, doc, index, slot):
    print("\n== 2. Moving an object is a byte-level copy ==")
    wire = space.export_object(doc.oid)
    print(f"document exports as {len(wire)} bytes (header + FOT + pool)")
    other = ObjectSpace(host_name="beta")
    arrived = other.import_object(doc.oid, wire)
    # The pointer still works on the other host: no swizzling happened.
    target_oid, target_offset = arrived.resolve(arrived.load_pointer(slot))
    assert target_oid == index.oid
    print("imported on host beta; cross-object pointer still resolves "
          f"to {target_oid.short()}+{target_offset:#x}")


def part_three_rendezvous():
    print("\n== 3. The rendezvous: code + data references, no endpoints ==")
    sim = Simulator(seed=11)
    net = build_star(sim, 3, prefix="node")
    registry = FunctionRegistry()

    @registry.register("word_count")
    def word_count(ctx, args):
        text = yield ctx.read(args["text"], 0, args["length"])
        return len(text.split())

    runtime = GlobalSpaceRuntime(net, registry)
    for name in ("node0", "node1", "node2"):
        runtime.add_node(name)

    # A large text object lives on node2; the code object on node0.
    text = b"the quick brown fox jumps over the lazy dog " * 20_000
    blob = runtime.create_object("node2", size=len(text), label="corpus")
    blob.write(0, text)
    _, code_ref = runtime.create_code("node0", "word_count", text_size=2048)

    def main():
        result = yield sim.spawn(runtime.invoke(
            "node0", code_ref,
            data_refs={"text": GlobalRef(blob.oid, 0, "read")},
            values={"length": len(text)},
            flops=len(text) * 2.0,
        ))
        return result

    result = sim.run_process(main())
    print(f"invoked word_count from node0 with a reference to {len(text)} "
          f"bytes of text on node2")
    print(f" -> result = {result.value} words")
    print(f" -> the system ran it on {result.executed_at!r} "
          f"(costs considered: "
          f"{ {k: round(v, 1) for k, v in result.decision.considered.items()} })")
    print(f" -> bytes moved: {result.decision.bytes_moved} "
          f"(the 2 KiB code object went to the data, not the 880 KB "
          "corpus to the code)")


def main():
    space, doc, index, slot = part_one_objects_and_pointers()
    part_two_byte_level_copy(space, doc, index, slot)
    part_three_rendezvous()
    print("\nDone. See examples/distributed_inference.py for the paper's "
          "motivating scenario.")


if __name__ == "__main__":
    main()
