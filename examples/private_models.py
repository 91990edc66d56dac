#!/usr/bin/env python
"""Confidentiality in the global space (§1/§2).

"the invoker may wish to refer to data that they lack privileges to
read" ... "users prefer local models remain local due to confidentiality
concerns."

A cloud analytics job (invoked from the cloud host 'analytics') needs a
statistic computed over Dana's private on-device model.  Dana's ACL
forbids reading the model anywhere but her device — so the reference can
be *passed* to the job, but the placement engine has exactly one legal
executor: the computation comes to the data, and only the 24-byte ref
and the small result ever cross the network.

Run:  python examples/private_models.py
"""

from repro import (
    FunctionRegistry,
    GlobalRef,
    GlobalSpaceRuntime,
    Simulator,
    build_star,
)
from repro.runtime import RuntimeError_


def main():
    sim = Simulator(seed=71)
    net = build_star(sim, 3, prefix="")
    # hosts: '0' dana's device, '1' analytics cloud, '2' another cloud
    registry = FunctionRegistry()

    @registry.register("model_norm")
    def model_norm(ctx, args):
        raw = yield ctx.read(args["model"], 0, args["nbytes"])
        return sum(raw) / len(raw)

    runtime = GlobalSpaceRuntime(net, registry)
    dana, analytics, cloud2 = "0", "1", "2"
    for name in (dana, analytics, cloud2):
        runtime.add_node(name)

    model = runtime.create_object(dana, size=4096, label="dana-private-model")
    model.write(0, bytes(range(256)) * 16)
    acl = runtime.protect(model.oid, owner=dana, readers=set())  # local-only
    print(f"Dana's model: {model.oid.short()}..., ACL: readable only on "
          f"device {dana!r}")

    _, code_ref = runtime.create_code(analytics, "model_norm", text_size=1024)
    model_ref = GlobalRef(model.oid, 0, "read")

    # 1. The cloud cannot pull the bytes, even though it holds a reference.
    def try_steal():
        try:
            yield sim.spawn(runtime.node(analytics).remote_read(model.oid, 0, 64))
        except RuntimeError_:
            return "denied"

    print(f"\n1. analytics tries to read through the reference directly: "
          f"{sim.run_process(try_steal())}")

    # 2. The same reference, handed to invoke(): the system has one legal
    #    placement — Dana's device — and the computation goes there.
    def run_job():
        result = yield sim.spawn(runtime.invoke(
            analytics, code_ref,
            data_refs={"model": model_ref},
            values={"nbytes": 4096},
            flops=4096 * 2.0,
        ))
        return result

    result = sim.run_process(run_job())
    print(f"2. invoke(model_norm, ref) ran on device {result.executed_at!r} "
          f"and returned {result.value:.3f}")
    print(f"   bytes of model that crossed the network: 0 "
          f"(only the {24}-byte reference and the float result moved)")
    assert result.executed_at == dana

    # 3. Local execution elsewhere is also impossible — even a host that
    #    somehow obtained a replica is stopped by the ACL at read time.
    replica = model.clone()
    runtime.node(cloud2).space.insert(replica)
    runtime.note_copy(model.oid, cloud2)

    def try_local_snoop():
        try:
            yield sim.spawn(runtime.invoke(
                analytics, code_ref,
                data_refs={"model": model_ref},
                values={"nbytes": 4096},
                candidates=[cloud2]))
        except Exception:
            return "denied"

    print(f"3. forcing execution on a host holding a stolen replica: "
          f"{sim.run_process(try_local_snoop())}")
    # 4. Nor may the cloud write through the reference: the store goes
    #    to the model's home, Dana's device, which refuses it.
    def try_tamper():
        try:
            yield sim.spawn(runtime.node(analytics).store(model.oid, 0, b"x"))
        except RuntimeError_:
            return "denied"

    print(f"4. analytics tries to write Dana's model: "
          f"{sim.run_process(try_tamper())}")
    assert not acl.can_write(analytics)

    # 5. Dana shares the model with the analytics cloud: one more reader,
    #    and the read that step 1 refused now returns the bytes.
    shared = acl.with_reader(analytics)
    runtime.protect(model.oid, owner=dana, readers=shared.readers)

    def read_shared():
        data = yield sim.spawn(runtime.node(analytics).remote_read(
            model.oid, 0, 64))
        return data

    print(f"5. after Dana adds {analytics!r} as a reader, its direct read "
          f"returns {len(sim.run_process(read_shared()))} bytes")
    wire_denials = sum(
        node.tracer.counters["node.read_denied"]
        + node.tracer.counters["node.fetch_denied"]
        for node in runtime.nodes.values())
    print(f"\nenforcement: {wire_denials} wire-level denial(s), "
          f"{runtime.policies.denials} local ACL denial(s)")


if __name__ == "__main__":
    main()
