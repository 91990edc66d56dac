"""repro — a reproduction of "Don't Let RPCs Constrain Your API"
(Bittman et al., HotNets '21).

A global object space with 128-bit identities, invariant pointers, and
first-class references; a simulated identity-routed network (the
Mininet/P4 substitute); object discovery (E2E vs SDN controller — the
paper's Figures 2 and 3); a rendezvous invocation engine that moves code
and data to each other; and the RPC baseline stack it is measured
against.

Quick start::

    from repro import Simulator, build_star, GlobalSpaceRuntime, FunctionRegistry

    sim = Simulator(seed=1)
    net = build_star(sim, 3, prefix="n")
    registry = FunctionRegistry()

    @registry.register("hello")
    def hello(ctx, args):
        return f"ran on {ctx.node.name}"

    rt = GlobalSpaceRuntime(net, registry)
    for name in ("n0", "n1", "n2"):
        rt.add_node(name)
    _, code_ref = rt.create_code("n0", "hello", text_size=1024)

    def main():
        result = yield sim.spawn(rt.invoke("n0", code_ref))
        return result.value

    print(sim.run_process(main()))

Subpackages: :mod:`repro.sim` (event loop), :mod:`repro.core` (object
layer + placement), :mod:`repro.net` (network substrate),
:mod:`repro.obs` (spans + metrics registry + trace export),
:mod:`repro.faults` (deterministic fault injection),
:mod:`repro.discovery`, :mod:`repro.runtime`, :mod:`repro.memproto`,
:mod:`repro.pubsub`, :mod:`repro.rpc`, :mod:`repro.consistency`,
:mod:`repro.workloads`.
"""

from .core import (
    FOT,
    CostModel,
    FunctionRegistry,
    GlobalRef,
    IDAllocator,
    InvariantPointer,
    MemObject,
    NodeProfile,
    ObjectID,
    ObjectSpace,
    PlacementEngine,
    StructLayout,
    collision_probability,
)
from .net import (
    Network,
    Packet,
    build_line,
    build_paper_topology,
    build_star,
    build_two_tier,
)
from .faults import FaultInjector, FaultPlan, HealthLedger
from .obs import MetricsRegistry, Span, SpanRecorder
from .runtime import GlobalSpaceRuntime, InvokeResult, InvokeTimeout, RetryPolicy
from .sim import Simulator, Timeout

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Simulator",
    "Timeout",
    "ObjectID",
    "IDAllocator",
    "collision_probability",
    "MemObject",
    "ObjectSpace",
    "InvariantPointer",
    "FOT",
    "GlobalRef",
    "StructLayout",
    "FunctionRegistry",
    "CostModel",
    "NodeProfile",
    "PlacementEngine",
    "Network",
    "Packet",
    "build_star",
    "build_line",
    "build_paper_topology",
    "build_two_tier",
    "GlobalSpaceRuntime",
    "InvokeResult",
    "InvokeTimeout",
    "RetryPolicy",
    "FaultPlan",
    "FaultInjector",
    "HealthLedger",
    "Span",
    "SpanRecorder",
    "MetricsRegistry",
]
