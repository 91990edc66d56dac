"""The full §2 / Figure 1 scenario: Alice, Bob, Carol, and Dave.

A mobile device (**alice**) holds an activation and wants a
classification that needs a sparse global-model partition living on an
overloaded cloud host (**bob**) while a second cloud host (**carol**)
sits idle.  A second edge device (**dave**) is *capable* of running the
inference itself.

:func:`build_scenario` constructs the environment once;
:func:`run_strategy` executes the classification under one of the four
invocation models the paper contrasts:

* ``rpc_via_alice``   — Figure 1(1): Alice pulls the partition from Bob
  by RPC, then pushes it to Carol by RPC.  Two full serialized copies of
  the model cross the network, both through Alice's uplink.
* ``rpc_direct_pull`` — Figure 1(2): Alice tells Carol to pull from Bob.
  One serialized copy less, but Alice still hard-codes the placement.
* ``refrpc``          — Wang et al.: Alice passes a reference; the
  *system* moves bytes (no marshalling walk) — but Alice still names the
  executor, so the computation cannot land anywhere she didn't say.
* ``rendezvous``      — Figure 1(3): Alice invokes a code reference
  against a data reference.  The placement engine picks the executor
  (idle Carol — or Dave's own silicon when Dave invokes), and the
  partition moves as one byte-level copy along the shortest path.

Every run reports latency, the bytes each strategy pushed through the
invoker's access link, and how many placement decisions the application
code had to make (the "orchestration steps" of Figure 1's red arrows).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

from ..core import FunctionRegistry, GlobalRef
from ..net.topology import Network
from ..rpc import (
    RemoteRef,
    RefRpcClient,
    RefRpcServer,
    RpcClient,
    RpcServer,
)
from ..runtime import GlobalSpaceRuntime
from ..sim import Simulator
from .inference import (
    Activation,
    ModelPartition,
    dot_product,
    partition_flops,
    write_partition_object,
)

__all__ = ["Scenario", "StrategyResult", "build_scenario", "run_strategy",
           "STRATEGIES"]

STRATEGIES = ("rpc_via_alice", "rpc_direct_pull", "refrpc", "rendezvous")

EDGE_LINK_LATENCY_US = 200.0   # edge devices sit behind a slower access link
CLOUD_LINK_LATENCY_US = 5.0


@dataclass
class StrategyResult:
    """What one strategy run measured."""

    strategy: str
    invoker: str
    score: float
    latency_us: float
    executed_at: str
    invoker_uplink_bytes: int   # model bytes squeezed through the edge link
    orchestration_steps: int    # placement decisions made by app code


class Scenario:
    """The constructed environment, ready to run strategies."""

    def __init__(self, sim: Simulator, net: Network,
                 runtime: GlobalSpaceRuntime, partition: ModelPartition,
                 activation: Activation, partition_obj, code_ref: GlobalRef,
                 servers: Dict[str, object], clients: Dict[str, object]):
        self.sim = sim
        self.net = net
        self.runtime = runtime
        self.partition = partition
        self.activation = activation
        self.partition_obj = partition_obj
        self.code_ref = code_ref
        self.servers = servers
        self.clients = clients

    def uplink_bytes(self, host: str) -> int:
        """Bytes currently carried by ``host``'s access link."""
        node = self.net.node(host)
        return sum(link.bytes_carried for link in node.links)

    def expected_score(self) -> float:
        """Ground-truth classification score."""
        return dot_product(self.partition, self.activation)


def build_scenario(partition_entries: int = 20_000,
                   dave_has_local_model: bool = False) -> Scenario:
    """Construct the two-edge/two-cloud environment (seed 42; a
    256-dimension activation; Bob 12 jobs deep).

    Dave runs at 1.5x: the §5 case, an edge device with enough silicon
    to run the inference itself.  With
    ``dave_has_local_model=True`` Dave also already holds a replica of
    the partition (§2: a device "in possession of a locally-trained
    model") — under the rendezvous model his invocations then run
    entirely on-device, which no RPC variant can express.
    """
    seed = 42
    sim = Simulator(seed=seed)
    net = Network(sim, default_latency_us=CLOUD_LINK_LATENCY_US)
    net.add_switch("edge_sw")
    net.add_switch("cloud_sw")
    net.connect("edge_sw", "cloud_sw", latency_us=50.0)
    for name in ("alice", "dave"):
        net.add_host(name)
        net.connect(name, "edge_sw", latency_us=EDGE_LINK_LATENCY_US)
    for name in ("bob", "carol"):
        net.add_host(name)
        net.connect(name, "cloud_sw", latency_us=CLOUD_LINK_LATENCY_US)

    registry = FunctionRegistry()

    def classify_mobile(ctx, args):
        image = yield ctx.read(args["partition"], 0,
                               args["partition_bytes"])
        partition = ModelPartition.unpack(image)
        activation = Activation(args["activation"])
        return dot_product(partition, activation)

    registry.register("classify_mobile", classify_mobile)

    from ..core import CostModel

    # One cost model, calibrated to the simulated links (10 Gbps), shared
    # by the placement estimator and the ref-RPC transfer charges so no
    # stack gets a discounted network.
    cost_model = CostModel(link_bandwidth_gbps=10.0)
    runtime = GlobalSpaceRuntime(net, registry, cost_model=cost_model)
    # Alice cannot host the fragment (§2: "the global model fragment is
    # too large" for her device) — 64 KiB of staging memory.
    runtime.add_node("alice", speed=0.2, capacity_bytes=64 * 1024)
    runtime.add_node("bob", speed=1.0)
    runtime.add_node("carol", speed=1.0)
    runtime.add_node("dave", speed=1.5)
    runtime.node("bob").active_jobs = 12

    rng = random.Random(seed)
    partition = ModelPartition.generate(rng, 0, partition_entries)
    activation = Activation.generate(rng, 256)
    partition_obj = write_partition_object(runtime.node("bob").space, partition,
                                           label="global-model-partition")
    runtime.adopt_object("bob", partition_obj)
    if dave_has_local_model:
        runtime.node("dave").space.insert(partition_obj.clone())
        runtime.note_copy(partition_obj.oid, "dave")
    code_obj, code_ref = runtime.create_code("alice", "classify_mobile",
                                             text_size=4096)
    # Both edge devices ship with the classifier code installed — code,
    # like data, can be replicated ahead of time in the global space.
    runtime.node("dave").space.insert(code_obj.clone())
    runtime.note_copy(code_obj.oid, "dave")

    # RPC plumbing on every cloud host: Bob serves the model, both serve
    # inference; edge devices get clients.
    compute_us = runtime.cost_model.compute_time_us(partition_flops(partition))
    servers: Dict[str, object] = {}
    image = partition.pack()

    def fetch_partition():
        return image

    def infer(partition_image, activation):
        return dot_product(ModelPartition.unpack(partition_image),
                           Activation(activation))

    for cloud in ("bob", "carol"):
        server = RpcServer(net.host(cloud), workers=4)
        server.register("fetch_partition", fetch_partition,
                        compute_us=5.0)
        server.register("infer", infer, compute_us=compute_us)
        servers[cloud] = server
    # Fig 1(2): a direct-pull method on Carol — she fetches from Bob
    # herself, then infers.  The extra RPC Alice had to ask for.
    carol_client = RpcClient(net.host("carol"))

    def infer_pull(activation):
        partition_image = yield from carol_client.call("bob", "fetch_partition")
        return infer(partition_image, activation)

    servers["carol"].register("infer_pull", infer_pull, compute_us=compute_us)
    refrpc_servers = {}
    for cloud in ("bob", "carol"):
        refrpc_server = RefRpcServer(
            net.host(cloud),
            locator=lambda oid: ("bob", partition_obj.wire_size),
            distance=runtime._effective_distance,
            fetch_object=lambda oid: image,
            cost_model=runtime.cost_model,
        )
        refrpc_server.register("infer_ref", infer, compute_us=compute_us)
        refrpc_servers[cloud] = refrpc_server

    clients: Dict[str, object] = {}
    for edge in ("alice", "dave"):
        clients[edge] = {
            "rpc": RpcClient(net.host(edge)),
            "refrpc": RefRpcClient(net.host(edge)),
        }
    servers["refrpc"] = refrpc_servers

    return Scenario(sim, net, runtime, partition, activation, partition_obj,
                    code_ref, servers, clients)


def run_strategy(scenario: Scenario, strategy: str, invoker: str = "alice"):
    """Process: run one classification under ``strategy`` from ``invoker``.

    Returns a :class:`StrategyResult`.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    sim = scenario.sim
    start = sim.now
    uplink_before = scenario.uplink_bytes(invoker)
    rpc: RpcClient = scenario.clients[invoker]["rpc"]
    activation_values = scenario.activation.values

    if strategy == "rpc_via_alice":
        # Fig 1(1): pull the model to the invoker, push it to Carol.
        image = yield from rpc.call("bob", "fetch_partition")
        score = yield from rpc.call("carol", "infer",
                                    partition_image=image,
                                    activation=activation_values)
        executed_at = "carol"
        steps = 3  # chose Bob, moved data, chose Carol

    elif strategy == "rpc_direct_pull":
        # Fig 1(2): Carol pulls from Bob herself; Alice still chose Carol.
        score = yield from rpc.call("carol", "infer_pull",
                                    activation=activation_values)
        executed_at = "carol"
        steps = 2  # chose Carol, and asked for the pull-from-Bob API

    elif strategy == "refrpc":
        refrpc: RefRpcClient = scenario.clients[invoker]["refrpc"]
        score = yield from refrpc.call(
            "carol", "infer_ref",
            partition_image=RemoteRef(scenario.partition_obj.oid),
            activation=activation_values)
        executed_at = "carol"
        steps = 1  # still had to name Carol

    else:  # rendezvous
        # Candidates: the invoker's own device plus the cloud — another
        # user's edge device is never a legal placement for this job.
        result = yield sim.spawn(scenario.runtime.invoke(
            invoker, scenario.code_ref,
            data_refs={"partition": GlobalRef(scenario.partition_obj.oid, 0,
                                              "read")},
            values={"activation": activation_values,
                    "partition_bytes": scenario.partition_obj.size},
            flops=partition_flops(scenario.partition),
            candidates=[invoker, "bob", "carol"],
        ))
        score = result.value
        executed_at = result.executed_at
        steps = 0  # the system placed the computation

    return StrategyResult(
        strategy=strategy,
        invoker=invoker,
        score=score,
        latency_us=sim.now - start,
        executed_at=executed_at,
        invoker_uplink_bytes=scenario.uplink_bytes(invoker) - uplink_before,
        orchestration_steps=steps,
    )
