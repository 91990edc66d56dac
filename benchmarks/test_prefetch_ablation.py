"""E8 / E19: the proxy-resolution ablation — eager vs lazy vs prefetched.

Paper: "This graph can be used by the system to perform prefetching
based on data identity and actual reachability instead of some proxy for
identity (e.g., adjacency, as is used today)."

Earlier revisions of this experiment drove hand-rolled prefetch picks
against raw object fetches.  Since the proxy subsystem landed
(PROXIES.md), the three strategies are real invocation arms of
:meth:`GlobalSpaceRuntime.invoke` and the ablation exercises the full
path — argument binding, the FOT reachability walk, and the
``proxy.*`` / ``prefetch.*`` evidence keys:

* ``eager``      — ``MODE_EAGER`` with the whole chain declared up
  front: every object is staged before compute starts;
* ``lazy``       — ``MODE_PROXIED`` with no budget: each dereference
  demand-resolves one object (a stall per chunk);
* ``prefetched`` — ``MODE_PROXIED`` plus a :class:`PrefetchBudget`:
  the reachability walk streams objects in under compute.

Two workloads, both over constrained (0.5 Gbps) links where staging
serializes on the holder's uplink: a pointer-linked list traversal with
a *shuffled* object layout (allocation order disagrees with link order,
so only identity-based reachability predicts the walk), and §2 sparse
model serving over a FOT-chained partition list.
"""

import random

import pytest

from repro import FunctionRegistry, GlobalRef, GlobalSpaceRuntime, build_star
from repro.core import PrefetchBudget
from repro.runtime import MODE_EAGER, MODE_PROXIED
from repro.sim import Simulator
from repro.workloads import (
    Activation,
    SparseModel,
    build_linked_list,
    build_partition_chain,
    register_proxied_serving,
    register_proxied_traversal,
)

from conftest import print_table

SEED = 5
N_RECORDS = 128
RECORDS_PER_OBJECT = 8
WORK_PER_RECORD_US = 8.0
N_PARTITIONS = 8
ENTRIES_PER_PARTITION = 256
WORK_PER_PARTITION_US = 160.0

ARMS = ("eager", "lazy", "prefetched")
WORKLOADS = ("traversal", "inference")

N_CHUNKS = {
    "traversal": (N_RECORDS + RECORDS_PER_OBJECT - 1) // RECORDS_PER_OBJECT,
    "inference": N_PARTITIONS,
}


def _cluster():
    sim = Simulator(seed=SEED)
    net = build_star(sim, 3, prefix="n", default_bandwidth_gbps=0.5)
    registry = FunctionRegistry()
    register_proxied_traversal(registry)
    register_proxied_serving(registry)
    runtime = GlobalSpaceRuntime(net, registry)
    for name in ("n0", "n1", "n2"):
        runtime.add_node(name)
    return sim, runtime


def _traversal_setup(runtime):
    head, objects, _ = build_linked_list(
        runtime.node("n1").space, N_RECORDS, RECORDS_PER_OBJECT,
        rng=random.Random(SEED), shuffle_objects=True)
    values = {"work_us": WORK_PER_RECORD_US, "limit": N_RECORDS}
    return "traverse_list_proxied", head, objects, values


def _inference_setup(runtime):
    model = SparseModel.generate(SEED, N_PARTITIONS, ENTRIES_PER_PARTITION)
    head, objects = build_partition_chain(runtime.node("n1").space, model)
    activation = Activation.generate(random.Random(SEED + 1), 64)
    values = {"activation": activation.values, "work_us": WORK_PER_PARTITION_US}
    return "serve_partition_chain", head, objects, values


_SETUP = {"traversal": _traversal_setup, "inference": _inference_setup}


def run_arm(workload: str, arm: str, budget: PrefetchBudget = None):
    """One invocation under ``arm``; returns (latency_us, proxy counters)."""
    sim, runtime = _cluster()
    entry, head, objects, values = _SETUP[workload](runtime)
    for obj in objects:
        runtime.adopt_object("n1", obj)
    _, code_ref = runtime.create_code("n0", entry, text_size=256)
    refs = {"head": head}
    mode, prefetch = MODE_PROXIED, None
    if arm == "eager":
        # Declare the full working set so staging covers the chain.
        mode = MODE_EAGER
        for i, obj in enumerate(objects):
            if obj.oid != head.oid:
                refs[f"chunk{i}"] = GlobalRef(obj.oid, 0, "read")
    elif arm == "prefetched":
        prefetch = budget if budget is not None else PrefetchBudget(
            depth=len(objects) + 1, fanout=4, max_objects=len(objects))
    out = {}

    def driver():
        out["result"] = yield sim.spawn(runtime.invoke(
            "n0", code_ref, data_refs=refs, values=values,
            mode=mode, candidates=["n0"], prefetch=prefetch, flops=1))

    sim.run_process(driver(), name=f"ablation-{workload}-{arm}")
    consumer = runtime.node("n0")
    consumer.proxies.settle()
    return out["result"].latency_us, consumer.proxies.tracer.counters.as_dict()


@pytest.fixture(scope="module")
def outcomes():
    return {(workload, arm): run_arm(workload, arm)
            for workload in WORKLOADS for arm in ARMS}


def test_ablation_table(outcomes):
    rows = []
    for workload in WORKLOADS:
        for arm in ARMS:
            latency, counters = outcomes[(workload, arm)]
            rows.append([
                workload, arm, N_CHUNKS[workload], round(latency, 1),
                counters.get("prefetch.issued", 0),
                counters.get("proxy.resolve.prefetch_hit", 0),
                counters.get("proxy.resolve.lazy", 0),
            ])
    print_table(
        "Proxy resolution ablation (eager / lazy / prefetched arms)",
        ["workload", "arm", "chunks", "latency_us",
         "pf_issued", "pf_hits", "lazy_resolves"],
        rows,
    )


def test_lazy_arm_stalls_on_every_chunk(outcomes):
    for workload in WORKLOADS:
        _, counters = outcomes[(workload, "lazy")]
        # Without a budget every chunk is a demand resolution.
        assert counters.get("proxy.resolve.lazy", 0) == N_CHUNKS[workload]
        assert counters.get("prefetch.issued", 0) == 0


def test_prefetched_beats_eager_beats_lazy(outcomes):
    for workload in WORKLOADS:
        eager = outcomes[(workload, "eager")][0]
        lazy = outcomes[(workload, "lazy")][0]
        prefetched = outcomes[(workload, "prefetched")][0]
        # Staging everything serializes on the holder's uplink before
        # compute starts; the reachability walk overlaps it instead.
        assert prefetched < eager < lazy


def test_prefetch_covers_the_chain(outcomes):
    for workload in WORKLOADS:
        _, counters = outcomes[(workload, "prefetched")]
        n_chunks = N_CHUNKS[workload]
        assert counters.get("prefetch.issued", 0) == n_chunks
        # The walk keeps ahead of the consumer after the head fetch,
        # and reachability never guesses wrong on a chain.
        assert counters.get("proxy.resolve.prefetch_hit", 0) >= n_chunks - 2
        assert counters.get("prefetch.wasted", 0) == 0


def test_shuffled_layout_does_not_confuse_reachability(outcomes):
    """The traversal chain is laid out shuffled: allocation order and
    link order disagree.  Identity-based prefetching doesn't care — the
    FOT successors *are* the next chunks (the paper's §3.1 point)."""

    _, counters = outcomes[("traversal", "prefetched")]
    misses = counters.get("proxy.resolve.prefetch_miss", 0)
    hits = counters.get("proxy.resolve.prefetch_hit", 0)
    assert hits + misses == N_CHUNKS["traversal"]
    assert hits >= N_CHUNKS["traversal"] - 2


def test_prefetch_budget_sweep():
    """DESIGN §6 / PROXIES.md ablation: how many objects may the walk
    pull ahead?  ``max_objects`` caps the *total* objects a walk may
    fetch, so it buys cover for a prefix of the chain: 0 degenerates to
    the lazy arm (the walk truncates immediately), small budgets convert
    a prefix of the stalls, and latency falls with coverage until the
    budget reaches the chain length."""

    def run_with_budget(max_objects):
        budget = PrefetchBudget(depth=N_CHUNKS["traversal"] + 1, fanout=4,
                                max_objects=max_objects)
        return run_arm("traversal", "prefetched", budget=budget)

    budgets = (0, 1, 4, N_CHUNKS["traversal"])
    outcomes = {b: run_with_budget(b) for b in budgets}
    rows = [[b, counters.get("prefetch.issued", 0),
             counters.get("proxy.resolve.prefetch_hit", 0),
             counters.get("prefetch.depth_truncated", 0),
             round(latency, 1)]
            for b, (latency, counters) in sorted(outcomes.items())]
    print_table(
        "Reachability prefetch: object budget sweep (traversal)",
        ["max_objects", "pf_issued", "pf_hits", "truncated", "latency_us"],
        rows,
    )
    issued = {b: outcomes[b][1].get("prefetch.issued", 0) for b in budgets}
    times = {b: outcomes[b][0] for b in budgets}
    n_chunks = N_CHUNKS["traversal"]
    assert issued[0] == 0                       # no budget, no walk
    assert outcomes[0][1].get("prefetch.depth_truncated", 0) >= 1
    assert issued[1] == 1
    assert issued[n_chunks] == n_chunks
    # Partial budgets truncate (and say so); the uncovered tail
    # falls back to demand resolution.
    assert outcomes[4][1].get("prefetch.depth_truncated", 0) == 1
    assert outcomes[n_chunks][1].get("prefetch.depth_truncated", 0) == 0
    # Latency falls monotonically as the budget covers more of the
    # chain; the full budget converts every stall it can.
    assert times[n_chunks] < times[4] < times[1] <= times[0]


def test_depth_budget_truncates_the_walk():
    """A depth budget smaller than the chain cuts the walk short and
    says so (``prefetch.depth_truncated``) — the tail of the chain falls
    back to demand resolution, it is never silently dropped."""

    budget = PrefetchBudget(depth=3, fanout=4,
                            max_objects=N_CHUNKS["traversal"])
    latency, counters = run_arm("traversal", "prefetched", budget=budget)
    n_chunks = N_CHUNKS["traversal"]
    assert counters.get("prefetch.depth_truncated", 0) == 1
    issued = counters.get("prefetch.issued", 0)
    assert 0 < issued < n_chunks
    lazy_tail = counters.get("proxy.resolve.lazy", 0)
    assert issued + lazy_tail >= n_chunks
    # Partial cover still beats no cover.
    lazy_latency, _ = run_arm("traversal", "lazy")
    assert latency < lazy_latency
