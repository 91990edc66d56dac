"""E11 / §2-§3.1: the "good RPC" case and where it stops being good.

Paper: "RPC shines in situations where decoupling in the application
meshes well with having little data movement... often manifesting as
something like a fronted key-value store service.  But call-by-small-
value is a significant constraint."

Runs an identical GET workload against an RPC-fronted store and the
object-space store, sweeping value size and re-access count, and locates
the crossover: RPC wins (or ties) for small one-shot values; references
plus local caching win as values grow and are re-read.
"""

import random

import pytest

from repro.net import build_star
from repro.rpc import RpcClient, RpcServer
from repro.runtime import GlobalSpaceRuntime
from repro.sim import Simulator
from repro.workloads import (
    ObjectKVClient,
    ObjectKVService,
    RpcKVClient,
    RpcKVService,
)

from conftest import print_table

VALUE_SIZES = [64, 1024, 16_384, 262_144]
REACCESS = [1, 4, 16]


def run_point(value_bytes: int, accesses: int, seed: int = 17):
    """Total time to GET one key ``accesses`` times over each stack."""
    sim = Simulator(seed=seed)
    net = build_star(sim, 3, prefix="k")
    runtime = GlobalSpaceRuntime(net)
    for name in ("k0", "k1", "k2"):
        runtime.add_node(name)
    server = RpcServer(net.host("k1"))
    rpc_service = RpcKVService(server)
    obj_service = ObjectKVService(runtime, "k1", server)
    value = bytes(random.Random(seed).randrange(256) for _ in range(value_bytes))
    rpc_service.preload({"key": value})
    obj_service.put_local("key", value)
    client = RpcClient(net.host("k0"))
    rpc_client = RpcKVClient(client, "k1")
    obj_client = ObjectKVClient(runtime, "k0", client, "k1")
    timings = {}

    def proc():
        start = sim.now
        for _ in range(accesses):
            got = yield from rpc_client.get("key")
            assert len(got) == value_bytes
        timings["rpc"] = sim.now - start
        start = sim.now
        for i in range(accesses):
            # The object client caches when it expects re-access.
            got = yield from obj_client.get("key", cache=(accesses > 1))
            assert len(got) == value_bytes
        timings["object"] = sim.now - start
        return None

    sim.run_process(proc())
    return timings["rpc"], timings["object"]


@pytest.fixture(scope="module")
def grid():
    return {
        (size, n): run_point(size, n)
        for size in VALUE_SIZES
        for n in REACCESS
    }


def test_crossover_table(grid):
    rows = []
    for (size, n), (rpc_us, obj_us) in sorted(grid.items()):
        winner = "rpc" if rpc_us < obj_us else "object"
        rows.append([size, n, rpc_us, obj_us, winner])
    print_table(
        "Fronted KV store: RPC vs object space (total GET time)",
        ["value_B", "accesses", "rpc_us", "object_us", "winner"],
        rows,
    )


def test_rpc_competitive_for_small_one_shot(grid):
    rpc_us, obj_us = grid[(64, 1)]
    # The paper's concession: small values, one access — RPC is fine
    # (the object path pays an extra lookup round trip).
    assert rpc_us <= obj_us * 1.2


def test_object_space_wins_large_reaccessed_values(grid):
    rpc_us, obj_us = grid[(262_144, 16)]
    assert obj_us < rpc_us / 3


def test_reaccess_amplifies_the_gap(grid):
    size = 262_144
    gaps = [grid[(size, n)][0] / grid[(size, n)][1] for n in REACCESS]
    assert gaps == sorted(gaps)  # more re-access, bigger object win


def test_crossover_exists_along_the_size_axis(grid):
    # Somewhere between 64B and 256KB (at high re-access) the winner
    # flips from rpc-competitive to object-dominant.
    small_ratio = grid[(64, 16)][0] / grid[(64, 16)][1]
    large_ratio = grid[(262_144, 16)][0] / grid[(262_144, 16)][1]
    assert large_ratio > small_ratio
    assert large_ratio > 2.0
