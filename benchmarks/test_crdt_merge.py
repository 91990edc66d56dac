"""E10 / §5: auto-merging progressive objects (CRDTs) during movement.

Paper: "we will explore how a whole-system view of object identity and
references can interface with languages to support patterns for weakly
consistent replication, such as auto-merging progressive objects like
CRDTs during data movement."

Measures gossip convergence (rounds, simulated time, bytes shipped) as
the replica count grows, and merges each CRDT type once.
"""

import pytest

from repro.consistency import GCounter, LWWRegister, ORSet, PNCounter, Replica, converge
from repro.net import build_star
from repro.sim import Simulator

from conftest import print_table


def run_convergence(n_replicas: int, updates_per_replica: int = 10,
                    seed: int = 13):
    """Gossip n replicas of a GCounter to convergence."""
    sim = Simulator(seed=seed)
    net = build_star(sim, n_replicas)
    replicas = [Replica(net.host(f"h{i}"), GCounter(f"h{i}"))
                for i in range(n_replicas)]
    for i, replica in enumerate(replicas):
        replica.crdt.increment(updates_per_replica + i)
    rounds = sim.run_process(converge(replicas, sim.rng))
    expected = sum(updates_per_replica + i for i in range(n_replicas))
    assert all(r.crdt.value == expected for r in replicas)
    return rounds, sim.now, sum(r.bytes_sent for r in replicas)


@pytest.fixture(scope="module")
def sweep():
    return {n: run_convergence(n) for n in (2, 4, 8, 16)}


def test_convergence_table(sweep):
    rows = [[n, rounds, total_us, total_bytes]
            for n, (rounds, total_us, total_bytes) in sorted(sweep.items())]
    print_table(
        "CRDT gossip convergence vs replica count (GCounter)",
        ["replicas", "rounds", "sim_time_us", "bytes_shipped"],
        rows,
    )


def test_rounds_grow_sublinearly(sweep):
    # Gossip spreads epidemically: rounds ~ O(log n), far below n.
    for n, (rounds, _, _) in sweep.items():
        assert rounds <= max(2, n // 2)


def test_all_sizes_converge(sweep):
    assert set(sweep) == {2, 4, 8, 16}  # run_convergence asserted values


class TestMergeThroughput:
    """One merge per type — the operation auto-merge runs on movement."""

    def test_gcounter_merge(self):
        a = GCounter("a")
        b = GCounter("b")
        for i in range(500):
            a.increment(1)
            b.increment(2)

        a.copy().merge(b)

    def test_pncounter_merge(self):
        a = PNCounter("a")
        b = PNCounter("b")
        for i in range(500):
            a.increment(2)
            b.decrement(1)

        a.copy().merge(b)

    def test_orset_merge(self):
        a = ORSet("a")
        b = ORSet("b")
        for i in range(300):
            a.add(f"a{i}")
            b.add(f"b{i}")
        for i in range(0, 300, 3):
            b.remove(f"b{i}")

        a.copy().merge(b)

    def test_lww_merge(self):
        a = LWWRegister("a")
        b = LWWRegister("b")
        a.set("x" * 100, 5.0)
        b.set("y" * 100, 7.0)

        a.copy().merge(b)

    def test_movement_merge_correctness(self):
        """Merging a moved replica into a diverged local one converges to
        the union of both histories — movement never loses updates."""

        local, moved = ORSet("local"), ORSet("moved")
        local.add("kept-local")
        moved.add("travelled")
        wire = moved.to_bytes()  # the byte-level copy of the movement
        arrived = ORSet.from_bytes(wire, "local")
        local.merge(arrived)
        assert local.elements() == {"kept-local", "travelled"}
