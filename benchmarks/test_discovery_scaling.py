"""E12 / §4: the two discovery schemes at larger scales.

Paper: "in our prototype, we are building both schemes so we can compare
their efficacy at larger scales (and consider combinations of approaches
in case of limited hardware capabilities)... memory constraints may
impose limits at the switch."

Scales the rack up to a leaf-spine fabric, spreads objects across many
hosts, and measures: access RTT, broadcast load (E2E), switch identity-
table occupancy (controller), and what happens when the identity table
is too small for the object population.
"""

import pytest

from repro.discovery import CONTROLLER_HOST, SCHEME_CONTROLLER, SCHEME_E2E, Testbed
from repro.net import build_two_tier
from repro.sim import Simulator, summarize

from conftest import print_table

HOST_COUNTS = [4, 8, 16]
OBJECTS_PER_HOST = 6
ACCESSES = 60


def run_scale_point(scheme: str, n_hosts: int, seed: int = 19,
                    identity_capacity=None):
    """One scale point over a leaf-spine fabric; the first host drives
    accesses to objects spread across all the others."""
    sim = Simulator(seed=seed)
    n_leaves = max(2, n_hosts // 4)
    hosts_per_leaf = (n_hosts + n_leaves - 1) // n_leaves
    switch_kwargs = {}
    if identity_capacity is not None:
        switch_kwargs["identity_capacity"] = identity_capacity
    net = build_two_tier(sim, n_leaves=n_leaves, hosts_per_leaf=hosts_per_leaf,
                         switch_kwargs=switch_kwargs)
    host_names = [h.name for h in net.hosts][:n_hosts]
    if scheme == SCHEME_CONTROLLER:
        # Attach the controller to the first spine switch.
        net.add_host(CONTROLLER_HOST)
        net.connect(CONTROLLER_HOST, "spine0")
    bed = Testbed(scheme, net, 1024, responders=host_names[1:],
                  driver=host_names[0])
    rng = sim.rng
    pool = [bed.create_object(name)
            for name in bed.responders for _ in range(OBJECTS_PER_HOST)]
    records = []

    def driver():
        yield from bed.settle(5_000.0)
        for _ in range(ACCESSES):
            oid = rng.choice(pool)
            record = yield sim.spawn(bed.accessor.access(oid))
            records.append(record)
        return None

    sim.run_process(driver())
    latencies = summarize([r.latency_us for r in records if r.ok])
    broadcasts = sum(r.broadcasts for r in records)
    failures = sum(1 for r in records if not r.ok)
    max_occupancy = max(len(s.identity_table) for s in net.switches)
    install_failures = bed.controller.install_failures if bed.controller else 0
    return {
        "mean_us": latencies.mean,
        "p95_us": latencies.p95,
        "broadcasts": broadcasts,
        "failures": failures,
        "table_entries": max_occupancy,
        "install_failures": install_failures,
    }


@pytest.fixture(scope="module")
def grid():
    return {
        (scheme, n): run_scale_point(scheme, n)
        for scheme in (SCHEME_E2E, SCHEME_CONTROLLER)
        for n in HOST_COUNTS
    }


def test_scaling_table(grid):
    rows = []
    for (scheme, n), stats in sorted(grid.items()):
        rows.append([scheme, n, stats["mean_us"], stats["p95_us"],
                     stats["broadcasts"], stats["table_entries"],
                     stats["install_failures"]])
    print_table(
        f"Discovery at scale (leaf-spine, {OBJECTS_PER_HOST} objects/host, "
        f"{ACCESSES} accesses)",
        ["scheme", "hosts", "mean_us", "p95_us", "broadcasts",
         "tbl_entries", "tbl_fails"],
        rows,
    )


def test_no_failures_at_any_scale(grid):
    assert all(stats["failures"] == 0 for stats in grid.values())


def test_e2e_broadcast_load_grows_with_population(grid):
    counts = [grid[(SCHEME_E2E, n)]["broadcasts"] for n in HOST_COUNTS]
    # More hosts -> more distinct objects in the access mix -> more
    # first-touch broadcasts.
    assert counts[-1] > counts[0]


def test_controller_tables_grow_with_objects(grid):
    for n in HOST_COUNTS:
        expected_objects = (n - 1) * OBJECTS_PER_HOST
        assert grid[(SCHEME_CONTROLLER, n)]["table_entries"] == expected_objects


def test_controller_never_broadcasts(grid):
    assert all(grid[(SCHEME_CONTROLLER, n)]["broadcasts"] == 0
               for n in HOST_COUNTS)


def test_e2e_uses_no_switch_state(grid):
    # The E2E scheme's scalability argument: all state lives at the
    # hosts; switch identity tables stay empty.
    assert all(grid[(SCHEME_E2E, n)]["table_entries"] == 0 for n in HOST_COUNTS)


def test_limited_switch_memory_hits_install_wall():
    """§4: 'memory constraints may impose limits at the switch.'  With an
    identity table smaller than the object population, the controller
    scheme starts failing installs while E2E is unaffected."""

    starved = run_scale_point(SCHEME_CONTROLLER, 8, identity_capacity=10)
    assert starved["install_failures"] > 0
    # Accesses still succeed: switches fall back to flooding on
    # identity miss (the default miss behaviour).
    assert starved["failures"] == 0
    e2e = run_scale_point(SCHEME_E2E, 8, identity_capacity=10)
    assert e2e["failures"] == 0
    assert e2e["install_failures"] == 0
