"""E13 / §5: offloading synchronization to the programmable network.

Paper: "we will experiment with offloading some synchronization and
arbitration concerns to the programmable network (which now functions
somewhat as a memory bus)" — citing NetChain's sub-RTT coordination and
in-network optimistic concurrency control.

Compares a sequencer and a lock manager hosted *in the spine switch's
pipeline* against the identical services on an end host hanging off the
same spine: every coordination message saves the spine->host leg both
ways, and the saving compounds under lock contention because grant
hand-offs also originate closer to the requesters.
"""

import pytest

from repro.net import build_two_tier
from repro.netsync import (
    HostLockService,
    HostSequencer,
    SwitchLockService,
    SwitchSequencer,
    SyncClient,
)
from repro.sim import AllOf, Simulator, Timeout, summarize

from conftest import print_table

N_CLIENTS = 4
TICKETS_PER_CLIENT = 25
LOCK_ROUNDS = 10
CRITICAL_SECTION_US = 20.0


def _fabric(seed, in_network):
    sim = Simulator(seed=seed)
    net = build_two_tier(sim, n_leaves=2, hosts_per_leaf=2)
    if in_network:
        service = "spine0"
        sequencer = SwitchSequencer(net.switch("spine0"))
        locks = SwitchLockService(net.switch("spine0"))
    else:
        net.add_host("syncd")
        net.connect("syncd", "spine0")
        sequencer = HostSequencer(net.host("syncd"))
        locks = HostLockService(net.host("syncd"))
        service = "syncd"
    clients = [SyncClient(net.host(name), service)
               for name in ("h0_0", "h0_1", "h1_0", "h1_1")]
    return sim, sequencer, locks, clients


def run_sequencer(in_network: bool, seed: int = 29):
    """All clients draw tickets concurrently; returns (makespan, mean latency)."""
    sim, sequencer, locks, clients = _fabric(seed, in_network)
    tickets = []

    def worker(client):
        for _ in range(TICKETS_PER_CLIENT):
            value = yield from client.next_sequence("txn")
            tickets.append(value)
        return None

    def proc():
        yield AllOf([sim.spawn(worker(c)) for c in clients])

    sim.run_process(proc())
    assert sorted(tickets) == list(range(1, N_CLIENTS * TICKETS_PER_CLIENT + 1))
    latencies = [s for c in clients for s in c.tracer.series.samples("sync.seq_us")]
    return sim.now, summarize(latencies).mean


def run_locks(in_network: bool, seed: int = 31):
    """Contended lock: every client loops acquire/work/release."""
    sim, sequencer, locks, clients = _fabric(seed, in_network)
    critical = [0]
    max_concurrent = [0]

    def worker(client):
        for _ in range(LOCK_ROUNDS):
            yield from client.acquire_lock("hot")
            critical[0] += 1
            max_concurrent[0] = max(max_concurrent[0], critical[0])
            yield Timeout(CRITICAL_SECTION_US)
            critical[0] -= 1
            client.release_lock("hot")
        return None

    def proc():
        yield AllOf([sim.spawn(worker(c)) for c in clients])

    sim.run_process(proc())
    assert max_concurrent[0] == 1  # mutual exclusion held throughout
    return sim.now, locks.core.grants


@pytest.fixture(scope="module")
def outcomes():
    return {
        ("sequencer", True): run_sequencer(True),
        ("sequencer", False): run_sequencer(False),
        ("locks", True): run_locks(True),
        ("locks", False): run_locks(False),
    }


def test_network_sync_table(outcomes):
    seq_net, seq_host = outcomes[("sequencer", True)], outcomes[("sequencer", False)]
    lock_net, lock_host = outcomes[("locks", True)], outcomes[("locks", False)]
    rows = [
        ["sequencer", "in-switch", seq_net[0], seq_net[1]],
        ["sequencer", "host", seq_host[0], seq_host[1]],
        ["locks", "in-switch", lock_net[0], lock_net[0] / (N_CLIENTS * LOCK_ROUNDS)],
        ["locks", "host", lock_host[0], lock_host[0] / (N_CLIENTS * LOCK_ROUNDS)],
    ]
    print_table(
        "Coordination offload: in-switch vs host-based services",
        ["service", "placement", "makespan_us", "per-op_us"],
        rows,
    )


def test_in_switch_sequencer_lower_latency(outcomes):
    _, mean_net = outcomes[("sequencer", True)]
    _, mean_host = outcomes[("sequencer", False)]
    assert mean_net < mean_host


def test_in_switch_sequencer_finishes_sooner(outcomes):
    assert outcomes[("sequencer", True)][0] < outcomes[("sequencer", False)][0]


def test_in_switch_locks_higher_throughput(outcomes):
    # Same number of grants, less wall-clock: the grant hand-off path
    # is shorter from the switch.
    makespan_net, grants_net = outcomes[("locks", True)]
    makespan_host, grants_host = outcomes[("locks", False)]
    assert grants_net == grants_host == N_CLIENTS * LOCK_ROUNDS
    assert makespan_net < makespan_host


def test_saving_is_roughly_the_extra_leg(outcomes):
    # One extra 5us link each way per request: the host variant's
    # per-ticket latency exceeds the switch variant's by ~2 legs.
    _, mean_net = outcomes[("sequencer", True)]
    _, mean_host = outcomes[("sequencer", False)]
    extra = mean_host - mean_net
    assert 5.0 < extra < 30.0
