"""E14 / §3.2+§5: caching with coherence vs. always-remote access.

Paper: the network's vocabulary grows coherence message types ("to
ensure exclusive access to data, upgrade access type, invalidate data"),
and §5 proposes exploring "the consistency and coherence space together"
once the network carries memory traffic.

This experiment shares one object among readers while a writer mutates
it at varying rates, and compares:

* **coherent caching** (directory MSI): reads hit the local copy until
  an invalidation; writes pay probe/invalidate rounds;
* **always-remote** (uncached load/store): every read is a network
  round trip, but writes are cheap.

The crossover in write fraction is the point of the ablation: coherence
wins read-heavy sharing and loses its advantage as invalidations churn.
"""

import pytest

from repro.core import IDAllocator
from repro.memproto import CoherenceAgent
from repro.net import build_star
from repro.sim import AllOf, Simulator, Timeout

from conftest import bench_check, print_table

N_READERS = 3
OPS_PER_READER = 40
WRITE_FRACTIONS = [0.0, 0.1, 0.3, 0.6]


def run_coherent(write_fraction: float, seed: int = 37):
    """Readers loop local reads; a writer mutates with probability
    ``write_fraction`` per reader operation slot."""
    sim = Simulator(seed=seed)
    net = build_star(sim, N_READERS + 2)
    home_map = {}
    agents = {f"h{i}": CoherenceAgent(net.host(f"h{i}"), home_map)
              for i in range(N_READERS + 2)}
    oid = IDAllocator(seed=seed).allocate()
    agents["h0"].host_object(oid, b"\x00" * 64)
    writer = agents[f"h{N_READERS + 1}"]
    rng = sim.rng
    read_us, write_us = [], []

    def reader(agent):
        for _ in range(OPS_PER_READER):
            began = sim.now
            yield from agent.read(oid, 0, 8)
            read_us.append(sim.now - began)
            yield Timeout(5.0)
        return None

    def writer_proc():
        for i in range(OPS_PER_READER):
            if rng.random() < write_fraction:
                began = sim.now
                yield from writer.write(oid, 0, i.to_bytes(8, "big"))
                write_us.append(sim.now - began)
            yield Timeout(5.0)
        return None

    def proc():
        yield AllOf([sim.spawn(reader(agents[f"h{i}"]))
                     for i in range(1, N_READERS + 1)]
                    + [sim.spawn(writer_proc())])

    sim.run_process(proc())
    hits = sum(agents[f"h{i}"].tracer.counters["coherence.cache_hit"]
               for i in range(1, N_READERS + 1))
    return sim.now, hits, read_us, write_us


def run_uncached(write_fraction: float, seed: int = 37):
    """Same schedule, but every read is a remote read to the home."""
    sim = Simulator(seed=seed)
    net = build_star(sim, N_READERS + 2)
    home_map = {}
    agents = {f"h{i}": CoherenceAgent(net.host(f"h{i}"), home_map)
              for i in range(N_READERS + 2)}
    oid = IDAllocator(seed=seed).allocate()
    agents["h0"].host_object(oid, b"\x00" * 64)
    writer = agents[f"h{N_READERS + 1}"]
    rng = sim.rng

    def reader(agent):
        for _ in range(OPS_PER_READER):
            # Acquire then immediately surrender the copy: the price of
            # not caching, expressed in the same protocol.
            yield from agent.read(oid, 0, 8)
            yield from agent.writeback(oid)
            yield Timeout(5.0)
        return None

    def writer_proc():
        for i in range(OPS_PER_READER):
            if rng.random() < write_fraction:
                yield from writer.write(oid, 0, i.to_bytes(8, "big"))
            yield Timeout(5.0)
        return None

    def proc():
        yield AllOf([sim.spawn(reader(agents[f"h{i}"]))
                     for i in range(1, N_READERS + 1)]
                    + [sim.spawn(writer_proc())])

    sim.run_process(proc())
    return sim.now


@pytest.fixture(scope="module")
def sweep():
    results = {}
    for fraction in WRITE_FRACTIONS:
        coherent_time, hits, read_us, write_us = run_coherent(fraction)
        uncached_time = run_uncached(fraction)
        results[fraction] = {
            "coherent_us": coherent_time,
            "uncached_us": uncached_time,
            "cache_hits": hits,
            "read_us": sorted(read_us),
            "write_us": sorted(write_us),
        }
    return results


def test_sharing_table(sweep, benchmark):
    benchmark.pedantic(lambda: run_coherent(0.1), rounds=3, iterations=1)
    rows = []
    total_reads = N_READERS * OPS_PER_READER
    for fraction, stats in sorted(sweep.items()):
        reads, writes = stats["read_us"], stats["write_us"]
        rows.append([f"{fraction:.0%}", stats["coherent_us"],
                     stats["uncached_us"],
                     100.0 * stats["cache_hits"] / total_reads,
                     len(writes), reads[int(0.9 * len(reads))], reads[-1],
                     writes[len(writes) // 2] if writes else 0.0,
                     writes[-1] if writes else 0.0])
    print_table(
        f"Shared-object access: MSI caching vs always-remote "
        f"({N_READERS} readers x {OPS_PER_READER} reads)",
        ["write_mix", "coherent_us", "uncached_us", "hit_rate_%", "writes",
         "read_p90_us", "read_max_us", "write_p50_us", "write_max_us"],
        rows,
    )


def test_coherence_wins_read_only_sharing(sweep, benchmark):
    def check():
        stats = sweep[0.0]
        assert stats["coherent_us"] < stats["uncached_us"]
        total_reads = N_READERS * OPS_PER_READER
        # All but each reader's first access hit the local copy.
        assert stats["cache_hits"] >= total_reads - N_READERS

    bench_check(benchmark, check)


def test_invalidation_churn_erodes_hit_rate(sweep, benchmark):
    def check():
        hits = [sweep[f]["cache_hits"] for f in WRITE_FRACTIONS]
        assert hits == sorted(hits, reverse=True)
        # What a write can cost: it takes the copy from every reader
        # that holds one, so at least one hit between them (a write
        # nobody would have read past is not churn) and at most one hit
        # each.  The four-message protocol sat on the upper bound (its
        # write took as long as a reader's refill, so every reader was
        # always back in time to lose the copy again: 45 hits of 117,
        # "under half"); a three-message write outruns the refill.
        for fraction in WRITE_FRACTIONS:
            lost = hits[0] - sweep[fraction]["cache_hits"]
            writes = len(sweep[fraction]["write_us"])
            assert writes <= lost <= N_READERS * writes

    bench_check(benchmark, check)


def test_advantage_shrinks_with_write_mix(sweep, benchmark):
    def check():
        gains = [sweep[f]["uncached_us"] - sweep[f]["coherent_us"]
                 for f in WRITE_FRACTIONS]
        assert gains[0] > gains[-1]

    bench_check(benchmark, check)


def test_all_runs_complete(sweep, benchmark):
    def check():
        assert set(sweep) == set(WRITE_FRACTIONS)

    bench_check(benchmark, check)
