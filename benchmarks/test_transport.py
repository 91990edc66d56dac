"""E9 / §3.2: a lightweight reliable transport for memory messages.

Paper: "there will need to be a new, light-weight form of reliable
transmission, separated from the other features provided by TCP (e.g.,
slow start)."

Compares the lightweight transport (fixed window, no handshake) against
the TCP-like baseline (handshake + slow start + Tahoe collapse) on
bursts of cache-line-sized memory messages, with and without loss, and
reports completion time and per-message delivery latency.

The burst is sized in **frames**.  The data plane batches: 21 cache-line
messages share one MTU frame, so the 64 messages this file used to send
were 4 frames, an eighth of one lightweight window, and a single RTO
over a 15 us base was the whole "slowdown under loss".  Section 3.2's
claim is about windows (a fixed one against one that starts at a
segment and collapses), so the burst must span more than two of them.
"""

import pytest

from repro.memproto import CACHE_LINE_BYTES, LightweightTransport, TcpLikeTransport
from repro.net import build_star
from repro.sim import Simulator, Timeout, summarize

from conftest import bench_check, print_table

BURST = 1408        # cache-line messages: 68 MTU frames
MIN_FRAMES = 2 * 32  # two lightweight windows


def run_burst(transport_cls, loss_rate: float, n_messages: int = BURST,
              seed: int = 11):
    """Send a burst of memory messages; returns (completion_us, mean
    delivery latency, retransmissions)."""
    sim = Simulator(seed=seed)
    net = build_star(sim, 2, default_loss_rate=loss_rate)
    tx = transport_cls(net.host("h0"))
    rx = transport_cls(net.host("h1"))
    finished = {"at": None, "count": 0}

    def on_deliver(src, payload, size):
        finished["count"] += 1
        if finished["count"] == n_messages:
            finished["at"] = sim.now

    rx.on_deliver(on_deliver)

    def proc():
        for i in range(n_messages):
            tx.send("h1", {"seq": i}, CACHE_LINE_BYTES)
        yield Timeout(5_000_000)

    sim.run_process(proc())
    assert finished["count"] == n_messages, "burst did not complete"
    assert tx.tracer.counters["transport.frame.tx"] >= MIN_FRAMES, \
        "burst no longer spans two windows: resize it"
    latency = summarize(tx.tracer.series.samples("transport.delivery_us"))
    return (finished["at"], latency.mean,
            tx.tracer.counters["transport.retransmit"])


@pytest.fixture(scope="module")
def outcomes():
    results = {}
    for loss in (0.0, 0.05, 0.2):
        results[("lightweight", loss)] = run_burst(LightweightTransport, loss)
        results[("tcp", loss)] = run_burst(TcpLikeTransport, loss)
    return results


def test_transport_table(outcomes, benchmark):
    benchmark.pedantic(lambda: run_burst(LightweightTransport, 0.05),
                       rounds=3, iterations=1)
    rows = []
    for (name, loss), (completion, mean_latency, retx) in sorted(outcomes.items()):
        rows.append([name, f"{loss:.0%}", completion, mean_latency, retx])
    print_table(
        f"Reliable transports: {BURST} cache-line messages",
        ["transport", "loss", "completion_us", "mean_delivery_us", "retx"],
        rows,
    )


def test_lightweight_wins_lossless_burst(outcomes, benchmark):
    def check():
        # No handshake, full window from message one.
        assert (outcomes[("lightweight", 0.0)][0]
                < outcomes[("tcp", 0.0)][0])

    bench_check(benchmark, check)


def test_lightweight_wins_under_loss(outcomes, benchmark):
    def check():
        for loss in (0.05, 0.2):
            assert (outcomes[("lightweight", loss)][0]
                    < outcomes[("tcp", loss)][0])

    bench_check(benchmark, check)


def test_both_remain_reliable_under_heavy_loss(outcomes, benchmark):
    def check():
        # run_burst asserts full delivery internally; retransmissions
        # must have occurred to achieve it.
        assert outcomes[("lightweight", 0.2)][2] > 0
        assert outcomes[("tcp", 0.2)][2] > 0

    bench_check(benchmark, check)


def test_loss_costs_more_on_tcp(outcomes, benchmark):
    def check():
        # Window collapse amplifies loss: TCP's completion time grows
        # faster with loss than the fixed-window transport's.
        lw_slowdown = (outcomes[("lightweight", 0.2)][0]
                       / outcomes[("lightweight", 0.0)][0])
        tcp_slowdown = (outcomes[("tcp", 0.2)][0]
                        / outcomes[("tcp", 0.0)][0])
        assert tcp_slowdown > lw_slowdown

    bench_check(benchmark, check)
