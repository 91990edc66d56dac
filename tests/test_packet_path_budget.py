"""What one known-unicast packet may cost, in Python calls.

200 packets cross ``h0 -> s0 -> h1`` under ``cProfile`` with default
tracing.  Call counts are exact, so this holds the packet path to its
budget on any machine: nothing in ``sim/trace.py`` is called (counting
is a list-cell add at the site), ``size_bytes`` is read, never computed,
and the whole crossing stays within 12 calls (9 today on CPython 3.11,
now that the switch forwards a known unicast at ingress instead of in
a pipeline event; 11 while it scheduled ``_forward``; 22 while an event
was an object beside its heap entry and the hop sites called
properties and ``send_on_port``; 45 before the sites bound their
counter cells).
"""

import cProfile
import os
import pstats

from repro.core import IDAllocator
from repro.memproto import CoherenceAgent
from repro.net import Packet, build_star
from repro.sim import Simulator, trace

PACKETS = 200
MAX_CALLS_PER_PACKET = 12
MISSES = 200
MAX_CALLS_PER_MISS = 68


def _profiled_crossing() -> pstats.Stats:
    sim = Simulator(seed=1)
    net = build_star(sim, 3)
    hosts = [net.host(f"h{i}") for i in range(3)]
    delivered = []
    hosts[1].on("x", delivered.append)
    # One broadcast per host teaches the switch every port, so the
    # profiled packets are forwarded by exact host-table match.
    for host in hosts:
        host.on("warm", lambda packet: None)
    for host in hosts:
        host.broadcast("warm")
        sim.run()
    packets = [Packet(kind="x", src="h0", dst="h1", payload_bytes=64)
               for _ in range(PACKETS)]
    send = hosts[0].send
    profiler = cProfile.Profile()
    profiler.enable()
    for packet in packets:
        send(packet)
    sim.run()
    profiler.disable()
    assert len(delivered) == PACKETS
    counters = net.switch("s0").tracer.counters
    assert counters.get("switch.tx") == PACKETS  # none flooded: all known unicast
    assert hosts[1].tracer.counters.get("host.rx_bytes") >= PACKETS * 64
    return pstats.Stats(profiler)


def _python_calls(stats) -> int:
    return sum(row[1] for (filename, _, _), row in stats.items()
               if os.path.isfile(filename))


def test_known_unicast_stays_within_its_call_budget():
    stats = _profiled_crossing().stats
    trace_file = os.path.abspath(trace.__file__)
    into_trace = {name: row[1] for (filename, _, name), row in stats.items()
                  if os.path.abspath(filename) == trace_file}
    assert into_trace == {}
    assert not [key for key in stats if key[2] == "size_bytes"]
    assert _python_calls(stats) / PACKETS <= MAX_CALLS_PER_PACKET, sorted(
        (row[1] / PACKETS, name) for (filename, _, name), row in stats.items()
        if os.path.isfile(filename))


def test_plain_coherent_miss_stays_within_its_call_budget():
    """One read miss nobody else holds: an acquire to the home, a grant
    back, the copy installed.  Everything from ``agent.read`` to the
    resumed reader, both packets' crossings included: 67 calls today,
    65 before the wait armed and cancelled its deadline, 69 while each
    crossing scheduled the switch's pipeline event, 95 before a packet
    was built by one call and an event by none."""
    sim = Simulator(seed=1)
    net = build_star(sim, 2)
    home_map = {}
    home, reader = (CoherenceAgent(net.host(name), home_map)
                    for name in ("h0", "h1"))
    alloc = IDAllocator(seed=1)
    oids = [alloc.allocate() for _ in range(MISSES + 1)]
    for oid in oids:
        home.host_object(oid, bytes(64))

    def scan(wanted):
        for oid in wanted:
            yield from reader.read(oid, 0, 64)

    sim.run_process(scan(oids[:1]))  # teaches the switch both ports
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run_process(scan(oids[1:]))
    profiler.disable()
    assert reader.tracer.counters.get("coherence.read_miss") == MISSES + 1
    assert home.tracer.counters.get("coherence.batch.grant_pkts") == MISSES + 1
    stats = pstats.Stats(profiler).stats
    assert _python_calls(stats) / MISSES <= MAX_CALLS_PER_MISS, sorted(
        (row[1] / MISSES, name) for (filename, _, name), row in stats.items()
        if os.path.isfile(filename))
