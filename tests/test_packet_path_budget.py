"""What one known-unicast packet may cost, in Python calls.

200 packets cross ``h0 -> s0 -> h1`` under ``cProfile`` with default
tracing.  Call counts are exact, so this holds the packet path to its
budget on any machine: nothing in ``sim/trace.py`` is called (counting
is a list-cell add at the site), ``size_bytes`` is read, never computed,
and the whole crossing stays within 27 calls (22 today on CPython 3.11;
45 before the sites bound their counter cells).
"""

import cProfile
import os
import pstats

from repro.net import Packet, build_star
from repro.sim import Simulator, trace

PACKETS = 200
MAX_CALLS_PER_PACKET = 27


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


def test_known_unicast_stays_within_its_call_budget():
    stats = _profiled_crossing().stats
    trace_file = os.path.abspath(trace.__file__)
    into_trace = {name: row[1] for (filename, _, name), row in stats.items()
                  if os.path.abspath(filename) == trace_file}
    assert into_trace == {}
    assert not [key for key in stats if key[2] == "size_bytes"]
    python_calls = sum(row[1] for (filename, _, _), row in stats.items()
                       if os.path.isfile(filename))
    assert python_calls / PACKETS <= MAX_CALLS_PER_PACKET, sorted(
        (row[1] / PACKETS, name) for (filename, _, name), row in stats.items()
        if os.path.isfile(filename))
