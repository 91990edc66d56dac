"""E0: the simulation kernel's own primitives, each run once.

Not a paper experiment — a check that event dispatch, process
spawn/switch, store handoff, and a packet's full journey through the
paper topology each complete every operation they are given.  Their
host time is measured in ``benchmarks/perf/`` (``fabric_floor``).
"""

from repro.net import Packet, build_paper_topology
from repro.sim import Simulator, Store, Timeout


def test_event_dispatch_throughput():
    """Plain scheduled callbacks: every one runs."""

    def run():
        sim = Simulator(seed=1)
        count = [0]

        def tick():
            count[0] += 1

        for i in range(10_000):
            sim.schedule(float(i), tick)
        sim.run()
        return count[0]

    assert run() == 10_000


def test_process_switch_throughput():
    """Generator-process yields: the process runs to its return."""

    def run():
        sim = Simulator(seed=2)

        def proc():
            for _ in range(5_000):
                yield Timeout(1.0)
            return "done"

        return sim.run_process(proc())

    assert run() == "done"


def test_store_handoff_throughput():
    """Producer/consumer item handoffs: every item arrives."""

    def run():
        sim = Simulator(seed=3)
        store = Store(sim)
        received = [0]

        def producer():
            for i in range(2_000):
                store.put_nowait(i)
                yield Timeout(0.1)
            return None

        def consumer():
            for _ in range(2_000):
                yield store.get()
                received[0] += 1
            return None

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        return received[0]

    assert run() == 2_000


def test_packet_delivery_throughput():
    """Full-stack packet deliveries over the §4 topology: none is lost."""

    def run():
        sim = Simulator(seed=4)
        net = build_paper_topology(sim)
        delivered = []
        net.host("resp1").on("ping", delivered.append)

        def driver():
            for _ in range(500):
                net.host("driver").send(Packet(kind="ping", src="driver",
                                               dst="resp1", payload_bytes=64))
                yield Timeout(5.0)
            yield Timeout(1_000.0)
            return None

        sim.run_process(driver())
        return len(delivered)

    assert run() == 500
