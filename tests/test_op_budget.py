"""What one load-generator operation costs the kernel.

One operation goes through ``LoadGenerator`` on a 3-host star whose
switch already knows every port, and the test counts the events the
simulator dispatched (``sim.events_dispatched``) and the ``Process``
objects made while it ran.  Both are exact for a seed, so a change to
the op path shows here as a changed figure:

* a remote load is 8 events: the tenant's clock (its first step and
  its sleep), the op's first step, two link events out and two back
  (the switch forwards a known unicast at ingress, so its pipeline
  delay is no event of its own), and the zero-delay event in which
  the reply resumes the op;
* a remote store is 8 as well: one ``gs.write_req`` to the object's
  home and its reply, in the same events;
* a local hit is 4: the clock's two, the op's first step and its
  zero-delay yield;
* an eager invocation run at the client with one staged input is 14:
  the fetch's four link events and the compute sleep, plus zero-delay
  events for the spawned stage-in fetch, the wake-up of the serve that
  waits on it and the function's resident ``ctx.read``, itself a
  spawned process;
* the same invocation run on another node (the client added with
  ``speed=0.001``, so slow that placement runs its work elsewhere) is 20.  Placement picks the blob's home, so
  the one fetch stages the code instead of the blob, and the exec round
  trip adds six: two link events out and two back, the executor's
  serving process starting, and the reply resuming the op;
* a proxied invocation run at the client is 11: nothing is staged and
  no ``ctx.read`` is spawned; the function's first touch of its proxy
  resolves it through one fetch (spawned, four link events, its reply
  and the ``AllOf`` that waits on it) after the compute sleep;
* the same proxied invocation run on another node is 17: the executor
  holds the blob, so its proxy resolves with no event, the code is
  staged there as in the eager case, and the exec round trip adds its
  six.

Every one of them has a process for the clock and one for the op.  An
eager invocation has two more, the stage-in fetch and the ``ctx.read``;
a proxied one has the proxy's fetch at the client, or the code's
stage-in fetch elsewhere; a remote leg adds the executor's serving
process.  Both legs run one ``ClusterNode.serve``, so the remote
figures are the local ones plus the exec round trip.

Each test issues two identical ops, each on a fresh object, and holds
both to these events and processes: the first is a cold op (it fills
the runtime's hop distances and placement's memo), the second finds
what a steady stream of ops keeps warm.  The second is also profiled,
and its
Python-level calls (``_python_calls`` of
``tests/test_packet_path_budget.py``: functions defined in a file,
builtins left out) are held to ``CALLS``, the exact figure on
CPython 3.11 (the ``made`` fixture's counting ``Process.__init__``
included); 3.12 inlines comprehensions and counts fewer.  Before the
invocation's control path was cut (memoized placement terms, one ACL
lookup, ``ObjectID`` an ``int``, one-call codec, cheaper spans, a
generator frame fewer per leg) and after:

* remote load 68 -> 58, local hit 21 -> 17, remote store 66 -> 55;
* eager invocation 342 -> 155 at the client, 389 -> 192 on another node;
* proxied invocation 323 -> 147 at the client, 381 -> 182 on another node.

The measured op's code object is new too, so the executor reads the
function it names from its bytes; later ops of a tenant find it kept.
"""

import cProfile
import gc
import pstats

import pytest

from repro.core import FunctionRegistry
from repro.loadgen import LoadGenerator, TenantSpec
from repro.net import build_star
from repro.runtime.engine import GlobalSpaceRuntime
from repro.sim import Process, Simulator

from .test_packet_path_budget import _python_calls

# Python calls of the measured op, by op: the CPython 3.11 figures.
CALLS = {
    "remote load": 58,
    "local hit": 17,
    "remote store": 55,
    "eager local": 155,
    "eager remote": 192,
    "proxied local": 147,
    "proxied remote": 182,
}


@pytest.fixture
def made(monkeypatch):
    """Every ``Process`` constructed while the test runs."""
    made = []
    init = Process.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    return made


def _taught_star(nodes, client_executes=True):
    """A 3-host star with runtime nodes on ``nodes``; one broadcast per
    host teaches the switch every port, so the measured op's packets
    are forwarded by exact host-table match.  ``client_executes=False``
    adds the client ``n0`` with ``speed=0.001``, so placement runs its
    invocations on another node."""
    sim = Simulator(seed=1)
    net = build_star(sim, 3, prefix="n")
    runtime = GlobalSpaceRuntime(net, FunctionRegistry())
    for name in nodes:
        runtime.add_node(
            name, speed=1.0 if client_executes or name != "n0" else 0.001)
    hosts = [net.host(f"n{i}") for i in range(3)]
    for host in hosts:
        host.on("warm", lambda packet: None)
    for host in hosts:
        host.broadcast("warm")
        sim.run()
    return runtime


def _run(runtime, op, made, profiler=None):
    """Issue one ``op`` from a tenant on ``n0`` and run it to the end;
    ``profiler`` is enabled for exactly the op's own process.  Returns
    the (events, processes) it cost."""
    run_op = LoadGenerator._run_op

    def profiled(self, *args):
        profiler.enable()
        try:
            yield from run_op(self, *args)
        finally:
            profiler.disable()

    generator = LoadGenerator(runtime, [TenantSpec(
        name="t", client="n0", rate_per_sec=1_000.0, arrival="deterministic",
        keyspace=1, mix=((op, 1.0),))], duration_us=1_500.0)
    if profiler is not None:
        generator._run_op = profiled.__get__(generator)
    sim = runtime.sim
    events, processes = sim.events_dispatched, len(made)
    tenant = generator.run().tenants["t"]
    assert (tenant.offered, tenant.completed) == (1, 1)
    return sim.events_dispatched - events, len(made) - processes


def _one_op(runtime, op, made):
    """Two identical ``op``s issued by a tenant on ``n0``: the
    (events, processes) of the first and of the second, the second's
    Python calls, and each node's counter increments during it."""
    first = _run(runtime, op, made)
    before = {name: node.tracer.counters.as_dict()
              for name, node in runtime.nodes.items()}
    profiler = cProfile.Profile()
    # No collection during the measured op: one could finalize a
    # generator an earlier test left suspended, and count its frames.
    gc.collect()
    gc.disable()
    try:
        second = _run(runtime, op, made, profiler)
    finally:
        gc.enable()
    counts = {name: {key: value - before[name].get(key, 0) for key, value
                     in node.tracer.counters.as_dict().items()}
              for name, node in runtime.nodes.items()}
    calls = _python_calls(pstats.Stats(profiler).stats)
    return first, second, calls, counts


def test_a_remote_load(made):
    runtime = _taught_star(["n0", "n1", "n2"])
    first, second, calls, counts = _one_op(runtime, "load", made)
    assert first == second == (8, 2)
    assert calls <= CALLS["remote load"]
    assert counts["n0"]["node.remote_read"] == 1


def test_a_local_hit(made):
    # With n0 the only runtime node, n0 homes every object it loads.
    runtime = _taught_star(["n0"])
    first, second, calls, counts = _one_op(runtime, "load", made)
    assert first == second == (4, 2)
    assert calls <= CALLS["local hit"]
    assert "node.remote_read" not in counts["n0"]


def test_a_remote_store(made):
    # The object is homed at n1: one gs.write_req there and its reply.
    runtime = _taught_star(["n0", "n1", "n2"])
    first, second, calls, counts = _one_op(runtime, "store", made)
    assert first == second == (8, 2)
    assert calls <= CALLS["remote store"]
    assert counts["n0"]["node.remote_write"] == 1
    assert counts["n1"]["node.write_served"] == 1


def test_an_eager_invocation_with_one_staged_input(made):
    runtime = _taught_star(["n0", "n1", "n2"])
    first, second, calls, counts = _one_op(runtime, "invoke", made)
    assert first == second == (14, 4)
    assert calls <= CALLS["eager local"]
    client = counts["n0"]
    # Run at the client: the code was already there, the blob was
    # fetched from its home n1.
    assert (client["node.exec"], client["node.fetched"]) == (1, 1)
    assert counts["n1"]["node.fetch_served"] == 1


def test_an_eager_invocation_run_on_another_node(made):
    runtime = _taught_star(["n0", "n1", "n2"], client_executes=False)
    first, second, calls, counts = _one_op(runtime, "invoke", made)
    assert first == second == (20, 5)
    assert calls <= CALLS["eager remote"]
    executor = counts["n1"]
    # Run at the blob's home n1, which fetched the code from n0.
    assert (executor["node.exec"], executor["node.fetched"]) == (1, 1)
    assert counts["n0"]["node.fetch_served"] == 1


def test_a_proxied_invocation_at_the_client(made):
    runtime = _taught_star(["n0", "n1", "n2"])
    first, second, calls, counts = _one_op(
        runtime, "proxied_invoke", made)
    assert first == second == (11, 3)
    assert calls <= CALLS["proxied local"]
    client = counts["n0"]
    # The blob was fetched on first touch of its proxy, not staged.
    assert (client["node.exec"], client["node.fetched"]) == (1, 1)


def test_a_proxied_invocation_run_on_another_node(made):
    runtime = _taught_star(["n0", "n1", "n2"], client_executes=False)
    first, second, calls, counts = _one_op(
        runtime, "proxied_invoke", made)
    assert first == second == (17, 4)
    assert calls <= CALLS["proxied remote"]
    executor = counts["n1"]
    assert (executor["node.exec"], executor["node.fetched"]) == (1, 1)
