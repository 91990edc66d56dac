"""Placement predicts, for an uncontended transfer, exactly what the
simulated fabric then charges.

Each case runs one invocation with its executor pinned through
``candidates=`` on an idle, taught network (every switch has learned
every host, so no frame floods) and holds the realized latency to the
phases placement predicted, to 1e-9 relative:

* an eager input fetched to the invoker before the body runs;
* a round trip to a remote executor that holds everything it needs;
* a proxied input fetched by the body's first touch.

Both networks are store-and-forward: every link serialises each frame
again and every switch adds its pipeline delay, which is how
``Network.path`` prices a route and ``CostModel.wire_time_us`` a frame.
"""

import pytest

from repro.core import FunctionRegistry, GlobalRef, PlacementEngine
from repro.loadgen.generator import LOADGEN_ENTRY, register_loadgen_touch
from repro.net import build_star
from repro.net.packet import HEADER_BYTES, OID_FIELD_BYTES
from repro.rpc.serializer import encode
from repro.runtime import MODE_EAGER, MODE_PROXIED, GlobalSpaceRuntime
from repro.runtime import messages as m
from repro.sim import Simulator
from repro.workloads import build_scenario

# What loadgen_touch returns for an 8-byte read, as the reply carries it.
RESULT_BYTES = len(encode({"bytes": 8}))


def _teach(net):
    """Every host broadcasts once, so every switch knows every host."""
    for host in net.hosts:
        host.on("warm", lambda packet: None)
    for host in net.hosts:
        host.broadcast("warm")
        net.sim.run()


def _star():
    """Three hosts on one switch, at the perf workloads' link settings;
    the code lives on ``n0`` and a 256-byte object on ``n2``, and ``n1``
    is the remote executor."""
    sim = Simulator(seed=1)
    net = build_star(sim, 3, prefix="n", default_bandwidth_gbps=0.05,
                     default_latency_us=2.0)
    runtime = GlobalSpaceRuntime(net, FunctionRegistry())
    for name in ("n0", "n1", "n2"):
        runtime.add_node(name)
    _teach(net)
    register_loadgen_touch(runtime.registry)
    _, code = runtime.create_code("n0", LOADGEN_ENTRY, text_size=512)
    blob = runtime.create_object("n2", size=256)
    return runtime, code, GlobalRef(blob.oid, 0, "read"), "n0", "n1"


def _two_switch():
    """The §2 network (edge and cloud switch, 200 us edge links): the
    code lives on ``dave``, the model partition on ``bob``, and ``carol``
    is idle."""
    scenario = build_scenario()
    runtime = scenario.runtime
    _teach(scenario.net)
    register_loadgen_touch(runtime.registry)
    _, code = runtime.create_code("dave", LOADGEN_ENTRY, text_size=512)
    blob = GlobalRef(scenario.partition_obj.oid, 0, "read")
    return runtime, code, blob, "dave", "carol"


NETWORKS = {"star": _star, "two_switch": _two_switch}


def _invoke(runtime, invoker, code, blob, executor, mode):
    """One invocation pinned to ``executor``; the result and the latency
    its predicted phases add up to, queue aside."""
    result = runtime.sim.run_process(runtime.invoke(
        invoker, code, data_refs={"blob": blob}, values={"nbytes": 8},
        flops=1e5, result_bytes=RESULT_BYTES, mode=mode,
        candidates=[executor]))
    d = result.decision
    assert d.queue_us == 0.0
    predicted = d.request_us + d.stage_in_us + d.compute_us + d.result_return_us
    assert d.total_us == pytest.approx(predicted, rel=1e-12)
    return result, predicted


@pytest.mark.parametrize("network", sorted(NETWORKS))
def test_an_eager_fetch_realizes_its_prediction(network):
    runtime, code, blob, invoker, _ = NETWORKS[network]()
    result, predicted = _invoke(runtime, invoker, code, blob, invoker,
                                MODE_EAGER)
    (move,) = result.decision.movements
    assert result.decision.stage_in_us == move.transfer_us > 0.0
    assert result.decision.request_us == 0.0
    assert result.latency_us == pytest.approx(predicted, rel=1e-9)


@pytest.mark.parametrize("network", sorted(NETWORKS))
def test_a_remote_round_trip_realizes_its_prediction(network):
    runtime, code, blob, invoker, executor = NETWORKS[network]()
    # The first run stages the code and the input at the executor (two
    # replies that may share its link: a contended transfer); the second
    # has nothing to stage.
    first, _ = _invoke(runtime, invoker, code, blob, executor, MODE_EAGER)
    assert len(first.decision.movements) == 2
    second, predicted = _invoke(runtime, invoker, code, blob, executor,
                                MODE_EAGER)
    d = second.decision
    assert second.executed_at == executor
    assert d.movements == [] and d.stage_in_us == 0.0
    assert d.request_us > 0.0 and d.result_return_us > 0.0
    assert second.latency_us == pytest.approx(predicted, rel=1e-9)


@pytest.mark.parametrize("network", sorted(NETWORKS))
def test_a_proxied_first_touch_realizes_its_prediction(network):
    runtime, code, blob, invoker, _ = NETWORKS[network]()
    result, predicted = _invoke(runtime, invoker, code, blob, invoker,
                                MODE_PROXIED)
    (move,) = result.decision.movements
    # The whole object, as the touch fetches it: not a share of it.
    assert move.size_bytes == runtime._sizes[blob.oid]
    assert result.decision.stage_in_us == move.transfer_us > 0.0
    assert result.latency_us == pytest.approx(predicted, rel=1e-9)


def test_placement_prices_the_frames_the_runtime_builds():
    # A fetch's request and reply carry the object ID; an exec reply
    # carries the result after its overhead.
    assert PlacementEngine.FETCH_REQ_FRAME_BYTES == (
        HEADER_BYTES + OID_FIELD_BYTES + m.FETCH_REQ_BYTES)
    assert PlacementEngine.FETCH_RSP_FRAME_BYTES == (
        HEADER_BYTES + OID_FIELD_BYTES + m.RSP_OVERHEAD_BYTES)
    assert PlacementEngine.EXEC_RSP_FRAME_BYTES == (
        HEADER_BYTES + m.RSP_OVERHEAD_BYTES)
