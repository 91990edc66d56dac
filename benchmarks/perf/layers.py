"""The per-layer account: exact counts and a folded profile.

Layers are the packages under ``src/repro``.  Everything here is
measured from outside the program:

* **exact counts** come from what a finished repeat already exposes:
  ``LinkEnd.packets_carried``, ``Link.bytes_carried``, the cluster's
  ``MetricsRegistry`` and the tracers of agents and transports.  They
  are read after an *untraced* repeat and repeat exactly for one seed;
* **host time per layer** comes from one repeat run under ``cProfile``,
  enabled from this directory.  Self time is folded by package
  (``sim/trace.py`` counts as ``obs``, everything outside ``repro`` as
  ``other``); call counts and cumulative time are read at the public
  entry points of each layer.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from collections import defaultdict
from typing import Callable, Dict, Tuple

import repro
from repro.core.placement import PlacementEngine
from repro.loadgen import LatencyHistogram
from repro.memproto import CoherenceAgent, LightweightTransport
from repro.net import Host, Switch
from repro.net.link import LinkEnd
from repro.runtime.engine import GlobalSpaceRuntime
from repro.runtime.node import ClusterNode
from repro.sim import Simulator, Tracer

LAYERS = ("sim", "net", "memproto", "core", "runtime", "loadgen", "obs", "other")

# Per-layer metrics that are host time (from the traced repeat, or a
# ratio of two timed repeats).  They qualify an end-to-end number; every
# other per-layer metric is an exact count that repeats to the last
# digit for one seed.
HOST_TIME = frozenset(
    [f"{layer}.self_us_per_op" for layer in LAYERS]
    + ["trace.overhead_ratio", "sim.cpu_ns_per_event",
       "core.placement_cum_us_per_decide", "runtime.invoke_cum_us_per_call",
       "obs.tracer_cost_share"])

# The public entry points of each layer.  The folded trace reports, for
# each, how often it was entered, its cumulative time and which layers
# called it.  (cProfile counts every resumption of a generator as a
# call, so for the generator entry points "calls" is resumptions; the
# per-op metrics take those counts from the registry instead.)
BOUNDARIES = {
    "sim.schedule": Simulator.schedule,
    "sim.schedule_at": Simulator.schedule_at,
    "sim.spawn": Simulator.spawn,
    "net.link_transmit": LinkEnd.transmit,
    "net.switch_receive": Switch.receive,
    "net.host_send": Host.send,
    "net.host_receive": Host.receive,
    "memproto.transport_send": LightweightTransport.send,
    "memproto.coherence_read": CoherenceAgent.read,
    "memproto.coherence_write": CoherenceAgent.write,
    "core.placement_decide": PlacementEngine.decide,
    "runtime.invoke": GlobalSpaceRuntime.invoke,
    "runtime.remote_read": ClusterNode.remote_read,
    "runtime.remote_write": ClusterNode.remote_write,
    "runtime.fetch_object": ClusterNode.fetch_object,
    "obs.count": Tracer.count,
    "obs.sample": Tracer.sample,
    "loadgen.histogram_record": LatencyHistogram.record,
}

_PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(filename: str) -> str:
    """The layer a profiled function's file belongs to."""
    if not filename.startswith(_PACKAGE_ROOT):
        return "other"
    rest = filename[len(_PACKAGE_ROOT):].replace(os.sep, "/")
    if rest == "sim/trace.py":
        return "obs"
    package = rest.split("/", 1)[0]
    return package if package in LAYERS else "other"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# exact counts
# ---------------------------------------------------------------------------


def exact_counts(runner) -> Dict[str, float]:
    """Every counter of a finished repeat, summed by key over tracers,
    plus the wire totals the links keep themselves."""
    totals: Dict[str, float] = defaultdict(float)
    queue_sum, queue_n = 0.0, 0
    tracers = dict(runner.net.metrics.items())
    tracers.update(runner.tracers)
    for tracer in tracers.values():
        for key, value in tracer.counters.as_dict().items():
            totals[key] += value
        for key in tracer.series.keys():
            samples = tracer.series.samples(key)
            totals["samples_held"] += len(samples)
            if key == "transport.queue_us":
                queue_sum += sum(samples)
                queue_n += len(samples)
    for link in runner.net.links:
        totals["link_tx"] += (link.end_ab.packets_carried
                              + link.end_ba.packets_carried)
        totals["wire_bytes"] += link.bytes_carried
    totals["queue_us_mean"] = _ratio(queue_sum, queue_n)
    return dict(totals)


def count_metrics(counts: Dict[str, float], ops: int) -> Dict[str, float]:
    """The exact per-layer metrics that need no profile."""
    c = lambda key: counts.get(key, 0.0)
    kop = ops / 1000.0
    dropped = c("link.dropped") + sum(
        value for key, value in counts.items()
        if key.startswith("host.dropped_")
        or key in ("switch.ttl_expired", "switch.hairpin_drop",
                   "switch.identity_drop"))
    misses = (c("coherence.read_miss") + c("coherence.write_miss")
              + c("coherence.upgrade"))
    resolves = (c("proxy.resolve.prefetch_hit") + c("proxy.resolve.prefetch_miss")
                + c("proxy.resolve.lazy"))
    retries = (c("invoke.retries") + c("invoke.failover")
               + c("invoke.deadline_exceeded") + c("node.read_timeout")
               + c("node.fetch_timeout") + c("node.fetch_failover"))
    return {
        "net.link_tx_per_op": _ratio(c("link_tx"), ops),
        "net.switch_rx_per_op": _ratio(c("switch.rx"), ops),
        "net.wire_bytes_per_op": _ratio(c("wire_bytes"), ops),
        "net.dropped_per_kop": _ratio(dropped, kop),
        "memproto.tx_per_delivered": _ratio(c("transport.tx"),
                                            c("transport.frame.tx")),
        "memproto.retransmit_share": _ratio(c("transport.retransmit"),
                                            c("transport.tx")),
        "memproto.msgs_per_frame": _ratio(c("transport.delivered"),
                                          c("transport.frame.tx")),
        "memproto.ack_piggyback_share": _ratio(
            c("transport.ack.piggybacked"),
            c("transport.ack.piggybacked") + c("transport.ack.tx")),
        "memproto.queue_us_mean": c("queue_us_mean"),
        "memproto.coh_hit_share": _ratio(c("coherence.cache_hit"),
                                         c("coherence.cache_hit") + misses),
        "memproto.coh_probes_per_op": _ratio(c("coherence.probe"), ops),
        "memproto.coh_writebacks_per_kop": _ratio(
            c("coherence.evict.writeback"), kop),
        "memproto.coh_pkts_per_miss": _ratio(
            c("coherence.batch.acquire_pkts") + c("coherence.batch.grant_pkts")
            + c("coherence.batch.probe_pkts"), misses),
        "core.placement_decides_per_op": _ratio(c("placement.decisions"), ops),
        "core.prefetch_hit_share": _ratio(c("proxy.resolve.prefetch_hit"),
                                          resolves),
        "runtime.invokes_per_op": _ratio(c("runtime.invocations"), ops),
        "runtime.remote_reads_per_op": _ratio(c("node.remote_read"), ops),
        "runtime.remote_writes_per_op": _ratio(c("node.remote_write"), ops),
        "runtime.fetches_per_op": _ratio(c("node.fetched"), ops),
        "runtime.retries_per_kop": _ratio(retries, kop),
        "loadgen.dropped_share": _ratio(c("loadgen.dropped"),
                                        c("loadgen.offered")),
        "loadgen.materialized_per_op": _ratio(c("loadgen.materialized"), ops),
        "obs.samples_held": c("samples_held"),
    }


# ---------------------------------------------------------------------------
# the traced repeat
# ---------------------------------------------------------------------------


def profile(run: Callable[[], None]) -> pstats.Stats:
    """Run ``run`` under cProfile; the stats stay in memory."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    return pstats.Stats(profiler)


def _row(stats: pstats.Stats, func) -> Tuple[int, float, dict]:
    """(calls, cumulative seconds, callers) of a function object."""
    code = func.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    row = stats.stats.get(key)
    if row is None:
        return 0, 0.0, {}
    _, ncalls, _, cumulative, callers = row
    return ncalls, cumulative, callers


def fold(stats: pstats.Stats, ops: int, counts: Dict[str, float]) -> Dict[str, object]:
    """Fold a traced repeat into self time by layer and boundary counts.

    ``ops`` and ``counts`` are the traced repeat's own, so every figure
    is per operation of the run that was profiled.
    """
    self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    for (filename, _, _), (_, _, tottime, _, _) in stats.stats.items():
        self_s[layer_of(filename)] += tottime
    schedule_calls, _, schedule_callers = _row(stats, Simulator.schedule)
    schedule_at_calls, _, _ = _row(stats, Simulator.schedule_at)
    at_code = Simulator.schedule_at.__code__
    via_at = schedule_callers.get(
        (at_code.co_filename, at_code.co_firstlineno, at_code.co_name))
    # schedule_at delegates to schedule today; count each event once
    # whether or not it keeps doing so.
    events = schedule_calls + schedule_at_calls - (via_at[0] if via_at else 0)
    spawns, _, _ = _row(stats, Simulator.spawn)
    count_calls, _, _ = _row(stats, Tracer.count)
    _, decide_s, _ = _row(stats, PlacementEngine.decide)
    _, invoke_s, _ = _row(stats, GlobalSpaceRuntime.invoke)
    metrics = {f"{layer}.self_us_per_op": _ratio(self_s[layer] * 1e6, ops)
               for layer in LAYERS}
    metrics.update({
        "sim.events_per_op": _ratio(events, ops),
        "sim.spawns_per_op": _ratio(spawns, ops),
        "obs.count_calls_per_op": _ratio(count_calls, ops),
        "core.placement_cum_us_per_decide": _ratio(
            decide_s * 1e6, counts.get("placement.decisions", 0.0)),
        "runtime.invoke_cum_us_per_call": _ratio(
            invoke_s * 1e6, counts.get("runtime.invocations", 0.0)),
    })
    boundaries = {}
    for name, func in BOUNDARIES.items():
        calls, cumulative, callers = _row(stats, func)
        called_from: Dict[str, int] = defaultdict(int)
        for (filename, _, _), caller_row in callers.items():
            called_from[layer_of(filename)] += caller_row[0]
        boundaries[name] = {"calls": calls, "cumulative_s": cumulative,
                            "called_from": dict(called_from)}
    return {
        "metrics": metrics,
        "traced_us_per_op": _ratio(stats.total_tt * 1e6, ops),
        "self_seconds": self_s,
        "boundaries": boundaries,
    }
