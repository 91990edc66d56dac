"""The open-loop multi-tenant load generator.

Every bench scenario before this package was closed-loop: issue an op,
wait for it, issue the next.  A closed loop can never offer more load
than the fabric absorbs, so saturation — the regime where the paper's
datacenter-scale claims live or die — was unmeasurable.
:class:`LoadGenerator` drives the runtime **open-loop**: each tenant's
arrival process schedules operations from a clock, regardless of how
many are still in flight.  Below capacity the two styles agree; past it,
queues grow and p999 degrades, which is exactly what the bench
scenarios assert.

Tenancy model
-------------
A :class:`TenantSpec` gives each tenant its own client node, offered
rate, arrival process, popularity skew, keyspace size, and op mix over
``load`` / ``store`` / ``invoke`` / ``proxied_invoke`` / ``publish``
(event-bus publication, for generators built with ``bus=``).  Tenants share
the fabric and the object hosts, so one tenant's hot keys genuinely
crowd another's traffic — the interference that fairness claims have to
survive.

Determinism
-----------
Each tenant derives a private ``random.Random`` from the simulator RNG
(in tenant order, at construction), and **all** stochastic draws for an
arrival — the inter-arrival gap, the op kind, the object rank — happen
synchronously in the driver process before anything is spawned.  Drops
(outstanding-cap shedding) therefore never change the random stream,
and a run is a pure function of the simulator seed.

Scale
-----
The keyspace is addressed by *rank* (0 = hottest) and objects are
materialized lazily on first touch, homed round-robin over the
non-client hosts (``rank % len(homes)``) — a million-ObjectId keyspace
under Zipf traffic creates only the thousands of objects actually
drawn.  Latencies go into fixed-bucket
:class:`~repro.loadgen.histogram.LatencyHistogram` instances (per
tenant and per op), so memory stays flat no matter how many operations
complete.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.proxies import ObjectProxy
from ..core.refs import GlobalRef
from ..runtime.node import MODE_EAGER, MODE_PROXIED
from ..sim import Timeout
from .arrivals import make_arrivals
from .histogram import LatencyHistogram
from .popularity import make_popularity

__all__ = ["OPS", "LOADGEN_ENTRY", "TenantSpec", "TenantReport",
           "LoadReport", "LoadGenerator", "register_loadgen_touch"]

# The op kinds a tenant mix may weight.
OPS = ("load", "store", "invoke", "proxied_invoke", "publish")
_PUBLISH_FIELD = "kind"
_PUBLISH_BYTES = 64

# Registry entry for the mobile-code op kinds.
LOADGEN_ENTRY = "loadgen_touch"

# Percentiles reported everywhere (bench counters, obs samples).
_PCTLS: Tuple[Tuple[str, float], ...] = (
    ("p50_us", 50.0), ("p99_us", 99.0), ("p999_us", 99.9))


def register_loadgen_touch(registry) -> None:
    """Register the mobile-code entry the invoke op kinds run.

    The function reads ``nbytes`` from its single blob argument — a
    staged :class:`GlobalRef` under ``MODE_EAGER`` or a lazy
    :class:`~repro.core.proxies.ObjectProxy` under ``MODE_PROXIED`` —
    mirroring the dual-head idiom of ``traverse_list_proxied``.
    """
    if LOADGEN_ENTRY in registry:
        return

    def loadgen_touch(ctx, args):
        """Read ``args['nbytes']`` of ``args['blob']``; returns {'bytes'}."""
        blob = args["blob"]
        nbytes = int(args.get("nbytes", 64))
        if isinstance(blob, ObjectProxy):
            raw = yield from blob.read(0, nbytes)
        else:
            raw = yield ctx.read(blob, 0, nbytes)
        return {"bytes": len(raw)}

    registry.register(LOADGEN_ENTRY, loadgen_touch)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic contract.

    ``mix`` is a tuple of ``(op, weight)`` pairs over :data:`OPS`;
    weights need not sum to 1.  ``max_outstanding`` is the open-loop
    safety valve: arrivals beyond it are *dropped* (counted, never
    issued), modelling client-side shedding rather than unbounded
    process growth when far past saturation.  A ``publish`` op sends a
    ``_PUBLISH_BYTES`` event whose ``_PUBLISH_FIELD`` field carries the
    key rank.
    """

    name: str
    client: str
    rate_per_sec: float
    arrival: str = "poisson"
    popularity: str = "zipf"
    skew: float = 1.0
    keyspace: int = 1024
    mix: Tuple[Tuple[str, float], ...] = (("load", 1.0),)
    read_bytes: int = 64
    write_bytes: int = 64
    flops: float = 2e5
    max_outstanding: int = 256
    # Optional egress traffic class: stamped on every packet the
    # tenant's client host sends, so WRR-arbitrated links can weight
    # this tenant's traffic independently of the built-in coherence/
    # transport/pubsub classes.
    tclass: Optional[str] = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("tenants need a name")
        if not self.mix:
            raise ValueError(f"tenant {self.name!r} has an empty op mix")
        for op, weight in self.mix:
            if op not in OPS:
                raise ValueError(f"tenant {self.name!r}: unknown op {op!r} "
                                 f"(have: {', '.join(OPS)})")
            if weight < 0:
                raise ValueError(f"tenant {self.name!r}: negative weight for {op!r}")
        if sum(weight for _, weight in self.mix) <= 0:
            raise ValueError(f"tenant {self.name!r}: op mix has no weight")
        if self.max_outstanding < 1:
            raise ValueError(f"tenant {self.name!r}: max_outstanding must be >= 1")

    @property
    def wants_invoke(self) -> bool:
        """True when the mix can issue a mobile-code op."""
        return any(op in ("invoke", "proxied_invoke") and weight > 0
                   for op, weight in self.mix)

    @property
    def wants_publish(self) -> bool:
        """True when the mix can issue an event-bus publish."""
        return any(op == "publish" and weight > 0 for op, weight in self.mix)


@dataclass
class TenantReport:
    """Per-tenant outcome of a load run."""

    name: str
    offered: int
    completed: int
    dropped: int
    failed: int
    materialized: int
    overall: LatencyHistogram
    by_op: Dict[str, LatencyHistogram]

    def percentile(self, p: float) -> float:
        """Latency percentile (µs) over every op."""
        return self.overall.percentile(p)


@dataclass
class LoadReport:
    """Whole-run outcome: per-tenant reports in tenant order."""

    duration_us: float
    tenants: "Dict[str, TenantReport]" = field(default_factory=dict)

    def merged_histogram(self) -> LatencyHistogram:
        """All tenants' latencies folded into one histogram."""
        merged: Optional[LatencyHistogram] = None
        for report in self.tenants.values():
            if merged is None:
                geometry = report.overall
                merged = LatencyHistogram(geometry.min_us, geometry.max_us,
                                          geometry.subbuckets)
            merged.merge(report.overall)
        if merged is None:
            raise ValueError("report has no tenants")
        return merged

    def counters(self) -> Dict[str, int]:
        """Flatten to deterministic integer counters for bench JSON.

        Keys are ``{tenant}.offered`` (completed/dropped/failed/
        materialized alike), ``{tenant}.p50_us`` (p99/p999) for the
        tenant overall, and ``{tenant}.{op}.p99_us``-style
        keys per op kind.  Percentiles are bucket upper edges rounded to
        integer microseconds — byte-stable across runs of one seed.
        """
        out: Dict[str, int] = {}
        for name, report in self.tenants.items():
            base = f"{name}."
            out[base + "offered"] = report.offered
            out[base + "completed"] = report.completed
            out[base + "dropped"] = report.dropped
            out[base + "failed"] = report.failed
            out[base + "materialized"] = report.materialized
            for label, p in _PCTLS:
                out[base + label] = int(round(report.overall.percentile(p)))
            for op in sorted(report.by_op):
                hist = report.by_op[op]
                if hist.count == 0:
                    continue
                for label, p in _PCTLS:
                    out[f"{base}{op}.{label}"] = int(round(hist.percentile(p)))
        return out


class _TenantState:
    """Mutable run state for one tenant (internal)."""

    __slots__ = ("spec", "rng", "arrivals", "popularity", "homes", "tracer",
                 "n_offered", "n_completed", "n_materialized",
                 "code_ref", "ops", "cum_weights", "total_weight", "refs",
                 "inflight", "offered", "completed", "dropped", "failed",
                 "materialized", "overall", "by_op", "topic", "field_mod")

    def __init__(self, spec: TenantSpec, rng: random.Random,
                 homes: List[str], tracer,
                 hist_args: Tuple[float, float, int]):
        self.spec = spec
        self.rng = rng
        self.arrivals = make_arrivals(spec.arrival, spec.rate_per_sec)
        self.popularity = make_popularity(spec.popularity, spec.keyspace,
                                          spec.skew)
        self.homes = homes
        self.tracer = tracer
        # Counter cells of the per-op path (see Tracer).
        self.n_offered = tracer.cell("loadgen.offered")
        self.n_completed = tracer.cell("loadgen.completed")
        self.n_materialized = tracer.cell("loadgen.materialized")
        self.code_ref: Optional[GlobalRef] = None
        self.ops = [op for op, _ in spec.mix]
        weights = [weight for _, weight in spec.mix]
        self.cum_weights: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight
            self.cum_weights.append(acc)
        self.total_weight = acc
        self.refs: Dict[int, GlobalRef] = {}
        self.topic = None
        self.field_mod = 1
        self.inflight = 0
        self.offered = 0
        self.completed = 0
        self.dropped = 0
        self.failed = 0
        self.materialized = 0
        self.overall = LatencyHistogram(*hist_args)
        self.by_op = {op: LatencyHistogram(*hist_args)
                      for op in self.ops}

    def sample_op(self) -> str:
        point = self.rng.random() * self.total_weight
        return self.ops[min(bisect.bisect_left(self.cum_weights, point),
                            len(self.ops) - 1)]


class LoadGenerator:
    """Drives a :class:`~repro.runtime.engine.GlobalSpaceRuntime` with
    open-loop multi-tenant traffic and records tail latency online.

    Construct it *after* the runtime has its nodes, then :meth:`run` —
    it spawns one driver process per tenant, runs the simulator to
    quiescence (so in-flight operations drain), emits the obs counters
    and percentile samples, and returns a :class:`LoadReport`.
    """

    def __init__(self, runtime, tenants: Iterable[TenantSpec],
                 duration_us: float, *, subbuckets: int = 32, bus=None,
                 topics=None):
        if duration_us <= 0:
            raise ValueError("duration_us must be positive")
        self.runtime = runtime
        self.sim = runtime.sim
        self.duration_us = float(duration_us)
        self.object_bytes = 256
        self.bus = bus
        topics = topics or {}
        specs = list(tenants)
        if not specs:
            raise ValueError("need at least one tenant")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        register_loadgen_touch(runtime.registry)
        hist_args = (1.0, 60e6, subbuckets)
        host_names = sorted(runtime.nodes)
        self._states: List[_TenantState] = []
        for spec in specs:
            if spec.client not in runtime.nodes:
                raise ValueError(f"tenant {spec.name!r}: client {spec.client!r} "
                                 "is not a cluster node")
            # One private stream per tenant, derived from the sim RNG in
            # tenant order: tenants stay independent, runs stay seeded.
            rng = random.Random(self.sim.rng.getrandbits(64))
            if spec.tclass is not None:
                # Per-tenant WRR override: class every packet the client
                # host emits under the tenant's own traffic class.
                runtime.network.host(spec.client).default_tclass = spec.tclass
            homes = [n for n in host_names if n != spec.client] or [spec.client]
            tracer = runtime.metrics.register(
                f"workloads.loadgen.{spec.name}", replace=True)
            state = _TenantState(spec, rng, homes, tracer, hist_args)
            if spec.wants_invoke:
                _, state.code_ref = runtime.create_code(
                    spec.client, LOADGEN_ENTRY, text_size=512,
                    label=f"loadgen-{spec.name}")
            if spec.wants_publish:
                if bus is None:
                    raise ValueError(f"tenant {spec.name!r} publishes but no "
                                     "bus= was given")
                if spec.name not in topics:
                    raise ValueError(f"tenant {spec.name!r} publishes but "
                                     "topics= has no topic for it")
                state.topic = topics[spec.name]
                field = bus.fabric.format.field(_PUBLISH_FIELD)
                state.field_mod = field.max_value + 1
            self._states.append(state)

    # -- driving --------------------------------------------------------------
    def run(self) -> LoadReport:
        """Run the configured load to quiescence; returns the report."""
        for state in self._states:
            self.sim.spawn(self._drive(state),
                           name=f"loadgen-drive-{state.spec.name}")
        self.sim.run()
        self._settle()
        return self.report()

    def _drive(self, state: _TenantState):
        """Process: the open-loop clock for one tenant."""
        gaps = state.arrivals.gaps(state.rng)
        elapsed = 0.0
        while True:
            gap = next(gaps)
            if elapsed + gap > self.duration_us:
                return
            elapsed += gap
            yield Timeout(gap)
            self._offer(state)

    def _offer(self, state: _TenantState) -> None:
        """One arrival: draw everything, then spawn (or shed) the op.

        All random draws happen here, before the outstanding-cap check,
        so shedding never perturbs the tenant's random stream.
        """
        state.offered += 1
        state.n_offered[0] += 1
        op = state.sample_op()
        rank = state.popularity.sample(state.rng)
        if state.inflight >= state.spec.max_outstanding:
            state.dropped += 1
            state.tracer.count("loadgen.dropped")
            return
        # Publish ops address a topic, not the object keyspace; the rank
        # draw above still happens so mixes stay RNG-stream-compatible.
        ref = None if op == "publish" else self._ref_for(state, rank)
        state.inflight += 1
        self.sim.spawn(self._run_op(state, op, ref, rank),
                       name=f"loadgen-op-{state.spec.name}")

    def _ref_for(self, state: _TenantState, rank: int) -> GlobalRef:
        """Lazy keyspace: materialize rank's object on first touch.

        The home host is ``rank % len(homes)`` — deterministic, and
        under skew it concentrates the hot head on a few hosts, which
        is the hot-spot behavior the multi-tenant scenarios need.
        """
        ref = state.refs.get(rank)
        if ref is None:
            home = state.homes[rank % len(state.homes)]
            obj = self.runtime.create_object(home, size=self.object_bytes)
            ref = GlobalRef(obj.oid, 0, "write")
            state.refs[rank] = ref
            state.materialized += 1
            state.n_materialized[0] += 1
        return ref

    # -- op kinds -------------------------------------------------------------
    def _run_op(self, state: _TenantState, op: str,
                ref: Optional[GlobalRef], rank: int):
        """Process: one operation, timed arrival-to-completion."""
        start = self.sim.now
        spec = state.spec
        try:
            # A load, store or invoke runs the runtime's own generator
            # here, with no frame of the generator's between.
            if op == "load":
                yield from self.runtime.node(spec.client).load(
                    ref.oid, 0, min(spec.read_bytes, self.object_bytes))
            elif op == "store":
                yield from self.runtime.node(spec.client).store(
                    ref.oid, 0, bytes(min(spec.write_bytes, self.object_bytes)))
            elif op == "publish":
                yield from self._do_publish(state, rank)
            else:
                yield from self.runtime.invoke(
                    spec.client, state.code_ref, data_refs={"blob": ref},
                    values={"nbytes": min(spec.read_bytes, self.object_bytes)},
                    flops=spec.flops, result_bytes=32,
                    mode=(MODE_PROXIED if op == "proxied_invoke"
                          else MODE_EAGER))
        except Exception:
            # Saturation pushes latencies past retry deadlines; a failed
            # op is an outcome to count, not a generator crash.
            state.failed += 1
        else:
            state.completed += 1
            state.n_completed[0] += 1
            latency = self.sim.now - start
            state.overall.record(latency)
            state.by_op[op].record(latency)
        finally:
            state.inflight -= 1

    def _do_publish(self, state: _TenantState, rank: int):
        """One event onto the tenant's topic, paced by consumer credit."""
        fields = {_PUBLISH_FIELD: rank % state.field_mod}
        self.bus.publish(state.spec.client, state.topic, fields,
                         bytes(_PUBLISH_BYTES))
        yield Timeout(0.0)

    # -- reporting ------------------------------------------------------------
    def _settle(self) -> None:
        """Emit the percentile samples into each tenant's tracer."""
        for state in self._states:
            kinds = [("all", state.overall)]
            kinds += [(op, state.by_op[op]) for op in sorted(state.by_op)]
            for op, hist in kinds:
                if hist.count == 0:
                    continue
                state.tracer.sample(f"loadgen.p50_us.{op}",
                                    hist.percentile(50.0))
                state.tracer.sample(f"loadgen.p99_us.{op}",
                                    hist.percentile(99.0))
                state.tracer.sample(f"loadgen.p999_us.{op}",
                                    hist.percentile(99.9))

    def report(self) -> LoadReport:
        """The current :class:`LoadReport` (also returned by :meth:`run`)."""
        report = LoadReport(duration_us=self.duration_us)
        for state in self._states:
            report.tenants[state.spec.name] = TenantReport(
                name=state.spec.name,
                offered=state.offered,
                completed=state.completed,
                dropped=state.dropped,
                failed=state.failed,
                materialized=state.materialized,
                overall=state.overall,
                by_op=dict(state.by_op),
            )
        return report
