"""E17 / §5: availability under a network partition.

Paper: "Perhaps foremost among them is the tension between partial
failure (inevitable in any distributed system), fault tolerance, and
mechanisms that attempt to hide the movement of computation and data."

A scripted `FaultPlan` partitions one responder away from the driver
mid-run.  Both discovery schemes access the same object population in
three measured phases — healthy, partitioned, healed — and we report
per-phase availability (fraction of accesses that succeed), mean
latency, and discovery broadcasts.  A second experiment runs the
application-level remedy: the runtime's invoke path with a replica and
retry failover keeps availability at 100% through an executor crash
window the network alone cannot hide.
"""

import pytest

from repro.core import FunctionRegistry, GlobalRef
from repro.discovery import SCHEME_CONTROLLER, SCHEME_E2E, Testbed
from repro.faults import FaultInjector, FaultPlan
from repro.net import build_paper_topology, build_star
from repro.runtime import GlobalSpaceRuntime, InvokeTimeout, RetryPolicy
from repro.sim import Simulator, Timeout

from conftest import print_table

SEED = 17
OBJECTS_PER_RESPONDER = 4
TIMEOUT_US = 2_000.0
RETRIES = 2
# The partition window: wide enough that the whole partitioned phase
# (every access burning its full retry budget) fits inside it.
PARTITION_FROM_US = 50_000.0
PARTITION_UNTIL_US = 250_000.0
PHASES = ("healthy", "partitioned", "healed")


def _run_scheme(scheme):
    """Access the population in the three phases; return per-phase rows."""
    sim = Simulator(seed=SEED)
    net = build_paper_topology(
        sim, with_controller_host=(scheme == SCHEME_CONTROLLER))
    bed = Testbed(scheme, net, 256, timeout_us=TIMEOUT_US, max_retries=RETRIES)
    oids = [bed.create_object(resp)
            for resp in bed.responders for _ in range(OBJECTS_PER_RESPONDER)]
    # resp2 loses the driver (and resp1); an ungrouped controller host
    # keeps hearing everyone — the control plane survives the partition.
    plan = FaultPlan().partition([["driver", "resp1"], ["resp2"]],
                                 PARTITION_FROM_US, PARTITION_UNTIL_US)
    FaultInjector(net, plan).arm()

    def access_all():
        records = []
        for oid in oids:
            record = yield sim.spawn(bed.accessor.access(oid))
            records.append(record)
        return records

    def driver():
        results = {}
        yield from access_all()  # warm-up: fill caches, uncounted
        results["healthy"] = yield from access_all()
        yield Timeout(PARTITION_FROM_US + 1_000.0 - sim.now)
        results["partitioned"] = yield from access_all()
        assert sim.now < PARTITION_UNTIL_US, "partitioned phase overran its window"
        yield Timeout(PARTITION_UNTIL_US + 1_000.0 - sim.now)
        results["healed"] = yield from access_all()
        return results

    results = sim.run_process(driver(), name=f"avail-{scheme}")
    rows = {}
    for phase in PHASES:
        records = results[phase]
        ok = [r for r in records if r.ok]
        rows[phase] = {
            "ok_frac": len(ok) / len(records),
            "mean_ok_us": (sum(r.latency_us for r in ok) / len(ok)) if ok else 0.0,
            "mean_failed_us": (sum(r.latency_us for r in records if not r.ok)
                               / max(1, len(records) - len(ok))),
            "broadcasts": sum(r.broadcasts for r in records),
        }
    return rows


@pytest.fixture(scope="module")
def runs():
    return {scheme: _run_scheme(scheme)
            for scheme in (SCHEME_E2E, SCHEME_CONTROLLER)}


def test_e17_regenerate(runs):
    """Print the full availability table."""
    rows = []
    for scheme in (SCHEME_E2E, SCHEME_CONTROLLER):
        for phase in PHASES:
            row = runs[scheme][phase]
            rows.append([scheme, phase, f"{row['ok_frac']:.2f}",
                         row["mean_ok_us"], row["mean_failed_us"],
                         row["broadcasts"]])
    print_table(
        "E17: availability under partition (resp2 cut off for 200ms)",
        ["scheme", "phase", "avail", "ok_mean_us", "fail_mean_us", "bcasts"],
        rows,
    )


def test_both_schemes_fully_available_when_healthy(runs):
    for scheme in runs:
        assert runs[scheme]["healthy"]["ok_frac"] == 1.0


def test_partition_costs_exactly_the_cutoff_half(runs):
    """Neither scheme can mask the partition: accesses to the cut-off
    responder fail, accesses to the reachable one still succeed."""
    for scheme in runs:
        assert runs[scheme]["partitioned"]["ok_frac"] == 0.5


def test_failures_burn_the_full_retry_budget(runs):
    """Unavailability is paid in timeouts: a failed access costs its
    whole retry budget, ~100x a healthy access."""
    for scheme in runs:
        failed_us = runs[scheme]["partitioned"]["mean_failed_us"]
        assert failed_us >= RETRIES * TIMEOUT_US


def test_both_schemes_recover_instantly_after_heal(runs):
    """Healing restores full availability with no re-discovery tax:
    timeouts never invalidated state on either scheme (E2E drops a
    cache entry only on a *stale* NACK), so the healed phase runs at
    healthy-phase latency with zero broadcasts."""
    for scheme in runs:
        healed = runs[scheme]["healed"]
        assert healed["ok_frac"] == 1.0
        assert healed["broadcasts"] == 0
        assert healed["mean_ok_us"] == pytest.approx(
            runs[scheme]["healthy"]["mean_ok_us"], rel=0.05)


# ---------------------------------------------------------------------------
# the application-level remedy: replicas + invoke failover
# ---------------------------------------------------------------------------


def _run_invoke_availability():
    """Invocation stream through an executor crash window, with a replica."""
    sim = Simulator(seed=SEED)
    net = build_star(sim, 4, prefix="n")
    registry = FunctionRegistry()

    @registry.register("read_blob")
    def read_blob(ctx, args):
        data = yield ctx.read(args["blob"], 0, 4)
        return data

    runtime = GlobalSpaceRuntime(net, registry)
    for i in range(4):
        node = runtime.add_node(f"n{i}", speed=2.0 if i == 1 else 1.0)
        node.request_timeout_us = TIMEOUT_US
    obj = runtime.create_object("n1", size=4096)
    obj.write(0, b"SAFE")
    runtime.node("n2").space.insert(obj.clone())
    runtime.note_copy(obj.oid, "n2")
    _, code_ref = runtime.create_code("n0", "read_blob", text_size=128)
    FaultInjector(net, FaultPlan().crash_window(
        "n1", 2_000.0, 60_000.0)).arm()
    policy = RetryPolicy(deadline_us=5_000.0, backoff_base_us=500.0)
    outcomes = {"ok": 0, "timeout": 0}

    def driver():
        for _ in range(20):
            try:
                result = yield sim.spawn(runtime.invoke(
                    "n0", code_ref,
                    data_refs={"blob": GlobalRef(obj.oid, 0, "read")},
                    retry=policy))
            except InvokeTimeout:
                outcomes["timeout"] += 1
            else:
                assert result.value == b"SAFE"
                outcomes["ok"] += 1
        return None

    sim.run_process(driver(), name="invoke-avail")
    counters = runtime.tracer.counters
    return {
        "outcomes": outcomes,
        "failover": counters["invoke.failover"],
        "retries": counters["invoke.retries"],
    }


@pytest.fixture(scope="module")
def invoke_run():
    return _run_invoke_availability()


def test_replica_plus_failover_keeps_invocations_available(invoke_run):
    """What discovery alone cannot do, the runtime can: with a replica
    and retry failover, every invocation through the crash window
    completes — availability stays at 100%."""
    assert invoke_run["outcomes"] == {"ok": 20, "timeout": 0}
    assert invoke_run["failover"] >= 1


def test_invoke_availability_print(invoke_run):
    print_table(
        "E17b: invoke availability through an executor crash window",
        ["completed", "timeouts", "failovers", "retries"],
        [[invoke_run["outcomes"]["ok"], invoke_run["outcomes"]["timeout"],
          invoke_run["failover"], invoke_run["retries"]]],
    )
