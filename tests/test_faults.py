"""The fault-injection subsystem and the self-healing invocation path.

Covers the three tentpole pieces: deterministic fault plans/injection
(`repro.faults`), the net-layer fault surface (link failure, host
partitions), and the resilient invoke loop (deadline -> suspicion ->
re-placement -> failover, with a typed `InvokeTimeout` when the budget
runs out).

The invariant the sweep classes defend: **an injected crash never hangs
an invocation.**  Every invocation either completes (possibly on a
re-placed executor) or raises `InvokeTimeout` — if the old unbounded
reply wait regressed, `sim.run_process` would raise "did not finish"
and fail these tests.  Assertions hold for any seed; CI re-runs the
module under several ``REPRO_SEED_OFFSET`` values.
"""

import os

import pytest

from repro.core import FunctionRegistry, GlobalRef
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    HealthLedger,
)
from repro.net import Packet, build_star
from repro.net.node import NodeError
from repro.obs.keys import (
    K_HEALTH_CLEARED,
    K_HEALTH_SUSPECTED,
    K_INVOKE_DEADLINE,
    K_INVOKE_FAILOVER,
    K_INVOKE_RETRIES,
)
from repro.runtime import (
    GlobalSpaceRuntime,
    InvokeTimeout,
    RetryPolicy,
)
from repro.sim import Simulator, Timeout

SEED_OFFSET = int(os.environ.get("REPRO_SEED_OFFSET", "0"))


def _seed(n):
    return n + SEED_OFFSET


# ---------------------------------------------------------------------------
# plan construction
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_chaining_builds_ordered_events(self):
        plan = (FaultPlan()
                .recover("n1", at=40_000)
                .crash("n1", at=5_000)
                .fail_link("n0", "s0", at=5_000))
        kinds = [(e.at_us, e.kind) for e in plan.events]
        # Sorted by time; the tie at t=5000 keeps insertion order.
        assert kinds == [(5_000.0, "crash"), (5_000.0, "link_down"),
                        (40_000.0, "recover")]

    def test_crash_window_emits_pair(self):
        plan = FaultPlan().crash_window("n1", 1_000, 2_000)
        assert [e.kind for e in plan.events] == ["crash", "recover"]

    def test_negative_time_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan().crash("n1", at=-1.0)

    def test_bad_window_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan().crash_window("n1", 2_000, 1_000)

    def test_degrade_validates_loss(self):
        with pytest.raises(FaultPlanError):
            FaultPlan().degrade_link("a", "b", loss=1.0,
                                     from_us=0, until_us=10)

    def test_partition_rejects_overlapping_groups(self):
        with pytest.raises(FaultPlanError):
            FaultPlan().partition([["n0", "n1"], ["n1"]], 0, 10)

    def test_partition_rejects_single_group(self):
        with pytest.raises(FaultPlanError):
            FaultPlan().partition([["n0", "n1"]], 0, 10)


# ---------------------------------------------------------------------------
# net-layer fault surface
# ---------------------------------------------------------------------------


class TestLinkFaults:
    def test_failed_link_drops_and_recovery_restores(self):
        sim = Simulator(seed=_seed(1))
        net = build_star(sim, 2)
        got = []
        net.host("h1").on("m", lambda p: got.append(p))
        link = net.link_between("h0", "s0")

        def proc():
            link.fail()
            net.host("h0").send(Packet(kind="m", src="h0", dst="h1"))
            yield Timeout(100)
            link.recover()
            net.host("h0").send(Packet(kind="m", src="h0", dst="h1"))
            yield Timeout(100)

        sim.run_process(proc())
        assert len(got) == 1
        assert net.tracer.counters["link.dropped"] == 1

    @pytest.mark.parametrize("cut, delivered", [
        (("h0", "s0"), [5, 150]),
        # Failure is sampled at last-bit time: the 5 us packet is still
        # on the switch's egress wire at 10 us, so it is lost too.
        (("s0", "h1"), [150]),
    ])
    def test_injector_fails_and_restores_a_link(self, cut, delivered):
        sim = Simulator(seed=_seed(20))
        net = build_star(sim, 2)
        got = []
        net.host("h1").on("m", lambda p: got.append(p.payload))
        plan = FaultPlan().fail_link(*cut, at=10).restore_link(*cut, at=100)
        injector = FaultInjector(net, plan)
        injector.arm()

        def proc():
            for sent_at in (5, 50, 150):
                yield Timeout(sent_at - sim.now)
                net.host("h0").send(Packet(kind="m", src="h0", dst="h1",
                                           payload=sent_at))
            yield Timeout(100)

        sim.run_process(proc())
        assert got == delivered
        assert net.link_between(*cut).tracer.counters["link.dropped"] == 3 - len(delivered)
        assert injector.tracer.counters["faults.injected.link_down"] == 1
        assert injector.tracer.counters["faults.injected.link_up"] == 1

    def test_injector_degrades_and_restores_loss(self):
        sim = Simulator(seed=_seed(2))
        net = build_star(sim, 2)
        link = net.link_between("h0", "s0")
        plan = FaultPlan().degrade_link("h0", "s0", loss=0.5,
                                        from_us=1_000, until_us=5_000)
        FaultInjector(net, plan).arm()
        sim.run(until=2_000)
        assert link.loss_rate == 0.5
        sim.run(until=6_000)
        assert link.loss_rate == 0.0


class TestPartition:
    def test_cross_group_ingress_dropped(self):
        sim = Simulator(seed=_seed(3))
        net = build_star(sim, 3)
        got = {"h1": 0, "h2": 0}
        net.host("h1").on("m", lambda p: got.__setitem__("h1", got["h1"] + 1))
        net.host("h2").on("m", lambda p: got.__setitem__("h2", got["h2"] + 1))
        # h2 is in no group, so it keeps hearing everyone.
        net.set_partition([["h0"], ["h1"]])

        def proc():
            net.host("h0").send(Packet(kind="m", src="h0", dst="h1"))
            net.host("h0").send(Packet(kind="m", src="h0", dst="h2"))
            yield Timeout(100)
            net.clear_partition()
            net.host("h0").send(Packet(kind="m", src="h0", dst="h1"))
            yield Timeout(100)

        sim.run_process(proc())
        assert got == {"h1": 1, "h2": 1}
        # Two drops at h1: its own packet, plus the h2-bound one the
        # switch flooded (unknown unicast) — the partition check sits
        # before the NIC destination filter, as a real filter would.
        assert net.host("h1").tracer.counters["host.dropped_partitioned"] == 2

    def test_partition_validates_hosts(self):
        sim = Simulator(seed=_seed(4))
        net = build_star(sim, 2)
        with pytest.raises(NodeError):
            net.set_partition([["h0"], ["nope"]])
        with pytest.raises(NodeError):
            net.set_partition([["h0"], ["s0"]])  # switches have no groups
        with pytest.raises(NodeError):
            net.set_partition([["h0"], ["h0"]])

    def test_injector_partitions_and_heals(self):
        sim = Simulator(seed=_seed(5))
        net = build_star(sim, 2)
        got = []
        net.host("h1").on("m", lambda p: got.append(p))
        plan = FaultPlan().partition([["h0"], ["h1"]], 0, 5_000)
        injector = FaultInjector(net, plan)
        injector.arm()

        def proc():
            yield Timeout(1_000)
            net.host("h0").send(Packet(kind="m", src="h0", dst="h1"))
            yield Timeout(5_000)  # heal fires at t=5000
            net.host("h0").send(Packet(kind="m", src="h0", dst="h1"))
            yield Timeout(1_000)

        sim.run_process(proc())
        assert len(got) == 1
        assert injector.tracer.counters["faults.injected.partition"] == 1
        assert injector.tracer.counters["faults.injected.heal"] == 1


class TestInjector:
    def test_counts_every_applied_event(self):
        sim = Simulator(seed=_seed(6))
        net = build_star(sim, 2)
        plan = FaultPlan().crash_window("h0", 1_000, 2_000)
        injector = FaultInjector(net, plan)
        assert injector.arm() == 2
        sim.run(until=3_000)
        assert injector.tracer.counters["faults.injected.crash"] == 1
        assert injector.tracer.counters["faults.injected.recover"] == 1
        assert not net.host("h0").failed

    def test_double_arm_rejected(self):
        sim = Simulator(seed=_seed(7))
        net = build_star(sim, 2)
        injector = FaultInjector(net, FaultPlan().crash("h0", at=1_000))
        injector.arm()
        with pytest.raises(FaultPlanError):
            injector.arm()

    def test_past_events_rejected(self):
        sim = Simulator(seed=_seed(8))
        net = build_star(sim, 2)
        sim.run(until=500)
        injector = FaultInjector(net, FaultPlan().crash("h0", at=100))
        with pytest.raises(FaultPlanError):
            injector.arm()

    def test_cancel_unfired_events(self):
        sim = Simulator(seed=_seed(9))
        net = build_star(sim, 2)
        injector = FaultInjector(net, FaultPlan().crash("h0", at=1_000))
        injector.arm()
        injector.cancel()
        sim.run(until=2_000)
        assert not net.host("h0").failed


# ---------------------------------------------------------------------------
# health ledger
# ---------------------------------------------------------------------------


class TestHealthLedger:
    def test_suspicion_expires_after_ttl(self):
        sim = Simulator(seed=_seed(10))
        ledger = HealthLedger(sim, suspicion_ttl_us=1_000.0)
        ledger.suspect("n1")
        assert ledger.is_suspected("n1")
        assert ledger.penalty_jobs("n1") == ledger.suspect_penalty_jobs

        def proc():
            yield Timeout(1_500.0)

        sim.run_process(proc())
        assert not ledger.is_suspected("n1")
        assert ledger.penalty_jobs("n1") == 0

    def test_clear_counts_only_when_present(self):
        sim = Simulator(seed=_seed(11))
        ledger = HealthLedger(sim)
        ledger.clear("n1")  # no-op: never suspected
        assert ledger.tracer.counters[K_HEALTH_CLEARED] == 0
        ledger.suspect("n1")
        ledger.clear("n1")
        assert ledger.tracer.counters[K_HEALTH_SUSPECTED] == 1
        assert ledger.tracer.counters[K_HEALTH_CLEARED] == 1
        assert ledger.suspected() == set()

    def test_live_profiles_penalize_suspected_nodes(self):
        sim, net, registry, runtime = make_cluster(_seed(12))
        runtime.health.suspect("n1")
        profiles = {p.name: p for p in runtime.live_profiles()}
        assert profiles["n1"].active_jobs >= 1_000
        assert profiles["n2"].active_jobs == 0


# ---------------------------------------------------------------------------
# the resilient invocation path
# ---------------------------------------------------------------------------


def make_cluster(seed, n_hosts=4, speeds=None, request_timeout_us=2_000.0,
                 **star):
    sim = Simulator(seed=seed)
    net = build_star(sim, n_hosts, prefix="n", **star)
    registry = FunctionRegistry()

    @registry.register("read_blob")
    def read_blob(ctx, args):
        data = yield ctx.read(args["blob"], 0, 5)
        return data

    runtime = GlobalSpaceRuntime(net, registry)
    for i in range(n_hosts):
        name = f"n{i}"
        node = runtime.add_node(name, speed=(speeds or {}).get(name, 1.0))
        node.request_timeout_us = request_timeout_us  # fast failover in tests
    return sim, net, registry, runtime


def make_blob(runtime, holders, size=1 << 16):
    obj = runtime.create_object(holders[0], size=size)
    obj.write(0, b"hello")
    for extra in holders[1:]:
        runtime.node(extra).space.insert(obj.clone())
        runtime.note_copy(obj.oid, extra)
    return obj, GlobalRef(obj.oid, 0, "read")


FAST_RETRY = RetryPolicy(max_attempts=3, deadline_us=3_000.0,
                         backoff_base_us=500.0)


class TestResilientInvoke:
    def test_crashed_executor_no_longer_hangs(self):
        # The regression this PR exists for: the exec request to a
        # crashed executor is silently dropped, and the old unbounded
        # `yield future` waited forever (the sim drained and
        # run_process died with "did not finish").  Now the deadline
        # fires, the executor is suspected, and placement fails over.
        sim, net, registry, runtime = make_cluster(_seed(13),
                                                   speeds={"n2": 2.0})
        _, blob_ref = make_blob(runtime, holders=("n2", "n1"))
        _, code_ref = runtime.create_code("n0", "read_blob", text_size=128)
        net.host("n2").fail()  # n2 is the fast node placement will pick

        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref, data_refs={"blob": blob_ref},
                retry=FAST_RETRY))
            return result

        result = sim.run_process(proc())
        assert result.value == b"hello"
        assert result.executed_at != "n2"
        assert runtime.tracer.counters[K_INVOKE_RETRIES] >= 1
        assert runtime.tracer.counters[K_INVOKE_FAILOVER] == 1
        assert runtime.tracer.counters[K_INVOKE_DEADLINE] >= 1
        assert runtime.health.is_suspected("n2")
        # The span tree closed cleanly despite the failed attempt.
        assert all(s.finished for s in runtime.spans.spans(result.invoke_id))

    def test_executor_starting_after_the_deadline_serves_without_spans(self):
        # On a slow fabric the request reaches the fast n2 after the
        # invoker's 20 us deadline closed its request span.  n2 used to
        # close it again and crash the simulation; it must serve the
        # abandoned request without spans while n0 fails over to itself
        # (staging the 64 KiB blob there takes ~10 ms on this fabric).
        sim, net, registry, runtime = make_cluster(
            _seed(19), n_hosts=3, speeds={"n2": 4.0},
            request_timeout_us=100_000.0, default_bandwidth_gbps=0.05)
        _, blob_ref = make_blob(runtime, holders=("n2",))
        _, code_ref = runtime.create_code("n0", "read_blob", text_size=128)

        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref, data_refs={"blob": blob_ref},
                retry=RetryPolicy(max_attempts=3, deadline_us=20.0)))
            return result

        result = sim.run_process(proc())
        sim.run()  # let n2 finish serving the abandoned attempt
        assert result.value == b"hello" and result.executed_at == "n0"
        assert runtime.tracer.counters[K_INVOKE_DEADLINE] == 1
        assert runtime.tracer.counters[K_INVOKE_FAILOVER] == 1
        trace = runtime.spans.spans(result.invoke_id)
        assert all(s.finished for s in trace)
        assert {s.node for s in trace} == {"n0"}
        assert len(runtime.spans) == len(trace)

    def test_suspected_node_avoided_on_next_invocation(self):
        sim, net, registry, runtime = make_cluster(_seed(14),
                                                   speeds={"n2": 2.0})
        _, blob_ref = make_blob(runtime, holders=("n2", "n1"))
        _, code_ref = runtime.create_code("n0", "read_blob", text_size=128)
        net.host("n2").fail()

        def proc():
            first = yield sim.spawn(runtime.invoke(
                "n0", code_ref, data_refs={"blob": blob_ref},
                retry=FAST_RETRY))
            second = yield sim.spawn(runtime.invoke(
                "n0", code_ref, data_refs={"blob": blob_ref},
                retry=FAST_RETRY))
            return first, second

        first, second = sim.run_process(proc())
        # The first invocation paid the deadline; the second one knew.
        assert first.executed_at != "n2"
        assert second.executed_at != "n2"
        assert runtime.tracer.counters[K_INVOKE_RETRIES] == 1
        assert runtime.tracer.counters[K_INVOKE_FAILOVER] == 1

    def test_typed_timeout_when_only_candidate_is_dead(self):
        sim, net, registry, runtime = make_cluster(_seed(15))
        _, blob_ref = make_blob(runtime, holders=("n1",))
        _, code_ref = runtime.create_code("n0", "read_blob", text_size=128)
        net.host("n1").fail()

        def proc():
            try:
                yield sim.spawn(runtime.invoke(
                    "n0", code_ref, data_refs={"blob": blob_ref},
                    candidates=["n1"], retry=FAST_RETRY))
            except InvokeTimeout as exc:
                return str(exc)

        message = sim.run_process(proc())
        assert message is not None and "gave up" in message

    def test_retryable_nack_fails_over_without_suspecting_executor(self):
        # The executor is alive; its *data source* is dead.  It NACKs
        # the attempt as retryable: the invoker re-places (here: no
        # other candidate, so a typed timeout) and the executor's own
        # health record stays clean — the fetch suspected the source.
        sim, net, registry, runtime = make_cluster(_seed(16))
        _, blob_ref = make_blob(runtime, holders=("n1",))
        _, code_ref = runtime.create_code("n0", "read_blob", text_size=128)
        net.host("n1").fail()
        policy = RetryPolicy(max_attempts=3, deadline_us=20_000.0,
                             backoff_base_us=500.0)

        def proc():
            try:
                yield sim.spawn(runtime.invoke(
                    "n0", code_ref, data_refs={"blob": blob_ref},
                    candidates=["n3"], retry=policy))
            except InvokeTimeout as exc:
                return str(exc)

        message = sim.run_process(proc())
        assert message is not None and "retryable" in message
        assert not runtime.health.is_suspected("n3")
        assert runtime.health.is_suspected("n1")
        assert runtime.tracer.counters[K_INVOKE_DEADLINE] == 0

    @pytest.mark.parametrize("code_at_executor", [False, True],
                             ids=["two-fetches", "one-fetch"])
    def test_failed_stage_in_ends_the_attempt(self, code_at_executor):
        # The blob's only holder is dead.  n3 must give up on the stage-in
        # fetch's timeout, not run the function without its input and pay
        # a second timeout on the demand read, whether the blob is staged
        # beside the code or alone (the code already at n3).
        sim, net, registry, runtime = make_cluster(_seed(16))
        _, blob_ref = make_blob(runtime, holders=("n1",))
        code, code_ref = runtime.create_code("n0", "read_blob", text_size=128)
        if code_at_executor:
            runtime.node("n3").space.insert(code.clone())
            runtime.note_copy(code.oid, "n3")
        net.host("n1").fail()

        def proc():
            try:
                yield sim.spawn(runtime.invoke(
                    "n0", code_ref, data_refs={"blob": blob_ref},
                    candidates=["n3"],
                    retry=RetryPolicy(max_attempts=1, deadline_us=500_000.0)))
            except InvokeTimeout as exc:
                return str(exc), sim.now

        message, gave_up_at = sim.run_process(proc())
        assert "retryable" in message and "gs.fetch_req" in message
        executor = runtime.node("n3").tracer.counters
        assert executor["node.fetch_timeout"] == 1
        assert executor["node.exec"] == 0
        assert executor["node.read_timeout"] == 0
        assert gave_up_at < 2 * runtime.node("n3").request_timeout_us

    def test_happy_path_counters_stay_zero(self):
        sim, net, registry, runtime = make_cluster(_seed(17))
        _, blob_ref = make_blob(runtime, holders=("n1", "n2"))
        _, code_ref = runtime.create_code("n0", "read_blob", text_size=128)

        def proc():
            result = yield sim.spawn(runtime.invoke(
                "n0", code_ref, data_refs={"blob": blob_ref}))
            return result

        result = sim.run_process(proc())
        assert result.value == b"hello"
        assert runtime.tracer.counters[K_INVOKE_RETRIES] == 0
        assert runtime.tracer.counters[K_INVOKE_FAILOVER] == 0
        assert runtime.tracer.counters[K_INVOKE_DEADLINE] == 0
        assert runtime.health.suspected() == set()

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(deadline_us=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_frac=1.5)

    def test_backoff_grows_and_respects_jitter(self):
        sim = Simulator(seed=_seed(18))
        policy = RetryPolicy(backoff_base_us=1_000.0, backoff_factor=2.0,
                             jitter_frac=0.1)
        first = policy.backoff_us(1, sim.rng)
        second = policy.backoff_us(2, sim.rng)
        assert 900.0 <= first <= 1_100.0
        assert 1_800.0 <= second <= 2_200.0


# ---------------------------------------------------------------------------
# multi-seed sweep: crashes never hang an invocation
# ---------------------------------------------------------------------------


def _faulted_run(seed, invocations=10):
    """Run a crash-windowed invocation stream; return its full story."""
    sim, net, registry, runtime = make_cluster(seed)
    _, blob_ref = make_blob(runtime, holders=("n1", "n2"))
    _, code_ref = runtime.create_code("n0", "read_blob", text_size=128)
    policy = RetryPolicy(max_attempts=3, deadline_us=5_000.0,
                         backoff_base_us=500.0)
    plan = (FaultPlan()
            .crash_window("n1", 2_000.0, 40_000.0)
            .crash_window("n2", 60_000.0, 90_000.0))
    FaultInjector(net, plan).arm()
    outcomes = []

    def driver():
        for _ in range(invocations):
            try:
                result = yield sim.spawn(runtime.invoke(
                    "n0", code_ref, data_refs={"blob": blob_ref},
                    retry=policy))
            except InvokeTimeout:
                outcomes.append("timeout")
            else:
                assert result.value == b"hello"
                outcomes.append(result.executed_at)
        return None

    sim.run_process(driver(), name="sweep-driver")
    counters = runtime.tracer.counters
    return {
        "outcomes": tuple(outcomes),
        "retries": counters[K_INVOKE_RETRIES],
        "failover": counters[K_INVOKE_FAILOVER],
        "deadline_exceeded": counters[K_INVOKE_DEADLINE],
        "suspected": counters and runtime.health.tracer.counters[
            K_HEALTH_SUSPECTED],
        "sim_time_us": sim.now,
    }


class TestSeedSweep:
    @pytest.mark.parametrize("base_seed", [21, 22, 23, 24, 25, 26])
    def test_every_invocation_completes_or_raises_typed(self, base_seed):
        # `run_process` returning at all proves nothing hung: a leaked
        # unbounded wait would drain the heap and raise SimError.
        story = _faulted_run(_seed(base_seed))
        assert len(story["outcomes"]) == 10
        completed = [o for o in story["outcomes"] if o != "timeout"]
        assert len(completed) >= 1
        # The crash windows are wide enough that at least one attempt
        # hit a dead host and the machinery actually engaged.
        assert story["retries"] + story["deadline_exceeded"] >= 1

    @pytest.mark.parametrize("base_seed", [31, 32])
    def test_same_seed_same_failover_story(self, base_seed):
        # Byte-level determinism of the fault path: identical outcomes,
        # counters, and simulated clock across two fresh runs.
        assert _faulted_run(_seed(base_seed)) == _faulted_run(_seed(base_seed))


# ---------------------------------------------------------------------------
# coherence writebacks racing crash windows
# ---------------------------------------------------------------------------


class TestCoherenceCrashRaces:
    """A dirty writeback racing a crash window.

    Coherence messages ride raw (unreliable) packets, so the pinned
    semantics are: a release that is already on the wire when its
    *sender* crashes still lands durably at the home (in-flight packets
    survive; only the returning ack dies at the crashed host's ingress),
    while a release arriving at a crashed *home* is simply dropped and
    the home keeps its pre-writeback bytes.  In both races the writeback
    process itself never completes inside the window — the invariant is
    about the home's durable state, not the writer's progress.
    """

    def _cluster(self, seed):
        from repro.core import IDAllocator
        from repro.memproto import CoherenceAgent
        from repro.net import build_star

        sim = Simulator(seed=seed)
        net = build_star(sim, 3)
        home_map = {}
        agents = {f"h{i}": CoherenceAgent(net.host(f"h{i}"), home_map)
                  for i in range(3)}
        oid = IDAllocator(seed=seed).allocate()
        agents["h0"].host_object(oid, b"0" * 64)
        return sim, net, agents, oid

    def _race(self, seed, crash_host, from_us, until_us):
        sim, net, agents, oid = self._cluster(seed)
        FaultInjector(net, FaultPlan().crash_window(
            crash_host, from_us, until_us)).arm()
        finished = []

        def writeback():
            yield from agents["h1"].writeback(oid)
            finished.append(True)
            return None

        def driver():
            # The dirty write completes at ~21us (well before any crash).
            yield from agents["h1"].write(oid, 0, b"DIRTY")
            sim.spawn(writeback(), name="writeback")
            yield Timeout(2_000.0)
            return None

        sim.run_process(driver())
        return agents, oid, bool(finished)

    @pytest.mark.hangs_until_item_9
    def test_holder_crash_after_release_sent_still_lands_at_home(self):
        # h1 crashes at t=25us: after the release left for the home,
        # before the ack could return.  The home must be durably updated.
        agents, oid, finished = self._race(_seed(41), "h1", 25.0, 400.0)
        assert agents["h0"].authoritative_data(oid)[:5] == b"DIRTY"
        assert not finished  # the ack died at the crashed holder

    @pytest.mark.hangs_until_item_9
    def test_home_crash_window_drops_the_release(self):
        # h0 (the home) is down when the release arrives: the writeback
        # is lost and the home keeps its pre-writeback bytes.
        agents, oid, finished = self._race(_seed(42), "h0", 25.0, 100_000.0)
        assert agents["h0"].authoritative_data(oid)[:5] == b"00000"
        assert not finished

    def test_no_crash_baseline_writeback_lands(self):
        # Sanity for the race geometry: without a fault the same script
        # finishes and updates the home.
        sim, net, agents, oid = self._cluster(_seed(43))
        finished = []

        def writeback():
            yield from agents["h1"].writeback(oid)
            finished.append(True)
            return None

        def driver():
            yield from agents["h1"].write(oid, 0, b"DIRTY")
            sim.spawn(writeback(), name="writeback")
            yield Timeout(2_000.0)
            return None

        sim.run_process(driver())
        assert agents["h0"].authoritative_data(oid)[:5] == b"DIRTY"
        assert finished
