"""Second wave of property-based tests: the subscription compiler
against brute-force evaluation and placement-engine invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    FunctionRegistry,
    GlobalRef,
    NodeProfile,
    ObjectID,
    PlacementEngine,
    PlacementError,
    PlacementItem,
    PlacementRequest,
)
from repro.pubsub import (
    And,
    Eq,
    FormatField,
    InRange,
    Or,
    PacketFormat,
    compile_subscriptions,
)
from repro.net import Network
from repro.net.pipeline import SramModel
from repro.runtime import GlobalSpaceRuntime
from repro.sim import Simulator

from .paths import hops_apart, uniform

FMT = PacketFormat("prop", [
    FormatField("a", 8),
    FormatField("b", 8),
    FormatField("c", 8),
])

# ---------------------------------------------------------------------------
# Predicate strategy: random trees over fields a/b/c with small domains.
# ---------------------------------------------------------------------------

_atoms = st.one_of(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 7)).map(
        lambda pair: Eq(*pair)),
    st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 5),
              st.integers(0, 7)).map(
        lambda triple: InRange(triple[0], min(triple[1], triple[2]),
                               max(triple[1], triple[2]))),
)

predicates = st.recursive(
    _atoms,
    lambda children: st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda cs: And(*cs)),
        st.lists(children, min_size=2, max_size=3).map(lambda cs: Or(*cs)),
    ),
    max_leaves=6,
)

publications = st.fixed_dictionaries({
    "a": st.integers(0, 9),
    "b": st.integers(0, 9),
    "c": st.integers(0, 9),
})


class TestCompilerAgainstBruteForce:
    @given(st.lists(predicates, min_size=1, max_size=4),
           st.lists(publications, min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_classify_matches_direct_evaluation(self, preds, pubs):
        """The compiled rule set (exact rules + residuals) must classify
        every publication exactly as direct predicate evaluation does."""
        subscriptions = list(enumerate(preds))
        big_sram = SramModel(total_words=10_000_000)
        ruleset = compile_subscriptions(FMT, subscriptions, sram=big_sram)
        for pub in pubs:
            expected = {sid for sid, pred in subscriptions if pred.matches(pub)}
            assert ruleset.classify(pub) == expected

    @given(predicates)
    @settings(max_examples=100, deadline=None)
    def test_dnf_preserves_semantics(self, pred):
        """A predicate and its DNF agree on every publication in a
        small exhaustive cube."""
        terms = pred.dnf()

        def dnf_matches(pub):
            return any(all(atom.matches(pub) for atom in term)
                       for term in terms)

        for a in range(0, 9, 2):
            for b in range(0, 9, 2):
                for c in range(0, 9, 2):
                    pub = {"a": a, "b": b, "c": c}
                    assert pred.matches(pub) == dnf_matches(pub)


def _ref(n):
    return GlobalRef(ObjectID(n), 0, "read")


node_names = st.sampled_from(["n0", "n1", "n2", "n3"])

profiles = st.lists(
    st.builds(
        NodeProfile,
        name=node_names,
        speed=st.floats(0.1, 4.0),
        active_jobs=st.integers(0, 10),
        capacity_bytes=st.sampled_from([1 << 16, 1 << 24, 1 << 40]),
    ),
    min_size=1, max_size=4,
    unique_by=lambda p: p.name,
)

requests = st.builds(
    PlacementRequest,
    code=st.builds(PlacementItem, ref=st.just(_ref(1)),
                   size_bytes=st.integers(0, 10_000),
                   locations=st.sets(node_names, min_size=1).map(tuple)),
    inputs=st.lists(
        st.builds(PlacementItem, ref=st.just(_ref(2)),
                  size_bytes=st.integers(0, 1_000_000),
                  locations=st.sets(node_names, min_size=1).map(tuple)),
        max_size=2).map(tuple),
    invoker=node_names,
    result_bytes=st.integers(0, 10_000),
    flops=st.floats(0, 1e8),
    request_frame_bytes=st.integers(0, 200),
    touch_inputs=st.booleans(),
)


_distance = hops_apart(2)


class TestPlacementProperties:
    @given(requests, profiles)
    @settings(max_examples=150, deadline=None)
    def test_decision_is_argmin_of_considered(self, request, nodes):
        engine = PlacementEngine()
        try:
            decision = engine.decide(request, nodes, _distance)
        except Exception:
            return  # infeasible combinations are allowed to raise
        assert decision.total_us == min(decision.considered.values())
        assert decision.considered[decision.node] == decision.total_us

    @given(requests, profiles)
    @settings(max_examples=150, deadline=None)
    def test_chosen_node_is_a_real_candidate(self, request, nodes):
        engine = PlacementEngine()
        try:
            decision = engine.decide(request, nodes, _distance)
        except Exception:
            return
        chosen = {n.name: n for n in nodes}[decision.node]
        assert decision.bytes_moved <= chosen.capacity_bytes

    @given(requests, profiles)
    @settings(max_examples=150, deadline=None)
    def test_movements_never_source_from_destination(self, request, nodes):
        engine = PlacementEngine()
        try:
            decision = engine.decide(request, nodes, _distance)
        except Exception:
            return
        for movement in decision.movements:
            assert movement.source != movement.destination
            assert movement.destination == decision.node

    @given(requests, profiles)
    @settings(max_examples=100, deadline=None)
    def test_adding_load_never_improves_a_node(self, request, nodes):
        engine = PlacementEngine()
        engine.QUEUE_PENALTY_US = 100.0
        try:
            baseline = engine.decide(request, nodes, _distance)
        except Exception:
            return
        loaded = [
            NodeProfile(n.name, n.speed, n.active_jobs + 5, n.capacity_bytes)
            for n in nodes
        ]
        heavier = engine.decide(request, loaded, _distance)
        assert heavier.total_us >= baseline.total_us


# ---------------------------------------------------------------------------
# decide() scores with scalars and builds only the winner; building every
# candidate in full, as it did before, must give the same answer.
# Values come from small sets so that totals and replica distances tie.
# ---------------------------------------------------------------------------

_HOSTS = ["n0", "n1", "n2", "n3", "n4"]
_hosts = st.sampled_from(_HOSTS)


def _items(number):
    return st.builds(
        PlacementItem, ref=st.just(_ref(number)),
        size_bytes=st.sampled_from([0, 64, 4096, 1 << 16, 1 << 20]),
        locations=st.lists(_hosts, min_size=1, max_size=3, unique=True).map(tuple))


tied_requests = st.builds(
    PlacementRequest,
    code=_items(1),
    inputs=st.tuples(*[_items(n) for n in (2, 3, 4, 5)]).flatmap(lambda four: st.integers(1, 4).map(lambda n: four[:n])),
    invoker=_hosts,
    result_bytes=st.sampled_from([0, 256, 1 << 16]),
    flops=st.sampled_from([0.0, 1e5, 1e8]),
    request_frame_bytes=st.sampled_from([0, 130]),
    touch_inputs=st.booleans(),
)

tied_profiles = st.lists(
    st.builds(
        NodeProfile, name=_hosts,
        speed=st.sampled_from([1.0, 1.0, 2.0]),
        active_jobs=st.sampled_from([0, 0, 1, 2]),
        capacity_bytes=st.sampled_from([1 << 16, 1 << 24, 1 << 40])),
    min_size=2, max_size=5, unique_by=lambda p: p.name)

# Hops between distinct hosts, one per ordered pair: uniform (so that
# candidates tie) or drawn pair by pair; each hop a 2 us, 100 Gbps link.
# The pool tier undercuts a network fetch from three hops up.
hop_tables = st.one_of(
    st.integers(1, 4).map(lambda h: [h] * 25),
    st.lists(st.integers(1, 4), min_size=25, max_size=25))
# The hosts attached to a pool and the object numbers mapped into it.
pool_maps = st.one_of(st.none(), st.tuples(
    st.sets(_hosts), st.sets(st.integers(1, 5))))


def _table_distance(hops):
    """Paths between ``_HOSTS`` of ``hops[from * 5 + to]`` links each."""
    def distance(a, b):
        return uniform(0 if a == b else hops[_HOSTS.index(a) * 5
                                             + _HOSTS.index(b)])
    return distance


def _decide_building_every_candidate(engine, request, candidates, distance):
    """``PlacementEngine.decide`` as it was: a full ``_evaluate`` per
    candidate, the cheapest kept."""
    best, considered = None, {}
    for node in candidates:
        decision = engine._evaluate(request, node, distance)
        if decision is None:
            continue
        considered[node.name] = decision.total_us
        if best is None or decision.total_us < best.total_us:
            best = decision
    if best is None:
        raise PlacementError("no feasible execution node")
    best.considered = considered
    engine.tracer.count("placement.decisions")
    engine.tracer.sample("placement.est_total_us", best.total_us)
    for tier, n in best.tiers.items():
        engine.tracer.count(f"placement.tier.{tier}", n)
    return best


class TestScoreThenBuild:
    @given(tied_requests, tied_profiles, hop_tables, pool_maps, st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_decide_matches_building_every_candidate(
            self, request, nodes, hops, pooled, blind):
        distance = _table_distance(hops)
        oracle = None if pooled is None else (
            lambda node, oid: "rack0" if node in pooled[0]
            and oid.value in pooled[1] else None)
        fast, full = (PlacementEngine(transfer_blind=blind) for _ in range(2))
        fast.pool_oracle = full.pool_oracle = oracle
        try:
            expected = _decide_building_every_candidate(
                full, request, nodes, distance)
        except PlacementError:
            with pytest.raises(PlacementError):
                fast.decide(request, nodes, distance)
        else:
            # Dataclass equality: node, movements, tiers, the four phase
            # estimates, total_us and the considered map, float for float.
            assert fast.decide(request, nodes, distance) == expected
        assert fast.tracer.counters.as_dict() == full.tracer.counters.as_dict()
        assert (fast.tracer.series.samples("placement.est_total_us")
                == full.tracer.series.samples("placement.est_total_us"))


# ---------------------------------------------------------------------------
# decide() memoizes every term but the queue, by request shape and
# candidate.  A long-lived engine must answer every decision of a
# sequence exactly as a fresh engine does.
# ---------------------------------------------------------------------------

def _pool_oracle(pooled):
    hosts, numbers = pooled
    return (lambda node, oid: "rack0" if node in hosts and oid.value in numbers
            else None)


# A sequence's steps pick one of two requests (objects, sizes, invoker,
# flops) and one of at most three layouts of where those objects live,
# so shapes repeat.  Each step also draws the candidates (two speeds,
# three queue depths, two capacities) and which of two distance
# functions it uses; whether that function's hop table moves first (a
# link latency change); and whether a pool is attached (or re-mapped)
# first.
_location_sets = st.sampled_from([("n0",), ("n1",), ("n0", "n2"),
                                  ("n1", "n3", "n4")])
_layouts = st.lists(st.lists(_location_sets, min_size=5, max_size=5),
                    min_size=1, max_size=3)
_step_profiles = st.lists(
    st.builds(
        NodeProfile, name=_hosts, speed=st.sampled_from([1.0, 2.0]),
        active_jobs=st.sampled_from([0, 1, 2]),
        capacity_bytes=st.sampled_from([1 << 16, 1 << 40])),
    min_size=1, max_size=5, unique_by=lambda p: p.name)
steps = st.tuples(st.integers(0, 1), st.integers(0, 2), _step_profiles,
                  st.sampled_from([0, 1]),
                  st.one_of(st.none(), st.none(), st.none(), hop_tables),
                  st.one_of(st.none(), st.none(), st.tuples(
                      st.sets(_hosts, min_size=1),
                      st.sets(st.integers(1, 5), min_size=1))))


def _relocated(request, locations):
    """``request`` with its items' locations replaced, in item order."""
    items = [PlacementItem(item.ref, item.size_bytes, where) for item, where
             in zip((request.code,) + request.inputs, locations)]
    return request._replace(code=items[0], inputs=tuple(items[1:]))


class TestMemoNeverChangesADecision:
    @given(st.lists(tied_requests, min_size=2, max_size=2), _layouts,
           st.lists(steps, min_size=2, max_size=12), hop_tables, hop_tables,
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_long_lived_engine_decides_as_a_fresh_one(
            self, bases, layouts, sequence, hops_a, hops_b, blind):
        engine = PlacementEngine(transfer_blind=blind)
        distances = [_table_distance(hops_a), _table_distance(hops_b)]
        for base, layout, nodes, which, new_hops, pooled in sequence:
            request = _relocated(bases[base],
                                 layouts[layout % len(layouts)])
            if new_hops is not None:
                # Distances changed: the caller passes a new function.
                distances[which] = _table_distance(new_hops)
            if pooled is not None:
                engine.pool_oracle = _pool_oracle(pooled)
            fresh = PlacementEngine(transfer_blind=blind)
            fresh.pool_oracle = engine.pool_oracle
            try:
                expected = fresh.decide(request, nodes, distances[which])
            except PlacementError:
                with pytest.raises(PlacementError):
                    engine.decide(request, nodes, distances[which])
                continue
            decision = engine.decide(request, nodes, distances[which])
            # Dataclass equality: node, movements, tiers, the phases,
            # total_us and considered; then every float bit for bit.
            assert decision == expected
            assert decision.total_us.hex() == expected.total_us.hex()
            assert ({name: total.hex() for name, total
                     in decision.considered.items()}
                    == {name: total.hex() for name, total
                        in expected.considered.items()})

    @pytest.mark.parametrize("change", [
        "invoker", "flops", "result_bytes", "size", "locations", "speed",
        "capacity", "pool", "distance"])
    def test_each_part_of_the_key_separates_entries(self, change):
        """One decision fills the memo; the same request and candidates
        with one part of the key changed must be priced afresh."""
        three_hops = hops_apart(3)

        def request(invoker="n0", flops=1e6, result_bytes=256, size=4096,
                    where=("n1",)):
            return PlacementRequest(
                code=PlacementItem(_ref(1), 64, ("n0",)),
                inputs=(PlacementItem(_ref(2), size, where),),
                invoker=invoker, result_bytes=result_bytes, flops=flops)

        nodes = [NodeProfile(name) for name in ("n0", "n1", "n2")]
        engine = PlacementEngine()
        before = engine.decide(request(), nodes, three_hops)
        distance = three_hops
        changed = request()
        if change == "invoker":
            changed = request(invoker="n2")
        elif change == "flops":
            changed = request(flops=1e8)
        elif change == "result_bytes":
            changed = request(result_bytes=1 << 16)
        elif change == "size":
            changed = request(size=1 << 20)
        elif change == "locations":
            changed = request(where=("n2",))
        elif change == "speed":
            nodes = [NodeProfile("n0"), NodeProfile("n1", speed=2.0),
                     NodeProfile("n2")]
        elif change == "capacity":
            nodes = [NodeProfile("n0", capacity_bytes=1000),
                     NodeProfile("n1"), NodeProfile("n2")]
        elif change == "pool":
            engine.pool_oracle = lambda node, oid: "rack0"
        else:
            distance = hops_apart(1)
        fresh = PlacementEngine()
        fresh.pool_oracle = engine.pool_oracle
        expected = fresh.decide(changed, nodes, distance)
        assert expected.considered != before.considered
        assert engine.decide(changed, nodes, distance) == expected

    def test_a_full_memo_starts_over_and_decides_as_a_fresh_engine(self):
        """With room for three shapes, the fourth starts the memo over;
        every decision, hits and the ones after a restart included, is
        the fresh engine's, bit for bit."""
        engine = PlacementEngine()
        engine.MEMO_SHAPES = 3
        nodes = [NodeProfile("n0"), NodeProfile("n1", speed=2.0),
                 NodeProfile("n2", active_jobs=1)]

        def request(size):
            return PlacementRequest(
                code=PlacementItem(_ref(1), 64, ("n0",)),
                inputs=(PlacementItem(_ref(2), size << 12, ("n1",)),),
                invoker="n0")

        held = []
        for size in (1, 2, 1, 3, 4, 4, 5, 1):
            decision = engine.decide(request(size), nodes, _distance)
            expected = PlacementEngine().decide(request(size), nodes,
                                                _distance)
            assert decision == expected
            assert ({name: total.hex() for name, total
                     in decision.considered.items()}
                    == {name: total.hex() for name, total
                        in expected.considered.items()})
            held.append(len(engine._memo))
        assert held == [1, 2, 2, 3, 1, 1, 2, 3]

    def test_a_decision_after_a_hit_names_its_own_objects(self):
        """Two requests of one shape but different objects: the second is
        served from the memo and its movements name its own refs."""
        engine = PlacementEngine()
        nodes = [NodeProfile("n0"), NodeProfile("n1", speed=4.0)]

        def request(first):
            return PlacementRequest(
                code=PlacementItem(_ref(first), 512, ("n0",)),
                inputs=(PlacementItem(_ref(first + 1), 4096, ("n0",)),),
                invoker="n0")

        one = engine.decide(request(10), nodes, _distance)
        two = engine.decide(request(20), nodes, _distance)
        assert two.node == one.node == "n1"
        assert [m.ref for m in one.movements] == [_ref(10), _ref(11)]
        assert [m.ref for m in two.movements] == [_ref(20), _ref(21)]
        assert two == PlacementEngine().decide(request(20), nodes, _distance)


# ---------------------------------------------------------------------------
# One long-lived network and runtime against freshly built ones: after
# any sequence of new links, link latency changes and invocations, every
# path and every placement decision is what a network built afresh with
# the same links (and an engine with an empty memo) answers.
# ---------------------------------------------------------------------------

_SWITCHES = ["s0", "s1", "s2"]
_NET_HOSTS = ["h0", "h1", "h2", "h3"]
# (a, b, latency) of the links every network starts with: a line of
# switches, two hosts on s0 and one on each of the others.
_FIRST_LINKS = [("s0", "s1", 5.0), ("s1", "s2", 5.0), ("h0", "s0", 5.0),
                ("h1", "s0", 5.0), ("h2", "s1", 5.0), ("h3", "s2", 5.0)]
_latencies = st.sampled_from([0.5, 5.0, 50.0, 200.0])
network_steps = st.one_of(
    st.tuples(st.just("connect"), st.sampled_from(_NET_HOSTS + _SWITCHES),
              st.sampled_from(_SWITCHES), _latencies).filter(
                  lambda step: step[1] != step[2]),
    st.tuples(st.just("latency"), st.integers(0, 15), _latencies),
    st.tuples(st.just("invoke"), st.sampled_from(_NET_HOSTS),
              st.sampled_from(_NET_HOSTS), st.sampled_from([64, 1 << 16])))


def _network(links):
    net = Network(Simulator(seed=1))
    for name in _SWITCHES:
        net.add_switch(name)
    for name in _NET_HOSTS:
        net.add_host(name)
    for a, b, latency_us in links:
        net.connect(a, b, latency_us=latency_us)
    return net


class TestTopologyChangesReachEveryAnswer:
    @given(st.lists(network_steps, min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_long_lived_network_answers_as_a_fresh_one(self, sequence):
        links = list(_FIRST_LINKS)
        net = _network(links)
        registry = FunctionRegistry()
        registry.register("noop")(lambda ctx, args: None)
        runtime = GlobalSpaceRuntime(net, registry)
        for name in _NET_HOSTS:
            runtime.add_node(name)
        _, code_ref = runtime.create_code("h0", "noop", text_size=512)
        decided = []
        decide = runtime.placement.decide

        def recording(request, candidates, distance):
            decision = decide(request, candidates, distance)
            decided.append((request, candidates, decision))
            return decision

        runtime.placement.decide = recording
        for step in sequence:
            if step[0] == "connect":
                _, a, b, latency_us = step
                net.connect(a, b, latency_us=latency_us)
                links.append((a, b, latency_us))
            elif step[0] == "latency":
                _, index, latency_us = step
                index %= len(links)
                net.links[index].latency_us = latency_us
                links[index] = links[index][:2] + (latency_us,)
            else:
                _, invoker, holder, size = step
                blob = runtime.create_object(holder, size=size)
                net.sim.run_process(runtime.invoke(
                    invoker, code_ref,
                    data_refs={"blob": GlobalRef(blob.oid, 0, "read")}))
            fresh = _network(links)
            for a in fresh.nodes:
                for b in fresh.nodes:
                    assert net.path(a, b) == fresh.path(a, b)
            for request, candidates, decision in decided:
                expected = PlacementEngine().decide(
                    request, candidates, fresh.path)
                assert decision.node == expected.node
                assert ({name: total.hex() for name, total
                         in decision.considered.items()}
                        == {name: total.hex() for name, total
                            in expected.considered.items()})
            decided.clear()
