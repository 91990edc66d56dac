"""Second wave of property-based tests: the subscription compiler
against brute-force evaluation and placement-engine invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
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
from repro.net.pipeline import SramModel

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
)


def _distance(a, b):
    return 0 if a == b else 2


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
)

tied_profiles = st.lists(
    st.builds(
        NodeProfile, name=_hosts,
        speed=st.sampled_from([1.0, 1.0, 2.0]),
        active_jobs=st.sampled_from([0, 0, 1, 2]),
        capacity_bytes=st.sampled_from([1 << 16, 1 << 24, 1 << 40])),
    min_size=2, max_size=5, unique_by=lambda p: p.name)

# Hops between distinct hosts, one per ordered pair: uniform (so that
# candidates tie) or drawn pair by pair.  The pool tier undercuts a
# network fetch from three hops up.
hop_tables = st.one_of(
    st.integers(1, 4).map(lambda h: [h] * 25),
    st.lists(st.integers(1, 4), min_size=25, max_size=25))
# The hosts attached to a pool and the object numbers mapped into it.
pool_maps = st.one_of(st.none(), st.tuples(
    st.sets(_hosts), st.sets(st.integers(1, 5))))


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
        def distance(a, b):
            return 0 if a == b else hops[_HOSTS.index(a) * 5 + _HOSTS.index(b)]

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
