"""Unit tests for the discrete-event kernel."""

import cProfile
import itertools
import os
import pstats

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim import (
    AllOf,
    SimError,
    Simulator,
    Timeout,
    loop,
)


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_callback_runs_at_scheduled_time(self, sim):
        seen = []
        sim.schedule(10.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [10.0]

    def test_callbacks_run_in_time_order(self, sim):
        seen = []
        sim.schedule(30.0, seen.append, "c")
        sim.schedule(10.0, seen.append, "a")
        sim.schedule(20.0, seen.append, "b")
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_same_time_callbacks_run_in_schedule_order(self, sim):
        seen = []
        for tag in ("first", "second", "third"):
            sim.schedule(5.0, seen.append, tag)
        sim.run()
        assert seen == ["first", "second", "third"]

    def test_cancelled_event_does_not_fire(self, sim):
        seen = []
        handle = sim.schedule(5.0, seen.append, "x")
        sim.cancel(handle)
        sim.run()
        assert seen == []

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until_stops_the_clock(self, sim):
        seen = []
        sim.schedule(100.0, seen.append, "late")
        final = sim.run(until=50.0)
        assert final == 50.0
        assert seen == []

    def test_schedule_at_absolute_time(self, sim):
        seen = []
        sim.schedule(5.0, lambda: sim.schedule_at(20.0, seen.append, sim.now))
        sim.run()
        assert seen == [5.0]
        assert sim.now == 20.0

    def test_schedule_at_fires_on_the_float_asked_for(self, sim):
        now, t = 1.1, 7.3
        assert now + (t - now) != t  # a relative round trip lands one ulp off
        seen = []
        sim.schedule(now, lambda: sim.schedule_at(t, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [t]

    def test_schedule_at_rejects_the_past_naming_the_time(self, sim):
        sim.run(until=10.0)
        with pytest.raises(SimError, match=r"time=4\.0, now=10\.0"):
            sim.schedule_at(4.0, lambda: None)

    def test_reschedule_keeps_the_rank_of_the_event_it_replaces(self, sim):
        seen = []
        first = sim.schedule(9.0, seen.append, "never")
        sim.schedule(5.0, seen.append, "scheduled second")
        sim.reschedule(first, 5.0, seen.append, "scheduled first")
        with pytest.raises(SimError, match="time=-1.0"):
            sim.reschedule(first, -1.0, seen.append, "past")
        sim.run()
        assert seen == ["scheduled first", "scheduled second"]
        assert first[2] is None  # cancelled

    def test_pending_lists_the_live_events_of_one_callback(self, sim):
        mine, other = [].append, [].append
        a = sim.schedule(1.0, mine, "a")
        sim.schedule(2.0, other, "x")
        sim.cancel(sim.schedule(3.0, mine, "b"))
        assert sim.pending(mine) == [a]
        sim.run()
        assert sim.pending(mine) == []

    def test_events_dispatched_accumulates_across_runs(self, sim):
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, lambda: None)
        sim.cancel(sim.schedule(2.5, lambda: None))
        sim.run(until=2.0)
        assert sim.events_dispatched == 2
        sim.run()
        assert sim.events_dispatched == 3

    def test_pending_event_count_excludes_cancelled(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(handle)
        assert sim.pending_event_count == 1

    def test_determinism_across_runs(self):
        def trace_run():
            simulator = Simulator(seed=7)
            seen = []

            def proc():
                for _ in range(5):
                    yield Timeout(simulator.rng.uniform(0, 10))
                    seen.append(simulator.now)
                return None

            simulator.run_process(proc())
            return seen

        assert trace_run() == trace_run()


class TestProcesses:
    def test_process_returns_value(self, sim):
        def proc():
            yield Timeout(1.0)
            return 42

        assert sim.run_process(proc()) == 42

    def test_timeout_advances_clock(self, sim):
        def proc():
            yield Timeout(3.5)
            return sim.now

        assert sim.run_process(proc()) == pytest.approx(3.5)

    def test_timeout_carries_value(self, sim):
        def proc():
            value = yield Timeout(1.0, value="payload")
            return value

        assert sim.run_process(proc()) == "payload"

    def test_nested_process_wait(self, sim):
        def child():
            yield Timeout(5.0)
            return "child-result"

        def parent():
            result = yield sim.spawn(child())
            return result, sim.now

        result, now = sim.run_process(parent())
        assert result == "child-result"
        assert now == pytest.approx(5.0)

    def test_waiting_on_finished_process(self, sim):
        def child():
            yield Timeout(1.0)
            return "done"

        def parent():
            proc = sim.spawn(child())
            yield Timeout(10.0)
            result = yield proc  # already finished
            return result

        assert sim.run_process(parent()) == "done"

    def test_child_exception_propagates_to_waiter(self, sim):
        def child():
            yield Timeout(1.0)
            raise ValueError("boom")

        def parent():
            try:
                yield sim.spawn(child())
            except ValueError as exc:
                return str(exc)

        assert sim.run_process(parent()) == "boom"

    def test_unwaited_crash_surfaces_in_run(self, sim):
        def child():
            yield Timeout(1.0)
            raise RuntimeError("lost")

        sim.spawn(child())
        with pytest.raises(SimError):
            sim.run()

    def test_yield_from_composition(self, sim):
        def inner():
            yield Timeout(2.0)
            return 10

        def outer():
            a = yield from inner()
            b = yield from inner()
            return a + b

        assert sim.run_process(outer()) == 20
        assert sim.now == pytest.approx(4.0)

    def test_yielding_non_waitable_fails(self, sim):
        def proc():
            yield "not a waitable"

        with pytest.raises(SimError):
            sim.run_process(proc())


class TestSignals:
    def test_trigger_wakes_all_waiters(self, sim):
        signal = sim.signal("go")
        results = []

        def waiter(tag):
            value = yield signal
            results.append((tag, value, sim.now))
            return None

        sim.spawn(waiter("a"))
        sim.spawn(waiter("b"))

        def firer():
            yield Timeout(7.0)
            woken = signal.trigger("news")
            assert woken == 2
            return None

        sim.spawn(firer())
        sim.run()
        assert sorted(results) == [("a", "news", 7.0), ("b", "news", 7.0)]

    def test_trigger_with_no_waiters_returns_zero(self, sim):
        signal = sim.signal()
        assert signal.trigger() == 0

    def test_signal_fail_raises_in_waiters(self, sim):
        signal = sim.signal()

        def waiter():
            try:
                yield signal
            except RuntimeError as exc:
                return str(exc)

        proc = sim.spawn(waiter())
        sim.schedule(1.0, signal.fail, RuntimeError("cancelled"))
        sim.run()
        assert proc.result == "cancelled"

    def test_retrigger_only_wakes_new_waiters(self, sim):
        signal = sim.signal()
        wakes = []

        def waiter():
            value = yield signal
            wakes.append(value)
            return None

        sim.spawn(waiter())
        sim.schedule(1.0, signal.trigger, "first")
        sim.schedule(2.0, signal.trigger, "second")
        sim.run()
        assert wakes == ["first"]


class TestCombinators:
    def test_allof_collects_in_order(self, sim):
        def worker(delay, tag):
            yield Timeout(delay)
            return tag

        def parent():
            results = yield AllOf([
                sim.spawn(worker(30, "slow")),
                sim.spawn(worker(10, "fast")),
            ])
            return results, sim.now

        results, now = sim.run_process(parent())
        assert results == ["slow", "fast"]
        assert now == pytest.approx(30.0)

    def test_allof_empty_completes_immediately(self, sim):
        def parent():
            results = yield AllOf([])
            return results

        assert sim.run_process(parent()) == []

    def test_allof_mixed_timeouts_and_processes(self, sim):
        def worker():
            yield Timeout(2.0)
            return "proc"

        def parent():
            results = yield AllOf([Timeout(5.0, "timer"), sim.spawn(worker())])
            return results

        assert sim.run_process(parent()) == ["timer", "proc"]


# ---------------------------------------------------------------------------
# the event is its heap entry: cost and bookkeeping
# ---------------------------------------------------------------------------

EVENTS = 1_000


def test_an_event_costs_no_kernel_call_beyond_scheduling_it():
    """1,000 events scheduled and dispatched under ``cProfile``: the
    kernel runs nothing of its own per event but the call that
    scheduled it (no handle object, no comparison method)."""
    sim = Simulator(seed=1)
    seen = []
    profiler = cProfile.Profile()
    profiler.enable()
    for i in range(EVENTS // 2):
        sim.schedule(float(i % 7), seen.append, i)
        sim.schedule_at(float(i % 5), seen.append, -i)
    sim.run()
    profiler.disable()
    assert len(seen) == EVENTS
    here = os.path.abspath(loop.__file__)
    called = {name: row[1] for (filename, _, name), row
              in pstats.Stats(profiler).stats.items()
              if os.path.abspath(filename) == here}
    assert called == {"schedule": EVENTS // 2, "schedule_at": EVENTS // 2, "run": 1}


def test_a_burst_of_cancels_compacts_the_heap(sim):
    handles = [sim.schedule(float(i), lambda: None) for i in range(12)]
    for handle in handles[:8]:
        sim.cancel(handle)
    # 8 cancelled outnumber the 4 live, but 8 is the floor: no compaction.
    assert (len(sim._heap), sim.pending_event_count, sim._cancelled_count) == (12, 4, 8)
    sim.cancel(handles[8])
    # The 9th cancel passes the floor: only the live entries are left.
    assert len(sim._heap) == 3 == sim.pending_event_count
    assert sim._cancelled_count == 0
    sim.cancel(handles[0])  # idempotent: counted once, not again
    sim.cancel(handles[9])
    assert (len(sim._heap), sim.pending_event_count, sim._cancelled_count) == (3, 2, 1)
    sim.run()
    assert sim.events_dispatched == 2 and sim._cancelled_count == 0


# One op of the model test.  Times are small integers so that ties (and
# a reschedule onto its own instant) are common.
_ops = st.one_of(
    st.tuples(st.just("schedule"), st.integers(0, 12), st.integers(0, 2)),
    st.tuples(st.just("schedule_at"), st.integers(0, 12), st.integers(0, 2)),
    st.tuples(st.just("reschedule"), st.integers(0, 10**6),
              st.one_of(st.none(), st.integers(0, 12)), st.integers(0, 2)),
    st.tuples(st.just("cancel"), st.integers(0, 10**6)),
    st.tuples(st.just("burst"), st.integers(100, 200), st.integers(3, 10)),
    st.tuples(st.just("step"), st.integers(0, 6)),
)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_ops, max_size=40))
# Moved away from an instant and back while the cancelled original
# still sits in the heap with the same (time, rank).
@example(ops=[("schedule", 1, 0), ("reschedule", 0, 0, 0), ("reschedule", 0, 1, 0)])
def test_dispatch_matches_a_sorted_model_under_any_mix_of_calls(ops):
    """Random ``schedule``, ``schedule_at``, ``reschedule`` and
    ``cancel`` calls, with bursts of more than 8 cancels that compact
    the heap.  Events run in ``(time, rank)`` order, a rescheduled event
    keeping its rank, and ``pending_event_count`` and ``pending(cb)``
    agree with the model after every call."""
    sim = Simulator(seed=1)
    log = []
    callbacks = [lambda tag, k=k: log.append((k, tag, sim.now)) for k in range(3)]
    model = {}     # tag -> (time, rank, k) of every live event
    handles = {}   # tag -> entry, for every tag ever scheduled
    tags, ranks = itertools.count(), itertools.count()

    def add(time, k, via_at):
        tag = next(tags)
        handles[tag] = (sim.schedule_at(time, callbacks[k], tag) if via_at
                        else sim.schedule(time - sim.now, callbacks[k], tag))
        model[tag] = (time, next(ranks), k)
        return tag

    def run(until=None):
        due = sorted((time, rank, k, tag) for tag, (time, rank, k) in model.items()
                     if until is None or time <= until)
        del log[:]
        sim.run(until=until)
        assert log == [(k, tag, time) for time, _, k, tag in due]
        for *_, tag in due:
            del model[tag]

    for op in ops:
        kind = op[0]
        if kind in ("schedule", "schedule_at"):
            add(sim.now + op[1], op[2], kind == "schedule_at")
        elif kind == "reschedule" and model:
            old = sorted(model)[op[1] % len(model)]
            time, rank, _ = model.pop(old)
            if op[2] is not None:
                time = sim.now + op[2]
            tag = next(tags)
            handles[tag] = sim.reschedule(handles.pop(old), time, callbacks[op[3]], tag)
            model[tag] = (time, rank, op[3])
        elif kind == "cancel" and handles:
            tag = sorted(handles)[op[1] % len(handles)]
            sim.cancel(handles[tag])  # live, fired or already cancelled
            model.pop(tag, None)
        elif kind == "burst":
            burst = [add(sim.now + (i * 37) % 50, i % 3, i % 2 == 0)
                     for i in range(op[1])]
            for i, tag in enumerate(burst):
                if i % op[2]:
                    sim.cancel(handles[tag])
                    del model[tag]
        elif kind == "step":
            run(until=sim.now + op[1])
        assert sim.pending_event_count == len(model)
        for k, callback in enumerate(callbacks):
            assert sorted(entry[3][0] for entry in sim.pending(callback)) == sorted(
                tag for tag, (_, _, mine) in model.items() if mine == k)
    run()
    assert sim.pending_event_count == 0
