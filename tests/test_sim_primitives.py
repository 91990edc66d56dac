"""Unit tests for Store, Resource and Future."""

import pytest

from repro.sim import Future, Resource, SimError, Store, Timeout


class TestStore:
    def test_put_then_get_fifo(self, sim):
        store = Store(sim)

        def proc():
            store.put_nowait("a")
            store.put_nowait("b")
            first = yield store.get()
            second = yield store.get()
            return first, second

        assert sim.run_process(proc()) == ("a", "b")

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)

        def consumer():
            item = yield store.get()
            return item, sim.now

        def producer():
            yield Timeout(9.0)
            store.put_nowait("late")
            return None

        proc = sim.spawn(consumer())
        sim.spawn(producer())
        sim.run()
        assert proc.result == ("late", 9.0)

    def test_waiting_getters_served_fifo(self, sim):
        store = Store(sim)
        order = []

        def consumer(tag):
            item = yield store.get()
            order.append((tag, item))
            return None

        sim.spawn(consumer("first"))
        sim.spawn(consumer("second"))
        sim.schedule(1.0, store.put_nowait, "x")
        sim.schedule(2.0, store.put_nowait, "y")
        sim.run()
        assert order == [("first", "x"), ("second", "y")]

    def test_bounded_store_put_nowait_overflow(self, sim):
        store = Store(sim, capacity=1)
        store.put_nowait("a")
        with pytest.raises(SimError):
            store.put_nowait("b")

    def test_try_put_reports_drop(self, sim):
        store = Store(sim, capacity=1)
        assert store.try_put("a") is True
        assert store.try_put("b") is False
        assert len(store) == 1

    def test_blocking_put_waits_for_space(self, sim):
        store = Store(sim, capacity=1)

        def producer():
            yield store.put("a")
            yield store.put("b")  # blocks until the consumer drains one
            return sim.now

        def consumer():
            yield Timeout(5.0)
            item = store.get_nowait()
            return item

        producer_proc = sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert producer_proc.result == pytest.approx(5.0)

    def test_get_nowait_empty_raises(self, sim):
        store = Store(sim)
        with pytest.raises(SimError):
            store.get_nowait()

    def test_invalid_capacity(self, sim):
        with pytest.raises(SimError):
            Store(sim, capacity=0)

    def test_waiting_getters_counter(self, sim):
        store = Store(sim)

        def consumer():
            yield store.get()
            return None

        sim.spawn(consumer())
        sim.run(until=1.0)
        assert store.waiting_getters == 1


class TestResource:
    def test_capacity_limits_concurrency(self, sim):
        resource = Resource(sim, capacity=2)
        concurrency = []

        def worker():
            yield resource.acquire()
            concurrency.append(resource.in_use)
            yield Timeout(10.0)
            resource.release()
            return None

        for _ in range(5):
            sim.spawn(worker())
        sim.run()
        assert max(concurrency) <= 2

    def test_waiters_fifo(self, sim):
        resource = Resource(sim, capacity=1)
        order = []

        def worker(tag):
            yield resource.acquire()
            order.append(tag)
            yield Timeout(1.0)
            resource.release()
            return None

        for tag in ("a", "b", "c"):
            sim.spawn(worker(tag))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_release_idle_raises(self, sim):
        resource = Resource(sim, capacity=1)
        with pytest.raises(SimError):
            resource.release()

    def test_queue_length(self, sim):
        resource = Resource(sim, capacity=1)

        def holder():
            yield resource.acquire()
            yield Timeout(100.0)
            resource.release()
            return None

        def waiter():
            yield resource.acquire()
            resource.release()
            return None

        sim.spawn(holder())
        sim.spawn(waiter())
        sim.run(until=1.0)
        assert resource.queue_length == 1

    def test_invalid_capacity(self, sim):
        with pytest.raises(SimError):
            Resource(sim, capacity=0)


class TestFuture:
    def test_set_before_wait(self, sim):
        future = Future(sim)
        future.set_result("early")

        def proc():
            value = yield future
            return value

        assert sim.run_process(proc()) == "early"

    def test_set_after_wait(self, sim):
        future = Future(sim)

        def proc():
            value = yield future
            return value, sim.now

        sim.schedule(4.0, future.set_result, "late")
        assert sim.run_process(proc()) == ("late", 4.0)

    def test_exception_delivery(self, sim):
        future = Future(sim)

        def proc():
            try:
                yield future
            except KeyError as exc:
                return "caught"

        sim.schedule(1.0, future.set_exception, KeyError("k"))
        assert sim.run_process(proc()) == "caught"

    def test_double_completion_raises(self, sim):
        future = Future(sim)
        future.set_result(1)
        with pytest.raises(SimError):
            future.set_result(2)

    def test_value_accessor(self, sim):
        future = Future(sim)
        with pytest.raises(SimError):
            future.value
        future.set_result(99)
        assert future.value == 99

    def test_multiple_waiters(self, sim):
        future = Future(sim)
        results = []

        def proc(tag):
            value = yield future
            results.append((tag, value))
            return None

        sim.spawn(proc("a"))
        sim.spawn(proc("b"))
        sim.schedule(1.0, future.set_result, "shared")
        sim.run()
        assert sorted(results) == [("a", "shared"), ("b", "shared")]
