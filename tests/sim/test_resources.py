"""Unit tests for resource/store primitives."""

import pytest

from repro.sim import Environment, FifoResource, PriorityResource, SimulationError, Store


def test_resource_grants_immediately_when_free():
    env = Environment()
    res = FifoResource(env, capacity=1)
    granted = []

    def proc(env):
        req = res.request()
        yield req
        granted.append(env.now)
        res.release(req)

    env.process(proc(env))
    env.run()
    assert granted == [0.0]


def test_resource_serializes_contenders_fifo():
    env = Environment()
    res = FifoResource(env, capacity=1)
    order = []

    def proc(env, name, hold):
        req = res.request()
        yield req
        order.append((name, env.now))
        yield env.timeout(hold)
        res.release(req)

    env.process(proc(env, "a", 2))
    env.process(proc(env, "b", 3))
    env.process(proc(env, "c", 1))
    env.run()
    assert order == [("a", 0), ("b", 2), ("c", 5)]


def test_resource_capacity_two_admits_two():
    env = Environment()
    res = FifoResource(env, capacity=2)
    order = []

    def proc(env, name):
        req = res.request()
        yield req
        order.append((name, env.now))
        yield env.timeout(10)
        res.release(req)

    for name in "abc":
        env.process(proc(env, name))
    env.run()
    assert order == [("a", 0), ("b", 0), ("c", 10)]


def test_resource_counts():
    env = Environment()
    res = FifoResource(env, capacity=1)

    def holder(env):
        req = res.request()
        yield req
        assert res.count == 1
        yield env.timeout(5)
        res.release(req)

    def waiter(env):
        yield env.timeout(1)
        req = res.request()
        assert res.queue_length == 1
        yield req
        res.release(req)

    env.process(holder(env))
    env.process(waiter(env))
    env.run()
    assert res.count == 0
    assert res.queue_length == 0


def test_release_unheld_raises():
    env = Environment()
    res = FifoResource(env)
    other = FifoResource(env)
    req = other.request()
    with pytest.raises(SimulationError):
        res.release(req)


def test_release_queued_request_cancels_it():
    env = Environment()
    res = FifoResource(env, capacity=1)
    held = res.request()          # grabs the slot
    queued = res.request()        # waits
    assert res.queue_length == 1
    res.release(queued)           # abandon before grant
    assert res.queue_length == 0
    res.release(held)
    assert res.count == 0


def test_try_acquire_takes_a_free_slot_without_an_event():
    env = Environment()
    res = FifoResource(env, capacity=2)
    first, second = res.try_acquire(), res.try_acquire()
    assert first is not None and second is not None and first is not second
    assert res.count == 2 and env.events_scheduled == 0
    assert res.try_acquire() is None          # slots full
    assert res.count == 2 and res.queue_length == 0
    res.release(first)                        # release accepts the token
    assert res.count == 1
    with pytest.raises(SimulationError):
        res.release(first)


@pytest.mark.parametrize("kind", [FifoResource, PriorityResource])
def test_try_acquire_never_jumps_a_waiter(kind):
    env = Environment()
    res = kind(env, capacity=1)
    token = res.try_acquire()
    waiter = res.request()
    assert res.queue_length == 1 and res.try_acquire() is None
    res.release(token)                        # the slot goes to the waiter
    assert waiter.triggered and res.try_acquire() is None
    res.release(waiter)
    assert res.try_acquire() is not None


def test_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        FifoResource(env, capacity=0)


def test_request_context_manager_releases():
    env = Environment()
    res = FifoResource(env, capacity=1)
    order = []

    def proc(env, name):
        with (yield res.request()):
            order.append((name, env.now))
            yield env.timeout(1)

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.run()
    assert order == [("a", 0), ("b", 1)]


def test_priority_resource_orders_by_priority():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def holder(env):
        req = res.request(priority=0)
        yield req
        yield env.timeout(5)
        res.release(req)

    def contender(env, name, prio):
        yield env.timeout(1)
        req = res.request(priority=prio)
        yield req
        order.append(name)
        res.release(req)

    env.process(holder(env))
    env.process(contender(env, "low", 5))
    env.process(contender(env, "high", 1))
    env.process(contender(env, "mid", 3))
    env.run()
    assert order == ["high", "mid", "low"]


def test_priority_ties_served_in_request_order():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def holder(env):
        req = res.request()
        yield req
        yield env.timeout(2)
        res.release(req)

    def contender(env, name):
        yield env.timeout(1)
        req = res.request(priority=7)
        yield req
        order.append(name)
        res.release(req)

    env.process(holder(env))
    for name in "xyz":
        env.process(contender(env, name))
    env.run()
    assert order == ["x", "y", "z"]


def test_store_put_then_get():
    env = Environment()
    store = Store(env)
    store.put("m1")
    store.put("m2")
    got = []

    def proc(env):
        got.append((yield store.get()))
        got.append((yield store.get()))

    env.process(proc(env))
    env.run()
    assert got == ["m1", "m2"]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        item = yield store.get()
        got.append((item, env.now))

    def producer(env):
        yield env.timeout(4)
        store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [("late", 4)]


def test_store_multiple_getters_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env, name):
        item = yield store.get()
        got.append((name, item))

    def producer(env):
        yield env.timeout(1)
        store.put(1)
        store.put(2)

    env.process(consumer(env, "first"))
    env.process(consumer(env, "second"))
    env.process(producer(env))
    env.run()
    assert got == [("first", 1), ("second", 2)]


def test_store_cancel_get():
    env = Environment()
    store = Store(env)
    ev = store.get()
    store.cancel(ev)
    store.put("item")
    assert store.peek_all() == ["item"]
    assert not ev.triggered


def test_store_len():
    env = Environment()
    store = Store(env)
    assert len(store) == 0
    store.put(1)
    assert len(store) == 1
