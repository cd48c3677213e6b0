"""Timeout free-list pool: recycling must be invisible to models.

A fired :class:`Timeout` nobody references is recycled through
``Environment._timeout_pool`` instead of the allocator.  These tests
pin the safety rules: held timeouts are never recycled, recycled ones
carry fresh state, and pooling changes neither schedules nor
validation.
"""

import pytest

from repro.sim import AllOf, Environment
from repro.sim.engine import _TIMEOUT_POOL_MAX


def _drain(env, n=50):
    """Fire ``n`` throwaway concurrent timeouts so the pool has
    inventory (sequential ones would recycle a single object)."""
    def one(env, i):
        yield env.timeout(0.001 * (1 + i))

    for i in range(n):
        env.process(one(env, i))
    env.run()


def test_fired_timeouts_are_recycled():
    env = Environment()
    _drain(env)
    assert env._timeout_pool
    recycled = env._timeout_pool[-1]
    t = env.timeout(1.5, value="fresh")
    assert t is recycled
    assert t.delay == 1.5
    assert t.callbacks == []
    assert not t.processed


def test_held_timeout_is_not_recycled():
    env = Environment()
    held = []

    def proc(env):
        t = env.timeout(1, value="keep")
        held.append(t)
        yield t

    env.process(proc(env))
    env.run()
    # The model still references the fired timeout: it must not be in
    # the pool, and its settled value must survive later activity.
    assert held[0] not in env._timeout_pool
    _drain(env)
    assert held[0].value == "keep"
    assert held[0].processed


def test_condition_member_timeouts_keep_their_values():
    env = Environment()

    def proc(env):
        got = yield AllOf(env, [env.timeout(1, "a"), env.timeout(2, "b")])
        return got

    p = env.process(proc(env))
    _drain(env)   # interleave plenty of recyclable traffic
    env.run()
    assert p.value == ["a", "b"]


def test_recycled_timeout_value_and_ordering():
    env = Environment()
    _drain(env)              # pool warmed; clock parked at drain end
    base = env.now
    order = []

    def proc(env, tag, delay):
        got = yield env.timeout(delay, value=tag)
        order.append((got, env.now))

    env.process(proc(env, "x", 2))
    env.process(proc(env, "y", 1))
    env.process(proc(env, "z", 1))
    env.run()
    # Same-delay recycled timeouts keep creation order (fresh seq each).
    assert order == [("y", base + 1), ("z", base + 1), ("x", base + 2)]


def test_pool_path_rejects_negative_delay():
    env = Environment()
    _drain(env)
    assert env._timeout_pool
    with pytest.raises(ValueError):
        env.timeout(-0.5)


def test_pool_is_bounded():
    env = Environment()
    _drain(env, n=_TIMEOUT_POOL_MAX + 100)
    assert len(env._timeout_pool) <= _TIMEOUT_POOL_MAX


def test_zero_delay_recycling_matches_fresh_schedule():
    def storm(env):
        log = []

        def proc(env, tag):
            for i in range(5):
                yield env.timeout(0)
                yield env.timeout(0.25)
                log.append((tag, i, env.now))

        for tag in ("a", "b", "c"):
            env.process(proc(env, tag))
        env.run()
        return log

    # A pre-warmed pool (recycled objects) and a cold one (fresh
    # allocations) must produce identical schedules.
    cold = Environment()
    warm = Environment()
    _drain(warm)             # pool warmed; clock parked at drain end
    warm_start = warm.now
    warm_seq_base = warm.events_scheduled
    cold_log = storm(cold)
    warm_log = storm(warm)
    assert [(t, i) for t, i, _ in cold_log] == \
        [(t, i) for t, i, _ in warm_log]
    for (_, _, tc), (_, _, tw) in zip(cold_log, warm_log):
        assert tw - warm_start == pytest.approx(tc, abs=1e-12)
    assert (warm.events_scheduled - warm_seq_base) == cold.events_scheduled


# -- timeout_at: absolute-time scheduling ---------------------------------

def test_timeout_at_fires_at_exactly_the_given_instant():
    env = Environment(initial_time=0.1)
    # (0.1 + 0.2) + 0.3 and 0.1 + (0.2 + 0.3) differ in the last bit;
    # the caller's own chain of additions is the one that must stand.
    when = (0.1 + 0.2) + 0.3
    assert when != 0.1 + (0.2 + 0.3)
    woke = []

    def proc(env):
        value = yield env.timeout_at(when, value="v")
        woke.append((env.now, value))

    env.process(proc(env))
    env.run()
    assert woke == [(when, "v")]


def test_timeout_at_rejects_a_past_instant():
    env = Environment(initial_time=5.0)
    with pytest.raises(ValueError):
        env.timeout_at(4.999)
    assert env.events_scheduled == 0
    env.timeout_at(5.0)          # "now" is not the past
    env.run()
    assert env.now == 5.0


def test_timeout_at_recycles_pooled_objects():
    env = Environment()
    _drain(env)
    recycled = env._timeout_pool[-1]
    t = env.timeout_at(env.now + 2.0, value="fresh")
    assert t is recycled
    assert t.callbacks == [] and not t.processed
    assert t.delay == pytest.approx(2.0)
    env.run()
    assert t.value == "fresh" and t.processed
    # A held one stays out of the pool; an unreferenced one goes back.
    assert t not in env._timeout_pool
    before = len(env._timeout_pool)
    env.timeout_at(env.now + 1.0)
    assert len(env._timeout_pool) == before - 1
    env.run()
    assert len(env._timeout_pool) == before


def test_timeout_at_orders_with_same_instant_timeouts_by_creation():
    env = Environment()
    order = []

    def note(tag):
        return lambda event: order.append((tag, env.now))

    env.timeout(1.0).callbacks.append(note("rel-1"))
    env.timeout_at(1.0).callbacks.append(note("abs-2"))
    env.timeout(1.0).callbacks.append(note("rel-3"))
    env.timeout_at(0.0).callbacks.append(note("abs-now"))
    env.timeout(0).callbacks.append(note("rel-now"))
    env.run()
    assert order == [("abs-now", 0.0), ("rel-now", 0.0),
                     ("rel-1", 1.0), ("abs-2", 1.0), ("rel-3", 1.0)]
