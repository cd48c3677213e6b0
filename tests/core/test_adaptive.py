"""Adaptive cascade sizing: planner verdicts on hand-built snapshots,
geometry rounding, and live apply on a real cascade."""

import pytest

from repro.core.adaptive import (
    apply_cascade_sizing,
    format_sizing_report,
    plan_cascade_sizing,
    resized_config,
)
from repro.core.config import ProxyCacheConfig, ProxyConfig
from repro.core.session import (
    GvfsSession,
    Scenario,
    ServerEndpoint,
    build_cascade,
)
from repro.net.topology import Testbed
from repro.sim import Environment
from repro.vm.image import VmConfig, VmImage
from tests.core.harness import NO_READAHEAD, SMALL_CACHE

BS = 8192


def counters(hits=0, misses=0, capacity=1024, evictions=0, resident=0,
             bypassed=0):
    return {"block_cache_hits": hits, "block_cache_misses": misses,
            "capacity_frames": capacity, "cache_evictions": evictions,
            "cached_blocks": resident, "bypassed": bypassed}


def snapshot(*levels):
    """Nest per-level block-cache counters the way a deep snapshot does."""
    node = {}
    root = node
    for i, c in enumerate(levels):
        node["block-cache"] = c
        if i + 1 < len(levels):
            up = {"name": f"level{i + 2}", "layers": {}}
            node["upstream"] = up
            node = up["layers"]
    return root


# -- planner verdicts -------------------------------------------------------

def test_low_traffic_level_is_kept():
    plans = plan_cascade_sizing(snapshot(counters(hits=3, misses=4)))
    assert [p.action for p in plans] == ["keep"]
    assert "no signal" in plans[0].reason


def test_useless_deep_level_is_bypassed_but_never_the_client():
    cold = counters(hits=0, misses=5000, capacity=1024, resident=1000,
                    evictions=4000)
    plans = plan_cascade_sizing(snapshot(cold, dict(cold)))
    assert plans[0].level == 1 and plans[0].action != "bypass"
    assert plans[1].level == 2 and plans[1].action == "bypass"


def test_already_bypassed_level_left_alone():
    c = counters(hits=0, misses=5000, bypassed=1)
    plans = plan_cascade_sizing(snapshot(counters(hits=500, misses=500), c))
    assert plans[1].action == "keep"
    assert plans[1].reason == "already bypassed"


def test_thrashing_level_grows_to_working_set():
    c = counters(hits=100, misses=2000, capacity=512, resident=512,
                 evictions=1488)
    plans = plan_cascade_sizing(snapshot(c))
    assert plans[0].action == "grow"
    assert plans[0].target_frames == int((512 + 1488) * 1.25)
    assert plans[0].is_resize


def test_grow_respects_max_frames_cap():
    c = counters(hits=100, misses=2000, capacity=512, resident=512,
                 evictions=1488)
    plans = plan_cascade_sizing(snapshot(c), max_frames=1024)
    assert plans[0].action == "grow"
    assert plans[0].target_frames == 1024
    capped = plan_cascade_sizing(snapshot(c), max_frames=512)
    assert capped[0].action == "keep"        # already at the cap


def test_oversized_level_shrinks_with_headroom():
    c = counters(hits=900, misses=100, capacity=4096, resident=100,
                 evictions=0)
    plans = plan_cascade_sizing(snapshot(c))
    assert plans[0].action == "shrink"
    assert plans[0].target_frames == int(100 * 1.25)


def test_healthy_level_pays_its_way():
    c = counters(hits=800, misses=200, capacity=1024, resident=900,
                 evictions=100)
    plans = plan_cascade_sizing(snapshot(c), shrink_slack=0.5)
    assert plans[0].action == "keep"
    assert plans[0].reason == "paying its way"


def test_cacheless_stack_skipped_but_walk_continues():
    deep = {"front": {}, "upstream": {"name": "forwarder", "layers": {
        "front": {}, "upstream": {"name": "l2", "layers":
                                  snapshot(counters(hits=500, misses=500))}}}}
    deep["block-cache"] = counters(hits=500, misses=500)
    plans = plan_cascade_sizing(deep)
    assert [p.level for p in plans] == [1, 2]


def test_report_formats_every_plan():
    c = counters(hits=100, misses=2000, capacity=512, resident=512,
                 evictions=1488)
    plans = plan_cascade_sizing(snapshot(c, counters()))
    text = format_sizing_report(plans)
    assert "L1" in text and "L2" in text and "grow" in text


# -- geometry ---------------------------------------------------------------

def test_resized_config_rounds_to_set_granule():
    config = ProxyCacheConfig(capacity_bytes=64 * BS, n_banks=4,
                              associativity=2, block_size=BS)
    grown = resized_config(config, 21)
    assert grown.n_banks == 4 and grown.associativity == 2
    assert grown.total_frames == 24          # next multiple of 4*2
    floor = resized_config(config, 1)
    assert floor.total_frames == 8           # never below one full set


# -- live apply -------------------------------------------------------------

def make_rig(proxy_config=ProxyConfig()):
    testbed = Testbed(Environment(), n_compute=1)
    endpoint = ServerEndpoint(testbed.env, testbed.wan_server)
    image = VmImage.create(endpoint.export.fs, "/images/golden",
                           VmConfig(name="golden", memory_mb=2, disk_gb=0.01,
                                    seed=19))
    cascade = build_cascade(testbed, endpoint, [SMALL_CACHE],
                            proxy_config=proxy_config)
    session = GvfsSession.build(testbed, Scenario.WAN_CACHED,
                                endpoint=endpoint, cache_config=SMALL_CACHE,
                                metadata=False, via=cascade,
                                proxy_config=proxy_config)
    return testbed, image, cascade, session


def run(testbed, gen):
    box = {}

    def wrapper(env):
        box["value"] = yield env.process(gen)

    testbed.env.process(wrapper(testbed.env))
    testbed.env.run()
    return box


def read_blocks(session, blocks):
    def gen(env):
        f = yield env.process(session.mount.open("/images/golden/disk.vmdk"))
        out = []
        for block in blocks:
            out.append((yield env.process(f.read(block * BS, BS))))
        return out
    return gen


def test_apply_bypasses_and_resizes_live_stack():
    testbed, image, cascade, session = make_rig(NO_READAHEAD)
    run(testbed, read_blocks(session, list(range(8)))(testbed.env))

    client_layer = session.client_proxy.layer("block-cache")
    l2_layer = cascade.levels[0].proxy.layer("block-cache")
    old_frames = client_layer.block_cache.config.total_frames
    plans = plan_cascade_sizing(
        session.client_proxy.stats_snapshot(deep=True),
        min_traffic=1, min_hit_ratio=0.5, shrink_slack=0.0)
    # Every read missed both levels once: L2's ratio is 0, the
    # client is exempt from bypassing by construction.
    by_level = {p.level: p for p in plans}
    assert by_level[2].action == "bypass"
    assert by_level[1].action != "bypass"

    results = apply_cascade_sizing(session.client_proxy, plans)
    applied = {p.level: ok for p, ok in results}
    assert applied[2] is True
    assert l2_layer.bypassed

    # Reads still work (and skip the bypassed level entirely).
    before = l2_layer.stats_snapshot()["bypassed_requests"]
    session.mount.drop_caches()
    box = run(testbed, read_blocks(session, [0])(testbed.env))
    assert box["value"][0] == image.disk_inode.data.read(0, BS)
    assert client_layer.block_cache.config.total_frames == old_frames


def test_apply_grow_swaps_in_larger_cache():
    testbed, image, cascade, session = make_rig(NO_READAHEAD)
    run(testbed, read_blocks(session, list(range(4)))(testbed.env))
    client_layer = session.client_proxy.layer("block-cache")
    old = client_layer.block_cache
    target = old.config.total_frames * 2
    plan = plan_cascade_sizing(
        session.client_proxy.stats_snapshot(deep=True))[0]
    grow = type(plan)(level=1, name="client", action="grow",
                      current_frames=old.config.total_frames,
                      target_frames=target, hit_ratio=0.0,
                      working_set=target, reason="test")
    results = apply_cascade_sizing(session.client_proxy, [grow])
    assert results[0][1] is True
    new = client_layer.block_cache
    assert new is not old
    assert new.config.total_frames >= target
    assert new.config.block_size == old.config.block_size

    # The fresh cache starts cold but refills correctly.
    session.mount.drop_caches()
    box = run(testbed, read_blocks(session, [1])(testbed.env))
    assert box["value"][0] == image.disk_inode.data.read(BS, BS)


def test_apply_refuses_resize_with_dirty_frames():
    testbed, image, cascade, session = make_rig()

    def dirty(env):
        f = yield env.process(session.mount.open("/images/golden/disk.vmdk"))
        yield env.process(f.write_sync(0, b"q" * BS))

    run(testbed, dirty(testbed.env))
    client_layer = session.client_proxy.layer("block-cache")
    assert client_layer.block_cache.dirty_frames
    plan = plan_cascade_sizing(
        session.client_proxy.stats_snapshot(deep=True))[0]
    shrink = type(plan)(level=1, name="client", action="shrink",
                        current_frames=plan.current_frames,
                        target_frames=128, hit_ratio=0.0,
                        working_set=128, reason="test")
    results = apply_cascade_sizing(session.client_proxy, [shrink])
    assert results[0][1] is False            # flush first, never lose data


# -- periodic in-run sizing (engine-timer planner) --------------------------

class FakeStack:
    """Minimal stack: a deep-snapshot source the planner can read."""

    def __init__(self):
        self.snapshots = 0

    def stats_snapshot(self, deep=True):
        self.snapshots += 1
        return snapshot(counters(hits=3, misses=4))


def test_periodic_sizer_ticks_on_the_engine_clock():
    from repro.core.adaptive import PeriodicSizer

    env = Environment()
    stack = FakeStack()
    sizer = PeriodicSizer(env, stack, interval=2.0, rounds=3, apply=False)
    sizer.start()
    env.run()
    assert sizer.ticks == 3
    assert [e["at"] for e in sizer.history] == [2.0, 4.0, 6.0]
    assert stack.snapshots == 3
    for entry in sizer.history:
        assert entry["stacks"] == 1
        assert entry["actions"] == {"keep": 1}
        assert entry["applied"] == 0


def test_periodic_sizer_stop_lets_the_queue_drain():
    from repro.core.adaptive import PeriodicSizer

    env = Environment()
    sizer = PeriodicSizer(env, FakeStack(), interval=1.0, apply=False)
    sizer.start()

    def workload(env):
        yield env.timeout(3.5)
        sizer.stop()

    env.process(workload(env))
    env.run()                               # unbounded timer would hang here
    assert sizer.ticks == 3                 # no tick after stop()


def test_periodic_sizer_callable_source_sees_live_stacks():
    from repro.core.adaptive import PeriodicSizer

    env = Environment()
    live = []
    sizer = PeriodicSizer(env, lambda: live, interval=1.0, rounds=2,
                          apply=False)
    sizer.start()

    def workload(env):
        yield env.timeout(0.5)
        live.append(FakeStack())            # joins before the first tick
        yield env.timeout(1.0)
        live.append(FakeStack())            # joins before the second

    env.process(workload(env))
    env.run()
    assert [e["stacks"] for e in sizer.history] == [1, 2]


def test_periodic_sizer_rejects_bad_interval():
    from repro.core.adaptive import PeriodicSizer

    with pytest.raises(ValueError):
        PeriodicSizer(Environment(), FakeStack(), interval=0)


def test_session_manager_periodic_sizing_over_a_live_session():
    """The middleware wiring: a timer re-plans live sessions in-run."""
    from repro.middleware.imageserver import ImageRequirements
    from repro.middleware.sessions import VmSessionManager
    from repro.net.topology import make_paper_testbed

    testbed = make_paper_testbed(n_compute=1)
    env = testbed.env
    manager = VmSessionManager(testbed, account_pool_size=2)
    manager.catalog.register(
        "golden", VmConfig(name="golden", memory_mb=4, disk_gb=0.01,
                           persistent=False, seed=17),
        zero_fraction=0.5, generate_metadata=False)
    sizer = manager.start_adaptive_sizing(interval=5.0, apply=False)

    def workload(env):
        session = yield env.process(manager.create_session(
            "alice", ImageRequirements(min_memory_mb=4)))
        yield env.timeout(12.0)
        yield env.process(manager.end_session(session))
        sizer.stop()

    env.process(workload(env))
    env.run()
    assert sizer.ticks >= 2
    assert any(e["stacks"] >= 1 for e in sizer.history)
