"""Cooperative peer caching, and eviction under a cascade.

Covers the behavioural guarantees the ``coop_smoke`` gates rely on: a
peer-cache hit returns bytes identical to an origin read, directory
state tracks the caches through eviction and crashes, concurrent misses
coalesce on one WAN fetch — and a dirty eviction victim is written
back, never dropped.
"""

from dataclasses import replace

from repro.core.config import ProxyCacheConfig
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

#: One set of two frames: every third distinct block forces an eviction.
TINY_CACHE = ProxyCacheConfig(capacity_bytes=2 * BS, n_banks=1,
                              associativity=2, block_size=BS)


def make_cascade_rig(seed=11, proxy_config=NO_READAHEAD):
    testbed = Testbed(Environment(), n_compute=1)
    endpoint = ServerEndpoint(testbed.env, testbed.wan_server)
    image = VmImage.create(endpoint.export.fs, "/images/golden",
                           VmConfig(name="golden", memory_mb=2, disk_gb=0.01,
                                    seed=seed))
    cascade = build_cascade(testbed, endpoint, [SMALL_CACHE],
                            proxy_config=proxy_config)
    session = GvfsSession.build(testbed, Scenario.WAN_CACHED,
                                endpoint=endpoint, cache_config=TINY_CACHE,
                                via=cascade[0],
                                proxy_config=replace(proxy_config,
                                                     metadata=False))
    return testbed, endpoint, image, cascade, session


def make_peer_rig(n_peers=2, seed=23, proxy_config=NO_READAHEAD):
    testbed = Testbed(Environment(), n_compute=n_peers)
    endpoint = ServerEndpoint(testbed.env, testbed.wan_server)
    image = VmImage.create(endpoint.export.fs, "/images/golden",
                           VmConfig(name="golden", memory_mb=2, disk_gb=0.01,
                                    seed=seed))
    directory = testbed.peer_directory()
    sessions = [GvfsSession.build(testbed, Scenario.WAN_CACHED,
                                  endpoint=endpoint, compute_index=i,
                                  cache_config=SMALL_CACHE,
                                  peer_directory=directory,
                                  proxy_config=replace(proxy_config,
                                                       metadata=False))
                for i in range(n_peers)]
    return testbed, endpoint, image, directory, sessions


def run(testbed, gen):
    box = {}

    def wrapper(env):
        box["value"] = yield env.process(gen)
        box["t"] = env.now

    testbed.env.process(wrapper(testbed.env))
    testbed.env.run()
    return box


def read_block(session, block):
    def gen(env):
        f = yield env.process(session.mount.open("/images/golden/disk.vmdk"))
        data = yield env.process(f.read(block * BS, BS))
        return f.fh, data
    return gen


# -- eviction under a cascade ----------------------------------------------

def test_dirty_victim_writes_back():
    testbed, endpoint, image, cascade, session = make_cascade_rig()
    client = session.client_proxy.layer("block-cache")

    payload = b"D" * BS

    def dirty_then_evict(env):
        f = yield env.process(session.mount.open("/images/golden/disk.vmdk"))
        yield env.process(f.write_sync(0, payload))    # block 0 dirty
        yield env.process(f.read(1 * BS, BS))
        yield env.process(f.read(2 * BS, BS))          # evicts dirty block 0

    run(testbed, dirty_then_evict(testbed.env))
    assert client.stats.writebacks == 1

    # The modification survived the eviction (write-back, not a drop).
    def reread(env):
        yield env.process(session.cold_caches())
        f = yield env.process(session.mount.open("/images/golden/disk.vmdk"))
        return (yield env.process(f.read(0, BS)))

    assert run(testbed, reread(testbed.env))["value"] == payload


# -- cooperative peer caching -----------------------------------------------

def test_peer_hit_is_byte_identical_to_origin():
    testbed, endpoint, image, directory, sessions = make_peer_rig()
    s0, s1 = sessions
    golden = image.disk_inode.data.read(2 * BS, BS)

    box0 = run(testbed, read_block(s0, 2)(testbed.env))
    assert box0["value"][1] == golden

    reads_before = s1.client_proxy.upstream.stats.by_proc.get("READ", 0)
    box1 = run(testbed, read_block(s1, 2)(testbed.env))
    assert box1["value"][1] == golden            # byte-identical to origin
    peer = s1.client_proxy.layer("peer-cache")
    assert peer.stats.peer_hits == 1
    assert peer.stats.peer_bytes == BS
    # The block never touched s1's WAN upstream.
    assert s1.client_proxy.upstream.stats.by_proc.get(
        "READ", 0) == reads_before
    assert directory.hits == 1


def test_stale_directory_answer_falls_through_to_origin():
    """A listed owner that no longer holds the block costs one wasted
    LAN round trip, then the read comes from origin — still correct."""
    testbed, endpoint, image, directory, sessions = make_peer_rig()
    s0, s1 = sessions
    box = run(testbed, read_block(s0, 0)(testbed.env))
    fh = box["value"][0]

    member0 = s0.client_proxy.layer("peer-cache").member
    directory._publish(member0, (fh, 5))         # s0 never cached block 5

    golden = image.disk_inode.data.read(5 * BS, BS)
    box1 = run(testbed, read_block(s1, 5)(testbed.env))
    assert box1["value"][1] == golden
    peer = s1.client_proxy.layer("peer-cache")
    assert peer.stats.peer_stale == 1
    assert peer.stats.peer_hits == 0
    assert directory.stale == 1


def test_eviction_retracts_published_blocks():
    """Directory state tracks the caches: an evicted frame is no longer
    advertised, so peers miss instead of chasing a stale owner."""
    testbed, endpoint, image, directory, sessions = make_peer_rig()
    s0, s1 = sessions

    def clear_s0(env):
        yield env.process(s0.cold_caches())

    run(testbed, read_block(s0, 0)(testbed.env))
    assert directory.stats_snapshot()["listed_blocks"] >= 1
    run(testbed, clear_s0(testbed.env))
    assert directory.stats_snapshot()["listed_blocks"] == 0

    box = run(testbed, read_block(s1, 0)(testbed.env))
    assert box["value"][1] == image.disk_inode.data.read(0, BS)
    assert s1.client_proxy.layer("peer-cache").stats.peer_hits == 0


def test_concurrent_misses_coalesce_on_the_designated_fetcher():
    """Two peers missing the same cold block at once: one WAN fetch,
    the second peer waits on the publication gate and borrows LAN-side."""
    testbed, endpoint, image, directory, sessions = make_peer_rig()
    s0, s1 = sessions
    golden = image.disk_inode.data.read(7 * BS, BS)
    box = {}

    def racer(env, session, tag):
        f = yield env.process(session.mount.open("/images/golden/disk.vmdk"))
        box[tag] = yield env.process(f.read(7 * BS, BS))

    testbed.env.process(racer(testbed.env, s0, "a"))
    testbed.env.process(racer(testbed.env, s1, "b"))
    testbed.env.run()

    assert box["a"] == golden and box["b"] == golden
    snap = directory.stats_snapshot()
    assert snap["coalesced"] == 1
    total_upstream = sum(
        s.client_proxy.upstream.stats.by_proc.get("READ", 0)
        for s in sessions)
    assert total_upstream == 1                   # one WAN fetch, not two


# -- crash retirement -------------------------------------------------------

def test_proxy_crash_retires_peer_advertisements():
    """A crashed proxy's blocks must vanish from the directory at crash
    time — a later asker goes straight upstream, never chasing a stale
    advertisement into a dead cache."""
    testbed, endpoint, image, directory, sessions = make_peer_rig()
    s0, s1 = sessions
    box = run(testbed, read_block(s0, 4)(testbed.env))
    fh = box["value"][0]
    assert directory.locate((fh, 4)) is not None

    s0.client_proxy.crash()
    assert directory.retirements == 1
    assert directory.locate((fh, 4)) is None
    assert directory.stats_snapshot()["listed_blocks"] == 0

    golden = image.disk_inode.data.read(4 * BS, BS)
    box1 = run(testbed, read_block(s1, 4)(testbed.env))
    assert box1["value"][1] == golden
    peer = s1.client_proxy.layer("peer-cache")
    assert peer.stats.peer_hits == 0
    assert peer.stats.peer_stale == 0     # a crash is not a stale answer
    assert directory.stale == 0


def test_crashed_fetcher_releases_pending_waiters():
    """The designated WAN fetcher dies before publishing: its pending
    gate is released at retire time, so the waiter re-queries and falls
    through to its own upstream instead of stalling out the full
    PENDING_TIMEOUT on a publication that will never come."""
    testbed, endpoint, image, directory, sessions = make_peer_rig()
    s0, s1 = sessions
    member0 = s0.client_proxy.layer("peer-cache").member
    member1 = s1.client_proxy.layer("peer-cache").member
    box = run(testbed, read_block(s0, 0)(testbed.env))
    fh = box["value"][0]
    key = (fh, 9)
    result = {}

    def waiter(env):
        t0 = env.now
        result["reply"] = yield env.process(directory.borrow(member1, key))
        result["waited"] = env.now - t0

    def scenario(env):
        got = yield env.process(directory.borrow(member0, key))
        assert got == (None, False)       # s0 is the designated fetcher now
        env.process(waiter(env))
        yield env.timeout(0.01)
        s0.client_proxy.crash()           # ...and dies before publishing

    run(testbed, scenario(testbed.env))
    assert result["reply"] == (None, False)       # fall through upstream
    assert result["waited"] < directory.PENDING_TIMEOUT
    assert directory.retirements == 1
    assert directory.pending_timeouts == 0        # released, not timed out
