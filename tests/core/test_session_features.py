"""Tests for session-level features: shared caches, consistency signals,
channel upload, statistics collection."""

import pytest

from repro.analysis.stats import collect_session_stats
from repro.core.blockcache import ProxyBlockCache
from repro.core.consistency import ConsistencySignal, MiddlewareConsistency
from repro.core.session import GvfsSession, Scenario
from tests.core.harness import Rig, SMALL_CACHE


# -- shared read-only block cache -------------------------------------------------

def make_shared_rig():
    rig = Rig(metadata=False, n_compute=1)
    shared = ProxyBlockCache(rig.env, rig.testbed.compute[0].local,
                             SMALL_CACHE, name="shared-ro", read_only=True)
    second = GvfsSession.build(rig.testbed, Scenario.WAN_CACHED,
                               endpoint=rig.endpoint,
                               shared_block_cache=shared)
    third = GvfsSession.build(rig.testbed, Scenario.WAN_CACHED,
                              endpoint=rig.endpoint,
                              shared_block_cache=shared)
    return rig, shared, second, third


def test_shared_cache_serves_across_sessions():
    rig, shared, s2, s3 = make_shared_rig()

    def fill(env):
        f = yield env.process(s2.mount.open("/images/golden/disk.vmdk"))
        yield env.process(f.read(0, 8192))

    rig.run(fill(rig.env))
    assert shared.cached_blocks >= 1

    def reread(env):
        f = yield env.process(s3.mount.open("/images/golden/disk.vmdk"))
        before = s3.client_proxy.layer("block-cache").stats.block_cache_hits
        yield env.process(f.read(0, 8192))
        return before, s3.client_proxy.layer("block-cache").stats.block_cache_hits

    (before, after), _ = rig.run(reread(rig.env))
    assert after == before + 1  # hit on the *other* session's fill


def test_shared_cache_sessions_forward_writes():
    rig, shared, s2, _ = make_shared_rig()

    def proc(env):
        f = yield env.process(s2.mount.create("/images/golden/out.bin"))
        yield env.process(f.write(0, b"shared-write"))
        yield env.process(f.close())

    rig.run(proc(rig.env))
    # The write went upstream (no write-back absorb possible).
    assert s2.client_proxy.layer("block-cache").stats.absorbed_writes == 0
    assert rig.endpoint.export.fs.read("/images/golden/out.bin") \
        == b"shared-write"


# -- consistency signals ------------------------------------------------------------

def test_write_back_signal_keeps_caches_warm():
    rig = Rig(metadata=False)
    consistency = MiddlewareConsistency(rig.env)

    def proc(env):
        f = yield env.process(rig.mount.create("/images/golden/wb.bin"))
        yield env.process(f.write(0, b"W" * 8192))
        yield env.process(f.close())
        yield env.process(consistency.signal(rig.session.client_proxy,
                                             ConsistencySignal.WRITE_BACK))
        return rig.session.client_proxy.block_cache.cached_blocks

    cached_after, _ = rig.run(proc(rig.env))
    assert cached_after > 0  # WRITE_BACK does not invalidate
    assert rig.endpoint.export.fs.read("/images/golden/wb.bin") == b"W" * 8192
    assert consistency.log[0].signal is ConsistencySignal.WRITE_BACK


def test_flush_signal_invalidates():
    rig = Rig(metadata=False)
    consistency = MiddlewareConsistency(rig.env)

    def proc(env):
        f = yield env.process(rig.mount.create("/images/golden/fl.bin"))
        yield env.process(f.write(0, b"F" * 100))
        yield env.process(f.close())
        yield env.process(consistency.signal(rig.session.client_proxy,
                                             ConsistencySignal.FLUSH))
        return rig.session.client_proxy.block_cache.cached_blocks

    cached_after, _ = rig.run(proc(rig.env))
    assert cached_after == 0
    assert rig.endpoint.export.fs.read("/images/golden/fl.bin") == b"F" * 100


def test_session_end_flushes_all_proxies():
    rig = Rig(metadata=False)
    consistency = MiddlewareConsistency(rig.env)

    def proc(env):
        f = yield env.process(rig.mount.create("/images/golden/x.bin"))
        yield env.process(f.write(0, b"X"))
        yield env.process(f.close())
        yield env.process(consistency.session_end(
            [rig.session.client_proxy]))

    rig.run(proc(rig.env))
    assert len(consistency.log) == 1
    assert consistency.log[0].duration >= 0


# -- channel upload (file-cache write-back) ---------------------------------------

def test_dirty_file_cache_entry_uploaded_on_flush():
    rig = Rig(image_mb=2)
    rig.image.generate_metadata()
    mem = rig.image.memory_inode
    nonzero = next(i for i in range(mem.data.n_chunks())
                   if not mem.data.chunk_is_zero(i))

    def proc(env):
        f = yield env.process(rig.mount.open("/images/golden/mem.vmss"))
        # Pull through the channel, then modify the cached copy.
        yield env.process(f.read(nonzero * 8192, 8192))
        yield env.process(f.write_sync(nonzero * 8192, b"MODIFIED!"))
        before = mem.data.read(nonzero * 8192, 9)
        yield env.process(rig.session.client_proxy.flush())
        after = mem.data.read(nonzero * 8192, 9)
        return before, after

    (before, after), _ = rig.run(proc(rig.env))
    assert before != b"MODIFIED!"
    assert after == b"MODIFIED!"
    assert rig.session.client_proxy.channel.uploads == 1


# -- statistics collection ----------------------------------------------------------

def test_collect_session_stats_aggregates_chain():
    rig = Rig()
    rig.image.generate_metadata()

    def proc(env):
        f = yield env.process(rig.mount.open("/images/golden/mem.vmss"))
        offset = 0
        while offset < f.size:
            data = yield env.process(f.read(offset, 8192))
            offset += len(data)
        # Hit the buffer cache once.
        yield env.process(f.read(0, 8192))

    rig.run(proc(rig.env))
    stats = collect_session_stats(rig.session)
    assert stats.rpc_calls > 0
    assert stats.zero_filtered_reads > 0
    assert stats.channel_fetches == 1
    assert stats.channel_compression_ratio < 0.5
    assert 0 < stats.buffer_cache_hit_rate < 1
    summary = stats.summary()
    assert "zero-filtered" in summary
    assert "channel fetches" in summary


def test_collect_session_stats_reads_each_counter_from_its_owning_layer():
    """The per-layer bags are the only counters: a session that absorbs
    writes through *both* the file channel (a cached whole file) and the
    write-back block cache reports their sum, spelled out; every other
    proxy field is its single owner's entry in ``stats_snapshot()``."""
    rig = Rig(image_mb=2)
    rig.image.generate_metadata()
    mem = rig.image.memory_inode.data
    nonzero = next(i for i in range(mem.n_chunks())
                   if not mem.chunk_is_zero(i))

    def proc(env):
        f = yield env.process(rig.mount.open("/images/golden/mem.vmss"))
        yield env.process(f.read(0, 8192))
        yield env.process(f.read(nonzero * 8192, 8192))
        yield env.process(f.write_sync(nonzero * 8192, b"to the file cache"))
        d = yield env.process(rig.mount.open("/images/golden/disk.vmdk"))
        yield env.process(d.read(0, 8192))
        rig.mount.drop_caches()     # the re-read must reach the proxy
        d = yield env.process(rig.mount.open("/images/golden/disk.vmdk"))
        yield env.process(d.read(0, 8192))
        for block in range(2):
            yield env.process(d.write_sync(block * 8192, b"to the block cache"))
        yield env.process(rig.session.client_proxy.flush())

    rig.run(proc(rig.env))
    proxy = rig.session.client_proxy
    assert not hasattr(proxy, "stats")       # no second, flat view
    layers = proxy.stats_snapshot()
    in_files = layers["file-channel"]["absorbed_writes"]
    in_blocks = layers["block-cache"]["absorbed_writes"]
    assert in_files >= 1 and in_blocks >= 2
    stats = collect_session_stats(rig.session)
    assert stats.absorbed_writes == in_files + in_blocks
    owners = {"zero_filtered_reads": "metadata",
              "block_cache_hits": "block-cache",
              "block_cache_misses": "block-cache",
              "writebacks": "block-cache",
              "file_cache_reads": "file-channel",
              "channel_fetches": "file-channel"}
    for counter, role in owners.items():
        assert getattr(stats, counter) == layers[role][counter] > 0, counter


def test_collect_session_stats_local_scenario():
    rig = Rig(scenario=Scenario.LOCAL)
    stats = collect_session_stats(rig.session)
    assert stats.rpc_calls == 0
    assert stats.buffer_cache_hit_rate == 0.0
    assert stats.block_cache_hit_rate == 0.0


# -- per-session proxy policy ------------------------------------------------------

def test_neighbouring_sessions_keep_their_own_proxy_config():
    """Policy is an argument of the proxy being built (per-user /
    per-application, §3.2.1), not process state: two sessions and a
    cascade level on one testbed each run the readahead depth they were
    handed, and only the session that asked for readahead prefetches."""
    from repro.core.config import ProxyConfig
    from repro.core.session import (CascadeLevelSpec, ServerEndpoint,
                                    build_cascade)
    from repro.net.topology import Testbed
    from repro.sim import Environment
    from repro.vm.image import VmConfig, VmImage

    testbed = Testbed(Environment(), n_compute=2)
    endpoint = ServerEndpoint(testbed.env, testbed.wan_server)
    VmImage.create(endpoint.export.fs, "/images/golden",
                   VmConfig(name="golden", memory_mb=2, disk_gb=0.01,
                            seed=7))
    cascade = build_cascade(
        testbed, endpoint,
        [CascadeLevelSpec(cache_config=SMALL_CACHE,
                          proxy_config=ProxyConfig(readahead_depth=3)),
         SMALL_CACHE],
        proxy_config=ProxyConfig(readahead_depth=5))
    depths = (0, 8)
    sessions = [GvfsSession.build(
        testbed, Scenario.WAN_CACHED, endpoint=endpoint, compute_index=i,
        cache_config=SMALL_CACHE, metadata=False, via=cascade,
        proxy_config=ProxyConfig(readahead_depth=depth))
        for i, depth in enumerate(depths)]

    assert [s.client_proxy.config.readahead_depth
            for s in sessions] == [0, 8]
    assert [stack.config.readahead_depth
            for stack in cascade.stacks()] == [3, 5]
    # The builder still owns the fields that describe *this* proxy.
    assert sessions[0].client_proxy.config.cache is SMALL_CACHE
    assert sessions[0].client_proxy.config.metadata is False
    assert (sessions[0].client_proxy.config.name
            != sessions[1].client_proxy.config.name)

    def stream(session):
        def gen(env):
            f = yield env.process(
                session.mount.open("/images/golden/disk.vmdk"))
            for block in range(32):
                yield env.process(f.read(block * 8192, 8192))
        return gen

    for session in sessions:
        testbed.env.process(stream(session)(testbed.env))
    testbed.env.run()
    assert sessions[0].client_proxy.layer("readahead").stats.prefetch_issued == 0
    assert sessions[1].client_proxy.layer("readahead").stats.prefetch_issued > 0
