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
        yield env.process(consistency.signal(rig.session,
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
        yield env.process(consistency.signal(rig.session,
                                             ConsistencySignal.FLUSH))
        return rig.session.client_proxy.block_cache.cached_blocks

    cached_after, _ = rig.run(proc(rig.env))
    assert cached_after == 0
    assert rig.endpoint.export.fs.read("/images/golden/fl.bin") == b"F" * 100


@pytest.mark.parametrize("sig", list(ConsistencySignal), ids=lambda s: s.name)
@pytest.mark.parametrize("depth", [1, 2])
def test_signal_flushes_to_the_origin_at_any_depth(depth, sig):
    """A signal runs the session's one flush walk: the written bytes
    reach the origin through a write-back cascade level too, no level
    keeps a dirty frame, and FLUSH then empties the client's caches.
    One signal, one log record."""
    rig = Rig(metadata=False, via_second_level=depth == 2)
    consistency = MiddlewareConsistency(rig.env)
    proxy = rig.session.client_proxy
    levels = [proxy] + ([rig.second_level.proxy] if depth == 2 else [])
    payload = b"S" * 8192

    def proc(env):
        f = yield env.process(rig.mount.create("/images/golden/sig.bin"))
        yield env.process(f.write(0, payload))
        yield env.process(f.close())
        yield env.process(consistency.signal(rig.session, sig))

    rig.run(proc(rig.env))
    assert rig.endpoint.export.fs.read("/images/golden/sig.bin") == payload
    assert [stack.block_cache.dirty_frames for stack in levels] \
        == [0] * depth
    if sig is ConsistencySignal.FLUSH:
        assert proxy.block_cache.cached_blocks == 0
        assert proxy.channel.file_cache.cached_files == 0
    else:
        assert proxy.block_cache.cached_blocks > 0
    assert [(r.signal, r.proxy_name) for r in consistency.log] \
        == [(sig, proxy.config.name)]


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
    per-application, §3.2.1), not process state, and each setting has
    one owner: the cascade's levels run the cascade's policy, each
    session's client proxy runs the ``proxy_config`` it was handed
    (the builder sets only its name), and the block cache alone owns
    the frame size and the write policy."""
    from dataclasses import replace

    from repro.core.config import CachePolicy, ProxyConfig
    from repro.core.session import ServerEndpoint, build_cascade
    from repro.net.topology import Testbed
    from repro.nfs.protocol import FileHandle, NfsProc, NfsRequest
    from repro.sim import Environment
    from repro.vm.image import VmConfig, VmImage

    testbed = Testbed(Environment(), n_compute=3)
    endpoint = ServerEndpoint(testbed.env, testbed.wan_server)
    VmImage.create(endpoint.export.fs, "/images/golden",
                   VmConfig(name="golden", memory_mb=2, disk_gb=0.01,
                            seed=7))
    cascade = build_cascade(testbed, endpoint, [SMALL_CACHE, SMALL_CACHE],
                            proxy_config=ProxyConfig(readahead_depth=5))
    configs = [ProxyConfig(readahead_depth=0, metadata=False),
               ProxyConfig(readahead_depth=8),
               ProxyConfig(readahead_depth=0, metadata=False)]
    caches = [replace(SMALL_CACHE, block_size=4096), SMALL_CACHE,
              replace(SMALL_CACHE, policy=CachePolicy.WRITE_THROUGH)]
    sessions = [GvfsSession.build(
        testbed, Scenario.WAN_CACHED, endpoint=endpoint, compute_index=i,
        cache_config=cache, via=cascade[0], proxy_config=config)
        for i, (config, cache) in enumerate(zip(configs, caches))]
    proxies = [s.client_proxy for s in sessions]

    assert [level.proxy.config for level in cascade] == [
        ProxyConfig(name=level.name, readahead_depth=5)
        for level in cascade]
    assert [p.config for p in proxies] == [
        replace(config, name=f"s{i + 1}.client-proxy")
        for i, config in enumerate(configs)]
    assert [p.block_size() for p in proxies] == [4096, 8192, 8192]
    assert [p.block_cache.config for p in proxies] == caches

    def stream(session):
        def gen(env):
            f = yield env.process(
                session.mount.open("/images/golden/disk.vmdk"))
            for block in range(32):
                yield env.process(f.read(block * 8192, 8192))
        return gen

    for session in sessions[:2]:
        testbed.env.process(stream(session)(testbed.env))
    testbed.env.run()
    assert [p.layer("readahead").stats.prefetch_issued > 0
            for p in proxies[:2]] == [False, True]

    fh = FileHandle("images",
                    endpoint.export.fs.lookup("/images/golden/disk.vmdk")
                    .fileid)

    def commit(proxy):
        def gen(env):
            reply = yield from proxy.handle(NfsRequest(NfsProc.COMMIT,
                                                       fh=fh))
            assert reply.ok
        return gen

    for proxy in proxies[1:]:
        testbed.env.process(commit(proxy)(testbed.env))
    testbed.env.run()
    # Write-back absorbs the COMMIT; write-through forwards it.
    assert [p.layer("block-cache").stats.absorbed_commits
            for p in proxies[1:]] == [1, 0]


def test_session_names_are_numbered_per_testbed():
    """The same rig built twice in one process names its proxies,
    tunnels and caches identically: the ``s{n}`` count is the
    testbed's, not the process's."""
    def names():
        out = []
        for session in Rig(n_compute=2).sessions:
            proxy = session.client_proxy
            rpc = proxy.upstream
            out += [proxy.config.name, rpc.name, rpc.out.name,
                    rpc.back.name, proxy.block_cache.name,
                    proxy.channel.file_cache.name, proxy.channel.scp.name,
                    session.mount.rpc.name]
        return out

    first = names()
    assert first == names()
    assert first[0] == "s1.client-proxy"


def test_networked_session_needs_an_endpoint_or_an_origin():
    from repro.net.topology import Testbed
    from repro.sim import Environment

    testbed = Testbed(Environment())
    with pytest.raises(ValueError, match="endpoint or an origin"):
        GvfsSession.build(testbed, Scenario.WAN)
    assert GvfsSession.build(testbed, Scenario.LOCAL).client_proxy is None
