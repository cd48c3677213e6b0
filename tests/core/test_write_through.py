"""Tests for the write-through proxy cache policy (§3.2.1: write policy
is a per-application middleware choice)."""

import pytest

from repro.core.config import CachePolicy, ProxyCacheConfig
from tests.core.harness import Rig

WT_CACHE = ProxyCacheConfig(capacity_bytes=64 * 1024 * 1024,
                            n_banks=32, associativity=4,
                            policy=CachePolicy.WRITE_THROUGH)


def make_rig():
    return Rig(metadata=False, cache_config=WT_CACHE)


def test_write_through_reaches_server_immediately():
    rig = make_rig()

    def proc(env):
        f = yield env.process(rig.mount.create("/images/golden/wt.bin"))
        yield env.process(f.write_sync(0, b"through"))
        return rig.endpoint.export.fs.read("/images/golden/wt.bin")

    value, _ = rig.run(proc(rig.env))
    assert value == b"through"
    assert rig.session.client_proxy.layer("block-cache").stats.absorbed_writes == 0


def test_write_through_still_caches_for_reads():
    rig = make_rig()

    def proc(env):
        f = yield env.process(rig.mount.create("/images/golden/wt.bin"))
        yield env.process(f.write_sync(0, b"X" * 8192))
        rig.mount.drop_caches()
        f2 = yield env.process(rig.mount.open("/images/golden/wt.bin"))
        before = rig.session.client_proxy.layer("block-cache").stats.block_cache_hits
        data = yield env.process(f2.read(0, 8192))
        return before, rig.session.client_proxy.layer("block-cache").stats.block_cache_hits, data

    (before, after, data), _ = rig.run(proc(rig.env))
    assert after == before + 1     # the written block was cached
    assert data == b"X" * 8192


def test_write_through_slower_than_write_back_on_wan():
    def burst_time(policy):
        cache = ProxyCacheConfig(capacity_bytes=64 * 1024 * 1024,
                                 n_banks=32, associativity=4, policy=policy)
        rig = Rig(metadata=False, cache_config=cache)

        def proc(env):
            f = yield env.process(rig.mount.create("/images/golden/b.bin"))
            t0 = env.now
            yield env.process(f.write_sync(0, b"z" * (512 * 1024)))
            return env.now - t0

        value, _ = rig.run(proc(rig.env))
        return value

    wt = burst_time(CachePolicy.WRITE_THROUGH)
    wb = burst_time(CachePolicy.WRITE_BACK)
    assert wb < wt / 5


def test_write_through_commit_forwarded():
    rig = make_rig()

    def proc(env):
        f = yield env.process(rig.mount.create("/images/golden/c.bin"))
        yield env.process(f.write(0, b"C"))
        yield env.process(f.close())

    rig.run(proc(rig.env))
    assert rig.session.client_proxy.layer("block-cache").stats.absorbed_commits == 0


def test_write_through_flush_has_nothing_to_do():
    rig = make_rig()

    def proc(env):
        f = yield env.process(rig.mount.create("/images/golden/d.bin"))
        yield env.process(f.write_sync(0, b"D" * 8192))
        blocks, files = rig.session.client_proxy.dirty_state()
        yield env.process(rig.session.client_proxy.flush())
        return blocks, files

    (blocks, files), _ = rig.run(proc(rig.env))
    assert blocks == 0 and files == 0
