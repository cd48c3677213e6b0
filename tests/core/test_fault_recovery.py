"""Degraded-mode proxying and crash recovery: cached reads with the
upstream down, the dirty high-water mark, the dirty-frame journal, and
flush consistency across a server crash."""

import hashlib
from dataclasses import replace

from repro.core.config import ProxyCacheConfig
from repro.nfs.protocol import FileHandle, NfsProc, NfsRequest, NfsStatus
from repro.nfs.rpc import RpcTimeout
from repro.sim.faults import FaultInjector, FaultPlan
from tests.core.harness import SMALL_CACHE, Rig

BS = 8192
PATH = "/images/golden/disk.vmdk"

JOURNALED = replace(SMALL_CACHE, journal=True)


def fh_for(rig, path=PATH):
    return FileHandle("images", rig.endpoint.export.fs.lookup(path).fileid)


def block(tag):
    return bytes([tag]) * BS


# --------------------------------------------------------------------------
# Degraded reads
# --------------------------------------------------------------------------

def test_cached_reads_survive_upstream_outage_in_degraded_mode():
    rig = Rig(metadata=False)
    proxy = rig.session.client_proxy
    client = rig.session.harden_rpc(timeout=0.25, max_retries=1,
                                    breaker_threshold=2, breaker_reset=60.0)
    fh = fh_for(rig)

    def job(env):
        warm = yield from proxy.handle(NfsRequest(
            NfsProc.READ, fh=fh, offset=0, count=BS))
        assert warm.ok
        rig.endpoint.server.crash()
        misses = []
        for b in (50, 70):                # non-adjacent: no readahead
            reply = yield from proxy.handle(NfsRequest(
                NfsProc.READ, fh=fh, offset=b * BS, count=BS))
            misses.append(reply)
        assert client.breaker.currently_open(env.now)
        cached = yield from proxy.handle(NfsRequest(
            NfsProc.READ, fh=fh, offset=0, count=BS))
        return warm, misses, cached

    (warm, misses, cached), _ = rig.run(job(rig.env))
    # Uncached blocks fail cleanly; the cached block is still served.
    assert all(r.status is NfsStatus.IO for r in misses)
    assert cached.ok and cached.data == warm.data
    assert proxy.layer("fault-guard").stats.degraded_reads == 1
    assert proxy.layer("fault-guard").stats.degraded_read_errors == 2
    assert client.breaker.trips == 1


# --------------------------------------------------------------------------
# Dirty high-water mark
# --------------------------------------------------------------------------

def test_high_water_drains_dirty_blocks_while_upstream_is_up():
    rig = Rig(metadata=False)
    proxy = rig.session.client_proxy
    rig.session.harden_rpc(timeout=1.0, max_retries=3,
                           dirty_high_water_blocks=4)
    fh = fh_for(rig)

    def job(env):
        for b in range(8):
            reply = yield from proxy.handle(NfsRequest(
                NfsProc.WRITE, fh=fh, offset=b * BS, data=block(b + 1)))
            assert reply.ok

    rig.run(job(rig.env))
    assert proxy.layer("fault-guard").stats.high_water_writebacks >= 1
    assert proxy.layer("fault-guard").stats.degraded_write_rejects == 0
    assert proxy.block_cache.dirty_frames <= 4


def test_high_water_rejects_writes_when_upstream_down():
    rig = Rig(metadata=False)
    proxy = rig.session.client_proxy
    client = rig.session.harden_rpc(timeout=0.25, max_retries=0,
                                    breaker_threshold=1, breaker_reset=60.0,
                                    dirty_high_water_blocks=2)
    fh = fh_for(rig)

    def job(env):
        rig.endpoint.server.crash()
        # Absorbed below the mark even with the server gone...
        for b in range(2):
            reply = yield from proxy.handle(NfsRequest(
                NfsProc.WRITE, fh=fh, offset=b * BS, data=block(b + 1)))
            assert reply.ok
        # ...then trip the breaker with a miss read.
        miss = yield from proxy.handle(NfsRequest(
            NfsProc.READ, fh=fh, offset=50 * BS, count=BS))
        assert miss.status is NfsStatus.IO
        assert client.breaker.currently_open(env.now)
        return (yield from proxy.handle(NfsRequest(
            NfsProc.WRITE, fh=fh, offset=2 * BS, data=block(3))))

    rejected, _ = rig.run(job(rig.env))
    assert rejected.status is NfsStatus.IO
    assert proxy.layer("fault-guard").stats.degraded_write_rejects == 1
    assert proxy.block_cache.dirty_frames == 2    # absorbed writes kept


# --------------------------------------------------------------------------
# Dirty-frame journal
# --------------------------------------------------------------------------

def test_journal_recovers_dirty_set_after_proxy_crash():
    rig = Rig(metadata=False, cache_config=JOURNALED)
    proxy = rig.session.client_proxy
    fh = fh_for(rig)
    server_fs = rig.endpoint.export.fs

    def job(env):
        for b in range(6):
            reply = yield from proxy.handle(NfsRequest(
                NfsProc.WRITE, fh=fh, offset=b * BS, data=block(b + 1)))
            assert reply.ok
        proxy.crash()
        assert proxy.block_cache.dirty_frames == 0    # tags are gone
        recovered = yield env.process(proxy.recover())
        yield env.process(proxy.flush())
        return recovered

    recovered, _ = rig.run(job(rig.env))
    assert [key[1] for key in recovered] == list(range(6))
    assert proxy.layer("fault-guard").stats.proxy_crashes == 1
    assert proxy.layer("block-cache").stats.recovered_dirty_blocks == 6
    for b in range(6):                    # nothing lost: bytes made it
        assert server_fs.read(PATH, b * BS, BS) == block(b + 1)
    assert proxy.block_cache.dirty_frames == 0
    # The journal compacts once the recovered dirty set is flushed.
    assert proxy.block_cache._journal_inode.data.size == 0


def test_without_journal_crash_loses_absorbed_writes():
    rig = Rig(metadata=False)             # journal off by default
    proxy = rig.session.client_proxy
    fh = fh_for(rig)
    server_fs = rig.endpoint.export.fs

    def job(env):
        for b in range(6):
            reply = yield from proxy.handle(NfsRequest(
                NfsProc.WRITE, fh=fh, offset=b * BS, data=block(b + 1)))
            assert reply.ok
        proxy.crash()
        recovered = yield env.process(proxy.recover())
        yield env.process(proxy.flush())
        return recovered

    recovered, _ = rig.run(job(rig.env))
    assert recovered == []
    assert proxy.layer("block-cache").stats.recovered_dirty_blocks == 0
    for b in range(6):                    # absorbed writes are gone
        assert server_fs.read(PATH, b * BS, BS) != block(b + 1)


def test_journal_records_removed_after_clean_writeback():
    rig = Rig(metadata=False, cache_config=JOURNALED)
    proxy = rig.session.client_proxy
    fh = fh_for(rig)

    def job(env):
        for b in range(4):
            yield from proxy.handle(NfsRequest(
                NfsProc.WRITE, fh=fh, offset=b * BS, data=block(b + 1)))
        yield env.process(proxy.flush())
        proxy.crash()
        recovered = yield env.process(proxy.recover())
        return recovered

    recovered, _ = rig.run(job(rig.env))
    assert recovered == []                # flushed before the crash
    assert proxy.block_cache.journal_appends == 4


# --------------------------------------------------------------------------
# Consistency under failure: flush interrupted by a server crash
# --------------------------------------------------------------------------

def test_flush_interrupted_by_server_crash_retries_to_consistency():
    rig = Rig(metadata=False)
    proxy = rig.session.client_proxy
    rig.session.harden_rpc(timeout=0.5, max_retries=1, backoff=2.0,
                           breaker_threshold=3, breaker_reset=1.0)
    fh = fh_for(rig)
    server_fs = rig.endpoint.export.fs
    injector = FaultInjector(rig.env)
    injector.attach("server", rig.endpoint.server)
    payload = b"".join(block((b % 251) + 1) for b in range(16))

    def job(env):
        for b in range(16):
            reply = yield from proxy.handle(NfsRequest(
                NfsProc.WRITE, fh=fh, offset=b * BS,
                data=payload[b * BS:(b + 1) * BS]))
            assert reply.ok
        injector.schedule(FaultPlan.server_outage(
            "server", at=env.now + 0.01, down_for=2.0))
        attempts = 1
        while True:
            try:
                yield env.process(proxy.flush())
                return attempts
            except RpcTimeout:
                attempts += 1
                yield env.timeout(0.25)

    attempts, _ = rig.run(job(rig.env))
    assert attempts > 1                   # the crash really interrupted it
    assert rig.endpoint.server.crashes == 1
    assert injector.timeline[0][1] == "server-crash"
    server_bytes = server_fs.read(PATH, 0, 16 * BS)
    assert (hashlib.sha256(server_bytes).hexdigest()
            == hashlib.sha256(payload).hexdigest())
    assert not proxy.block_cache.dirty_blocks()


def test_journal_recovery_discards_corrupted_record():
    """Media corruption after a record was journaled makes that
    record's crc stale: recovery discards exactly that record and
    replays the rest — garbled bytes are never flushed upstream."""
    rig = Rig(metadata=False, cache_config=JOURNALED)
    proxy = rig.session.client_proxy
    fh = fh_for(rig)
    server_fs = rig.endpoint.export.fs
    before = server_fs.read(PATH, 1 * BS, BS)

    def job(env):
        for b in range(3):
            reply = yield from proxy.handle(NfsRequest(
                NfsProc.WRITE, fh=fh, offset=b * BS, data=block(b + 1)))
            assert reply.ok
        # The frame holding block 1 is garbled on disk *after* its
        # journal record landed; the record's crc no longer matches.
        assert proxy.block_cache.corrupt_frame((fh, 1))
        proxy.crash()
        recovered = yield env.process(proxy.recover())
        yield env.process(proxy.flush())
        return recovered

    recovered, _ = rig.run(job(rig.env))
    assert [key[1] for key in recovered] == [0, 2]   # exactly block 1 dropped
    assert proxy.layer("block-cache").stats.recovered_dirty_blocks == 2
    for b in (0, 2):                      # the intact records replayed
        assert server_fs.read(PATH, b * BS, BS) == block(b + 1)
    # Block 1 was neither flushed garbled nor flushed at all.
    after = server_fs.read(PATH, 1 * BS, BS)
    assert after == before and after != block(2)
    assert proxy.block_cache.dirty_frames == 0
