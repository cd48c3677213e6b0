"""Pipelined proxy I/O: in-flight miss coalescing, sequential
readahead, failure cleanup, and coalesced write-back ordering."""

from repro.core.config import ProxyCacheConfig, ProxyConfig
from repro.core.profiler import format_pipeline_report
from repro.nfs.protocol import FileHandle, NfsProc, NfsRequest, NfsStatus
from repro.sim import AllOf
from tests.core.harness import Rig

BS = 8192
PATH = "/images/golden/disk.vmdk"

#: One bank, one 2-way set: every block contends for two frames.
TINY = ProxyCacheConfig(capacity_bytes=2 * BS, n_banks=1, associativity=2)


def fh_for(rig, path=PATH):
    return FileHandle("images", rig.endpoint.export.fs.lookup(path).fileid)


def test_concurrent_cold_reads_coalesce_to_one_upstream_rpc():
    rig = Rig(metadata=False)
    proxy = rig.session.client_proxy
    fh = fh_for(rig)

    def job(env):
        readers = [env.process(proxy.handle(NfsRequest(
            NfsProc.READ, fh=fh, offset=0, count=BS)))
            for _ in range(8)]
        return (yield AllOf(env, readers))

    replies, _ = rig.run(job(rig.env))
    assert len(replies) == 8 and all(r.ok for r in replies)
    assert len({r.data for r in replies}) == 1
    # Exactly one upstream READ: the other seven waited on the gate.
    assert proxy.upstream.stats.by_proc.get("READ", 0) == 1
    assert proxy.layer("block-cache").stats.coalesced_misses == 7
    assert proxy.layer("block-cache").stats.block_cache_misses == 1
    assert proxy.layer("block-cache").stats.block_cache_hits == 7


def test_readahead_accelerates_cold_sequential_reads():
    def timed(depth):
        rig = Rig(metadata=False,
                  proxy_config=ProxyConfig(readahead_depth=depth))

        def job(env):
            f = yield env.process(rig.mount.open(PATH))
            t0 = env.now
            for b in range(64):
                yield env.process(f.read(b * BS, BS))
            return env.now - t0

        elapsed, _ = rig.run(job(rig.env))
        return elapsed, rig.session.client_proxy

    serial, base = timed(0)
    pipelined, proxy = timed(8)
    stats = proxy.layer("readahead").stats
    assert base.layer("readahead").stats.prefetch_issued == 0    # depth 0 really disables it
    assert pipelined * 2 < serial
    assert stats.readahead_windows >= 1
    assert stats.prefetch_used > 0
    assert stats.prefetch_accuracy > 0.8
    report = format_pipeline_report(proxy)
    assert f"prefetch used     : {stats.prefetch_used}" in report
    assert "accuracy" in report and "coalesced" in report


def test_failed_prefetch_releases_gates_and_later_reads_succeed():
    rig = Rig(metadata=False)
    proxy = rig.session.client_proxy
    fh = fh_for(rig)
    fail_offset = 5 * BS
    orig = proxy.upstream.call
    state = {"fails": 0}

    def flaky(request):
        if (request.proc is NfsProc.READ and request.offset == fail_offset
                and state["fails"] == 0):
            state["fails"] += 1

            def boom():
                raise RuntimeError("injected WAN fault")
                yield   # pragma: no cover

            return boom()
        return orig(request)

    proxy.upstream.call = flaky

    def job(env):
        replies = []
        for b in range(4):     # blocks 0,1 miss -> window covers 2..9
            reply = yield from proxy.handle(NfsRequest(
                NfsProc.READ, fh=fh, offset=b * BS, count=BS))
            replies.append(reply)
        return replies

    replies, _ = rig.run(job(rig.env))
    assert all(r.ok for r in replies)
    assert state["fails"] == 1
    assert proxy.layer("readahead").stats.prefetch_failed >= 1
    assert not proxy.layer("block-cache").gates             # nothing left wedged

    def later(env):
        return (yield from proxy.handle(NfsRequest(
            NfsProc.READ, fh=fh, offset=fail_offset, count=BS)))

    reply, _ = rig.run(later(rig.env))
    assert reply.ok and len(reply.data) == BS


def test_rpc_timeout_on_demand_miss_returns_clean_error():
    rig = Rig(metadata=False)
    proxy = rig.session.client_proxy
    rig.session.harden_rpc(timeout=0.25, max_retries=1)
    fh = fh_for(rig)
    rig.endpoint.server.crash()

    def job(env):
        return (yield from proxy.handle(NfsRequest(
            NfsProc.READ, fh=fh, offset=0, count=BS)))

    reply, _ = rig.run(job(rig.env))
    # The retransmission ladder exhausts and the client gets a clean IO
    # error — no hang, no wedged miss gate.
    assert reply.status is NfsStatus.IO
    assert proxy.layer("fault-guard").stats.degraded_read_errors == 1
    assert not proxy.layer("block-cache").gates


def test_rpc_timeout_during_readahead_releases_gates():
    rig = Rig(metadata=False)
    proxy = rig.session.client_proxy
    rig.session.harden_rpc(timeout=0.25, max_retries=0)
    fh = fh_for(rig)

    def chaos(env):
        # Crash while the second miss (and its readahead window) is
        # still on the wire: every in-flight fetch times out.
        yield env.timeout(0.01)
        rig.endpoint.server.crash()

    def job(env):
        first = yield from proxy.handle(NfsRequest(
            NfsProc.READ, fh=fh, offset=0, count=BS))
        assert first.ok
        rig.env.process(chaos(env))
        second = yield from proxy.handle(NfsRequest(
            NfsProc.READ, fh=fh, offset=BS, count=BS))   # opens the window
        assert second.status is NfsStatus.IO
        yield env.timeout(2.0)            # let every prefetch ladder exhaust
        assert not proxy.layer("block-cache").gates     # failed fetches freed their gates
        rig.endpoint.server.restart()
        return (yield from proxy.handle(NfsRequest(
            NfsProc.READ, fh=fh, offset=5 * BS, count=BS)))

    reply, _ = rig.run(job(rig.env))
    assert reply.ok and len(reply.data) == BS
    assert proxy.layer("readahead").stats.prefetch_failed >= 1


def test_dirty_eviction_writes_back_before_flush():
    rig = Rig(metadata=False, cache_config=TINY)
    proxy = rig.session.client_proxy
    fh = fh_for(rig)
    server_fs = rig.endpoint.export.fs

    def block(tag):
        return bytes([tag]) * BS

    def job(env):
        for b in range(3):     # third write evicts the LRU dirty block 0
            reply = yield from proxy.handle(NfsRequest(
                NfsProc.WRITE, fh=fh, offset=b * BS, data=block(b + 1)))
            assert reply.ok

    rig.run(job(rig.env))
    # The evicted dirty block reached the server *before* any flush;
    # the two still-cached blocks did not.
    assert server_fs.read(PATH, 0, BS) == block(1)
    assert server_fs.read(PATH, BS, BS) != block(2)
    assert proxy.layer("block-cache").stats.writebacks == 1
    assert sorted(k[1] for k in proxy.block_cache.dirty_blocks(fh)) == [1, 2]

    rig.run(proxy.flush())
    assert server_fs.read(PATH, BS, BS) == block(2)
    assert server_fs.read(PATH, 2 * BS, BS) == block(3)
    assert not proxy.block_cache.dirty_blocks()
    # The two adjacent dirty blocks went upstream as one merged WRITE.
    assert proxy.layer("block-cache").stats.merged_write_rpcs == 1
    assert proxy.layer("block-cache").stats.merged_write_blocks == 2


def test_write_racing_a_readahead_window_reaches_origin():
    """A window lands after the guest overwrote one of its blocks: the
    stale origin bytes must not replace (and mark clean) the dirty
    frame, or the flush silently loses an acknowledged write."""
    rig = Rig(metadata=False)
    proxy = rig.session.client_proxy
    fh = fh_for(rig)
    server_fs = rig.endpoint.export.fs
    fresh = b"\xa5" * BS

    def job(env):
        for b in range(4):
            reply = yield from proxy.handle(NfsRequest(
                NfsProc.READ, fh=fh, offset=b * BS, count=BS))
            assert reply.ok
        # The window runs ahead of the reader: these fetches are still
        # on the wire.  Overwrite the furthest of them now.
        idx = max(block for f, block in proxy.layer("block-cache").gates if f == fh)
        reply = yield from proxy.handle(NfsRequest(
            NfsProc.WRITE, fh=fh, offset=idx * BS, data=fresh))
        assert reply.ok and (fh, idx) in proxy.layer("block-cache").gates
        return idx

    idx, _ = rig.run(job(rig.env))      # ... and the window lands
    assert not proxy.layer("block-cache").gates
    assert server_fs.read(PATH, idx * BS, BS) != fresh
    assert proxy.block_cache.is_dirty((fh, idx))
    rig.run(proxy.flush())
    assert server_fs.read(PATH, idx * BS, BS) == fresh
    # The rest of the window was installed as usual.
    assert (fh, idx - 1) in proxy.block_cache
    assert not proxy.block_cache.is_dirty((fh, idx - 1))


def test_cold_caches_quiesces_inflight_readahead():
    rig = Rig(metadata=False)
    proxy = rig.session.client_proxy

    def job(env):
        f = yield env.process(rig.mount.open(PATH))
        for b in range(4):
            yield env.process(f.read(b * BS, BS))
        # The window keeps running ahead of the reader: fetches for
        # blocks past 3 are still on the wire at this instant.
        assert proxy.layer("block-cache").gates
        yield env.process(rig.session.cold_caches())

    rig.run(job(rig.env))
    assert not proxy.layer("block-cache").gates
    assert proxy.block_cache.cached_blocks == 0
