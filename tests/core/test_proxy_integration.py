"""End-to-end tests of the GVFS proxy chain: client -> proxy -> server."""

import pytest

from repro.core.metadata import MetadataAction, generate_metadata
from repro.core.session import Scenario
from repro.nfs.protocol import FileHandle, NfsProc, NfsRequest
from tests.core.harness import Rig


def test_read_through_full_chain_matches_golden_bytes():
    rig = Rig()
    golden = rig.image.memory_inode.data

    def proc(env):
        f = yield env.process(rig.mount.open("/images/golden/mem.vmss"))
        return (yield env.process(f.read(0, 65536)))

    value, _ = rig.run(proc(rig.env))
    assert value == golden.read(0, 65536)


def test_credentials_remapped_by_server_proxy():
    rig = Rig(scenario=Scenario.WAN)
    seen = []
    original_dispatch = rig.endpoint.server._dispatch

    def spying(req):
        seen.append(req.credentials)
        return original_dispatch(req)

    rig.endpoint.server._dispatch = spying

    def proc(env):
        f = yield env.process(rig.mount.open("/images/golden/vm.cfg"))
        yield env.process(f.read(0, 100))

    rig.run(proc(rig.env))
    assert seen
    assert all(c == (1001, 1001) for c in seen)


def test_zero_blocks_filtered_locally():
    rig = Rig()
    rig.image.generate_metadata()
    meta = rig.image.generate_metadata()
    zero_block = min(meta.zero_blocks)

    def proc(env):
        f = yield env.process(rig.mount.open("/images/golden/mem.vmss"))
        data = yield env.process(f.read(zero_block * 8192, 8192))
        return data

    value, _ = rig.run(proc(rig.env))
    assert value == bytes(8192)
    assert rig.session.client_proxy.layer("metadata").stats.zero_filtered_reads >= 1


def test_zero_filtered_reads_share_one_block_per_length():
    rig = Rig()
    meta = rig.image.generate_metadata()
    proxy = rig.session.client_proxy
    fh = FileHandle("images", rig.image.memory_inode.fileid)
    zeros = sorted(meta.zero_blocks)[:3]

    def proc(env):
        yield env.process(rig.mount.open("/images/golden/mem.vmss"))
        out = []
        for block, count in [(b, 8192) for b in zeros] + [(zeros[0], 100)]:
            reply = yield from proxy.handle(NfsRequest(
                NfsProc.READ, fh=fh, offset=block * 8192, count=count))
            out.append(reply.data)
        return out

    (a, b, c, short), _ = rig.run(proc(rig.env))
    assert a == bytes(8192) and short == bytes(100)
    assert a is b is c and short is not a
    assert proxy.layer("metadata").stats.zero_filtered_reads == 4


def test_zero_filter_count_matches_metadata():
    """Reading the whole memory state filters exactly the zero blocks."""
    rig = Rig(image_mb=2)
    # Zero map only, no channel actions: every non-zero block goes the
    # block path, every zero block is filtered.
    meta = generate_metadata(rig.endpoint.export.fs,
                             "/images/golden/mem.vmss", actions=[])
    n_zero = meta.n_zero_blocks

    def proc(env):
        f = yield env.process(rig.mount.open("/images/golden/mem.vmss"))
        offset = 0
        while offset < f.size:
            data = yield env.process(f.read(offset, 8192))
            offset += len(data)

    rig.run(proc(rig.env))
    assert rig.session.client_proxy.layer("metadata").stats.zero_filtered_reads == n_zero


def test_file_channel_fetch_serves_whole_file():
    rig = Rig()
    rig.image.generate_metadata()  # includes REMOTE_COPY actions
    golden = rig.image.memory_inode.data

    def proc(env):
        f = yield env.process(rig.mount.open("/images/golden/mem.vmss"))
        out = bytearray()
        offset = 0
        while offset < f.size:
            data = yield env.process(f.read(offset, 8192))
            if not data:
                break
            out += data
            offset += len(data)
        return bytes(out)

    value, _ = rig.run(proc(rig.env))
    assert value == golden.read(0, golden.size)
    stats = rig.session.client_proxy.layer("file-channel").stats
    assert stats.channel_fetches == 1
    assert stats.file_cache_reads > 0


def test_file_channel_moves_fewer_bytes_than_file():
    rig = Rig(image_mb=4)
    rig.image.generate_metadata()

    def proc(env):
        f = yield env.process(rig.mount.open("/images/golden/mem.vmss"))
        offset = 0
        while offset < f.size:
            data = yield env.process(f.read(offset, 8192))
            offset += len(data)

    rig.run(proc(rig.env))
    channel = rig.session.client_proxy.channel
    assert channel.bytes_on_wire < channel.bytes_logical / 2


def test_block_cache_hit_on_second_read():
    rig = Rig(metadata=False)

    def proc(env):
        f = yield env.process(rig.mount.open("/images/golden/disk.vmdk"))
        yield env.process(f.read(0, 8192))
        rig.mount.drop_caches()  # defeat the kernel buffer cache
        f2 = yield env.process(rig.mount.open("/images/golden/disk.vmdk"))
        before = rig.session.client_proxy.layer("block-cache").stats.block_cache_hits
        yield env.process(f2.read(0, 8192))
        return before, rig.session.client_proxy.layer("block-cache").stats.block_cache_hits

    (before, after), _ = rig.run(proc(rig.env))
    assert after == before + 1


def test_block_cache_hit_faster_than_wan_miss():
    rig = Rig(metadata=False)

    def proc(env):
        f = yield env.process(rig.mount.open("/images/golden/disk.vmdk"))
        t0 = env.now
        yield env.process(f.read(0, 8192))
        miss_time = env.now - t0
        rig.mount.drop_caches()
        f2 = yield env.process(rig.mount.open("/images/golden/disk.vmdk"))
        t0 = env.now
        yield env.process(f2.read(0, 8192))
        return miss_time, env.now - t0

    (miss, hit), _ = rig.run(proc(rig.env))
    assert hit < miss / 5


def test_write_back_absorbs_writes_locally():
    rig = Rig(metadata=False)

    def proc(env):
        f = yield env.process(rig.mount.create("/images/golden/redo.log"))
        t0 = env.now
        yield env.process(f.write(0, b"R" * 8192))
        yield env.process(f.close())
        elapsed = env.now - t0
        server_view = rig.endpoint.export.fs.read("/images/golden/redo.log")
        return elapsed, server_view

    (elapsed, server_view), _ = rig.run(proc(rig.env))
    # Data was absorbed by the proxy: fast, and not yet at the server.
    assert elapsed < 0.030  # under one WAN round trip
    assert server_view == b""
    assert rig.session.client_proxy.layer("block-cache").stats.absorbed_writes >= 1


def test_flush_pushes_dirty_blocks_to_server():
    rig = Rig(metadata=False)

    def proc(env):
        f = yield env.process(rig.mount.create("/images/golden/redo.log"))
        yield env.process(f.write(0, b"R" * 8192))
        yield env.process(f.close())
        yield env.process(rig.session.client_proxy.flush())
        return rig.endpoint.export.fs.read("/images/golden/redo.log")

    value, _ = rig.run(proc(rig.env))
    assert value == b"R" * 8192
    assert rig.session.client_proxy.layer("block-cache").stats.writebacks >= 1


def test_read_your_writes_through_write_back_proxy():
    rig = Rig(metadata=False)

    def proc(env):
        f = yield env.process(rig.mount.create("/images/golden/f.dat"))
        yield env.process(f.write(0, b"hello-gvfs"))
        yield env.process(f.close())
        rig.mount.drop_caches()  # force re-read through the proxy
        f2 = yield env.process(rig.mount.open("/images/golden/f.dat"))
        return (yield env.process(f2.read(0, 10)))

    value, _ = rig.run(proc(rig.env))
    assert value == b"hello-gvfs"


def test_getattr_size_patched_for_dirty_growth():
    rig = Rig(metadata=False,
              mount_options=None)

    def proc(env):
        f = yield env.process(rig.mount.create("/images/golden/grow.log"))
        yield env.process(f.write(0, b"G" * 20000))
        yield env.process(f.close())
        yield env.timeout(10)  # let the attr cache expire
        attrs = yield env.process(rig.mount.stat("/images/golden/grow.log"))
        return attrs.size

    value, _ = rig.run(proc(rig.env))
    assert value == 20000


def test_commit_absorbed_in_write_back_mode():
    rig = Rig(metadata=False)

    def proc(env):
        f = yield env.process(rig.mount.create("/images/golden/c.log"))
        yield env.process(f.write(0, b"C" * 100))
        yield env.process(f.close())  # close issues COMMIT

    rig.run(proc(rig.env))
    assert rig.session.client_proxy.layer("block-cache").stats.absorbed_commits >= 1


def test_invalidate_refuses_dirty_then_succeeds_after_flush():
    rig = Rig(metadata=False)

    def proc(env):
        f = yield env.process(rig.mount.create("/images/golden/d.log"))
        yield env.process(f.write(0, b"D"))
        yield env.process(f.close())
        try:
            rig.session.client_proxy.invalidate_caches()
            return "allowed"
        except RuntimeError:
            pass
        yield env.process(rig.session.client_proxy.flush())
        rig.session.client_proxy.invalidate_caches()
        return "ok"

    value, _ = rig.run(proc(rig.env))
    assert value == "ok"


def test_lan_scenario_builds_without_client_proxy():
    rig = Rig(scenario=Scenario.LAN)
    assert rig.session.client_proxy is None

    def proc(env):
        f = yield env.process(rig.mount.open("/images/golden/vm.cfg"))
        return (yield env.process(f.read(0, 50)))

    value, _ = rig.run(proc(rig.env))
    assert value.startswith(b"displayName")


def test_local_scenario_has_plain_local_mount():
    rig = Rig(scenario=Scenario.LOCAL)
    lfs = rig.session.mount.lfs
    lfs.fs.mkdir("/vm")
    lfs.fs.create("/vm/file")
    lfs.fs.write("/vm/file", b"local-bytes")

    def proc(env):
        f = yield env.process(rig.session.mount.open("/vm/file"))
        return (yield env.process(f.read(0, 50)))

    value, _ = rig.run(proc(rig.env))
    assert value == b"local-bytes"


def test_wan_faster_than_wan_is_false_but_cached_faster_than_plain():
    """WAN+C beats WAN on repeated cold-buffer reads (the paper's >30%)."""
    def total_time(scenario):
        rig = Rig(scenario=scenario, metadata=False)

        def proc(env):
            for _ in range(3):
                f = yield env.process(
                    rig.mount.open("/images/golden/disk.vmdk"))
                for i in range(16):
                    yield env.process(f.read(i * 8192, 8192))
                rig.mount.drop_caches()

        _, t = rig.run(proc(rig.env))
        return t

    assert total_time(Scenario.WAN_CACHED) < total_time(Scenario.WAN) * 0.6


def test_second_level_cache_chain():
    rig = Rig(via_second_level=True)
    rig.image.generate_metadata()
    golden = rig.image.memory_inode.data

    def proc(env):
        f = yield env.process(rig.mount.open("/images/golden/mem.vmss"))
        out = bytearray()
        offset = 0
        while offset < f.size:
            data = yield env.process(f.read(offset, 8192))
            if not data:
                break
            out += data
            offset += len(data)
        return bytes(out)

    value, _ = rig.run(proc(rig.env))
    assert value == golden.read(0, golden.size)
    # Both levels fetched through their channels.
    assert rig.second_level.channel.fetches == 1
    assert rig.session.client_proxy.channel.fetches == 1
