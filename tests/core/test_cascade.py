"""N-level cascade behaviour: level-by-level serving, deep reset and
snapshots, cascade discovery through RPC handlers, and the aggregated
cascade report."""

import dataclasses
import random

import pytest

from repro.core.config import CachePolicy, ProxyConfig
from repro.core.layers import (
    disable_stack_reports,
    enable_stack_reports,
    format_cascade_reports,
)
from repro.core.session import (
    GvfsSession,
    Scenario,
    ServerEndpoint,
    build_cascade,
)
from repro.net.topology import Testbed
from repro.nfs.protocol import FileHandle, NfsProc, NfsRequest
from repro.sim import AllOf, Environment
from repro.vm.image import VmConfig, VmImage
from tests.core.harness import SMALL_CACHE, Rig
from tests.core.test_pipelined_io import BS, PATH
from tests.core.test_readahead_vouched import MEMORY, WanGuest, schedule


def make_rig(n_levels=2):
    testbed = Testbed(Environment(), n_compute=1)
    endpoint = ServerEndpoint(testbed.env, testbed.wan_server)
    image = VmImage.create(endpoint.export.fs, "/images/golden",
                           VmConfig(name="golden", memory_mb=2, disk_gb=0.01,
                                    seed=47))
    cascade = build_cascade(testbed, endpoint, [SMALL_CACHE] * n_levels)
    session = GvfsSession.build(testbed, Scenario.WAN_CACHED,
                                endpoint=endpoint, cache_config=SMALL_CACHE,
                                via=cascade[0])
    return testbed, endpoint, image, cascade, session


def run(testbed, gen):
    box = {}

    def wrapper(env):
        box["value"] = yield env.process(gen)

    testbed.env.process(wrapper(testbed.env))
    testbed.env.run()
    return box


def read_block(session, block):
    def gen(env):
        f = yield env.process(session.mount.open("/images/golden/disk.vmdk"))
        data = yield env.process(f.read(block * 8192, 8192))
        return data
    return gen


def restart(testbed, session, cascade, tiers):
    """Cold-restart the client plus the first ``tiers - 1`` levels."""
    def gen(env):
        yield env.process(session.cold_caches())
        for level in cascade[:tiers - 1]:
            yield env.process(level.proxy.quiesce())
            level.proxy.invalidate_caches()
    run(testbed, gen(testbed.env))


def test_reads_fill_every_cascade_level():
    testbed, endpoint, image, cascade, session = make_rig()
    box = run(testbed, read_block(session, 0)(testbed.env))
    assert box["value"] == image.disk_inode.data.read(0, 8192)
    assert session.client_proxy.block_cache.cached_blocks >= 1
    for level in cascade:
        assert level.block_cache.cached_blocks >= 1


def test_tier_restart_is_served_by_the_next_level():
    """After cold-restarting tiers 1..j, the refill comes from tier
    j+1 — no deeper level (or the origin) sees the READ again."""
    testbed, endpoint, image, cascade, session = make_rig()
    run(testbed, read_block(session, 0)(testbed.env))
    l2, l3 = cascade

    restart(testbed, session, cascade, tiers=1)
    hits_before = l2.proxy.layer("block-cache").stats.block_cache_hits
    origin_reads = l3.proxy.upstream.stats.by_proc.get("READ", 0)
    run(testbed, read_block(session, 0)(testbed.env))
    assert l2.proxy.layer("block-cache").stats.block_cache_hits == hits_before + 1
    assert l3.proxy.upstream.stats.by_proc.get("READ", 0) == origin_reads

    restart(testbed, session, cascade, tiers=2)
    hits_before = l3.proxy.layer("block-cache").stats.block_cache_hits
    origin_reads = l3.proxy.upstream.stats.by_proc.get("READ", 0)
    run(testbed, read_block(session, 0)(testbed.env))
    assert l3.proxy.layer("block-cache").stats.block_cache_hits == hits_before + 1
    assert l3.proxy.upstream.stats.by_proc.get("READ", 0) == origin_reads


def test_cascade_stacks_discovered_through_rpc_handlers():
    testbed, endpoint, image, cascade, session = make_rig()
    stacks = session.client_proxy.cascade_stacks()
    # client + two cache levels + the server-side forwarding proxy.
    assert stacks == [session.client_proxy, cascade[0].proxy,
                      cascade[1].proxy, endpoint.proxy]


def test_deep_reset_covers_every_level():
    testbed, endpoint, image, cascade, session = make_rig()
    run(testbed, read_block(session, 0)(testbed.env))
    assert endpoint.proxy.front_stats.requests > 0
    session.client_proxy.reset(deep=True)
    # Gauges survive a stats reset: capacity is geometry, occupancy
    # describes live state, not accumulated traffic.
    gauges = {"capacity_frames", "cached_blocks"}
    for stack in session.client_proxy.cascade_stacks():
        assert stack.front_stats.requests == 0
        snap = stack.stats_snapshot()
        assert all(v == 0 for counters in snap.values()
                   for key, v in counters.items() if key not in gauges)


def test_shallow_reset_leaves_upstream_levels_alone():
    testbed, endpoint, image, cascade, session = make_rig()
    run(testbed, read_block(session, 0)(testbed.env))
    session.client_proxy.reset(deep=False)
    assert session.client_proxy.front_stats.requests == 0
    assert cascade[0].proxy.front_stats.requests > 0


def test_deep_snapshot_nests_the_whole_cascade():
    testbed, endpoint, image, cascade, session = make_rig()
    run(testbed, read_block(session, 0)(testbed.env))
    snap = session.client_proxy.stats_snapshot(deep=True)
    names = []
    while "upstream" in snap:
        names.append(snap["upstream"]["name"])
        snap = snap["upstream"]["layers"]
    assert names == [cascade[0].proxy.config.name,
                     cascade[1].proxy.config.name,
                     endpoint.proxy.config.name]
    # The default (shallow) snapshot shape is unchanged.
    assert "upstream" not in session.client_proxy.stats_snapshot()


def test_cascade_report_covers_every_level():
    enable_stack_reports()
    try:
        testbed, endpoint, image, cascade, session = make_rig()
        run(testbed, read_block(session, 0)(testbed.env))
        report = format_cascade_reports()
    finally:
        disable_stack_reports()
    assert report.count("cascade from") == 1
    for line in ("L1 ", "L2 ", "L3 ", "L4 "):
        assert line in report
    assert "hit_ratio=" in report


def test_cascade_levels_get_their_own_hosts():
    testbed, endpoint, image, cascade, session = make_rig()
    # The origin-adjacent level sits on the LAN image server; the
    # client-ward level gets a freshly attached host.
    assert cascade[1].host is testbed.lan_server
    assert cascade[0].host is not testbed.lan_server
    assert cascade[0].host.name == "cascade-l2"


def test_add_host_rejects_duplicate_names():
    testbed = Testbed(Environment(), n_compute=1)
    testbed.add_host("rack-cache")
    with pytest.raises(ValueError):
        testbed.add_host("rack-cache")


# -- WRITEs through a level: every frame a multi-block WRITE covers ------------

def shared_level_rig(policy=CachePolicy.WRITE_BACK):
    """Two sessions (no meta-data: all block-wise) on one cache level."""
    rig = Rig(metadata=False, n_compute=2)
    level_cache = dataclasses.replace(SMALL_CACHE, policy=policy)
    level = build_cascade(rig.testbed, rig.endpoint, [level_cache])[0]
    sessions = [GvfsSession.build(rig.testbed, Scenario.WAN_CACHED,
                                  endpoint=rig.endpoint, compute_index=i,
                                  cache_config=SMALL_CACHE, via=level,
                                  proxy_config=ProxyConfig(metadata=False))
                for i in range(2)]
    return rig, level, sessions


def read_file(session, path=MEMORY):
    handle = yield from session.mount.open(path)
    return (yield from handle.read_all())


@pytest.mark.parametrize("policy", list(CachePolicy), ids=lambda p: p.value)
def test_coalesced_flush_from_below_leaves_no_stale_frame(policy):
    """Read a file through a level, overwrite it from the client (whose
    flush arrives as 64 KB WRITEs), read it through a second session on
    the same level, flush the level: the writer, the second reader and
    the origin all hold the new bytes."""
    rig, level, (writer, reader) = shared_level_rig(policy)
    fs = rig.endpoint.export.fs
    old = fs.read(MEMORY)
    new = old.translate(bytes(b ^ 0x5A for b in range(256)))

    def job():
        assert (yield from read_file(writer)) == old   # fills the level
        handle = yield from writer.mount.open(MEMORY)
        yield from handle.write(0, new)
        yield rig.env.process(writer.mount.flush_all())
        yield rig.env.process(writer.client_proxy.flush())
        seen = yield from read_file(reader)
        yield rig.env.process(level.proxy.flush())
        return seen, (yield from read_file(writer))

    (second, first), _ = rig.run(job())
    stats = level.proxy.layer("block-cache").stats
    assert writer.client_proxy.layer("block-cache").stats.merged_write_rpcs
    assert stats.absorbed_writes or policy is CachePolicy.WRITE_THROUGH
    stale = [i for i in range(len(new) // BS)
             if second[i * BS:(i + 1) * BS] != new[i * BS:(i + 1) * BS]]
    assert not stale, f"{len(stale)} stale blocks read through the level"
    assert first == new and fs.read(MEMORY) == new
    assert level.proxy.dirty_state() == (0, 0)


def test_multi_block_write_over_dirty_and_partial_frames():
    """An unaligned WRITE across four frames, two of them already dirty
    at the level with older bytes: READs through the level see it at
    once, and the level's flush cannot put the older bytes back."""
    rig, level, (session, _) = shared_level_rig()
    fs = rig.endpoint.export.fs
    fh = FileHandle("images", fs.lookup(MEMORY).fileid)
    model = bytearray(fs.read(MEMORY))
    proxy = level.proxy

    def write(offset, data):
        reply = yield from proxy.handle(NfsRequest(
            NfsProc.WRITE, fh=fh, offset=offset, data=data))
        assert reply.ok and reply.count == len(data)
        model[offset:offset + len(data)] = data

    def job():
        yield from write(4 * BS, b"\x11" * BS)          # dirty, whole
        yield from write(6 * BS + 10, b"\x22" * 100)    # dirty, merged
        yield from write(3 * BS + 100, b"\x33" * (3 * BS + 50))
        for block in range(2, 9):
            reply = yield from proxy.handle(NfsRequest(
                NfsProc.READ, fh=fh, offset=block * BS, count=BS))
            assert reply.data == model[block * BS:(block + 1) * BS], block
        assert fs.read(MEMORY) != model                 # absorbed, not sent
        yield from proxy.flush()
        return (yield from read_file(session))

    seen, _ = rig.run(job())
    assert seen == model == fs.read(MEMORY)
    assert proxy.dirty_state() == (0, 0)


def test_seeded_schedules_over_a_shared_level_match_a_file_model():
    """The read/write/flush property of ``test_readahead_vouched`` with
    a cache level in the path and two sessions on it, one file each
    (a second rule set for ROADMAP item 1): every READ returns the
    model's bytes, every flush leaves them at the origin, and a session
    that never touched the other's file reads it fresh through the
    level whose frames the other's coalesced flushes overwrote."""
    absorbed = merged = 0
    for seed in range(3):
        rig = Rig(metadata=False, n_compute=2, via_second_level=True)
        level = rig.second_level.proxy
        guests = [WanGuest(rig, rig.sessions[i], paths=[path])
                  for i, path in enumerate((PATH, MEMORY))]

        def job():
            yield AllOf(rig.env, [
                rig.env.process(schedule(guest,
                                         random.Random(f"{seed}:{i}")))
                for i, guest in enumerate(guests)])
            yield from level.quiesce()
            for guest, other in (guests, guests[::-1]):
                for fh, data in other.model.items():
                    guest.model[fh] = data
                    for block in range(len(data) // BS):
                        yield from guest.read(fh, block)

        try:
            rig.run(job())
        except AssertionError as exc:
            raise AssertionError(f"schedule {seed} diverged") from exc
        for stack in [level] + [guest.proxy for guest in guests]:
            ledger = stack.layer("readahead").stats
            assert (ledger.prefetch_used + ledger.prefetch_failed
                    <= ledger.prefetch_issued)
            assert not stack.layer("block-cache").gates
            assert stack.dirty_state() == (0, 0)
        absorbed += level.layer("block-cache").stats.absorbed_writes
        merged += sum(g.block.stats.merged_write_rpcs for g in guests)
    assert absorbed > 50 and merged > 20      # not vacuous


# -- a level that restarts while a whole file moves through it ------------------

MEM = "/images/golden/mem.vmss"
MARKER = b"checkpointed state" * 4


def file_channel_rig():
    """Client -> one level -> origin, the memory image on the file
    channel at both hops."""
    testbed, endpoint, image, cascade, session = make_rig(n_levels=1)
    image.generate_metadata()
    return testbed, image, cascade[0], session


def first_data_block(image):
    """A block the zero map does not answer: reading it pulls the file."""
    data = image.memory_inode.data
    return 8192 * next(i for i in range(data.n_chunks())
                       if not data.chunk_is_zero(i))


def read_then_write(session, image, before_write=None):
    """Process: pull the memory image whole, overwrite a block of it,
    and flush every tier."""
    offset = first_data_block(image)

    def gen(env):
        f = yield env.process(session.mount.open(MEM))
        yield env.process(f.read(offset, 8192))
        if before_write is not None:
            before_write()
        yield env.process(f.write_sync(offset, MARKER))
        yield env.process(session.flush())
    return gen


def origin_has_marker(image):
    return image.memory_inode.data.read(first_data_block(image),
                                        len(MARKER)) == MARKER


def test_level_restart_between_install_and_fetch_return_refetches():
    """The level's install lands, the level restarts, then its fetch
    returns: the client must not resolve the entry the restart took."""
    testbed, image, level, session = file_channel_rig()
    cache = level.channel.file_cache
    install = cache.install

    def install_then_restart(fh, content):
        cache.install = install                 # strike once
        entry = yield from install(fh, content)
        level.proxy.crash()
        return entry

    cache.install = install_then_restart
    box = run(testbed, read_then_write(session, image)(testbed.env))
    assert "value" in box
    assert level.channel.fetches == 2
    assert origin_has_marker(image)


def test_level_restart_before_an_upload_takes_the_uploaded_copy():
    """A level that lost its copy (clean or not) since the client
    fetched it gets the uploaded whole file as its new copy."""
    testbed, image, level, session = file_channel_rig()
    box = run(testbed, read_then_write(session, image, level.proxy.crash)(
        testbed.env))
    assert "value" in box
    assert level.channel.fetches == 1
    assert origin_has_marker(image)


def test_level_restart_mid_upload_sends_it_again():
    testbed, image, level, session = file_channel_rig()
    child = session.client_proxy.channel
    stage = child._uncompress_stage

    def uncompress_after_restart(host, size):
        if host is level.host:                  # the level's gunzip
            child._uncompress_stage = stage     # strike once
            level.proxy.crash()
        yield from stage(host, size)

    child._uncompress_stage = uncompress_after_restart
    box = run(testbed, read_then_write(session, image)(testbed.env))
    assert "value" in box
    assert child.uploads == 2
    assert origin_has_marker(image)


def test_level_restart_drops_dirty_whole_files():
    """Without a journal for the file cache, an upload the level has
    absorbed but not yet pushed dies with it."""
    testbed, image, level, session = file_channel_rig()

    offset = first_data_block(image)

    def gen(env):
        f = yield env.process(session.mount.open(MEM))
        yield env.process(f.read(offset, 8192))
        yield env.process(f.write_sync(offset, MARKER))
        yield env.process(session.client_proxy.flush())
        assert level.channel.file_cache.dirty_entries()
        level.proxy.crash()
        yield env.process(session.flush())

    assert "value" in run(testbed, gen(testbed.env))
    assert level.channel.file_cache.cached_files == 0
    assert not origin_has_marker(image)


def test_cascaded_uploads_take_the_outbound_route():
    """A whole-file upload travels toward the hop it writes to: the
    client's crosses its uplink to the level, the level's flush crosses
    Abilene origin-ward — neither rides the download links."""
    testbed, image, level, session = file_channel_rig()
    compute, origin = testbed.compute[0], testbed.wan_server
    moved = []

    def watch(channel, out, back):
        upload = channel.upload

        def watched(fh):
            links = out.links + back.links
            before = [link.bytes_sent for link in links]
            compressed = yield from upload(fh)
            delta = [link.bytes_sent - b for link, b in zip(links, before)]
            moved.append((compressed, delta[:len(out.links)],
                          delta[len(out.links):]))
            return compressed
        channel.upload = watched

    watch(session.client_proxy.channel, testbed.route(compute, level.host),
          testbed.route(level.host, compute))
    watch(level.channel, testbed.route(level.host, origin, True),
          testbed.route(origin, level.host, True))
    assert "value" in run(testbed, read_then_write(session, image)(
        testbed.env))
    assert len(moved) == 2                      # the client's, the level's
    for compressed, out, back in moved:
        assert min(out) >= compressed > max(back)
    assert origin_has_marker(image)
