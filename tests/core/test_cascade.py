"""N-level cascade behaviour: level-by-level serving, deep reset and
snapshots, cascade discovery through RPC handlers, and the aggregated
cascade report."""

import dataclasses
import random

import pytest

from repro.core.config import CachePolicy
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
                                via=cascade)
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
        for level in cascade.levels[:tiers - 1]:
            yield env.process(level.proxy.quiesce())
            level.proxy.invalidate_caches()
    run(testbed, gen(testbed.env))


def test_reads_fill_every_cascade_level():
    testbed, endpoint, image, cascade, session = make_rig()
    box = run(testbed, read_block(session, 0)(testbed.env))
    assert box["value"] == image.disk_inode.data.read(0, 8192)
    assert session.client_proxy.block_cache.cached_blocks >= 1
    for level in cascade.levels:
        assert level.block_cache.cached_blocks >= 1


def test_tier_restart_is_served_by_the_next_level():
    """After cold-restarting tiers 1..j, the refill comes from tier
    j+1 — no deeper level (or the origin) sees the READ again."""
    testbed, endpoint, image, cascade, session = make_rig()
    run(testbed, read_block(session, 0)(testbed.env))
    l2, l3 = cascade.levels

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
    assert stacks == [session.client_proxy, cascade.levels[0].proxy,
                      cascade.levels[1].proxy, endpoint.proxy]


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
    assert cascade.levels[0].proxy.front_stats.requests > 0


def test_deep_snapshot_nests_the_whole_cascade():
    testbed, endpoint, image, cascade, session = make_rig()
    run(testbed, read_block(session, 0)(testbed.env))
    snap = session.client_proxy.stats_snapshot(deep=True)
    names = []
    while "upstream" in snap:
        names.append(snap["upstream"]["name"])
        snap = snap["upstream"]["layers"]
    assert names == [cascade.levels[0].proxy.config.name,
                     cascade.levels[1].proxy.config.name,
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


def test_cascade_reset_and_snapshots_api():
    testbed, endpoint, image, cascade, session = make_rig()
    run(testbed, read_block(session, 0)(testbed.env))
    assert cascade.depth == 3
    assert cascade.top is cascade.levels[0]
    assert len(cascade.stats_snapshots()) == 2
    cascade.reset()
    gauges = {"capacity_frames", "cached_blocks"}
    assert all(v == 0 for snap in cascade.stats_snapshots()
               for counters in snap.values()
               for key, v in counters.items() if key not in gauges)


def test_cascade_levels_get_their_own_hosts():
    testbed, endpoint, image, cascade, session = make_rig()
    # The origin-adjacent level sits on the LAN image server; the
    # client-ward level gets a freshly attached host.
    assert cascade.levels[1].host is testbed.lan_server
    assert cascade.levels[0].host is not testbed.lan_server
    assert cascade.levels[0].host.name == "cascade-l2"


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
    level = build_cascade(rig.testbed, rig.endpoint, [level_cache]).top
    sessions = [GvfsSession.build(rig.testbed, Scenario.WAN_CACHED,
                                  endpoint=rig.endpoint, compute_index=i,
                                  cache_config=SMALL_CACHE, metadata=False,
                                  via=level)
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
