"""End-to-end block integrity: the checksum registry, the verify layer
at the top of the client stack, and repair-by-refetch — including
corruption that travels sideways through peer borrowing."""

from types import SimpleNamespace

from repro.core.layers import ChecksumRegistry
from repro.core.session import (
    GvfsSession,
    Scenario,
    ServerEndpoint,
    build_cascade,
)
from repro.net.topology import Testbed
from repro.nfs.protocol import FileHandle, NfsProc, NfsRequest, NfsStatus
from repro.sim import Environment
from repro.vm.image import VmConfig, VmImage
from tests.core.harness import NO_READAHEAD, SMALL_CACHE

BS = 8192
PATH = "/images/golden/disk.vmdk"


def make_rig(levels=(), client_cache=SMALL_CACHE, n_compute=1,
             peers=False, integrity=True,
             proxy_config=NO_READAHEAD):
    testbed = Testbed(Environment(), n_compute=n_compute)
    registry = ChecksumRegistry() if integrity else None
    endpoint = ServerEndpoint(testbed.env, testbed.wan_server,
                              integrity=registry)
    image = VmImage.create(endpoint.export.fs, "/images/golden",
                           VmConfig(name="golden", memory_mb=2,
                                    disk_gb=0.01, seed=7))
    cascade = (build_cascade(testbed, endpoint, list(levels),
                             proxy_config=proxy_config)
               if levels else None)
    directory = testbed.peer_directory() if peers else None
    sessions = [GvfsSession.build(testbed, Scenario.WAN_CACHED,
                                  endpoint=endpoint, compute_index=i,
                                  cache_config=client_cache, metadata=False,
                                  via=cascade, peer_directory=directory,
                                  integrity=registry,
                                  proxy_config=proxy_config)
                for i in range(n_compute)]
    return SimpleNamespace(testbed=testbed, env=testbed.env,
                           registry=registry, endpoint=endpoint, image=image,
                           cascade=cascade, directory=directory,
                           sessions=sessions, session=sessions[0])


def fh_for(rig, path=PATH):
    return FileHandle("images", rig.endpoint.export.fs.lookup(path).fileid)


def run(rig, gen):
    box = {}

    def wrapper(env):
        box["value"] = yield env.process(gen)
        box["t"] = env.now

    rig.env.process(wrapper(rig.env))
    rig.env.run()
    return box["value"], box["t"]


def read(proxy, fh, b):
    return proxy.handle(NfsRequest(NfsProc.READ, fh=fh,
                                   offset=b * BS, count=BS))


# --------------------------------------------------------------------------
# The registry
# --------------------------------------------------------------------------

def test_registry_records_matches_and_invalidates():
    reg = ChecksumRegistry()
    key = ("fh", 0)
    reg.record(key, b"abc")
    assert reg.matches(key, b"abc") is True
    assert reg.matches(key, b"abd") is False
    assert reg.matches(key, b"abcd") is False     # length is part of it
    assert reg.matches(("fh", 1), b"abc") is None  # unrecorded: unknowable
    assert len(reg) == 1 and reg.recorded == 1
    reg.invalidate(key)
    reg.invalidate(key)                           # idempotent
    assert reg.get(key) is None and reg.invalidated == 1


# --------------------------------------------------------------------------
# Clean path
# --------------------------------------------------------------------------

def test_clean_reads_verify_with_identical_timing():
    """Recording + verifying are synchronous crc calls: the same
    workload takes bit-identical simulated time with the layer absent,
    and every full-block read is covered."""
    def workload(integrity):
        rig = make_rig(integrity=integrity)
        proxy = rig.session.client_proxy
        fh = fh_for(rig)

        def job(env):
            for b in (0, 1, 2, 3):
                reply = yield from read(proxy, fh, b)
                assert reply.ok
        return rig, run(rig, job(rig.env))[1]

    rig, elapsed = workload(True)
    _, elapsed_bare = workload(False)
    assert elapsed == elapsed_bare                # bit-identical timing
    chk = rig.session.client_proxy.layer("checksum").stats
    assert chk.crcs_verified == 4
    assert chk.corruptions_caught == 0 and chk.verify_unrepaired == 0
    assert rig.endpoint.proxy.layer("checksum").stats.crcs_recorded == 4
    assert rig.registry.recorded == 4


# --------------------------------------------------------------------------
# Catch and repair
# --------------------------------------------------------------------------

def test_corrupt_client_frame_is_caught_and_repaired():
    rig = make_rig()
    proxy = rig.session.client_proxy
    fh = fh_for(rig)
    golden = rig.image.disk_inode.data.read(3 * BS, BS)

    def job(env):
        warm = yield from read(proxy, fh, 3)
        assert warm.ok and warm.data == golden
        proxy.layer("block-cache").inject_fault("corrupt-frame", 0)
        return (yield from read(proxy, fh, 3))

    reply, _ = run(rig, job(rig.env))
    assert reply.ok and reply.data == golden      # reader never sees garbage
    chk = proxy.layer("checksum").stats
    assert chk.corruptions_caught == 1
    assert chk.corruptions_repaired == 1
    assert chk.verify_unrepaired == 0
    assert proxy.layer("block-cache").stats.frames_corrupted == 1


def test_corruption_borrowed_from_a_peer_is_caught():
    """A neighbour's silently-garbled frame is still advertised (the
    tag is valid); the borrow succeeds, the verify instance catches it,
    and the repair suppresses peer borrowing so the refetch goes to the
    upstream of record instead of the same bad copy."""
    rig = make_rig(n_compute=2, peers=True)
    s0, s1 = rig.sessions
    fh = fh_for(rig)
    golden = rig.image.disk_inode.data.read(5 * BS, BS)

    def job(env):
        assert (yield from read(s1.client_proxy, fh, 5)).ok
        s1.client_proxy.layer("block-cache").block_cache.corrupt_frame(
            (fh, 5))
        return (yield from read(s0.client_proxy, fh, 5))

    reply, _ = run(rig, job(rig.env))
    assert reply.ok and reply.data == golden
    peer = s0.client_proxy.layer("peer-cache").stats
    assert peer.peer_hits == 1                    # the borrow did land
    assert peer.peer_suppressed >= 1              # refetch skipped the peer
    chk = s0.client_proxy.layer("checksum").stats
    assert chk.corruptions_caught == 1
    assert chk.corruptions_repaired == 1


def test_exhausted_repairs_return_clean_io_error():
    """When every refetch keeps producing bytes that mismatch the block
    of record (here: a dirty L2 frame that cannot be discarded), the
    client gets a clean IO error — never the garbled data."""
    rig = make_rig(levels=[SMALL_CACHE])
    client = rig.session.client_proxy
    l2 = rig.cascade.levels[0].proxy
    fh = fh_for(rig)

    def job(env):
        assert (yield from read(client, fh, 1)).ok
        client.layer("block-cache").discard_block((fh, 1))
        bc = l2.layer("block-cache").block_cache
        bank_index, frame_index = bc._where[(fh, 1)]
        bc._banks[bank_index].dirty[frame_index] = True   # only copy: kept
        bc.dirty_frames += 1
        assert bc.corrupt_frame((fh, 1))
        return (yield from read(client, fh, 1))

    reply, _ = run(rig, job(rig.env))
    assert reply.status is NfsStatus.IO
    assert not reply.data                          # no garbled bytes attached
    chk = client.layer("checksum").stats
    assert chk.corruptions_caught == 1
    assert chk.corruptions_repaired == 0
    assert chk.verify_unrepaired == 1


# --------------------------------------------------------------------------
# Writes
# --------------------------------------------------------------------------

def test_write_suspends_coverage_until_writeback_rerecords():
    """A local write diverges the cached block from the block of
    record: its checksum is invalidated at the client and re-recorded
    when the write-back reaches the origin-adjacent record instance."""
    rig = make_rig()
    proxy = rig.session.client_proxy
    fh = fh_for(rig)
    fresh = bytes([0x5A]) * BS

    def job(env):
        assert (yield from read(proxy, fh, 2)).ok
        assert rig.registry.get((fh, 2)) is not None
        reply = yield from proxy.handle(NfsRequest(
            NfsProc.WRITE, fh=fh, offset=2 * BS, data=fresh))
        assert reply.ok
        assert rig.registry.get((fh, 2)) is None  # coverage suspended
        yield env.process(proxy.flush())
        assert rig.registry.matches((fh, 2), fresh) is True
        return (yield from read(proxy, fh, 2))

    reply, _ = run(rig, job(rig.env))
    assert reply.ok and reply.data == fresh
    chk = proxy.layer("checksum").stats
    assert chk.corruptions_caught == 0 and chk.verify_unrepaired == 0
