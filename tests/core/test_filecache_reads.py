"""The file-channel hit path: reads of the proxy's whole-file cache.

A read whose chunk misses the proxy host's page cache pulls the aligned
``ProxyFileCache.READ_EXTENT`` around it off the disk first, so a sweep
over a memory state's scattered non-zero blocks costs one positioning,
not one per block.  A read that hits the page cache takes the path it
always took, to the simulated instant.  And a read whose entry is
dropped during its disk wait — a proxy crash, an invalidation — falls
through to the origin instead of dying on the missing entry.
"""

import math

import pytest

from repro.core.filecache import ProxyFileCache
from repro.core.session import GvfsSession, Scenario, ServerEndpoint
from repro.net.topology import Host, make_paper_testbed
from repro.nfs.protocol import FileHandle, NfsProc, NfsRequest
from repro.sim import Environment
from repro.vm.image import VmConfig, VmImage, make_memory_state

BS = 8192
EXTENT = ProxyFileCache.READ_EXTENT


def run(env, gen):
    box = {}

    def wrapper():
        box["value"] = yield from gen

    env.process(wrapper())
    env.run()
    return box["value"]


class MemoryRig:
    """One WAN_CACHED session and a meta-data memory state (half of its
    blocks zero) that the proxy fetches through the file channel."""

    def __init__(self, memory_mb=8):
        self.testbed = make_paper_testbed(n_compute=1)
        self.env = self.testbed.env
        self.endpoint = ServerEndpoint(self.env, self.testbed.wan_server)
        self.image = VmImage.create(
            self.endpoint.export.fs, "/images/golden",
            VmConfig(name="golden", memory_mb=memory_mb, disk_gb=0.01,
                     seed=7),
            zero_fraction=0.5)
        self.image.generate_metadata(block_size=BS)
        self.session = GvfsSession.build(self.testbed, Scenario.WAN_CACHED,
                                         endpoint=self.endpoint)
        self.proxy = self.session.client_proxy
        self.channel = self.proxy.layer("file-channel")
        self.host = self.session.compute_host.local
        fs = self.endpoint.export.fs
        self.path = self.image.memory_path
        self.fh = FileHandle("images", fs.lookup(self.path).fileid)
        self.dir_fh = FileHandle("images", fs.lookup("/images/golden").fileid)
        self.size = fs.lookup(self.path).data.size
        self.nonzero = [i for i in range(self.size // BS)
                        if self.origin(i) != bytes(BS)]

    def origin(self, block: int) -> bytes:
        return self.endpoint.export.fs.read(self.path, block * BS, BS)

    def lookup(self):
        """Process: LOOKUP through the proxy, which learns the name the
        meta-data probe needs."""
        reply = yield from self.proxy.handle(NfsRequest(
            NfsProc.LOOKUP, fh=self.dir_fh, name=VmImage.MEMORY_NAME))
        assert reply.ok and reply.fh == self.fh

    def read(self, block: int):
        """Process: one block-sized READ at the proxy; the bytes."""
        reply = yield from self.proxy.handle(NfsRequest(
            NfsProc.READ, fh=self.fh, offset=block * BS, count=BS))
        assert reply.ok
        return reply.data

    def run(self, gen):
        return run(self.env, gen)

    def fetched(self):
        """Process: fetch the file with one READ, then let the install's
        write-behind drain; the page cache still holds the file."""
        yield from self.lookup()
        yield from self.read(self.nonzero[0])
        yield self.env.process(self.host.sync())
        assert self.fh in self.channel.file_cache


def sweep(rig, drop: bool):
    """Fetch, then read every non-zero block in order — after dropping
    the host page cache or not.  The disk's counters over the sweep."""
    disk = rig.host.disk

    def job():
        yield from rig.fetched()
        if drop:
            rig.host.drop_caches()
        before = disk.reads, disk.seeks, disk.bytes_read
        for block in rig.nonzero:
            assert (yield from rig.read(block)) == rig.origin(block), block
        return tuple(now - then for now, then in zip(
            (disk.reads, disk.seeks, disk.bytes_read), before))

    return rig.run(job())


def test_a_cold_sweep_reads_the_file_in_extents():
    rig = MemoryRig()
    reads, seeks, nbytes = sweep(rig, drop=True)
    assert len(rig.nonzero) > 400
    assert reads <= math.ceil(rig.size / EXTENT)
    assert seeks <= 1
    assert nbytes <= rig.size


def test_a_warm_sweep_takes_the_page_cache_path_unchanged():
    """Nothing is read off the disk, and the sweep ends at the instant
    it ended at before reads came in extents."""
    rig = MemoryRig()
    assert sweep(rig, drop=False) == (0, 0, 0)
    assert rig.env.now == 2.814285018166349


def test_an_extent_stops_at_the_end_of_the_file():
    env = Environment()
    host = Host(env, "proxy", cpus=2)
    cache = ProxyFileCache(env, host.local)
    size = EXTENT + 5 * BS + 1234
    content = make_memory_state(size, zero_fraction=0.0, seed=3)
    fh = FileHandle("x", 1)
    last = size - (size % BS or BS)
    disk = host.local.disk

    def job():
        yield from cache.install(fh, content)
        yield env.process(host.local.sync())
        host.local.drop_caches()
        before = disk.bytes_read
        data = yield from cache.read(fh, last, BS)
        return data, disk.bytes_read - before

    data, nbytes = run(env, job())
    assert data == content.read(last, BS)
    assert nbytes == size - EXTENT


# -- a read that outlives its entry ------------------------------------------

@pytest.mark.parametrize("after", [0.0005, 0.003])
@pytest.mark.parametrize("strike", ["crash", "invalidate"])
def test_an_entry_dropped_during_the_disk_wait_sends_the_read_upstream(
        strike, after):
    """The READ's chunk is cold, so it waits on the proxy disk; the
    entry goes while it waits.  The guest gets the origin's bytes."""
    rig = MemoryRig()
    block = rig.nonzero[40]

    def striker():
        yield rig.env.timeout(after)
        if strike == "crash":
            rig.proxy.crash()
        else:
            yield rig.env.process(rig.proxy.quiesce())
            rig.proxy.invalidate_caches()

    def job():
        yield from rig.fetched()
        rig.host.drop_caches()
        reader = rig.env.process(rig.read(block))
        rig.env.process(striker())
        return (yield reader)

    assert rig.run(job()) == rig.origin(block)
    assert rig.fh not in rig.channel.file_cache
    assert rig.channel.file_cache.misses == 1
