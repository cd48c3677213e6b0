"""Tests for the disk timing model and the timed local filesystem."""

import pytest

from repro.sim import Environment
from repro.storage.disk import Disk, DiskParams, SCSI_2003
from repro.storage.localfs import MAX_CACHED_OFFSET, LocalFileSystem
from repro.storage.vfs import CHUNK_SIZE


def run(env, gen):
    box = {}

    def wrapper(env):
        box["value"] = yield env.process(gen)
        box["t"] = env.now

    env.process(wrapper(env))
    env.run()
    return box


# -- Disk -----------------------------------------------------------------------

def test_random_read_pays_positioning():
    env = Environment()
    params = DiskParams(positioning=0.005, bandwidth=1e6, overhead=0)
    disk = Disk(env, params)
    stream = object()
    box = run(env, disk.read(stream, 0, 1000))
    assert box["t"] == pytest.approx(0.005 + 0.001)


def test_sequential_read_skips_positioning():
    env = Environment()
    params = DiskParams(positioning=0.005, bandwidth=1e6, overhead=0)
    disk = Disk(env, params)
    stream = object()

    def proc(env):
        yield env.process(disk.read(stream, 0, 1000))
        first = env.now
        yield env.process(disk.read(stream, 1000, 1000))
        return first, env.now

    box = run(env, proc(env))
    first, second = box["value"]
    assert first == pytest.approx(0.006)
    assert second - first == pytest.approx(0.001)  # no positioning


def test_interleaved_streams_stay_sequential_with_switch_cost():
    """Two interleaved sequential streams keep per-stream continuity;
    hopping between them costs only the small elevator switch penalty."""
    env = Environment()
    params = DiskParams(positioning=0.005, bandwidth=1e6, overhead=0,
                        stream_switch=0.001)
    disk = Disk(env, params)
    a, b = object(), object()

    def proc(env):
        yield env.process(disk.read(a, 0, 1000))      # seek (first touch)
        yield env.process(disk.read(b, 0, 1000))      # seek (first touch)
        yield env.process(disk.read(a, 1000, 1000))   # sequential + switch
        yield env.process(disk.read(b, 1000, 1000))   # sequential + switch
        return env.now

    box = run(env, proc(env))
    assert box["value"] == pytest.approx(2 * 0.006 + 2 * 0.002)
    assert disk.seeks == 2


def test_random_offsets_still_pay_positioning():
    env = Environment()
    params = DiskParams(positioning=0.005, bandwidth=1e6, overhead=0)
    disk = Disk(env, params)
    s = object()

    def proc(env):
        yield env.process(disk.read(s, 0, 1000))
        yield env.process(disk.read(s, 500_000, 1000))  # discontinuity
        return env.now

    box = run(env, proc(env))
    assert box["value"] == pytest.approx(2 * 0.006)
    assert disk.seeks == 2


def test_disk_queueing_serializes():
    env = Environment()
    params = DiskParams(positioning=0.0, bandwidth=1e3, overhead=0)
    disk = Disk(env, params)
    times = []

    def proc(env, stream):
        yield env.process(disk.read(stream, 0, 1000))
        times.append(env.now)

    env.process(proc(env, object()))
    env.process(proc(env, object()))
    env.run()
    assert times == [pytest.approx(1.0), pytest.approx(2.0)]


def test_disk_statistics():
    env = Environment()
    disk = Disk(env, SCSI_2003)
    s = object()
    run(env, disk.read(s, 0, 4096))
    env2 = Environment()
    disk2 = Disk(env2, SCSI_2003)
    run(env2, disk2.write(s, 0, 4096))
    assert disk.reads == 1 and disk.bytes_read == 4096
    assert disk2.writes == 1 and disk2.bytes_written == 4096


def test_bad_access_rejected():
    env = Environment()
    disk = Disk(env, SCSI_2003)

    def proc(env):
        yield env.process(disk.read(object(), -1, 10))

    env.process(proc(env))
    with pytest.raises(ValueError):
        env.run()


# -- LocalFileSystem ------------------------------------------------------------

def test_timed_read_returns_data():
    env = Environment()
    lfs = LocalFileSystem(env)
    lfs.fs.create("/f")
    lfs.fs.write("/f", b"payload")
    box = run(env, lfs.timed_read("/f", 0, 7))
    assert box["value"] == b"payload"
    assert box["t"] > 0


def test_page_cache_hit_is_free():
    env = Environment()
    lfs = LocalFileSystem(env)
    lfs.fs.create("/f", size=CHUNK_SIZE)

    def proc(env):
        yield env.process(lfs.timed_read("/f", 0, CHUNK_SIZE))
        first = env.now
        yield env.process(lfs.timed_read("/f", 0, CHUNK_SIZE))
        return first, env.now

    box = run(env, proc(env))
    first, second = box["value"]
    assert first > 0
    assert second == first  # cache hit: zero simulated time
    assert lfs.cache_hits == 1


def test_drop_caches_forces_disk_again():
    env = Environment()
    lfs = LocalFileSystem(env)
    lfs.fs.create("/f", size=CHUNK_SIZE)

    def proc(env):
        yield env.process(lfs.timed_read("/f", 0, CHUNK_SIZE))
        lfs.drop_caches()
        t0 = env.now
        yield env.process(lfs.timed_read("/f", 0, CHUNK_SIZE))
        return env.now - t0

    box = run(env, proc(env))
    assert box["value"] > 0


def test_page_cached_reports_a_chunk_without_moving_the_lru():
    env = Environment()
    lfs = LocalFileSystem(env)
    inode = lfs.fs.create("/f", size=4 * CHUNK_SIZE)
    assert not lfs.page_cached(inode, 0)
    run(env, lfs.timed_read_inode(inode, CHUNK_SIZE, CHUNK_SIZE))
    assert lfs.page_cached(inode, CHUNK_SIZE)
    assert lfs.page_cached(inode, 2 * CHUNK_SIZE - 1)
    assert not lfs.page_cached(inode, 2 * CHUNK_SIZE + 1)  # next chunk
    order = list(lfs._page_cache)
    lfs.page_cached(inode, CHUNK_SIZE)
    assert list(lfs._page_cache) == order
    lfs.drop_caches()
    assert not lfs.page_cached(inode, CHUNK_SIZE)


def test_page_cache_eviction_lru():
    env = Environment()
    lfs = LocalFileSystem(env, page_cache_bytes=2 * CHUNK_SIZE)
    lfs.fs.create("/f", size=10 * CHUNK_SIZE)

    def proc(env):
        for i in range(3):  # touch chunks 0,1,2 -> 0 evicted
            yield env.process(lfs.timed_read("/f", i * CHUNK_SIZE, CHUNK_SIZE))
        t0 = env.now
        yield env.process(lfs.timed_read("/f", 0, CHUNK_SIZE))
        return env.now - t0

    box = run(env, proc(env))
    assert box["value"] > 0  # chunk 0 had been evicted


def test_async_write_fast_then_sync_waits():
    env = Environment()
    lfs = LocalFileSystem(env)
    lfs.fs.create("/f")

    def proc(env):
        yield env.process(lfs.timed_write("/f", b"x" * 1024 * 1024))
        async_done = env.now
        yield env.process(lfs.sync())
        return async_done, env.now

    box = run(env, proc(env))
    async_done, synced = box["value"]
    disk_time = 1024 * 1024 / SCSI_2003.bandwidth
    assert async_done < disk_time  # returned before media write
    assert synced >= disk_time * 0.9
    assert lfs.dirty_bytes == 0


def test_writer_blocks_above_dirty_limit():
    env = Environment()
    lfs = LocalFileSystem(env)
    lfs.dirty_limit = 1024
    lfs.fs.create("/f")

    def proc(env):
        yield env.process(lfs.timed_write("/f", b"y" * 100 * 1024))
        return env.now

    box = run(env, proc(env))
    assert box["value"] > 0  # had to wait for the flusher


def test_sync_write_charged_immediately():
    env = Environment()
    lfs = LocalFileSystem(env)
    lfs.fs.create("/f")
    box = run(env, lfs.timed_write("/f", b"z" * 4096, 0, True))
    assert box["t"] >= 4096 / SCSI_2003.bandwidth


def test_timed_read_inode_equivalent_to_path():
    env = Environment()
    lfs = LocalFileSystem(env)
    inode = lfs.fs.create("/f")
    lfs.fs.write("/f", b"abc123")
    box = run(env, lfs.timed_read_inode(inode, 2, 3))
    assert box["value"] == b"c12"


# -- page-cache keys ----------------------------------------------------------

def test_page_cache_keys_of_adjacent_files_stay_disjoint_at_the_bound():
    """Keys pack ``fileid`` and chunk index into one int; at the largest
    chunk index a file's keys must not run into the next file's."""
    env = Environment()
    lfs = LocalFileSystem(env)
    a, b = lfs.fs.create("/a"), lfs.fs.create("/b")
    assert b.fileid == a.fileid + 1
    last = MAX_CACHED_OFFSET - CHUNK_SIZE
    keys = {}
    for inode in (a, b):
        lfs.drop_caches()
        run(env, lfs.timed_write_inode(inode, b"q" * CHUNK_SIZE, last))
        lfs.drop_caches()
        run(env, lfs.timed_scan_inode(inode, 0, CHUNK_SIZE))
        run(env, lfs.timed_scan_inode(inode, last, CHUNK_SIZE))
        keys[inode.fileid] = set(lfs._page_cache)
    assert len(keys[a.fileid]) == len(keys[b.fileid]) == 2
    assert keys[a.fileid].isdisjoint(keys[b.fileid])


def test_timed_io_past_the_key_bound_is_rejected():
    env = Environment()
    lfs = LocalFileSystem(env)
    inode = lfs.fs.create("/big", size=MAX_CACHED_OFFSET + CHUNK_SIZE)
    with pytest.raises(ValueError, match="key range"):
        run(env, lfs.timed_scan_inode(inode, MAX_CACHED_OFFSET, 1))
    with pytest.raises(ValueError, match="key range"):
        run(env, lfs.timed_write_inode(inode, b"x", MAX_CACHED_OFFSET))
    with pytest.raises(ValueError, match="key range"):
        run(env, lfs.timed_write_inode(
            inode, [b"x" * CHUNK_SIZE, b"y"], MAX_CACHED_OFFSET - CHUNK_SIZE))
    assert not lfs._page_cache
    assert inode.data.read(MAX_CACHED_OFFSET - CHUNK_SIZE, 1) == b"\0"
