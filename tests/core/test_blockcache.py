"""Unit tests for the proxy block cache (banks/frames/sets, §3.2.1)."""

import pytest

from repro.core.blockcache import ProxyBlockCache, _Bank
from repro.core.config import CachePolicy, ProxyCacheConfig
from repro.nfs.protocol import FileHandle
from repro.sim import Environment
from repro.storage.localfs import LocalFileSystem
from repro.storage.vfs import Inode


def make_cache(**kwargs):
    env = Environment()
    storage = LocalFileSystem(env, name="proxyhost")
    defaults = dict(capacity_bytes=64 * 8192, n_banks=4, associativity=2,
                    block_size=8192)
    defaults.update(kwargs)
    config = ProxyCacheConfig(**defaults)
    return env, ProxyBlockCache(env, storage, config)


def run(env, gen):
    box = {}

    def wrapper(env):
        box["value"] = yield env.process(gen)

    env.process(wrapper(env))
    env.run()
    return box["value"]


FH = FileHandle("img", 42)
FH2 = FileHandle("img", 43)


def test_miss_then_hit():
    env, cache = make_cache()
    assert run(env, cache.lookup((FH, 0))) is None
    run(env, cache.insert((FH, 0), b"block-zero"))
    hit = run(env, cache.lookup((FH, 0)))
    assert hit is not None
    assert hit.data == b"block-zero"
    assert not hit.dirty
    assert cache.hits == 1 and cache.misses == 1


def test_insert_replaces_same_key():
    env, cache = make_cache()
    run(env, cache.insert((FH, 5), b"v1"))
    run(env, cache.insert((FH, 5), b"v2"))
    assert run(env, cache.lookup((FH, 5))).data == b"v2"
    assert cache.cached_blocks == 1


def test_distinct_files_do_not_collide_logically():
    env, cache = make_cache()
    run(env, cache.insert((FH, 0), b"A"))
    run(env, cache.insert((FH2, 0), b"B"))
    assert run(env, cache.lookup((FH, 0))).data == b"A"
    assert run(env, cache.lookup((FH2, 0))).data == b"B"


def test_consecutive_blocks_map_to_consecutive_sets():
    env, cache = make_cache()
    sets = cache.config.sets_per_bank
    bank0, set0 = cache._index((FH, 0))
    bank1, set1 = cache._index((FH, 1))
    assert bank0 == bank1  # same group -> same bank
    assert set1 == (set0 + 1) % sets or set1 == set0 + 1


def test_set_eviction_is_lru():
    env, cache = make_cache(capacity_bytes=4 * 2 * 8192, n_banks=4,
                            associativity=2)
    # sets_per_bank == 1: all blocks of one group share a 2-way set.
    assert cache.config.sets_per_bank == 1
    keys = [(FH, 0), (FH2, 0), (FileHandle("img", 44), 0)]
    # Find three keys that land in the same bank set.
    same = [k for k in [(FileHandle("img", i), 0) for i in range(100)]
            if cache._index(k) == cache._index((FileHandle("img", 0), 0))]
    a, b, c = same[:3]
    run(env, cache.insert(a, b"a"))
    run(env, cache.insert(b, b"b"))
    run(env, cache.lookup(a))          # touch a: b becomes LRU
    run(env, cache.insert(c, b"c"))    # evicts b
    assert run(env, cache.lookup(a)) is not None
    assert run(env, cache.lookup(b)) is None
    assert run(env, cache.lookup(c)) is not None
    assert cache.evictions == 1


def test_dirty_eviction_returns_victim():
    env, cache = make_cache(capacity_bytes=4 * 2 * 8192, n_banks=4,
                            associativity=2)
    same = [k for k in [(FileHandle("img", i), 0) for i in range(100)]
            if cache._index(k) == cache._index((FileHandle("img", 0), 0))]
    a, b, c = same[:3]
    run(env, cache.insert(a, b"dirty-a", dirty=True))
    run(env, cache.insert(b, b"clean-b"))
    victim = run(env, cache.insert(c, b"c"))
    assert victim is not None
    assert victim.key == a
    assert victim.data == b"dirty-a"
    assert victim.dirty


def test_clean_eviction_returns_none():
    env, cache = make_cache(capacity_bytes=4 * 2 * 8192, n_banks=4,
                            associativity=2)
    same = [k for k in [(FileHandle("img", i), 0) for i in range(100)]
            if cache._index(k) == cache._index((FileHandle("img", 0), 0))]
    a, b, c = same[:3]
    run(env, cache.insert(a, b"a"))
    run(env, cache.insert(b, b"b"))
    assert run(env, cache.insert(c, b"c")) is None


def test_dirty_tracking_and_mark_clean():
    env, cache = make_cache()
    run(env, cache.insert((FH, 1), b"d1", dirty=True))
    run(env, cache.insert((FH, 2), b"d2", dirty=True))
    run(env, cache.insert((FH2, 1), b"d3", dirty=True))
    run(env, cache.insert((FH, 3), b"clean"))
    assert cache.dirty_blocks(FH) == [(FH, 1), (FH, 2)]
    assert len(cache.dirty_blocks()) == 3
    cache.mark_clean((FH, 1))
    assert cache.dirty_blocks(FH) == [(FH, 2)]


def test_read_for_writeback():
    env, cache = make_cache()
    run(env, cache.insert((FH, 9), b"payload", dirty=True))
    data = run(env, cache.read_for_writeback((FH, 9)))
    assert data == b"payload"
    with pytest.raises(KeyError):
        run(env, cache.read_for_writeback((FH, 10)))


def test_short_block_length_preserved():
    env, cache = make_cache()
    run(env, cache.insert((FH, 0), b"xy"))
    assert run(env, cache.lookup((FH, 0))).data == b"xy"


def test_oversized_block_rejected():
    env, cache = make_cache()
    with pytest.raises(ValueError):
        run(env, cache.insert((FH, 0), b"z" * 8193))


def test_read_only_cache_rejects_dirty():
    env = Environment()
    storage = LocalFileSystem(env)
    cache = ProxyBlockCache(env, storage, ProxyCacheConfig(
        capacity_bytes=64 * 8192, n_banks=4, associativity=2), read_only=True)
    run(env, cache.insert((FH, 0), b"ro"))  # clean insert fine
    with pytest.raises(PermissionError):
        run(env, cache.insert((FH, 1), b"w", dirty=True))


def test_flush_tags_empties_cache():
    env, cache = make_cache()
    run(env, cache.insert((FH, 0), b"a"))
    run(env, cache.insert((FH, 1), b"b"))
    cache.flush_tags()
    assert cache.cached_blocks == 0
    assert run(env, cache.lookup((FH, 0))) is None


def test_banks_created_on_demand():
    env, cache = make_cache()
    assert cache.banks_created == 0
    run(env, cache.insert((FH, 0), b"x"))
    assert cache.banks_created == 1


def test_bank_files_exist_on_proxy_disk():
    env, cache = make_cache()
    run(env, cache.insert((FH, 0), b"on-disk"))
    bank_files = cache.storage.fs.readdir("/proxycache")
    assert len(bank_files) == 1
    assert bank_files[0].startswith("bank")


def test_paper_default_geometry():
    cfg = ProxyCacheConfig()
    assert cfg.n_banks == 512
    assert cfg.associativity == 16
    assert cfg.capacity_bytes == 8 * 1024 ** 3
    assert cfg.total_frames == 1024 ** 3 // 1024  # 8 GB / 8 KB
    assert cfg.frames_per_bank * cfg.n_banks == cfg.total_frames


def test_config_validation():
    with pytest.raises(ValueError):
        ProxyCacheConfig(block_size=0)
    with pytest.raises(ValueError):
        ProxyCacheConfig(block_size=64 * 1024)  # above protocol limit
    with pytest.raises(ValueError):
        ProxyCacheConfig(n_banks=0)
    with pytest.raises(ValueError):
        ProxyCacheConfig(capacity_bytes=8192, n_banks=512, associativity=16)


def test_hit_timing_charged_via_storage():
    env, cache = make_cache()
    run(env, cache.insert((FH, 0), b"k" * 8192))
    cache.storage.drop_caches()  # frame cold on proxy disk

    def timed(env):
        t0 = env.now
        yield env.process(cache.lookup((FH, 0)))
        return env.now - t0

    elapsed = run(env, timed(env))
    assert elapsed > 0  # disk access charged


def count_bank_writes(cache, calls):
    orig = cache.storage.timed_write_inode

    def counting(inode, data, offset=0, sync=False):
        calls.append((offset, sum(map(len, data))))     # a list of pieces
        return orig(inode, data, offset, sync)

    cache.storage.timed_write_inode = counting


def count_charged_spans(cache, calls):
    orig = cache.storage.timed_scan_inode

    def counting(inode, offset, count):
        calls.append((offset, count))
        return orig(inode, offset, count)

    cache.storage.timed_scan_inode = counting


def test_insert_many_merges_adjacent_frames_into_one_bank_write():
    env, cache = make_cache()
    calls = []
    count_bank_writes(cache, calls)
    items = [((FH, i), bytes([i]) * 8192) for i in range(8)]
    victims = run(env, cache.insert_many(items))
    assert victims == []
    # Blocks 0..7 fill way 0 of eight consecutive sets in one bank:
    # physically contiguous, so the whole window is one 64 KB write —
    # charged as one, handed over as its eight blocks, which the bank
    # file keeps as they are (joined, it would slice eight fresh copies).
    assert calls == [(0, 8 * 8192)]
    disk = cache.storage.disk
    run(env, cache.storage.sync())
    assert (disk.writes, disk.bytes_written) == (1, 8 * 8192)
    for i, (key, data) in enumerate(items):
        hit = run(env, cache.lookup(key))
        assert hit.data == data
        assert hit.data is data or i == 0      # (all zeros: left sparse)


def test_insert_many_orders_bank_writes_by_bank_file_not_by_address():
    """A window that crosses a bank group writes two bank files.  Their
    order must not hang on where the inode objects sit in this process's
    heap: here the bank file with the lower id has the higher address."""
    env, cache = make_cache()
    fh = next(fh for fh in (FileHandle("img", n) for n in range(100))
              if cache._index((fh, 7))[0] != cache._index((fh, 8))[0])
    blank = sorted((Inode.__new__(Inode) for _ in range(2)), key=id)
    for fileid, inode, block in zip((901, 900), blank, (7, 8)):
        inode.__init__(fileid, "file", lambda: env.now)
        cache._banks[cache._index((fh, block))[0]] = _Bank(inode)
    assert blank[0].fileid > blank[1].fileid and id(blank[0]) < id(blank[1])
    order = []
    orig = cache.storage.timed_write_inode

    def recording(inode, data, offset=0, sync=False):
        order.append(inode.fileid)
        return orig(inode, data, offset, sync)
    cache.storage.timed_write_inode = recording
    items = [((fh, i), bytes([i]) * 8192) for i in range(6, 10)]
    run(env, cache.insert_many(items))
    assert order == [900, 901]
    for key, data in items:
        assert run(env, cache.lookup(key)).data == data


def test_insert_many_does_not_merge_past_short_blocks():
    env, cache = make_cache()
    calls = []
    count_bank_writes(cache, calls)
    items = [((FH, 0), b"a" * 8192), ((FH, 1), b"b" * 100),
             ((FH, 2), b"c" * 8192)]
    run(env, cache.insert_many(items))
    # The short middle block ends its span; merging past it would
    # write stale padding over block 2's frame.
    assert len(calls) == 2


def test_read_many_merges_contiguous_frames_and_preserves_order():
    env, cache = make_cache()
    items = [((FH, i), bytes([65 + i]) * 8192) for i in range(8)]
    run(env, cache.insert_many(items, dirty=True))
    calls = []
    count_charged_spans(cache, calls)
    datas = run(env, cache.read_many([key for key, _ in items]))
    # One charged read for the run; each block handed back is the
    # object the bank holds, the one inserted (no join, no slicing).
    assert calls == [(0, 8 * 8192)]
    assert all(got is data for got, (_, data) in zip(datas, items))
    assert cache.writebacks == 8
    with pytest.raises(KeyError):
        run(env, cache.read_many([(FH, 99)]))


def test_dirty_runs_group_adjacent_blocks_and_cap():
    env, cache = make_cache()
    for i in (0, 1, 2, 4, 5):
        run(env, cache.insert((FH, i), bytes([i]) * 8192, dirty=True))
    run(env, cache.insert((FH2, 0), b"x" * 8192, dirty=True))
    runs = cache.dirty_runs(max_run_bytes=2 * 8192)
    assert runs == [[(FH, 0), (FH, 1)], [(FH, 2)],
                    [(FH, 4), (FH, 5)], [(FH2, 0)]]
    # A cap at or below the block size degenerates to one block per run.
    assert all(len(r) == 1 for r in cache.dirty_runs(0))


def test_dirty_runs_break_after_short_block():
    env, cache = make_cache()
    run(env, cache.insert((FH, 0), b"s" * 100, dirty=True))
    run(env, cache.insert((FH, 1), b"f" * 8192, dirty=True))
    assert cache.dirty_runs(64 * 1024) == [[(FH, 0)], [(FH, 1)]]


def test_dirty_runs_cap_of_exactly_one_block():
    env, cache = make_cache()
    for i in range(3):
        run(env, cache.insert((FH, i), bytes([i]) * 8192, dirty=True))
    # A cap equal to the block size leaves no room to merge a second
    # block: every run is exactly one block, same as cap 0.
    assert cache.dirty_runs(max_run_bytes=8192) == \
        [[(FH, 0)], [(FH, 1)], [(FH, 2)]]


def test_dirty_runs_short_block_mid_file_breaks_run():
    env, cache = make_cache()
    run(env, cache.insert((FH, 0), b"a" * 8192, dirty=True))
    run(env, cache.insert((FH, 1), b"b" * 100, dirty=True))
    run(env, cache.insert((FH, 2), b"c" * 8192, dirty=True))
    # The short block may end a run but nothing can merge after it.
    assert cache.dirty_runs(64 * 1024) == [[(FH, 0), (FH, 1)], [(FH, 2)]]


def test_dirty_runs_interleaved_files_sort_into_separate_runs():
    env, cache = make_cache()
    # Insertion order interleaves two files; runs must come out grouped
    # by file with each file's blocks in index order.
    for fh, i in [(FH, 0), (FH2, 0), (FH, 1), (FH2, 1)]:
        run(env, cache.insert((fh, i), b"y" * 8192, dirty=True))
    assert cache.dirty_runs(64 * 1024) == \
        [[(FH, 0), (FH, 1)], [(FH2, 0), (FH2, 1)]]


def test_read_many_stops_merged_span_at_short_frame():
    env, cache = make_cache()
    items = [((FH, 0), b"a" * 8192), ((FH, 1), b"b" * 100),
             ((FH, 2), b"c" * 8192)]
    run(env, cache.insert_many(items, dirty=True))
    calls = []
    count_charged_spans(cache, calls)
    datas = run(env, cache.read_many([key for key, _ in items]))
    assert datas == [data for _, data in items]
    assert datas[0] is items[0][1] and datas[2] is items[2][1]
    # The short frame ends the first span (its payload trims the read);
    # block 2 is fetched separately — merging across the short frame
    # would read past its payload into the neighbouring frame's bytes.
    assert calls == [(0, 8192 + 100), (2 * 8192, 8192)]


def test_reset_stats_keeps_contents():
    env, cache = make_cache()
    run(env, cache.insert((FH, 0), b"a"))
    run(env, cache.lookup((FH, 0)))
    run(env, cache.lookup((FH, 1)))
    assert cache.hits and cache.misses and cache.insertions
    cache.reset_stats()
    assert (cache.hits, cache.misses, cache.insertions,
            cache.evictions, cache.writebacks) == (0, 0, 0, 0, 0)
    assert cache.cached_blocks == 1


def test_flush_tags_during_dirty_eviction_does_not_corrupt():
    env, cache = make_cache(capacity_bytes=4 * 2 * 8192, n_banks=4,
                            associativity=2)
    same = [k for k in [(FileHandle("img", i), 0) for i in range(100)]
            if cache._index(k) == cache._index((FileHandle("img", 0), 0))]
    a, b, c = same[:3]
    run(env, cache.insert(a, b"dirty-a" * 100, dirty=True))
    run(env, cache.insert(b, b"b"))
    cache.storage.drop_caches()   # victim read-back must hit the disk

    def racer(env):
        yield env.timeout(0)      # insert below is now parked on that read
        cache.flush_tags()

    env.process(racer(env))
    done = env.process(cache.insert(c, b"c" * 8192))
    env.run()
    assert done.value is None or done.value.key is None
    assert run(env, cache.lookup(c)).data == b"c" * 8192


def _lookup_raced_by(act):
    """Look up a block whose frame is cold on disk while a second
    process runs ``act(cache)`` 1 µs later, mid bank-file read.  The
    cache is one 2-way set, so a freed frame is the next one placed."""
    env, cache = make_cache(capacity_bytes=2 * 8192, n_banks=1,
                            associativity=2)
    run(env, cache.insert((FH, 0), b"A" * 8192))
    cache.storage.drop_caches()
    cache.reset_stats()

    def racer(env):
        yield env.timeout(1e-6)
        yield from act(cache)

    env.process(racer(env))
    hit = run(env, cache.lookup((FH, 0)))
    return cache, hit


def test_lookup_misses_when_its_frame_is_reused_mid_read():
    def reuse(cache):
        assert cache.discard((FH, 0))
        yield from cache.insert((FH, 4), b"E" * 8192)
        assert cache._where[(FH, 4)] == (0, 0)    # the frame just read

    cache, hit = _lookup_raced_by(reuse)
    assert hit is None                  # never (FH, 4)'s bytes as (FH, 0)
    assert (cache.hits, cache.misses) == (0, 1)


@pytest.mark.parametrize("drop", ["flush_tags", "crash"])
def test_lookup_misses_when_the_tags_are_dropped_mid_read(drop):
    def dropped(cache):
        getattr(cache, drop)()
        yield from ()

    cache, hit = _lookup_raced_by(dropped)
    assert hit is None                  # never an empty "hit"
    assert (cache.hits, cache.misses) == (0, 1)


def _tag_entries(cache):
    return sum(len(bank.frames) for bank in cache._banks.values())


def test_tags_follow_what_the_paper_geometry_holds():
    """At §4.1's geometry (512 banks of 2,048 frames) a bank keeps a tag
    per frame it holds: scattered blocks touching every bank add up to
    ``cached_blocks`` tags, and none survive a flush or a crash."""
    env, cache = make_cache(capacity_bytes=ProxyCacheConfig().capacity_bytes,
                            n_banks=512, associativity=16)
    assert cache.config.frames_per_bank == 2048
    sets = cache.config.sets_per_bank
    payload = b"s" * 512

    def keys():
        n = 0
        while True:
            fh = FileHandle("img", n % 61)
            yield (fh, (n // 61) * sets + n * 37 % sets)
            n += 1

    def fill(dirty):
        placed = 0
        for key in keys():
            if len(cache._banks) == 512 and placed >= 4096:
                return
            yield from cache.insert(key, payload,
                                    dirty=dirty and placed % 2 == 1)
            placed += 1

    run(env, fill(dirty=False))
    assert len(cache._banks) == 512
    assert _tag_entries(cache) == cache.cached_blocks > 512
    cache.flush_tags()
    assert _tag_entries(cache) == cache.cached_blocks == 0

    run(env, fill(dirty=True))
    assert _tag_entries(cache) == cache.cached_blocks > 512
    assert cache.dirty_frames > 0
    cache.crash()
    assert _tag_entries(cache) == cache.cached_blocks == 0
    assert cache.dirty_frames == 0


def test_config_requires_cache_attachment():
    from repro.core.proxy import GvfsProxy
    from repro.core.config import ProxyConfig, ProxyCacheConfig
    env = Environment()
    with pytest.raises(ValueError):
        GvfsProxy(env, upstream=None,
                  config=ProxyConfig(cache=ProxyCacheConfig()))
