"""Property-based tests on cache and overlay invariants (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.core.blockcache import ProxyBlockCache
from repro.core.config import ProxyCacheConfig
from repro.nfs.buffercache import BufferCache
from repro.nfs.protocol import FileHandle
from repro.sim import Environment
from repro.storage.localfs import LocalFileSystem
from repro.vm.redolog import RedoLog
from tests.vm.test_monitor_redolog import FakeFile


def run(env, gen):
    box = {}

    def wrapper(env):
        box["value"] = yield env.process(gen)

    env.process(wrapper(env))
    env.run()
    return box["value"]


# -- ProxyBlockCache: the cache is a transparent block store --------------------

block_ops = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),    # file index
              st.integers(min_value=0, max_value=40),   # block index
              st.binary(min_size=1, max_size=64)),      # content seed
    min_size=1, max_size=40)


@given(block_ops)
@settings(max_examples=40, deadline=None)
def test_blockcache_never_returns_wrong_data(ops):
    """Whatever was inserted last under a key is what lookup returns —
    or a miss; never stale or foreign data."""
    env = Environment()
    cache = ProxyBlockCache(
        env, LocalFileSystem(env),
        ProxyCacheConfig(capacity_bytes=16 * 8192, n_banks=2,
                         associativity=2, block_size=8192))
    model = {}
    for file_index, block, content in ops:
        key = (FileHandle("fs", file_index), block)
        data = bytes(content) * (8192 // max(len(content), 1))
        data = data[:8192]
        run(env, cache.insert(key, data))
        model[key] = data
    for key, expected in model.items():
        hit = run(env, cache.lookup(key))
        if hit is not None:
            assert hit.data == expected


@given(block_ops)
@settings(max_examples=25, deadline=None)
def test_blockcache_capacity_invariant(ops):
    """The cache never holds more frames than its geometry allows."""
    env = Environment()
    config = ProxyCacheConfig(capacity_bytes=16 * 8192, n_banks=2,
                              associativity=2, block_size=8192)
    cache = ProxyBlockCache(env, LocalFileSystem(env), config)
    for file_index, block, content in ops:
        run(env, cache.insert((FileHandle("fs", file_index), block),
                              bytes(content)[:8192]))
    assert cache.cached_blocks <= config.total_frames
    # Every indexed key is findable where the map says it is.
    for key, (bank, frame) in cache._where.items():
        assert cache._banks[bank].frames[frame].key == key


# -- BufferCache vs a dict+LRU reference model -----------------------------------

cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("get"), st.integers(0, 15)),
        st.tuples(st.just("put"), st.integers(0, 15)),
        st.tuples(st.just("dirty"), st.integers(0, 15)),
        st.tuples(st.just("clean"), st.integers(0, 15)),
    ),
    max_size=60)


@given(cache_ops)
@settings(max_examples=60, deadline=None)
def test_buffercache_matches_reference_model(ops):
    fh = FileHandle("f", 1)
    cache = BufferCache(capacity_bytes=4 * 8192, block_size=8192)  # 4 blocks
    reference = {}   # key -> data (unbounded; cache may evict clean)
    dirty = set()
    for op, idx in ops:
        key = (fh, idx)
        data = bytes([idx % 251 + 1]) * 8192
        if op == "get":
            got = cache.get(key)
            if got is not None:
                assert got == reference[key]
        elif op == "put":
            cache.put_clean(key, data)
            if key not in dirty:          # put_clean must not clobber dirty
                reference[key] = data
        elif op == "dirty":
            cache.put_dirty(key, data)
            reference[key] = data
            dirty.add(key)
        elif op == "clean":
            cache.mark_clean(key)
            dirty.discard(key)
    # Dirty blocks are never evicted.
    for key in dirty:
        assert cache.peek(key) == reference[key]
    assert cache.dirty_blocks == len(dirty)


# -- RedoLog equals a flat overlay reference --------------------------------------

overlay_ops = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1500),
              st.binary(min_size=1, max_size=400)),
    max_size=15)


@given(overlay_ops, st.integers(0, 1500), st.integers(0, 600))
@settings(max_examples=60, deadline=None)
def test_redolog_equals_flat_overlay(writes, read_off, read_len):
    env = Environment()
    base_content = bytes(range(256)) * 8  # 2048 bytes
    base = FakeFile(env, base_content)
    redo = RedoLog(env, base, FakeFile(env), block_size=256)
    reference = bytearray(base_content)
    for offset, data in writes:
        run(env, redo.write(offset, data))
        if offset + len(data) > len(reference):
            reference.extend(bytes(offset + len(data) - len(reference)))
        reference[offset:offset + len(data)] = data
    got = run(env, redo.read(read_off, read_len))
    # The overlay view within the base's extent must match; reads beyond
    # the original base size may be short (EOF semantics on the base).
    expected = bytes(reference[read_off:read_off + read_len])
    assert expected.startswith(got) or got == expected
    if read_off + read_len <= len(base_content):
        assert got == expected
    # The base file is never modified.
    assert bytes(base.buf) == base_content


# -- Engine determinism -------------------------------------------------------------

@given(st.lists(st.tuples(st.integers(1, 50), st.integers(0, 5)),
                min_size=1, max_size=20))
@settings(max_examples=30, deadline=None)
def test_engine_schedule_is_deterministic(jobs):
    """Two identical runs produce identical event orders and clocks."""

    def execute():
        env = Environment()
        log = []

        def worker(env, name, delay, hops):
            for h in range(hops + 1):
                yield env.timeout(delay)
                log.append((name, env.now))

        for i, (delay, hops) in enumerate(jobs):
            env.process(worker(env, i, delay, hops))
        env.run()
        return log, env.now

    first = execute()
    second = execute()
    assert first == second
