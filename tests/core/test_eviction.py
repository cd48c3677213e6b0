"""In-set eviction tests: deterministic LRU victim selection, plus
hypothesis properties (capacity invariants; every eviction matches a
per-set recency-ordered reference model)."""

from hypothesis import given, settings, strategies as st

from repro.core.blockcache import ProxyBlockCache
from repro.core.config import ProxyCacheConfig
from repro.nfs.protocol import FileHandle
from repro.sim import Environment
from repro.storage.localfs import LocalFileSystem

BS = 8192
FH = FileHandle("fs", 1)


def run(env, gen):
    box = {}

    def wrapper(env):
        box["value"] = yield env.process(gen)

    env.process(wrapper(env))
    env.run()
    return box["value"]


def one_set_cache(env, associativity=2):
    """A cache with exactly one set, so every block contends."""
    config = ProxyCacheConfig(capacity_bytes=associativity * BS, n_banks=1,
                              associativity=associativity, block_size=BS)
    return ProxyBlockCache(env, LocalFileSystem(env), config)


def insert(env, cache, block):
    run(env, cache.insert((FH, block), bytes([block % 251]) * BS))


def lookup(env, cache, block):
    return run(env, cache.lookup((FH, block)))


def cached(cache):
    return {block for (_, block) in cache._where}


# -- deterministic victim selection ----------------------------------------

def test_lru_evicts_least_recently_touched():
    env = Environment()
    cache = one_set_cache(env)
    insert(env, cache, 0)
    insert(env, cache, 1)
    assert lookup(env, cache, 0) is not None   # touch 0; 1 is now LRU
    insert(env, cache, 2)
    assert cached(cache) == {0, 2}


# -- hypothesis properties -------------------------------------------------

ops = st.lists(
    st.tuples(st.sampled_from(["insert", "lookup"]),
              st.integers(min_value=0, max_value=3),    # file index
              st.integers(min_value=0, max_value=40)),  # block index
    min_size=1, max_size=60)


@given(ops=ops)
@settings(max_examples=25, deadline=None)
def test_capacity_invariants_hold(ops):
    """The cache never overfills itself or a set, loses track of a
    frame, or returns foreign data."""
    env = Environment()
    config = ProxyCacheConfig(capacity_bytes=16 * BS, n_banks=2,
                              associativity=2, block_size=BS)
    cache = ProxyBlockCache(env, LocalFileSystem(env), config)
    model = {}
    for op, file_index, block in ops:
        key = (FileHandle("fs", file_index), block)
        if op == "insert":
            data = bytes([(file_index * 41 + block) % 251]) * BS
            run(env, cache.insert(key, data))
            model[key] = data
        else:
            hit = run(env, cache.lookup(key))
            if hit is not None:
                assert hit.data == model[key]
    assert cache.cached_blocks <= config.total_frames
    per_set = {}
    for key, (bank, frame) in cache._where.items():
        assert cache._banks[bank].keys[frame] == key
        per_set[bank, frame // config.associativity] = \
            per_set.get((bank, frame // config.associativity), 0) + 1
    assert all(n <= config.associativity for n in per_set.values())


@given(ops=ops)
@settings(max_examples=40, deadline=None)
def test_lru_victims_match_the_reference_model(ops):
    """The inline ``min(range(base, base + a), key=lru.__getitem__)``
    victim choice is least-recent-touch within the set: a per-set
    recency-ordered reference model predicts every eviction."""
    env = Environment()
    a = 2
    config = ProxyCacheConfig(capacity_bytes=8 * BS, n_banks=2,
                              associativity=a, block_size=BS)
    cache = ProxyBlockCache(env, LocalFileSystem(env), config)
    sets = {}        # (bank, set) -> [keys, least-recent first]
    for op, file_index, block in ops:
        key = (FileHandle("fs", file_index), block)
        if op == "lookup":
            if run(env, cache.lookup(key)) is not None:
                for members in sets.values():
                    if key in members:
                        members.remove(key)
                        members.append(key)
            continue
        present = key in cache._where
        run(env, cache.insert(key, bytes([block % 251]) * BS))
        bank, frame = cache._where[key]
        set_id = (bank, frame // a)
        members = sets.setdefault(set_id, [])
        if present:
            members.remove(key)
        elif len(members) == a:
            victim = members.pop(0)     # model's predicted LRU victim
            assert victim not in cache._where
        members.append(key)
        # Everything the model still holds must still be cached.
        assert all(k in cache._where for k in members)
