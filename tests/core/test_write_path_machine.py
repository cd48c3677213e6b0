"""The write path, model-checked (a first rule set for ROADMAP item 1).

A hypothesis state machine drives the WAN write-back rig of
``test_readahead_vouched`` — a client proxy with a small journaled
cache, on its own (depth 1) or behind a cache level (depth 2) —
through whole-block and fragment WRITEs (some from a buffer the guest
reuses at once), READs, read sweeps that evict dirty frames under
readahead windows, flushes, a garbled clean frame and a proxy crash
with journal replay.  After every step it checks what the write path
promises:

* read-your-writes, against an in-memory copy of each file (every
  READ, and every clean frame of the client proxy);
* after a flush, the origin holds exactly that copy;
* every block a cache is handed to store, every bank-file chunk and
  every origin chunk is an immutable ``bytes``: a whole block is kept
  by reference by the kernel client, each proxy and the origin alike,
  so no holder may be able to change another's bytes — and garbling
  one holder's frame leaves every other holder's bytes as they were;
* the prefetch ledger: ``used + failed <= issued``, no dirty key in it.

Two write-path bugs are patched back in to show the checks bite: the
flush that stopped at the client proxy (fixed in PR 22), and a
whole-frame shortcut that stores the caller's object whatever its type.
"""

import pytest
from hypothesis import HealthCheck, Phase, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule,
                                 run_state_machine_as_test)

from repro.core.config import ProxyCacheConfig
from repro.core.layers import BlockCacheLayer
from repro.core.session import GvfsSession

from tests.core.harness import Rig
from tests.core.test_pipelined_io import PATH
from tests.core.test_readahead_vouched import MEMORY, WanGuest
from tests.core.test_wakeup_budgets import BS

#: Sixteen journaled frames in four 4-way sets: the two files' written
#: blocks alone overfill every set, so dirty frames are evicted (and
#: written back) under the guest's feet.
SMALL = ProxyCacheConfig(capacity_bytes=16 * BS, n_banks=1,
                         associativity=4, journal=True)
#: Blocks of each file the guest writes (reads and sweeps go further).
WRITTEN = 12

SETTINGS = settings(max_examples=15, stateful_step_count=30, deadline=None,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])
#: Hunting a patched-in bug: the same budget, stopped at the first
#: counter-example (no shrinking), the same examples on every run.
HUNT = settings(SETTINGS, phases=[Phase.generate], derandomize=True)


def frame(cache, key) -> bytes:
    """The object a cache's bank file holds for ``key``."""
    bank_index, frame_index = cache._where[key]
    bank = cache._banks[bank_index]
    return bank.inode.data.read(cache._frame_offset(frame_index),
                                bank.lengths[frame_index])


def watch(cache, handed: list) -> None:
    """Record the type of every block ``cache`` is handed to store."""
    insert, insert_many = cache.insert, cache.insert_many

    def watched_insert(key, data, dirty=False):
        handed.append(type(data))
        return insert(key, data, dirty)

    def watched_insert_many(items, dirty=False):
        handed.extend(type(data) for _, data in items)
        return insert_many(items, dirty)

    cache.insert, cache.insert_many = watched_insert, watched_insert_many


files = st.integers(0, 1)
written = st.integers(0, WRITTEN - 1)
fills = st.integers(1, 255)


class WritePath(RuleBasedStateMachine):
    DEPTH = 1

    def __init__(self):
        super().__init__()
        rig = Rig(metadata=False, cache_config=SMALL,
                  via_second_level=self.DEPTH == 2)
        self.guest = WanGuest(rig, paths=(PATH, MEMORY))
        self.files = list(self.guest.model)
        self.cache = self.guest.block.block_cache
        self.level = (rig.second_level.block_cache
                      if rig.second_level is not None else None)
        self.handed = []
        for cache in (self.cache, self.level):
            if cache is not None:
                watch(cache, self.handed)

    def run(self, gen):
        self.guest.rig.run(gen)

    def block_of(self, fh, idx) -> bytes:
        return bytes(self.guest.model[fh][idx * BS:(idx + 1) * BS])

    # -- rules ------------------------------------------------------------
    @rule(n=files, idx=written, fill=fills, buffer=st.booleans())
    def write_block(self, n, idx, fill, buffer):
        """A whole block; from a buffer, the guest refills it at once."""
        data = (bytearray if buffer else bytes)([fill]) * BS
        self.run(self.guest.write(self.files[n], idx * BS, data))
        if buffer:
            data[:] = bytes(BS)

    @rule(n=files, idx=written, within=st.integers(0, BS - 1),
          length=st.integers(1, 300), fill=fills)
    def write_fragment(self, n, idx, within, length, fill):
        data = bytes([fill]) * min(length, BS - within)
        self.run(self.guest.write(self.files[n], idx * BS + within, data))

    @rule(n=files, idx=written)
    def read(self, n, idx):
        self.run(self.guest.read(self.files[n], idx))

    @rule(n=files, start=st.integers(0, 4 * WRITTEN))
    def sweep(self, n, start):
        """Eight blocks in a row: readahead windows, and dirty victims
        written back while they land."""
        def reads():
            for idx in range(start, start + 8):
                yield from self.guest.read(self.files[n], idx)
        self.run(reads())

    @rule()
    def flush(self):
        self.run(self.guest.flush())

    @precondition(lambda self: self.cache.iter_clean_keys())
    @rule(arg=st.integers(0, 1 << 16))
    def corrupt_a_clean_frame(self, arg):
        """Garble one clean client frame (no checksum layer to catch
        it): the origin's and the level's copies of the block — often
        the very same object — must not change.  Then drop the frame,
        the repair a checksum would make."""
        keys = self.cache.iter_clean_keys()
        fh, idx = key = keys[arg % len(keys)]
        path = self.guest.paths[fh]

        def others():
            held = [bytearray(self.guest.fs.read(path, idx * BS, BS))]
            if self.level is not None and key in self.level:
                held.append(bytearray(frame(self.level, key)))
            return held

        before = others()
        self.guest.block.inject_fault("corrupt-frame", arg)
        assert frame(self.cache, key) != self.block_of(fh, idx)
        assert others() == before
        assert self.guest.block.discard_block(key)

    @rule()
    def crash_and_recover(self):
        """Proxy death at rest, then the journal replay: every dirty
        frame comes back, and nothing else."""
        dirty = self.cache.dirty_blocks()
        self.guest.proxy.crash()
        self.run(self.guest.proxy.recover())
        assert self.cache.dirty_blocks() == dirty

    # -- invariants -------------------------------------------------------
    @invariant()
    def stored_blocks_are_immutable_bytes(self):
        assert set(self.handed) <= {bytes}, self.handed
        self.handed.clear()
        inodes = [self.guest.fs.lookup(path)
                  for path in self.guest.paths.values()]
        for cache in (self.cache, self.level):
            if cache is not None:
                inodes += [bank.inode for bank in cache._banks.values()]
        for inode in inodes:
            assert all(type(chunk) is bytes
                       for chunk in inode.data._chunks.values())

    @invariant()
    def clean_frames_hold_the_guests_bytes(self):
        for fh, idx in self.cache.iter_clean_keys():
            assert frame(self.cache, (fh, idx)) == self.block_of(fh, idx)

    @invariant()
    def prefetch_ledger_balances(self):
        self.guest.check_ledger()


class WritePathAtDepth2(WritePath):
    DEPTH = 2


@pytest.mark.parametrize("machine", [WritePath, WritePathAtDepth2],
                         ids=["depth1", "depth2"])
def test_write_path_keeps_its_promises(machine):
    run_state_machine_as_test(machine, settings=SETTINGS)


def test_finds_a_flush_that_stops_at_the_client_proxy(monkeypatch):
    def shallow_flush(self):
        """Before PR 22: a cache level keeps what it absorbed."""
        yield self.env.process(self.mount.flush_all())
        yield self.env.process(self.client_proxy.flush())

    monkeypatch.setattr(GvfsSession, "flush", shallow_flush)
    with pytest.raises(AssertionError):
        run_state_machine_as_test(WritePathAtDepth2, settings=HUNT)


def test_finds_a_whole_frame_shortcut_that_stores_a_bytearray(monkeypatch):
    merge = BlockCacheLayer.merge_into_cache

    def unguarded(self, key, within, data, dirty=False):
        """The whole-frame shortcut without its ``type(data) is bytes``
        guard: a guest's buffer goes to the cache as it is."""
        if within == 0 and len(data) == self.stack.block_size():
            existing = yield from self.block_cache.lookup(key)
            dirty = dirty or (existing is not None and existing.dirty)
            victim = yield from self.block_cache.insert(key, data, dirty)
            if victim is not None:
                yield from self.dispose_victim(victim)
            return
        yield from merge(self, key, within, data, dirty)

    monkeypatch.setattr(BlockCacheLayer, "merge_into_cache", unguarded)
    with pytest.raises(AssertionError):
        run_state_machine_as_test(WritePath, settings=HUNT)
