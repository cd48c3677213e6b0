"""The file-channel hit path, model-checked (a rule set for ROADMAP
item 1).

A hypothesis state machine drives one client proxy and a meta-data
memory state that the file channel fetches whole: fetches, READs of
zero and non-zero blocks (some with a proxy crash or an invalidation
landing a moment after the READ starts, while it may be waiting on the
proxy disk), WRITEs absorbed by the file cache, dropping the host page
cache, a proxy crash, ``quiesce()`` + ``invalidate_caches()`` and a
flush that uploads the cached copy.  An in-memory copy of the file is
the model.  What the path promises:

* every READ returns the model's bytes — or, when a crash or an
  invalidation came during it, the origin's;
* no exception escapes a step;
* a cached copy holds the model's bytes, and after a flush the origin
  does too.

The parent's read path — the disk wait, then the size of whatever entry
the handle names by then — is patched back in to show the checks bite.

WRITEs go to blocks the zero map does not cover: the zero map answers
its blocks with zeros whatever the file cache holds (the meta-data
describes a memory state as the middleware saved it).
"""

import pytest
from hypothesis import HealthCheck, Phase, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule,
                                 run_state_machine_as_test)

from repro.core.filecache import ProxyFileCache
from repro.core.layers import FileChannelLayer
from repro.nfs.protocol import NfsProc, NfsReply, NfsRequest, NfsStatus

from tests.core.test_filecache_reads import BS, MemoryRig

SETTINGS = settings(max_examples=15, stateful_step_count=25, deadline=None,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])
#: Hunting a patched-in bug: the same budget, stopped at the first
#: counter-example (no shrinking), the same examples on every run.
HUNT = settings(SETTINGS, phases=[Phase.generate], derandomize=True)

#: Seconds after a READ starts that a strike lands: inside a page-cache
#: miss's disk wait, and past it.
AFTER = (0.0005, 0.003, 0.02)


class FileChannelPath(RuleBasedStateMachine):

    def __init__(self):
        super().__init__()
        self.rig = MemoryRig(memory_mb=2)
        self.model = bytearray(self.rig.endpoint.export.fs.read(
            self.rig.path))
        self.blocks = self.rig.size // BS

    @property
    def file_cache(self):
        return self.rig.channel.file_cache

    def run(self, gen):
        return self.rig.run(gen)

    def origin(self) -> bytes:
        return self.rig.endpoint.export.fs.read(self.rig.path)

    def dirty(self) -> bool:
        return self.rig.proxy.dirty_state() != (0, 0)

    def invalidate(self):
        """Process: the cold-cache setup's quiesce + invalidate."""
        yield self.rig.env.process(self.rig.proxy.quiesce())
        self.rig.proxy.invalidate_caches()

    def forget(self) -> None:
        """A crash loses what was never uploaded: the origin is the
        model again."""
        self.model[:] = self.origin()

    # -- rules ------------------------------------------------------------
    @rule()
    def fetch(self):
        self.run(self.rig.channel.ensure_file_cached(self.rig.fh))

    @rule(idx=st.integers(0, 1 << 16), cold=st.booleans(),
          strike=st.sampled_from((None, "crash", "invalidate")),
          after=st.sampled_from(AFTER))
    def read(self, idx, cold, strike, after):
        """A READ of any block (the LOOKUP first: a crash forgets the
        name the meta-data probe needs), perhaps with the host page
        cache dropped first, and perhaps a strike landing ``after``
        seconds into it."""
        block = idx % self.blocks
        if cold:
            self.rig.host.drop_caches()
        if strike == "invalidate" and self.dirty():
            strike = None            # invalidation refuses dirty state
        env = self.rig.env

        def striker():
            yield env.timeout(after)
            if strike == "crash":
                self.rig.proxy.crash()
            else:
                yield from self.invalidate()

        def job():
            yield from self.rig.lookup()
            expected = bytes(self.model[block * BS:(block + 1) * BS])
            reader = env.process(self.rig.read(block))
            if strike is not None:
                env.process(striker())
            data = yield reader
            return expected, data

        expected, data = self.run(job())
        if strike == "crash":
            self.forget()
        allowed = {expected}
        if strike is not None:
            allowed.add(bytes(self.model[block * BS:(block + 1) * BS]))
        assert data in allowed, (block, strike, after)

    @precondition(lambda self: self.rig.fh in self.file_cache)
    @rule(idx=st.integers(0, 1 << 16), within=st.integers(0, BS - 1),
          length=st.integers(1, BS), fill=st.integers(0, 255))
    def write(self, idx, within, length, fill):
        """A WRITE the file cache absorbs, inside a block the zero map
        does not cover."""
        block = self.rig.nonzero[idx % len(self.rig.nonzero)]
        offset = block * BS + within
        data = bytes([fill]) * min(length, BS - within)
        reply = self.run(self.rig.proxy.handle(NfsRequest(
            NfsProc.WRITE, fh=self.rig.fh, offset=offset, data=data)))
        assert reply.ok
        self.model[offset:offset + len(data)] = data
        assert self.file_cache.entry(self.rig.fh).dirty

    @rule()
    def drop_page_cache(self):
        self.rig.host.drop_caches()

    @rule()
    def crash(self):
        self.rig.proxy.crash()
        self.forget()

    @precondition(lambda self: not self.dirty())
    @rule()
    def quiesce_and_invalidate(self):
        self.run(self.invalidate())

    @rule()
    def flush(self):
        self.run(self.rig.proxy.flush())
        assert not self.dirty()
        assert self.origin() == self.model

    # -- invariants -------------------------------------------------------
    @invariant()
    def cached_copy_holds_the_model(self):
        entry = self.file_cache.entry(self.rig.fh)
        if entry is not None:
            assert entry.inode.data.read(0, entry.size) == self.model


def test_file_channel_hit_path_keeps_its_promises():
    run_state_machine_as_test(FileChannelPath, settings=SETTINGS)


def test_finds_a_read_that_outlives_its_entry(monkeypatch):
    def wait_then_read(self, fh, offset, count):
        """The parent's: no extent, no check after the disk wait."""
        entry = self._entries.get(fh)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._touch(entry)
        data = yield from self.storage.timed_read_inode(
            entry.inode, offset, count)
        return data

    def size_after_the_wait(self, fh, offset, count):
        """The parent's: the size of whatever entry ``fh`` names now."""
        data = yield from self.file_cache.read(fh, offset, count)
        if data is None:
            return None
        self.stats.file_cache_reads += 1
        size = self.file_cache.entry(fh).size
        return NfsReply(NfsProc.READ, NfsStatus.OK, fh=fh, data=data,
                        count=len(data), eof=offset + len(data) >= size)

    monkeypatch.setattr(ProxyFileCache, "read", wait_then_read)
    monkeypatch.setattr(FileChannelLayer, "_read_cached", size_after_the_wait)
    with pytest.raises(AttributeError):
        run_state_machine_as_test(FileChannelPath, settings=HUNT)
