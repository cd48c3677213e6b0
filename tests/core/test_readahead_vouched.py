"""A run history that vouches for a run starts its prefetch at the
first miss and fetches the whole run in one launch — and a history that
vouches for nothing changes nothing.

Four groups.  Against ``reference_readahead.py`` (the parent's rules):
whatever the extents, as long as most of a file's remembered runs were
one block long, every window, instant, counter and event compares equal
with ``==``.  Lifecycle: nothing is vouched for after ``crash()``,
``invalidate_caches()`` or in a fresh session, by one long run among
short ones, past ``VOUCHED_CAP``, or with readahead off.  Races, over
the real WAN rig: a guest WRITE absorbed while a vouched launch covering
its block is on the wire stays dirty, reaches origin byte-exact and is
nobody's prefetch — for three hand-picked blocks and over seeded
schedules of reads, writes and flushes checked against an in-memory
file (a first rule set for the model-based harness, ROADMAP item 1).
Last, the counters the docs' tables are read from.
"""

import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.layers.readahead import RUN_HISTORY, VOUCHED_CAP
from repro.nfs.protocol import FileHandle, NfsProc, NfsRequest

from tests.core.harness import Rig
from tests.core.test_pipelined_io import PATH, fh_for
from tests.core.test_readahead_bound import DEPTH, PITCH, Guest, handle_of
from tests.core.test_wakeup_budgets import BS

EXTENT = 16
MEMORY = "/images/golden/mem.vmss"


def extents(n: int, lengths, first: int = 0) -> list:
    """A script reading extents of ``lengths`` of handle ``n``, one per
    PITCH, from extent number ``first``."""
    return [(n, (first + k) * PITCH, (first + k) * PITCH + i)
            for k, length in enumerate(lengths) for i in range(length)]


# -- against the parent's rules -------------------------------------------------

@st.composite
def unvouched_scripts(draw):
    """Up to three files read in extents of 1-64 blocks, two one-block
    runs before each longer one — most of what a handle remembers is
    always a one-block run — interleaved block by block."""
    lanes = []
    for n in range(draw(st.integers(1, 3))):
        longs = draw(st.lists(st.integers(1, 64), min_size=1, max_size=4))
        if draw(st.booleans()):
            lengths = longs[:1]                  # one run, no history at all
        else:
            lengths = [x for long in longs for x in (1, 1, long)]
        lanes.append(extents(n, lengths))
    script = []
    while any(lanes):
        lane = draw(st.sampled_from([lane for lane in lanes if lane]))
        script.append(lane.pop(0))
    return script


@settings(max_examples=30, deadline=None)
@given(unvouched_scripts(), st.sampled_from((1, 2, 8)))
def test_history_that_vouches_for_nothing_replays_the_reference(script, depth):
    """Issued sets, completion instants, counters and the event count:
    all ``==`` (the oracle keeps no run-length histogram, nothing else
    is set aside)."""
    ours = Guest(depth=depth).play(script)
    oracle = Guest(reference=True, depth=depth).play(script)
    assert ours.windows == oracle.windows
    mine, theirs = ours.outcome(), oracle.outcome()
    lengths = mine["layers"]["readahead"].pop("run_lengths")
    assert theirs["layers"]["readahead"].pop("run_lengths") == {}
    assert mine == theirs
    assert mine["layers"]["readahead"]["vouched_windows"] == 0
    assert (sum(sum(h.values()) for h in lengths.values())
            == sum(len(h) for h in ours.readahead.run_history.values()))


# -- what vouches, and for how much ---------------------------------------------

def test_vouched_run_is_fetched_whole_off_its_first_miss():
    guest = Guest().play(extents(0, [EXTENT] * 4))
    fourth = [w for w in guest.windows if w[1] >= 3 * PITCH]
    assert fourth == [(9000, 3 * PITCH,
                       tuple(range(3 * PITCH + 1, 3 * PITCH + EXTENT)))]
    assert guest.misses[(9000, 3 * PITCH)] == 1
    assert EXTENT - 1 > DEPTH              # ... further than speculation goes
    assert guest.readahead.stats.vouched_windows == 3


@pytest.mark.parametrize("forget", ["crash", "invalidate_caches", "fresh"])
def test_nothing_is_vouched_for_after_a_crash_an_invalidation_or_anew(forget):
    """A rollout may have changed the layout: the first run afterwards
    is armed by its own second miss and kept within ``readahead_depth``."""
    guest = Guest().play(extents(0, [EXTENT] * 4))
    assert guest.readahead.vouched(handle_of(0)) == EXTENT
    if forget == "fresh":
        guest = Guest()
    else:
        getattr(guest.proxy, forget)()
    assert guest.readahead.vouched(handle_of(0)) == 0
    before = guest.readahead.stats.vouched_windows
    del guest.windows[:]
    guest.play(extents(0, [EXTENT], first=5))
    assert guest.misses[(9000, 5 * PITCH)] == 2
    assert guest.windows[0][1] == 5 * PITCH + 1
    assert all(issued[-1] <= demanded + DEPTH
               for _, demanded, issued in guest.windows)
    assert guest.readahead.stats.vouched_windows == before
    # ... and the history it leaves vouches again.
    guest.play(extents(0, [EXTENT], first=6))
    assert guest.misses[(9000, 6 * PITCH)] == 1


def test_one_long_run_among_short_ones_vouches_for_nothing():
    guest = Guest().play(extents(0, [1, 1, EXTENT, 1, 1, EXTENT]))
    assert guest.readahead.run_history[handle_of(0)] == deque(
        [1, 1, EXTENT, 1, 1])
    assert guest.readahead.vouched(handle_of(0)) == 1
    assert guest.misses[(9000, 5 * PITCH)] == 2
    assert all(demanded % PITCH >= 1 and len(issued) <= DEPTH
               and issued[-1] <= demanded + DEPTH
               for _, demanded, issued in guest.windows)
    assert guest.readahead.stats.vouched_windows == 0


def test_thousand_block_history_launches_at_most_the_cap():
    guest = Guest()
    fh = handle_of(0)
    guest.readahead.run_history[fh] = deque([1000] * 3, maxlen=RUN_HISTORY)
    guest.readahead.run_start[fh] = guest.readahead.run_last[fh] = 5000
    guest.play([(0, 0, block) for block in range(200)])
    assert guest.windows[0] == (9000, 0, tuple(range(1, 1 + VOUCHED_CAP)))
    # From there it slides: one block per block read, never further
    # than the cap ahead of the reader.
    assert all(issued == (demanded + VOUCHED_CAP,)
               for _, demanded, issued in guest.windows[1:])
    assert guest.misses[(9000, 0)] == 1
    stats = guest.readahead.stats
    assert stats.prefetch_issued - stats.prefetch_used == VOUCHED_CAP


def test_readahead_depth_zero_still_disables_everything():
    guest = Guest(depth=0)
    fh = handle_of(0)
    guest.readahead.run_history[fh] = deque([EXTENT] * 3, maxlen=RUN_HISTORY)
    guest.readahead.run_start[fh] = guest.readahead.run_last[fh] = 5000
    guest.play(extents(0, [EXTENT] * 2))
    assert not guest.windows and not guest.block.gates
    assert guest.readahead.stats.prefetch_issued == 0
    assert sum(guest.misses.values()) == 2 * EXTENT
    assert guest.readahead.run_history[fh] == deque([EXTENT] * 3)


# -- writes racing a vouched launch ---------------------------------------------

class WanGuest:
    """The real rig (WAN origin, write-back client proxy): READs and
    WRITEs checked against an in-memory copy of each file."""

    def __init__(self, rig=None, session=None, paths=(PATH, MEMORY)):
        self.rig = rig = rig or Rig(metadata=False)
        self.session = session or rig.session
        self.env, self.proxy = rig.env, self.session.client_proxy
        self.block = self.proxy.layer("block-cache")
        self.readahead = self.proxy.layer("readahead")
        self.fs = rig.endpoint.export.fs
        self.paths = {fh_for(rig, path): path for path in paths}
        self.model = {fh: bytearray(self.fs.read(path))
                      for fh, path in self.paths.items()}

    def read(self, fh: FileHandle, block: int):
        reply = yield from self.proxy.handle(NfsRequest(
            NfsProc.READ, fh=fh, offset=block * BS, count=BS))
        assert reply.ok
        assert reply.data == self.model[fh][block * BS:(block + 1) * BS], \
            (fh, block)

    def write(self, fh: FileHandle, offset: int, data: bytes):
        reply = yield from self.proxy.handle(NfsRequest(
            NfsProc.WRITE, fh=fh, offset=offset, data=data))
        assert reply.ok
        self.model[fh][offset:offset + len(data)] = data
        # Dirty, and from now on the guest's own data, not a prefetch.
        assert self.block.block_cache.is_dirty((fh, offset // BS))
        assert (fh, offset // BS) not in self.readahead.prefetched

    def flush(self):
        yield self.env.process(self.session.flush())
        assert not self.block.block_cache.dirty_frames
        for fh, path in self.paths.items():
            assert self.fs.read(path) == self.model[fh], path

    def check_ledger(self):
        stats = self.readahead.stats
        assert (stats.prefetch_used + stats.prefetch_failed
                <= stats.prefetch_issued)
        assert not any(self.block.block_cache.is_dirty(key)
                       for key in self.readahead.prefetched)


@pytest.mark.parametrize("target", ["first", "last", "next"])
def test_write_absorbed_while_a_vouched_launch_is_in_flight(target):
    guest = WanGuest()
    fh = fh_for(guest.rig)
    start = 3 * PITCH
    idx = {"first": start + 1, "last": start + EXTENT - 1,
           "next": start + PITCH + 5}[target]
    fresh = b"\xa5" * BS

    def job():
        for k in range(3):
            for block in range(k * PITCH, k * PITCH + EXTENT):
                yield from guest.read(fh, block)
        before = (guest.readahead.stats.prefetch_issued,
                  guest.readahead.stats.prefetch_used)
        reader = guest.env.process(guest.read(fh, start))
        yield guest.env.timeout(1e-3)        # past the proxy, on the WAN
        # One launch off the first miss covers the whole extent.
        launch = sorted(b for f, b in guest.block.gates if f == fh)
        assert launch == list(range(start, start + EXTENT))
        yield from guest.write(fh, idx * BS, fresh)
        assert ((fh, idx) in guest.block.gates) == (target != "next")
        yield reader
        return before

    (issued, used), _ = guest.rig.run(job())       # ... and the launch lands
    assert not guest.block.gates
    assert guest.block.block_cache.is_dirty((fh, idx))
    assert (fh, idx) not in guest.readahead.prefetched
    assert guest.fs.read(PATH, idx * BS, BS) != fresh

    def rest():
        for first in (start, start + PITCH):
            for block in range(first + (first == start), first + EXTENT):
                yield from guest.read(fh, block)
    guest.rig.run(rest())
    stats = guest.readahead.stats
    # Two extents, one miss each; every other block but the guest's own
    # was a prefetch that paid off (the later launch skips the dirty
    # frame, the earlier one's fill of it was dropped).
    assert stats.prefetch_used - used == 2 * (EXTENT - 1) - 1
    assert stats.prefetch_issued - issued == (2 * (EXTENT - 1)
                                              - (target == "next"))
    assert guest.block.block_cache.is_dirty((fh, idx))
    guest.check_ledger()
    guest.rig.run(guest.flush())
    assert guest.fs.read(PATH, idx * BS, BS) == fresh


SCHEDULES = 10


def schedule(guest: WanGuest, rng: random.Random):
    """One guest process: two files read in extents (mostly 16 blocks,
    so the history vouches), each extent once; WRITEs — whole blocks
    and fragments — thrown at the extent being read and the one after
    it, most of them right behind the miss that launched the window;
    now and then a flush.  What races it is the windows."""
    pitch = 20
    todo = [(fh, start) for fh, data in guest.model.items()
            for start in range(0, len(data) // BS - 2 * pitch, pitch)]
    rng.shuffle(todo)

    def write_near(fh, start):
        block = start + rng.randrange(2 * pitch)
        within, length = 0, BS
        if rng.random() < 0.5:
            within, length = rng.randrange(BS - 64), rng.randrange(1, 64)
        return guest.write(fh, block * BS + within,
                           bytes([rng.randrange(1, 256)]) * length)

    for fh, start in todo[:24]:
        length = EXTENT if rng.random() < 0.8 else rng.randrange(1, pitch)
        for block in range(start, start + length):
            yield from guest.read(fh, block)
            if rng.random() < (0.6 if block == start else 0.1):
                yield from write_near(fh, start)
                guest.check_ledger()
        if rng.random() < 0.15:
            yield from guest.flush()
    yield from guest.proxy.quiesce()
    assert not guest.block.gates
    yield from guest.flush()


def play_schedule(seed: int) -> WanGuest:
    guest = WanGuest()
    guest.rig.run(schedule(guest, random.Random(seed)))
    guest.check_ledger()
    return guest


def test_seeded_schedules_of_reads_writes_and_flushes_match_a_file_model():
    vouched = raced = absorbed = 0
    for seed in range(SCHEDULES):
        try:
            guest = play_schedule(seed)
        except AssertionError as exc:
            raise AssertionError(f"schedule {seed} diverged") from exc
        stats = guest.readahead.stats
        vouched += stats.vouched_windows
        # Fills the cache dropped because a WRITE got there first.
        raced += (stats.prefetch_issued - stats.prefetch_failed
                  - stats.prefetch_used - len(guest.readahead.prefetched))
        absorbed += guest.block.stats.absorbed_writes
    # Not vacuous: launches made on the history alone, and writes that
    # landed under them.
    assert vouched > 50 and absorbed > 100 and raced > 10


# -- the counters the docs' tables are read from ---------------------------------

def test_run_lengths_and_vouched_windows_read_out_of_the_snapshot():
    guest = Guest().play(extents(0, [EXTENT] * 4) + extents(1, [4] * 3))
    deep = guest.proxy.stats_snapshot(deep=True)["readahead"]
    # (Completed runs: each handle's last one is still open.)
    assert deep["run_lengths"] == {"images:9000": {EXTENT: 3},
                                   "images:9001": {4: 2}}
    assert deep["vouched_windows"] == 3 + 2
    assert deep["readahead_windows"] == len(guest.windows)
    # The flat snapshot stays flat: every value a number to be summed.
    flat = guest.proxy.stats_snapshot()["readahead"]
    assert "run_lengths" not in flat
    assert all(type(value) is int for value in flat.values())
    guest.proxy.reset()
    assert guest.proxy.stats_snapshot(deep=True)["readahead"] == dict(
        {name: 0 for name in flat}, run_lengths={})
    assert guest.readahead.vouched(handle_of(0)) == EXTENT   # not a counter
