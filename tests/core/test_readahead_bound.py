"""The readahead window trusts the file's run history both ways.

``ReadaheadLayer`` remembers the lengths of the last ``RUN_HISTORY``
demand runs per file handle.  The length most of them reached is
vouched for: the first miss of a run arms the window and one launch
reaches ``run_start + vouched - 1``.  Past that, and while the current
run is no longer than the longest of them, nothing is issued past
``run_start + longest - 1``.  The oracle is the parent's layer
(``reference_readahead.py``: armed by two adjacent misses, never past
``readahead_depth``): a guest reading mixed extents through both must
see both bounds hold, save exactly the second miss of every vouched
run, and — with no history to go by — replay the oracle instant for
instant and event for event.  The last tests pin the prefetch ledger:
a block fetched on demand or overwritten is no longer a prefetch
waiting to pay off.
"""

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.core.config import ProxyCacheConfig, ProxyConfig
from repro.core.layers.readahead import RUN_HISTORY, VOUCHED_CAP
from repro.nfs.protocol import FileHandle, NfsProc, NfsRequest

from tests.core.harness import SMALL_CACHE, Rig
from tests.core.reference_readahead import Pr20ReadaheadLayer
from tests.core.test_wakeup_budgets import BS, OneEventUpstream, block_bytes

DEPTH = 8
#: Extents sit this far apart: further than any window can overshoot
#: (a vouched or bounded one ends before ``start + 64``, a speculative
#: one before ``start + 64 + DEPTH``), so every extent is one run, read
#: cold.
PITCH = 100


def handle_of(n: int) -> FileHandle:
    return FileHandle("images", 9000 + n)


class Guest:
    """One closed-loop reader over a caching client proxy whose
    upstream — below the fault guard, so demand and prefetch alike —
    answers any READ of any file in one timer; ``reference`` swaps in
    the parent's rules.  Every window launch is logged with the block
    the guest was demanding at that moment."""

    def __init__(self, reference: bool = False, cache_config=SMALL_CACHE,
                 depth: int = DEPTH):
        self.rig = rig = Rig(metadata=False, cache_config=cache_config,
                             proxy_config=ProxyConfig(readahead_depth=depth))
        self.env = rig.env
        self.proxy = proxy = rig.session.client_proxy
        self.block = proxy.layer("block-cache")
        self.readahead = readahead = proxy.layer("readahead")
        if reference:
            readahead.__class__ = Pr20ReadaheadLayer
        proxy.layer("fault-guard").next = self.upstream = OneEventUpstream(
            rig.env)
        self.demanding = None
        self.windows = []            # (fileid, demanded block, issued blocks)
        self.done = []               # (fileid, block, instant)
        self.misses = {}             # (fileid, extent start) -> demand misses
        launch = readahead._window

        def logged(fh, idxs):
            assert self.demanding[0] == fh.fileid
            self.windows.append((fh.fileid, self.demanding[1], tuple(idxs)))
            return launch(fh, idxs)
        readahead._window = logged

    def read(self, fh: FileHandle, block: int, extent=None):
        self.demanding = (fh.fileid, block)
        before = self.block.stats.block_cache_misses
        reply = yield from self.proxy.handle(NfsRequest(
            NfsProc.READ, fh=fh, offset=block * BS, count=BS))
        assert reply.ok and reply.data == block_bytes(block)
        self.done.append((fh.fileid, block, self.env.now))
        key = (fh.fileid, extent)
        self.misses[key] = (self.misses.get(key, 0)
                            + self.block.stats.block_cache_misses - before)

    def play(self, script):
        """``script``: (handle number, extent start, block) per read."""
        def job():
            for n, start, block in script:
                yield from self.read(handle_of(n), block, start)
        self.rig.run(job())
        self.env.run()               # let the last windows land
        return self

    def outcome(self) -> dict:
        return {"done": self.done, "reads": self.upstream.reads,
                "end": self.env.now, "events": self.env.events_scheduled,
                "layers": self.proxy.stats_snapshot(deep=True)}


@st.composite
def scripts(draw):
    """Up to three files, each a sequence of extents of 1-64 blocks
    read front to back, the files interleaved block by block."""
    lanes = []
    for n in range(draw(st.integers(1, 3))):
        lengths = draw(st.lists(st.integers(1, 64), min_size=1, max_size=10))
        lanes.append([(n, k * PITCH, k * PITCH + i)
                      for k, length in enumerate(lengths)
                      for i in range(length)])
    turns = draw(st.lists(st.integers(0, len(lanes) - 1),
                          min_size=sum(map(len, lanes)),
                          max_size=sum(map(len, lanes))))
    script, cursors = [], [0] * len(lanes)
    for turn in turns:
        for lane in (lanes[turn:] + lanes[:turn]):      # next lane with work
            n = lane[0][0]
            if cursors[n] < len(lane):
                script.append(lane[cursors[n]])
                cursors[n] += 1
                break
    assert len(script) == sum(map(len, lanes))
    return script


def extents_of(script) -> dict:
    """(handle, extent start) -> (length, longest of the handle's
    earlier extents within the history, the length most of them
    reached; both 0 for a handle's first extent)."""
    lengths, order = {}, {}
    for n, start, _ in script:
        if (n, start) not in lengths:
            order.setdefault(n, []).append(start)
        lengths[(n, start)] = lengths.get((n, start), 0) + 1
    out = {}
    for n, starts in order.items():
        for k, start in enumerate(starts):
            earlier = sorted(lengths[(n, s)]
                             for s in starts[max(k - RUN_HISTORY, 0):k])
            out[(n, start)] = (
                lengths[(n, start)], max(earlier, default=0),
                earlier[len(earlier) // 2] if earlier else 0)
    return out


@settings(max_examples=40, deadline=None)
@given(scripts())
def test_window_stops_where_runs_have_been_ending(script):
    ours = Guest().play(script)
    oracle = Guest(reference=True).play(script)
    extents = extents_of(script)

    for fileid, demanded, issued in ours.windows:
        start = demanded - demanded % PITCH
        _, longest, vouched = extents[(fileid - 9000, start)]
        assert demanded < issued[0]
        # Armed by the run's second block, or at its first by a history
        # that vouches for a second.
        assert demanded > start or vouched >= 2
        evidence = min(start + vouched - 1, demanded + VOUCHED_CAP)
        if longest and demanded - start + 1 <= longest:
            # The run still fits its history: speculation ends where a
            # run of the longest remembered length would.
            assert issued[-1] <= max(evidence, min(demanded + DEPTH,
                                                   start + longest - 1))
        else:
            # No history, or outgrown: exactly the oracle's reach.
            assert issued[-1] == demanded + DEPTH

    for (n, start), (length, longest, vouched) in extents.items():
        mine = ours.misses[(9000 + n, start)]
        theirs = oracle.misses[(9000 + n, start)]
        # The oracle's two misses to get going (and its one more when
        # the run outgrows a history that bounded it), less the second
        # of them.
        assert theirs == min(length, 2) + (2 <= longest < length)
        assert mine == theirs - (vouched >= 2 and length >= 2), \
            (n, start, length, longest, vouched)

    for guest in (ours, oracle):
        stats = guest.readahead.stats
        assert stats.prefetch_failed == 0
        # Every block was read once, cold: a demand miss or a prefetch
        # that paid off, and nothing paid off that was not issued.
        assert (stats.prefetch_used + sum(guest.misses.values())
                == len(script))
        assert stats.prefetch_used <= stats.prefetch_issued
    # What trusting the history costs: at most the vouched run, less
    # the one block read, per extent — beyond what the oracle wastes.
    assert (ours.readahead.stats.prefetch_wasted
            <= oracle.readahead.stats.prefetch_wasted
            + sum(max(min(vouched, VOUCHED_CAP + 1) - length, 0)
                  for length, _, vouched in extents.values()))


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 300), st.sampled_from((1, 2, 8)))
def test_single_long_run_is_the_oracle(length, depth):
    """No history to go by: issued set, completion instants, counters
    and the event count all compare equal with ``==``."""
    script = [(0, 0, block) for block in range(length)]
    ours = Guest(depth=depth).play(script)
    oracle = Guest(reference=True, depth=depth).play(script)
    assert ours.windows == oracle.windows
    assert ours.outcome() == oracle.outcome()


def test_repeated_short_extents_stop_the_window_at_the_extent_end():
    script = [(0, k * PITCH, k * PITCH + i) for k in range(6) for i in range(4)]
    ours = Guest().play(script)
    oracle = Guest(reference=True).play(script)
    # First extent: no history, two misses and the window runs DEPTH
    # past the reader (blocks 2..11 for a 4-block file).  Every later
    # one: blocks 1..3 off its first miss; the oracle, 2..3 off its
    # second.
    assert ours.readahead.stats.prefetch_issued == 10 + 5 * 3
    assert ours.readahead.stats.prefetch_used == 2 + 5 * 3
    assert ours.readahead.stats.vouched_windows == 5
    assert oracle.readahead.stats.prefetch_issued == 10 + 5 * 2
    assert oracle.readahead.stats.prefetch_used == 6 * 2
    assert ours.readahead.run_history[handle_of(0)] == deque([4] * 5)
    # Same answers, nothing more wasted; one demand miss less per extent.
    assert sorted(oracle.misses.values()) == [2] * 6
    assert sorted(ours.misses.values()) == [1] * 5 + [2]
    assert (ours.readahead.stats.prefetch_wasted
            == oracle.readahead.stats.prefetch_wasted == 8)
    assert [d[:2] for d in ours.done] == [d[:2] for d in oracle.done]


def test_outgrowing_run_pays_one_miss_then_runs_at_full_depth():
    script = ([(0, 0, i) for i in range(4)]
              + [(0, PITCH, PITCH + i) for i in range(40)])
    ours = Guest().play(script)
    oracle = Guest(reference=True).play(script)
    assert oracle.misses[(9000, PITCH)] == 3         # PITCH, + 1, + 4
    assert ours.misses[(9000, PITCH)] == 2           # PITCH and PITCH + 4
    later = [w for w in ours.windows if w[1] >= PITCH + 4]
    assert later[0] == (9000, PITCH + 4,
                        tuple(range(PITCH + 5, PITCH + 5 + DEPTH)))
    assert all(issued[-1] == demanded + DEPTH for _, demanded, issued in later)
    # ... and the 40-block run is what the next one is measured against.
    assert max(ours.play([(0, 3 * PITCH, 3 * PITCH)])
               .readahead.run_history[handle_of(0)]) == 40


def test_history_keeps_the_last_32_runs_per_handle():
    script = ([(0, 0, i) for i in range(20)]
              + [(0, k * PITCH, k * PITCH + i)
                 for k in range(1, RUN_HISTORY + 2) for i in range(3)]
              + [(1, 0, i) for i in range(5)])
    guest = Guest().play(script)
    history = guest.readahead.run_history
    # The 20-block run has aged out of file 0's window; file 1 has
    # completed no run yet and is not bounded by file 0's.
    assert history[handle_of(0)] == deque([3] * RUN_HISTORY)
    assert handle_of(1) not in history
    assert [w for w in guest.windows if w[0] == 9001][0][2][-1] == 1 + DEPTH


def test_stray_hit_on_a_leftover_prefetch_does_not_stretch_the_run():
    """The first window left blocks 504..511 behind, unread; touching
    one of them from inside a later, lower run must not move that
    run's end — or its length reads 508 and unbounds the next 32."""
    high, far = 5 * PITCH, 9 * PITCH
    guest = Guest()
    guest.play([(0, high, high + i) for i in range(4)]
               + [(0, 0, 0), (0, 0, 1),
                  (0, 0, high + 7),                  # consumed, not adjacent
                  (0, far, far), (0, far, far + 1)])
    # (Blocks high + 2, + 3; block 1; the stray; block far + 1.)
    assert guest.readahead.stats.prefetch_used == 2 + 1 + 1 + 1
    assert guest.readahead.run_history[handle_of(0)] == deque([4, 2])
    assert guest.windows[-1] == (9000, far, (far + 1, far + 2, far + 3))


def test_crash_and_invalidate_forget_the_history():
    for forget in ("crash", "invalidate_caches"):
        guest = Guest()
        guest.play([(0, k * PITCH, k * PITCH + i)
                    for k in range(3) for i in range(3)])
        readahead = guest.readahead
        assert readahead.run_history[handle_of(0)] == deque([3, 3])
        getattr(guest.proxy, forget)()
        assert not (readahead.run_history or readahead.run_start
                    or readahead.run_last or readahead.frontier
                    or readahead.prefetched)
        # The next run is read as a first run: full depth at once.
        del guest.windows[:]
        guest.play([(0, 5 * PITCH, 5 * PITCH + i) for i in range(3)])
        assert guest.windows[0] == (
            9000, 5 * PITCH + 1,
            tuple(range(5 * PITCH + 2, 5 * PITCH + 2 + DEPTH)))


# -- the prefetch ledger --------------------------------------------------------

#: One bank, one 2-way set: every block contends for two frames.
TINY = ProxyCacheConfig(capacity_bytes=2 * BS, n_banks=1, associativity=2)


def test_block_evicted_unread_then_demand_fetched_is_not_a_used_prefetch():
    guest = Guest(cache_config=TINY, depth=2)
    readahead, fh = guest.readahead, handle_of(0)
    guest.demanding = (fh.fileid, 0)
    readahead.extend_readahead(fh, 0, None)            # blocks 1, 2
    guest.env.run()
    assert readahead.prefetched == {(fh, 1), (fh, 2)}
    # Two demand reads elsewhere evict both, unread; block 1 then comes
    # back on demand and is read again from the cache.
    guest.play([(0, 50, 50), (0, 60, 60), (0, 1, 1), (0, 1, 1)])
    assert guest.misses[(9000, 1)] == 1
    assert guest.block.stats.block_cache_hits == 1
    stats = readahead.stats
    assert (stats.prefetch_issued, stats.prefetch_used) == (2, 0)
    assert stats.readahead_windows == 1 and len(guest.windows) == 1
    assert (fh, 1) not in readahead.prefetched


def test_prefetched_block_overwritten_unread_is_not_a_used_prefetch():
    guest = Guest()
    readahead, fh = guest.readahead, handle_of(0)
    guest.demanding = (fh.fileid, 0)
    readahead.extend_readahead(fh, 0, None)            # blocks 1..8
    guest.env.run()

    def job():
        reply = yield from guest.proxy.handle(NfsRequest(
            NfsProc.WRITE, fh=fh, offset=3 * BS, data=b"\xab" * BS))
        assert reply.ok
        reply = yield from guest.proxy.handle(NfsRequest(
            NfsProc.READ, fh=fh, offset=3 * BS, count=BS))
        assert reply.data == b"\xab" * BS
    guest.rig.run(job())
    assert (fh, 3) not in readahead.prefetched
    assert readahead.stats.prefetch_used == 0
    assert len(guest.windows) == 1                     # no window off the hit


def test_fill_that_raced_a_write_is_not_a_prefetch_either():
    """The WRITE lands while the window is on the wire: the cache drops
    the stale fill, and the ledger must not list it."""
    guest = Guest()
    readahead, fh = guest.readahead, handle_of(0)
    guest.demanding = (fh.fileid, 0)
    readahead.extend_readahead(fh, 0, None)

    def job():
        reply = yield from guest.proxy.handle(NfsRequest(
            NfsProc.WRITE, fh=fh, offset=3 * BS, data=b"\xcd" * BS))
        assert reply.ok and (fh, 3) in guest.block.gates   # still in flight
    guest.rig.run(job())
    guest.env.run()
    assert guest.block.block_cache.is_dirty((fh, 3))
    assert (fh, 3) not in readahead.prefetched
    assert len(readahead.prefetched) == DEPTH - 1
