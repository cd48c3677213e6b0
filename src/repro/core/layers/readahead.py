"""Readahead layer: sequential-run detection and prefetch windows.

Watches the demand stream reported by the block-cache layer: a run of
K adjacent blocks of one file arms a fire-and-forget readahead window
that fetches up to ``readahead_depth`` blocks ahead of the reader,
installing them with merged bank-file writes.  Prefetch gates live in
the block layer's gate table, so demand READs coalesce onto in-flight
prefetches exactly as they coalesce onto each other.

The lengths of the last ``RUN_HISTORY`` completed runs per file handle
are evidence of where the current one will end, and the layer trusts
it both ways.  The length most of them reached (their upper median) is
*vouched for*: the first miss of a new run arms the detector without
waiting for a second, and one launch fetches the whole vouched run
whatever ``readahead_depth`` says — a guest file system lays files out
in extents, and a window that creeps along one pays two WAN round
trips to get going and then keeps catching up with itself.  Past the
vouched length the window is speculation, ``readahead_depth`` blocks
deep, and while the run is no longer than the longest remembered one
it stops where a run of that length would end.

On the request path this layer is a pure pass-through (zero events);
its work rides on the sideways API the block layer calls.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Deque, Dict, Generator, List, Optional, Tuple

from repro.core.layers.base import ProxyLayer
from repro.core.metadata import FileMetadata
from repro.nfs.protocol import FileHandle, NfsProc, NfsRequest
from repro.sim import AllOf

__all__ = ["ReadaheadLayer"]

#: Completed runs remembered per file handle.  A measured constant, not
#: a knob (docs/performance.md "Round eight"): a shorter history
#: forgets a file's long runs between visits, and every run that then
#: outgrows it pays a demand miss — on the compile workload +2.1 % mean
#: RPC latency at 1, +1.2 % at 4 and at 32, where no run outgrows.
RUN_HISTORY = 32

#: Blocks a window may reach past the reader on the history's word
#: alone.  A safety rail, not a knob: 64 blocks x 8 KB is about half
#: the WAN's bandwidth-delay product (30 MB/s x 37.6 ms = 1.1 MB), so a
#: file whose runs have been thousands of blocks long — a VM's memory
#: state read block-wise — still streams, and a remembered length that
#: turns out wrong costs at most this much.  No workload or golden
#: signature reaches it (docs/performance.md "Round nine").
VOUCHED_CAP = 64


@dataclass
class ReadaheadStats:
    prefetch_issued: int = 0        # blocks scheduled by readahead/profiles
    prefetch_used: int = 0          # prefetched blocks later hit by demand
    prefetch_failed: int = 0        # prefetches that returned no data
    readahead_windows: int = 0      # window launches by the run detector
    vouched_windows: int = 0        # ... made on the run history alone

    @property
    def prefetch_wasted(self) -> int:
        """Prefetched blocks never consumed by a demand read (so far)."""
        return max(self.prefetch_issued - self.prefetch_used
                   - self.prefetch_failed, 0)

    @property
    def prefetch_accuracy(self) -> float:
        """used / issued — the fraction of readahead that paid off."""
        if self.prefetch_issued == 0:
            return 0.0
        return self.prefetch_used / self.prefetch_issued


class ReadaheadLayer(ProxyLayer):
    """Run detection plus background prefetch windows."""

    ROLE = "readahead"
    Stats = ReadaheadStats

    def __init__(self):
        super().__init__()
        # Blocks installed by readahead and not yet demanded (accuracy).
        self.prefetched: set = set()
        # Sequential-run detector state, per file handle: the current
        # run's first block, the last block the guest demanded in it,
        # the last block a window was issued for, and the lengths of
        # the runs that came before.
        self.run_start: Dict[FileHandle, int] = {}
        self.run_last: Dict[FileHandle, int] = {}
        self.frontier: Dict[FileHandle, int] = {}
        self.run_history: Dict[FileHandle, Deque[int]] = {}
        # A counter, not detector state: every completed run's length,
        # per file handle, for the deep ``stats_snapshot``.
        self.run_lengths: Dict[FileHandle, Counter] = {}

    @property
    def _block(self):
        return self.stack.layer("block-cache")

    # ----------------------------------------------------------- sideways API
    def note_demand_miss(self, fh: FileHandle, idx: int,
                         meta: Optional[FileMetadata]) -> None:
        """Run detection on the demand stream: a miss next to the last
        block the guest demanded continues the run, any other miss
        closes it (its length goes into the history) and opens a new
        one.  A run of K blocks arms a readahead window ahead of the
        reader; so does the first miss of a run whose file's history
        vouches for K."""
        # Fetched on demand now, whatever became of an earlier prefetch
        # of this block (evicted unread): a later hit is not its doing.
        self.prefetched.discard((fh, idx))
        if self.config.readahead_depth <= 0 or self._block is None:
            return
        last = self.run_last.get(fh)
        if last != idx - 1:
            if last is not None:
                length = last - self.run_start[fh] + 1
                self.run_history.setdefault(
                    fh, deque(maxlen=RUN_HISTORY)).append(length)
                self.run_lengths.setdefault(fh, Counter())[length] += 1
            self.run_start[fh] = idx
            self.frontier.pop(fh, None)   # a new run, a new window
        self.run_last[fh] = idx
        min_run = self.config.readahead_min_run
        if idx - self.run_start[fh] + 1 >= min_run:
            self.extend_readahead(fh, idx, meta)
        elif self.vouched(fh) >= min_run:
            self.extend_readahead(fh, idx, meta, on_history=True)

    def vouched(self, fh: FileHandle) -> int:
        """The run length ``fh``'s history vouches for: the one most of
        its remembered runs reached (their upper median; 0 with none).
        One long run among short ones vouches for nothing."""
        history = self.run_history.get(fh)
        if not history:
            return 0
        return sorted(history)[len(history) // 2]

    def consume_prefetch(self, key: Tuple[FileHandle, int],
                         meta: Optional[FileMetadata]) -> None:
        """A demand READ hit a prefetched frame: account for it and keep
        the window ``readahead_depth`` blocks ahead of the reader."""
        if key not in self.prefetched:
            return
        self.prefetched.discard(key)
        self.stats.prefetch_used += 1
        fh, idx = key
        # Only the next block of the run advances it: a stray hit on a
        # frame some earlier window left behind says nothing about
        # where this run ends, and would poison the history's maximum.
        if self.run_last.get(fh) == idx - 1:
            self.run_last[fh] = idx
        self.extend_readahead(fh, idx, meta)

    def forget_prefetch(self, key: Tuple[FileHandle, int]) -> None:
        """Strike a block off the ledger: a WRITE dirtied its frame
        (what a later READ hits there is the guest's own data, not a
        prefetch that paid off), or an external prefetch of it failed."""
        self.prefetched.discard(key)

    def register_prefetch(self, key: Tuple[FileHandle, int]) -> None:
        """Count an externally issued prefetch (profile-driven
        :class:`~repro.core.profiler.Prefetcher`) toward accuracy."""
        self.stats.prefetch_issued += 1
        self.prefetched.add(key)

    # ---------------------------------------------------------------- windows
    def extend_readahead(self, fh: FileHandle, idx: int,
                         meta: Optional[FileMetadata],
                         on_history: bool = False) -> None:
        """Schedule background fetches past demand block ``idx``
        (skipping cached, in-flight and zero-filled blocks, and
        stopping at the known file size): in one launch to the end of
        the run the history vouches for, and beyond the evidence up to
        ``readahead_depth`` blocks — while the current run is no longer
        than the longest remembered one, no further than where a run of
        that length would end.  ``on_history``: the run itself has not
        armed the detector yet, the history did."""
        block = self._block
        bs = self.stack.block_size()
        lo = idx + 1
        frontier = self.frontier.get(fh)
        if frontier is not None and frontier >= lo:
            lo = frontier + 1
        size_limit = None
        if meta is not None:
            size_limit = max(meta.file_size, self.stack.local_size(fh))
        hi = idx + self.config.readahead_depth
        history = self.run_history.get(fh)
        if history:
            start, longest = self.run_start[fh], max(history)
            if self.run_last[fh] - start < longest:
                hi = min(hi, start + longest - 1)
            if idx >= start:              # not a stray hit below the run
                hi = max(hi, min(start + self.vouched(fh) - 1,
                                 idx + VOUCHED_CAP))
        idxs = []
        for i in range(lo, hi + 1):
            if size_limit is not None and i * bs >= size_limit:
                break
            key = (fh, i)
            if key in block.gates or key in block.block_cache:
                continue
            if meta is not None and meta.covers_read(i * bs, bs):
                continue   # zero-filled: answered locally, nothing to fetch
            idxs.append(i)
        if not idxs:
            return
        self.frontier[fh] = idxs[-1]
        for i in idxs:
            block.gates[(fh, i)] = self.env.event()
        self.stats.prefetch_issued += len(idxs)
        self.stats.readahead_windows += 1
        self.stats.vouched_windows += on_history
        self.env.process(self._window(fh, idxs),
                         name=f"{self.config.name}.readahead")

    def _window(self, fh: FileHandle, idxs: List[int]) -> Generator:
        """Background process: fetch a window of blocks concurrently and
        install it with one merged bank-file write per contiguous run.

        Fire-and-forget: every failure is contained (an unobserved
        failed process aborts the whole simulation) and every gate is
        released, so a failed prefetch never wedges later READs.
        """
        block = self._block
        bs = self.stack.block_size()
        # Snapshot our gates: a proxy crash mid-window releases and
        # clears them, and recovery may install fresh gates under the
        # same keys — cleanup must only touch the ones we own.
        gates = {i: block.gates[(fh, i)] for i in idxs}
        fetched: Dict[int, bytes] = {}

        def fetch_one(i: int) -> Generator:
            try:
                reply = yield from self.next.handle(NfsRequest(
                    NfsProc.READ, fh=fh, offset=i * bs, count=bs,
                    credentials=self.config.identity or (0, 0)))
            except Exception:
                return
            if reply.ok and reply.data:
                fetched[i] = reply.data

        victims: List = []
        try:
            # The window is already a process of its own: it fetches
            # its first block itself and spawns only the rest, so the
            # common one-block window costs no child and no condition.
            # (The siblings are spawned first: they start one queue
            # turn later, as they did when the first block had a child
            # of its own, and the fetches leave in index order.)
            rest =[self.env.process(fetch_one(i)) for i in idxs[1:]]
            yield from fetch_one(idxs[0])
            if rest:
                yield AllOf(self.env, rest)
            items = []
            for i in sorted(fetched):
                key = (fh, i)
                # (A fill that raced a WRITE is dropped by the cache.)
                if not block.block_cache.is_dirty(key):
                    self.prefetched.add(key)
                items.append((key, fetched[i]))
            if items:
                victims = yield from block.block_cache.insert_many(items)
        except Exception:
            pass
        finally:
            self.stats.prefetch_failed += len(idxs) - len(fetched)
            for i in idxs:
                gate = gates[i]
                if block.gates.get((fh, i)) is gate:
                    del block.gates[(fh, i)]
                if gate.callbacks and not gate.triggered:
                    gate.succeed()
        for victim in victims:
            try:
                yield from block.dispose_victim(victim)
            except Exception:
                pass   # contained: a prefetch must not crash the session

    # --------------------------------------------------------------- lifecycle
    def crash(self) -> None:
        self.prefetched.clear()
        self.run_start.clear()
        self.run_last.clear()
        self.frontier.clear()
        self.run_history.clear()

    invalidate = crash

    # ------------------------------------------------------------------ stats
    def stats_snapshot(self, deep: bool = False) -> dict:
        snap = super().stats_snapshot()
        if deep:
            snap["run_lengths"] = {
                str(fh): dict(sorted(lengths.items()))
                for fh, lengths in self.run_lengths.items()}
        return snap

    def reset(self) -> None:
        super().reset()
        self.run_lengths.clear()
