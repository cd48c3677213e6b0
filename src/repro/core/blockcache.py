"""Proxy-managed disk cache of NFS blocks (§3.2.1 and TR-ACIS-04-001).

Structure follows the paper: the cache lives in *file banks* created on
demand on the proxy host's local disk; each bank holds *frames* grouped
into sets.  Indexing hashes the NFS file handle and block offset; the
hash "exploits spatial locality by mapping consecutive blocks of a file
into consecutive sets of a cache bank", so a streaming fill writes a
bank sequentially.

Frames hold real block bytes (stored in the bank file), so hits return
exactly the bytes a previous fill or local write put there.  Disk time
is charged through the proxy host's :class:`~repro.storage.localfs.
LocalFileSystem`, whose page cache makes re-reads of recently touched
frames free — matching the behaviour that lets warm clones finish in
seconds on real hardware.

Write-back support: locally written frames are marked dirty and pinned;
eviction of a dirty frame hands it back to the caller for upstream
write-back before reuse.

Crash recovery: with ``config.journal`` enabled, every dirty placement
appends a record to a persistent journal file alongside the bank files
(``/{name}/journal``).  Frame *data* always survives a proxy crash (it
lives in the bank files on disk); what dies is the in-memory frame tags
saying which frame holds which block.  The journal is exactly that tag
information for dirty frames, so a restarted proxy can rebuild its
dirty set and replay the flush instead of losing VM disk writes.

Journal format (text, one record per line):

* ``+ <fsid> <fileid> <block> <bank> <frame> <length> <crc32>`` —
  frame ``frame`` of bank ``bank`` holds dirty block ``block`` of file
  ``(fsid, fileid)``, payload ``length`` bytes with the given checksum.
* ``- <fsid> <fileid> <block>`` — that block was cleaned (flushed
  upstream) or its frame reclaimed; any earlier ``+`` is void.

Replay applies records in order; the checksum guards against a record
whose frame was reused after the record was written (stale records
fail verification and are skipped).  The file is truncated whenever
the dirty set empties, so it stays proportional to outstanding dirty
data, not history.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from repro.core.config import ProxyCacheConfig
from repro.nfs.protocol import FileHandle
from repro.sim import Environment
from repro.storage.localfs import LocalFileSystem
from repro.storage.vfs import Inode

__all__ = ["CachedBlock", "ProxyBlockCache"]

BlockKey = Tuple[FileHandle, int]


class _Frame:
    """Tag of one occupied frame: the block it holds, the payload
    length, whether it is dirty, and its last-touch tick."""

    __slots__ = ("key", "length", "dirty", "lru")

    def __init__(self, key: BlockKey, length: int, dirty: bool, lru: int):
        self.key = key
        self.length = length
        self.dirty = dirty
        self.lru = lru


class _Bank:
    """One cache bank: the bank file's inode plus the tags of its
    occupied frames, by frame index.

    A free frame has no entry, so a bank's host memory follows what it
    holds, not its configured frame count (2,048 at the paper's
    geometry).
    """

    __slots__ = ("inode", "frames")

    def __init__(self, inode: Inode):
        self.inode = inode
        self.frames: Dict[int, _Frame] = {}


@dataclass(frozen=True)
class CachedBlock:
    """A block handed back by the cache (hit result or eviction victim)."""

    key: BlockKey
    data: bytes
    dirty: bool


class ProxyBlockCache:
    """Set-associative, disk-backed block cache with LRU-in-set."""

    def __init__(self, env: Environment, storage: LocalFileSystem,
                 config: ProxyCacheConfig = ProxyCacheConfig(),
                 name: str = "proxycache", read_only: bool = False):
        self.env = env
        self.storage = storage
        self.config = config
        self.name = name
        self.read_only = read_only
        # Geometry, read once: the config's properties derive it on
        # every access, and every probe needs it.
        self._block_size = config.block_size
        self._associativity = config.associativity
        self._sets_per_bank = config.sets_per_bank
        self._n_banks = config.n_banks
        self._tick = 0
        # bank index -> _Bank (inode + occupied frame tags); created on
        # demand.
        self._banks: Dict[int, _Bank] = {}
        # Reverse map for O(1) lookup: key -> (bank, frame index).
        self._where: Dict[BlockKey, Tuple[int, int]] = {}
        # (fsid, fileid, group) -> bank: the crc32-of-string placement
        # hash is stable but costly, and every block of a group maps to
        # the same bank, so the digest is computed once per group.
        self._bank_memo: Dict[Tuple[str, int, int], int] = {}
        if not storage.fs.exists(self._root()):
            storage.fs.mkdir(self._root(), parents=True)
        # Dirty-frame journal (see module docstring).  ``_journal_live``
        # mirrors the journal's net content: key -> (bank, frame,
        # length, crc32) for every currently dirty frame.
        self.journal_enabled = config.journal
        self._journal_inode: Optional[Inode] = None
        self._journal_offset = 0
        self._journal_live: Dict[BlockKey, Tuple[int, int, int, int]] = {}
        if self.journal_enabled:
            path = f"{self._root()}/journal"
            if storage.fs.exists(path):
                self._journal_inode = storage.fs.lookup(path)
                self._journal_offset = self._journal_inode.data.size
            else:
                self._journal_inode = storage.fs.create(path)
        # Cooperative-caching hook (empty by default, so the hot path
        # of a non-cooperative proxy is untouched).  ``observers`` get
        # told when a clean block becomes shareable or stops being so
        # (see PeerCacheDirectory in repro.net.topology, duck-typed:
        # block_published / block_retracted / cache_cleared, plus
        # cache_crashed for observers that distinguish a crash).
        self.observers: List = []
        # Statistics
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.writebacks = 0
        self.peer_reads = 0
        self.journal_appends = 0
        self.recovered_blocks = 0
        #: Current number of dirty frames (kept incrementally so the
        #: proxy's dirty high-water check is O(1) per write).
        self.dirty_frames = 0

    def _root(self) -> str:
        return f"/{self.name}"

    # -- geometry ----------------------------------------------------------------
    def _index(self, key: BlockKey) -> Tuple[int, int]:
        """(bank, set) for a key; consecutive blocks -> consecutive sets."""
        fh, block = key
        sets = self._sets_per_bank
        group = block // sets                       # which run of blocks
        memo_key = (fh.fsid, fh.fileid, group)
        bank = self._bank_memo.get(memo_key)
        if bank is None:
            # Stable across processes (Python's str hash is randomized).
            digest = zlib.crc32(f"{fh.fsid}:{fh.fileid}:{group}".encode())
            bank = digest % self._n_banks
            self._bank_memo[memo_key] = bank
        return bank, block % sets

    def _bank(self, bank_index: int) -> _Bank:
        bank = self._banks.get(bank_index)
        if bank is None:
            # "Cache banks are created on the local disk by the proxy on
            # demand."
            inode = self.storage.fs.create(f"{self._root()}/bank{bank_index:04d}")
            bank = _Bank(inode)
            self._banks[bank_index] = bank
        return bank

    def _frame_offset(self, frame_index: int) -> int:
        """Byte offset of a frame in its bank file.

        The layout is *way-major*: all of way 0's frames first (one per
        set, in set order), then way 1's, and so on.  Consecutive blocks
        of a file land in consecutive sets (see :meth:`_index`), and a
        streaming fill of an idle set picks way 0 first — so the fill
        really does write the bank file sequentially, as the paper's
        hash design intends, and multi-block helpers can merge a run
        into a single bank-file I/O.
        """
        set_index, way = divmod(frame_index, self._associativity)
        return (way * self._sets_per_bank + set_index) * self._block_size

    # -- operations ------------------------------------------------------------------
    def lookup(self, key: BlockKey) -> Generator:
        """Process: probe the cache; returns :class:`CachedBlock` or None.

        A hit is charged the bank-file read (usually free via the host
        page cache, a disk access when the frame is cold on disk).  A
        frame reused or dropped during that read is a miss: its bytes
        are no longer ``key``'s.
        """
        where = self._where.get(key)
        if where is None:
            self.misses += 1
            return None
        bank_index, frame_index = where
        bank = self._banks[bank_index]
        frames = bank.frames
        self._tick += 1
        frames[frame_index].lru = self._tick
        data = yield from self.storage.timed_read_inode(
            bank.inode, self._frame_offset(frame_index), self._block_size)
        tag = frames.get(frame_index)
        if tag is None or tag.key != key:
            self.misses += 1
            return None
        self.hits += 1
        if tag.length != len(data):
            data = data[:tag.length]
        return CachedBlock(key, data, tag.dirty)

    def _place(self, key: BlockKey, data: bytes, dirty: bool) -> Generator:
        """Process: tag a frame for ``key`` without writing the bank file.

        Returns ``(inode, frame_offset, victim)`` — the caller performs
        (and is charged for) the actual bank-file write, so a run of
        placements can merge physically adjacent frames into one I/O.
        Returns None, placing nothing, for a clean block over a resident
        dirty frame: the fill raced a WRITE, whose bytes are newer.
        Evicting a dirty frame reads the old bytes back (charged here)
        and hands them out as ``victim``; a clean victim is dropped.
        """
        if self.read_only and dirty:
            raise PermissionError(f"{self.name}: dirty insert into shared "
                                  "read-only cache")
        if len(data) > self._block_size:
            raise ValueError(f"block larger than frame: {len(data)}")
        bank_index, set_index = self._index(key)
        bank = self._bank(bank_index)
        frames = bank.frames
        victim: Optional[CachedBlock] = None

        existing = self._where.get(key)
        if existing is not None and existing[0] == bank_index:
            frame_index = existing[1]
            if frames[frame_index].dirty and not dirty:
                return None
        else:
            # Choose a frame in the set: free first, else the least
            # recently touched (lowest frame index on ties).
            a = self._associativity
            base = set_index * a
            frame_index = None
            for i in range(base, base + a):
                if i not in frames:
                    frame_index = i
                    break
            if frame_index is None:
                frame_index = min(range(base, base + a),
                                  key=lambda i: frames[i].lru)
                self.evictions += 1
                if frames[frame_index].dirty:
                    old_data = yield from self.storage.timed_read_inode(
                        bank.inode, self._frame_offset(frame_index),
                        self._block_size)
                    tag = frames.get(frame_index)
                    if tag is not None:
                        victim = CachedBlock(tag.key,
                                             old_data[:tag.length], True)
                # The tag may already be gone if the cache was flushed
                # while this placement waited on the victim read, so
                # re-read it rather than trusting a pre-wait snapshot.
                tag = frames.get(frame_index)
                if tag is not None:
                    self._where.pop(tag.key, None)
                    if self.observers:
                        self._notify_retracted(tag.key)

        self._tick += 1
        tag = frames.get(frame_index)
        if tag is None:
            frames[frame_index] = _Frame(key, len(data), dirty, self._tick)
        else:
            self.dirty_frames -= tag.dirty
            tag.key = key
            tag.length = len(data)
            tag.dirty = dirty
            tag.lru = self._tick
        self.dirty_frames += dirty
        self._where[key] = (bank_index, frame_index)
        self.insertions += 1
        if self.journal_enabled:
            if victim is not None:
                # The victim's frame is being reused; its bytes survive
                # only in the caller's write-back, which a crash would
                # lose anyway — void the record so replay can't resurrect
                # the frame's new contents under the old key.
                self._journal_remove(victim.key)
            if dirty:
                crc = zlib.crc32(data)
                self._journal_live[key] = (bank_index, frame_index,
                                           len(data), crc)
                fh, block = key
                yield from self._journal_append(
                    f"+ {fh.fsid} {fh.fileid} {block} {bank_index} "
                    f"{frame_index} {len(data)} {crc}\n")
            elif key in self._journal_live:
                self._journal_remove(key)
        if self.observers and dirty:
            # A clean frame re-tagged dirty (local write over a cached
            # block) stops being shareable until written back.
            self._notify_retracted(key)
        return bank.inode, self._frame_offset(frame_index), victim

    def insert(self, key: BlockKey, data: bytes,
               dirty: bool = False) -> Generator:
        """Process: place a block; returns an evicted
        :class:`CachedBlock` victim or None.  Victims are dirty frames
        needing upstream write-back."""
        placed = yield from self._place(key, data, dirty)
        if placed is None:
            return None
        inode, offset, victim = placed
        yield from self.storage.timed_write_inode(inode, data, offset)
        if self.observers and not dirty:
            # Publish only after the bank file holds the bytes: a peer
            # may read the frame the moment the directory learns of it.
            if key in self._where and not self.is_dirty(key):
                self._notify_published(key)
        return victim

    def insert_many(self, items: List[Tuple[BlockKey, bytes]],
                    dirty: bool = False) -> Generator:
        """Process: place several blocks, merging physically adjacent
        frame writes into single bank-file I/Os.

        A readahead window of consecutive blocks lands in consecutive
        sets of one bank with the way-major frame layout, so the whole
        window usually costs one disk write instead of one per block.
        Returns the list of evicted dirty :class:`CachedBlock` victims
        (possibly empty).
        """
        victims: List[CachedBlock] = []
        writes: List[Tuple[int, int, Inode, bytes]] = []
        for key, data in items:
            placed = yield from self._place(key, data, dirty)
            if placed is None:
                continue
            inode, offset, victim = placed
            if victim is not None:
                victims.append(victim)
            writes.append((inode.fileid, offset, inode, data))
        # By bank file, then offset.  (The bank file's id, not the
        # object's address: a window that crosses a bank group must
        # issue its writes in the same order in every process.)
        writes.sort(key=lambda w: w[:2])
        bs = self._block_size
        n = len(writes)
        i = 0
        while i < n:
            _, offset, inode, _ = writes[i]
            j = i + 1
            while (j < n and writes[j][2] is inode
                   and writes[j][1] == offset + (j - i) * bs
                   and len(writes[j - 1][3]) == bs):
                j += 1
            # One charged I/O for the run; the bank file keeps each
            # block's own bytes object (no join, no slicing back).
            yield from self.storage.timed_write_inode(
                inode, [w[3] for w in writes[i:j]], offset)
            i = j
        if self.observers and not dirty:
            for key, _ in items:
                if key in self._where and not self.is_dirty(key):
                    self._notify_published(key)
        return victims

    # -- cooperative-caching feed ------------------------------------------------
    def _notify_published(self, key: BlockKey) -> None:
        for obs in self.observers:
            obs.block_published(key)

    def _notify_retracted(self, key: BlockKey) -> None:
        for obs in self.observers:
            obs.block_retracted(key)

    def _notify_cleared(self) -> None:
        for obs in self.observers:
            obs.cache_cleared()

    def _notify_crashed(self) -> None:
        # Crash is a distinct observer event from an orderly clear: a
        # peer directory must also release any in-flight borrow this
        # member was the designated fetcher for.  Observers predating
        # the distinction fall back to the clear notification.
        for obs in self.observers:
            crashed = getattr(obs, "cache_crashed", None)
            if crashed is not None:
                crashed()
            else:
                obs.cache_cleared()

    def read_cached(self, key: BlockKey) -> Generator:
        """Process: read a clean cached block on behalf of a peer proxy.

        Serving a peer must not distort this cache's own locality
        signals, so there is no hit/miss accounting and no recency
        update.  Returns the block's bytes, or None when the block is
        absent or dirty — dirty frames are session-private until they
        have been written back upstream.
        """
        where = self._where.get(key)
        if where is None:
            return None
        bank_index, frame_index = where
        bank = self._banks[bank_index]
        if bank.frames[frame_index].dirty:
            return None
        data = yield from self.storage.timed_read_inode(
            bank.inode, self._frame_offset(frame_index), self._block_size)
        # Re-validate after the disk wait: a concurrent placement may
        # have reused the frame, making the bytes just read stale.
        tag = bank.frames.get(frame_index)
        if tag is None or tag.key != key or tag.dirty:
            return None
        self.peer_reads += 1
        return data if tag.length == len(data) else data[:tag.length]

    def corrupt_frame(self, key: BlockKey) -> bool:
        """Garble a cached frame's on-disk bytes, leaving its tag valid.

        Fault injection only (untimed, mutates the bank file directly):
        this is the silent-corruption case — a later lookup serves the
        garbled bytes as a perfectly ordinary hit, which only an
        end-to-end check above the cache can catch.  Corrupting a
        *dirty* frame also makes its journal record's crc stale, so
        recovery will discard exactly that record.  Returns whether a
        frame was actually garbled.
        """
        where = self._where.get(key)
        if where is None:
            return False
        bank_index, frame_index = where
        bank = self._banks[bank_index]
        length = bank.frames[frame_index].length
        if length == 0:
            return False
        offset = self._frame_offset(frame_index)
        data = bank.inode.data.read(offset, length)
        head = bytes(b ^ 0xFF for b in data[:64])
        bank.inode.data.write(offset, head + data[64:])
        return True

    def discard(self, key: BlockKey) -> bool:
        """Drop one *clean* cached frame (checksum-repair refetch path).

        Untimed tag surgery: the frame becomes free, observers see a
        retraction so no peer is pointed at the dropped copy.  Dirty
        frames are refused — they hold the only copy of the data.
        Returns whether the frame was dropped.
        """
        where = self._where.get(key)
        if where is None:
            return False
        bank_index, frame_index = where
        frames = self._banks[bank_index].frames
        if frames[frame_index].dirty:
            return False
        del frames[frame_index]
        del self._where[key]
        if self.observers:
            self._notify_retracted(key)
        return True

    def iter_clean_keys(self) -> List[BlockKey]:
        """Snapshot of every clean cached key, in deterministic order —
        seeds a peer-cache directory when a warm cache joins."""
        banks = self._banks
        out = [key for key, (b, f) in self._where.items()
               if not banks[b].frames[f].dirty]
        out.sort(key=lambda k: (k[0].fsid, k[0].fileid, k[1]))
        return out

    def read_many(self, keys: List[BlockKey]) -> Generator:
        """Process: fetch several cached blocks for upstream write-back,
        one charged bank-file read per physically contiguous frame run.

        A short (partial) frame ends its run — the same rule as
        :meth:`dirty_runs` — and the merged read's extent is trimmed to
        the last frame's payload, so a span read never pulls bytes past
        the data it actually hands back.

        Returns, in ``keys`` order, each frame's stored object (no join,
        no slicing back: a whole block is the object inserted).  Raises
        :class:`KeyError` if any key is not cached.
        """
        frames_at: List[Tuple[object, int, int]] = []   # (inode, offset, len)
        for key in keys:
            where = self._where.get(key)
            if where is None:
                raise KeyError(f"{key} not cached")
            bank_index, frame_index = where
            bank = self._banks[bank_index]
            frames_at.append((bank.inode, self._frame_offset(frame_index),
                              bank.frames[frame_index].length))
        bs = self._block_size
        n = len(frames_at)
        out: List[bytes] = []
        i = 0
        while i < n:
            inode, offset, _ = frames_at[i]
            j = i + 1
            while (j < n and frames_at[j][0] is inode
                   and frames_at[j][1] == offset + (j - i) * bs
                   and frames_at[j - 1][2] == bs):
                j += 1
            span_bytes = (j - 1 - i) * bs + frames_at[j - 1][2]
            yield from self.storage.timed_scan_inode(inode, offset,
                                                     span_bytes)
            inode.atime = self.env.now
            for _, frame_offset, length in frames_at[i:j]:
                out.append(inode.data.read(frame_offset, length))
            i = j
        self.writebacks += len(keys)
        return out

    # -- dirty-frame journal ---------------------------------------------------
    def _journal_append(self, record: str) -> Generator:
        """Process: synchronously append one record to the journal.

        Appends are sequential at a tracked offset, so the disk model
        charges them at streaming rates — this is the per-write cost of
        crash safety.
        """
        data = record.encode()
        # Reserve the append position before yielding: concurrent dirty
        # placements (pipelined WRITEs) must not capture the same offset.
        offset = self._journal_offset
        self._journal_offset += len(data)
        yield from self.storage.timed_write_inode(
            self._journal_inode, data, offset, sync=True)
        self.journal_appends += 1

    def _journal_remove(self, key: BlockKey) -> None:
        """Void a key's journal record (untimed).

        Removal records are a few dozen bytes riding the next sequential
        append; real proxies batch them with the flush's COMMIT, so they
        are not charged individually.  When the dirty set empties the
        journal is compacted to an empty file.
        """
        if self._journal_live.pop(key, None) is None:
            return
        if not self._journal_live:
            self._journal_inode.data.truncate(0)
            self._journal_offset = 0
            return
        fh, block = key
        record = f"- {fh.fsid} {fh.fileid} {block}\n".encode()
        self._journal_inode.data.write(self._journal_offset, record)
        self._journal_offset += len(record)

    def crash(self) -> None:
        """Simulate proxy process death: in-memory frame tags are lost.

        Bank files and the journal survive on disk (``inode.data`` is
        the media); :meth:`recover_from_journal` rebuilds the dirty set
        from them.  Clean cached frames are simply forgotten — losing
        them costs refetches, never data.
        """
        for bank in self._banks.values():
            bank.frames.clear()
        self._where.clear()
        self.dirty_frames = 0
        self._journal_live.clear()
        if self.observers:
            self._notify_crashed()
        if self.journal_enabled:
            # Re-derive the append position from the surviving file.
            self._journal_offset = self._journal_inode.data.size

    def recover_from_journal(self) -> Generator:
        """Process: replay the journal, rebuilding dirty-frame tags.

        Reads the journal file, applies add/remove records in order,
        then verifies each surviving record's checksum against the
        frame's on-disk bytes (a mismatch means the frame was reused
        after the record — the record is stale and skipped).  Returns
        the sorted list of recovered dirty :data:`BlockKey`\\ s.
        """
        if not self.journal_enabled:
            return []
        inode = self._journal_inode
        raw = yield from self.storage.timed_read_inode(
            inode, 0, inode.data.size)
        live: Dict[BlockKey, Tuple[int, int, int, int]] = {}
        for line in raw.decode().splitlines():
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "+" and len(parts) == 8:
                key = (FileHandle(parts[1], int(parts[2])), int(parts[3]))
                live[key] = (int(parts[4]), int(parts[5]),
                             int(parts[6]), int(parts[7]))
            elif parts[0] == "-" and len(parts) == 4:
                live.pop((FileHandle(parts[1], int(parts[2])),
                          int(parts[3])), None)
        recovered: List[BlockKey] = []
        for key, (bank_index, frame_index, length, crc) in live.items():
            bank = self._bank(bank_index)
            data = yield from self.storage.timed_read_inode(
                bank.inode, self._frame_offset(frame_index),
                self._block_size)
            data = data[:length]
            if len(data) != length or zlib.crc32(data) != crc:
                continue
            self._tick += 1
            bank.frames[frame_index] = _Frame(key, length, True, self._tick)
            self._where[key] = (bank_index, frame_index)
            self._journal_live[key] = (bank_index, frame_index, length, crc)
            recovered.append(key)
        self.dirty_frames += len(recovered)
        self._journal_offset = inode.data.size
        self.recovered_blocks += len(recovered)
        recovered.sort(key=lambda k: (k[0].fsid, k[0].fileid, k[1]))
        return recovered

    def mark_clean(self, key: BlockKey) -> None:
        """Clear the dirty tag after a successful upstream write-back."""
        where = self._where.get(key)
        if where is None:
            return
        tag = self._banks[where[0]].frames[where[1]]
        if tag.dirty:
            tag.dirty = False
            self.dirty_frames -= 1
            if self.observers:
                self._notify_published(key)
        if self.journal_enabled:
            self._journal_remove(key)

    def dirty_blocks(self, fh: Optional[FileHandle] = None) -> List[BlockKey]:
        """Keys of dirty frames (optionally restricted to one file)."""
        out = []
        banks = self._banks
        for key, (bank_index, frame_index) in self._where.items():
            if fh is not None and key[0] != fh:
                continue
            if banks[bank_index].frames[frame_index].dirty:
                out.append(key)
        out.sort(key=lambda k: (k[0].fsid, k[0].fileid, k[1]))
        return out

    def dirty_runs(self, max_run_bytes: int = 0) -> List[List[BlockKey]]:
        """Dirty keys grouped into runs mergeable into one upstream WRITE.

        A run is a maximal sequence of dirty blocks of the same file with
        consecutive block indices, capped at ``max_run_bytes`` total
        (0 or a value at or below the block size means one block per
        run).  A short (partial) block can only end a run — merging past
        it would write stale padding — so runs also break after any
        frame whose payload is not a full block.
        """
        bs = self._block_size
        per_run = max(max_run_bytes // bs, 1)
        runs: List[List[BlockKey]] = []
        run: List[BlockKey] = []
        for key in self.dirty_blocks():
            if run:
                prev = run[-1]
                where = self._where[prev]
                prev_len = self._banks[where[0]].frames[where[1]].length
                if (key[0] != prev[0] or key[1] != prev[1] + 1
                        or prev_len != bs or len(run) >= per_run):
                    runs.append(run)
                    run = []
            run.append(key)
        if run:
            runs.append(run)
        return runs

    def is_dirty(self, key: BlockKey) -> bool:
        where = self._where.get(key)
        if where is None:
            return False
        return self._banks[where[0]].frames[where[1]].dirty

    def __contains__(self, key: BlockKey) -> bool:
        return key in self._where

    def flush_tags(self) -> None:
        """Drop every frame (cold-cache setup).  Dirty data is lost —
        callers flush upstream first, as the experiments do."""
        for bank in self._banks.values():
            # Clear in place so in-flight placements and lookups holding
            # a bank's tag dict observe the cleared tags.
            bank.frames.clear()
        self._where.clear()
        self.dirty_frames = 0
        if self.observers:
            self._notify_cleared()
        if self.journal_enabled and self._journal_live:
            self._journal_live.clear()
            self._journal_inode.data.truncate(0)
            self._journal_offset = 0

    def reset_stats(self) -> None:
        """Zero the counters without disturbing cache contents —
        benchmarks separate warm-up from the measured phase this way
        instead of rebuilding the cache."""
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.writebacks = 0
        self.peer_reads = 0

    @property
    def cached_blocks(self) -> int:
        return len(self._where)

    @property
    def banks_created(self) -> int:
        return len(self._banks)
