"""Timed local filesystem: a VFS bound to a disk model.

Simulation processes read and write through :class:`LocalFileSystem`
and are charged the disk's seek/transfer time; the underlying data is
the plain untimed :class:`~repro.storage.vfs.FileSystem`, so untimed
setup code (image preparation, assertions in tests) can bypass timing
via the ``fs`` attribute.

A small in-memory page cache mimics the host buffer cache over local
files: recently accessed chunks cost no disk time.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generator, Optional

from repro.sim import Environment, Event
from repro.storage.disk import Disk, DiskParams, SCSI_2003
from repro.storage.vfs import CHUNK_SIZE, FileSystem, Inode

__all__ = ["LocalFileSystem"]


class LocalFileSystem:
    """Disk-timed access to an in-memory filesystem tree."""

    def __init__(self, env: Environment, name: str = "localfs",
                 disk_params: DiskParams = SCSI_2003,
                 page_cache_bytes: int = 256 * 1024 * 1024):
        self.env = env
        self.fs = FileSystem(name=name, clock=lambda: env.now)
        self.disk = Disk(env, disk_params, name=f"{name}.disk")
        self._page_cache_capacity = max(page_cache_bytes // CHUNK_SIZE, 1)
        self._page_cache: OrderedDict = OrderedDict()
        # Write-behind state: dirty bytes drain to disk in the background;
        # writers block only when the dirty pool exceeds the limit (the
        # kernel's dirty-ratio behaviour).
        self.dirty_limit = 16 * 1024 * 1024
        self._dirty_bytes = 0
        # One flusher process for this file system's life, started by
        # the first async write; between bursts it parks on this event.
        self._flusher_started = False
        self._flusher_idle: Optional[Event] = None
        self._below_limit_waiters: list = []
        self._flush_seq = 0  # synthetic sequential offset for flusher writes
        # Adaptive readahead: per-file next-sequential offset; misses on
        # a detected sequential stream pull a whole window off the disk.
        self.readahead_bytes = 128 * 1024
        self._scan_pos: dict = {}          # fileid -> next sequential offset
        # Statistics
        self.cache_hits = 0
        self.cache_misses = 0
        self.readahead_fills = 0

    # -- page cache ------------------------------------------------------------
    def _cache_key(self, inode: Inode, chunk_index: int):
        return (inode.fileid, chunk_index)

    def _cache_touch(self, key) -> bool:
        """Return True on hit; refresh LRU position."""
        if key in self._page_cache:
            self._page_cache.move_to_end(key)
            self.cache_hits += 1
            return True
        self.cache_misses += 1
        return False

    def _cache_insert(self, key) -> None:
        self._page_cache[key] = True
        self._page_cache.move_to_end(key)
        while len(self._page_cache) > self._page_cache_capacity:
            self._page_cache.popitem(last=False)

    def drop_caches(self) -> None:
        """Forget all cached pages (cold-cache experiment setup)."""
        self._page_cache.clear()

    # -- timed I/O ---------------------------------------------------------------
    def timed_read(self, path: str, offset: int, count: int) -> Generator:
        """Process: read bytes with disk/page-cache timing.

        Returns the bytes read (via the process event value).
        """
        inode = self.fs.lookup(path)
        data = yield from self.timed_read_inode(inode, offset, count)
        return data

    def timed_read_inode(self, inode: Inode, offset: int, count: int) -> Generator:
        """Process: like :meth:`timed_read` but addressed by inode."""
        yield from self.timed_scan_inode(inode, offset, count)
        inode.atime = self.env.now
        return inode.data.read(offset, count)

    def timed_scan_inode(self, inode: Inode, offset: int, count: int) -> Generator:
        """Process: charge the time of reading a range without assembling
        the bytes (for bulk pipelines like compress-on-server, where the
        data is consumed by a model, not by the caller).

        Sequential access patterns trigger readahead: the final miss run
        is extended by a window whose chunks land warm in the page
        cache, so streaming reads cost one disk access per window rather
        than one per block.
        """
        size = inode.data.size
        end = min(offset + count, size)
        fid = inode.fileid
        sequential = self._scan_pos.get(fid) == offset
        # Hot loop: one iteration per chunk of every timed read in the
        # system.  The per-chunk cache bookkeeping is inlined (key
        # tuples built in place, LRU methods bound once, hit/miss
        # counters accumulated locally) — the chunk walk order and the
        # disk yields are unchanged, so timing is identical.
        cache = self._page_cache
        move_to_end = cache.move_to_end
        popitem = cache.popitem
        capacity = self._page_cache_capacity
        hits = 0
        misses = 0
        pos = offset
        miss_start: Optional[int] = None
        while pos < end:
            idx = pos // CHUNK_SIZE
            key = (fid, idx)
            chunk_end = (idx + 1) * CHUNK_SIZE
            if chunk_end > end:
                chunk_end = end
            if key in cache:
                move_to_end(key)
                hits += 1
                if miss_start is not None:
                    yield from self.disk.read(inode, miss_start, pos - miss_start)
                    miss_start = None
            else:
                misses += 1
                if miss_start is None:
                    miss_start = idx * CHUNK_SIZE
                cache[key] = True
                while len(cache) > capacity:
                    popitem(last=False)
            pos = chunk_end
        self.cache_hits += hits
        self.cache_misses += misses
        if miss_start is not None:
            read_end = end
            if sequential and end < size:
                read_end = min(end + self.readahead_bytes, size)
                ra_pos = end
                while ra_pos < read_end:
                    key = (fid, ra_pos // CHUNK_SIZE)
                    cache[key] = True
                    move_to_end(key)
                    while len(cache) > capacity:
                        popitem(last=False)
                    ra_pos += CHUNK_SIZE
                self.readahead_fills += 1
            yield from self.disk.read(inode, miss_start, read_end - miss_start)
        self._scan_pos[fid] = end
        return end - max(offset, 0)

    def timed_write(self, path: str, data: bytes, offset: int = 0,
                    sync: bool = False) -> Generator:
        """Process: write bytes; async writes cost only page-cache time,
        ``sync`` writes are charged to the disk immediately."""
        inode = self.fs.lookup(path)
        yield from self.timed_write_inode(inode, data, offset, sync)

    def timed_write_inode(self, inode: Inode, data, offset: int = 0,
                          sync: bool = False) -> Generator:
        """Process: like :meth:`timed_write` but addressed by inode.

        ``data`` is the bytes to write or a list of pieces that follow
        one another from ``offset`` — one charged I/O of their summed
        length, each piece stored as it is (a chunk-aligned piece by
        reference, where one joined buffer would be sliced back into
        fresh copies)."""
        if type(data) is list:
            nbytes = 0
            for piece in data:
                inode.data.write(offset + nbytes, piece)
                nbytes += len(piece)
        else:
            inode.data.write(offset, data)
            nbytes = len(data)
        inode.touch()
        fid = inode.fileid
        cache = self._page_cache
        move_to_end = cache.move_to_end
        popitem = cache.popitem
        capacity = self._page_cache_capacity
        pos = offset
        end = offset + nbytes
        while pos < end:
            idx = pos // CHUNK_SIZE
            key = (fid, idx)
            cache[key] = True
            move_to_end(key)
            while len(cache) > capacity:
                popitem(last=False)
            pos = (idx + 1) * CHUNK_SIZE
        if sync:
            yield from self.disk.write(inode, offset, nbytes)
            return
        yield from self._write_behind(nbytes)

    def stage_bulk_write(self, inode: Inode, nbytes: int,
                         warm_chunks: Optional[list] = None) -> Generator:
        """Process: account a bulk write of ``nbytes`` to ``inode`` whose
        payload was placed in the tree out-of-band (e.g. a whole-file
        install into a proxy cache).

        The bytes enter the write-behind pool (the flusher drains them
        at disk speed) and the given chunk indices are warmed in the
        page cache, so an immediately following read runs at memory
        speed — exactly what a freshly written file looks like on a
        real host.
        """
        if nbytes < 0:
            raise ValueError(f"negative bulk write: {nbytes}")
        for idx in warm_chunks or ():
            self._cache_insert(self._cache_key(inode, idx))
        yield from self._write_behind(nbytes)

    def _write_behind(self, nbytes: int) -> Generator:
        """Process: account ``nbytes`` as dirty and let the background
        flusher drain them; block only above the dirty limit."""
        self._dirty_bytes += nbytes
        if not self._flusher_started:
            self._flusher_started = True
            self.env.process(self._flusher(), name=f"{self.fs.name}.flusher")
        elif self._flusher_idle is not None:
            # Parked: the kick takes the slot a fresh process's
            # bootstrap would, and nothing fires when the burst ends.
            idle, self._flusher_idle = self._flusher_idle, None
            idle.succeed()
        while self._dirty_bytes > self.dirty_limit:
            gate = self.env.event()
            self._below_limit_waiters.append(gate)
            yield gate

    def _flusher(self) -> Generator:
        """Background process draining dirty bytes at disk speed; parks
        on an idle event whenever the pool is empty."""
        batch = 1024 * 1024
        while True:
            while self._dirty_bytes > 0:
                take = min(batch, self._dirty_bytes)
                offset = self._flush_seq
                self._flush_seq += take
                yield from self.disk.write(self, offset, take)
                self._dirty_bytes -= take
                if (self._dirty_bytes <= self.dirty_limit
                        and self._below_limit_waiters):
                    waiters, self._below_limit_waiters = \
                        self._below_limit_waiters, []
                    for gate in waiters:
                        gate.succeed()
            self._flusher_idle = self.env.event()
            yield self._flusher_idle

    def sync(self) -> Generator:
        """Process: wait until all dirty write-behind data is on disk."""
        while self._dirty_bytes > 0:
            gate = self.env.event()
            self._below_limit_waiters.append(gate)
            yield gate

    @property
    def dirty_bytes(self) -> int:
        """Bytes written but not yet flushed to the disk model."""
        return self._dirty_bytes
