"""Proxy file-based disk cache (§3.2.2).

Holds whole files fetched through the file-based data channel on the
proxy host's local disk; once a file is cached, "all the following
requests to the file will also be satisfied locally".  Complements the
block cache to form the paper's *heterogeneous disk caching* scheme.

Entries are keyed by the remote file handle.  Contents are real bytes
(kept sparse — zero regions of a memory image never materialize), and
reads/writes charge the proxy host's disk/page cache.  Write-back is
supported: a locally modified cached file can be uploaded (compress →
copy → uncompress on the server) by the channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional

from repro.nfs.protocol import FileHandle
from repro.sim import Environment
from repro.storage.localfs import LocalFileSystem
from repro.storage.vfs import Inode, SparseFile

__all__ = ["FileCacheEntry", "ProxyFileCache"]


@dataclass
class FileCacheEntry:
    """One whole-file cache entry."""

    fh: FileHandle
    inode: Inode         # local copy on the proxy host
    size: int
    dirty: bool = False
    last_use: int = 0    # LRU tick (monotonic, unique per touch)


class ProxyFileCache:
    """Whole-file cache on the proxy host's local disk.

    ``capacity_bytes`` bounds the cache by *payload bytes*, not entry
    count — a 2 GB memory-state file and a 4 KB config file are wildly
    different costs on the proxy disk.  When an install or local write
    pushes the total over budget, clean entries are evicted in LRU
    order until it fits; dirty entries are never evicted (their only
    copy of the modifications lives here), so a write burst can overrun
    the budget until the channel uploads — counted in
    ``budget_overruns``.  ``None`` (the default) keeps the historical
    unbounded behavior.
    """

    #: Bytes a read that misses the host page cache pulls off the disk
    #: in one access: the aligned extent around it, clipped at the end
    #: of the file.  A warm clone's scattered non-zero blocks then cost
    #: one positioning per sweep; per-clone seconds on the benchmark's
    #: warm clone were 56.7 per block, 31.2 at 512 KB, 30.2 at 1 MB and
    #: 29.3 at 2 MB — past 1 MB the curve is flat.
    READ_EXTENT = 1 << 20

    def __init__(self, env: Environment, storage: LocalFileSystem,
                 name: str = "filecache",
                 capacity_bytes: Optional[int] = None):
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError(f"non-positive capacity: {capacity_bytes}")
        self.env = env
        self.storage = storage
        self.name = name
        self.capacity_bytes = capacity_bytes
        self._entries: Dict[FileHandle, FileCacheEntry] = {}
        self._tick = 0
        if not storage.fs.exists(self._root()):
            storage.fs.mkdir(self._root(), parents=True)
        # Statistics
        self.hits = 0
        self.misses = 0
        self.installs = 0
        self.evictions = 0
        self.budget_overruns = 0

    def _touch(self, entry: FileCacheEntry) -> None:
        self._tick += 1
        entry.last_use = self._tick

    def _enforce_budget(self) -> None:
        """Evict clean LRU entries until the payload fits the budget."""
        if self.capacity_bytes is None:
            return
        while self.bytes_cached > self.capacity_bytes:
            victims = [e for e in self._entries.values() if not e.dirty]
            if not victims:
                self.budget_overruns += 1
                return
            victim = min(victims, key=lambda e: e.last_use)
            self.evict(victim.fh)
            self.evictions += 1

    def _root(self) -> str:
        return f"/{self.name}"

    def _local_path(self, fh: FileHandle) -> str:
        return f"{self._root()}/{fh.fsid}.{fh.fileid}"

    # -- queries ---------------------------------------------------------------
    def __contains__(self, fh: FileHandle) -> bool:
        return fh in self._entries

    def entry(self, fh: FileHandle) -> Optional[FileCacheEntry]:
        return self._entries.get(fh)

    @property
    def cached_files(self) -> int:
        return len(self._entries)

    @property
    def bytes_cached(self) -> int:
        """Total payload bytes currently charged against the budget."""
        return sum(e.size for e in self._entries.values())

    # -- installation ------------------------------------------------------------
    def install(self, fh: FileHandle, content: SparseFile) -> Generator:
        """Process: place a fetched file into the cache.

        The content is copied logically (chunk sharing — cheap) and the
        *non-zero* payload is charged as a streaming disk write, which
        also warms the host page cache, so an immediately following
        whole-file read (the VM resume) runs at memory speed.
        """
        entry = self.place(fh, content)
        # The uncompress step wrote the *whole* file (zeros included) on a
        # real host: charge the full size to the write-behind pool and
        # leave the fresh pages warm in the host page cache.
        yield from self.storage.stage_bulk_write(
            entry.inode, content.size,
            warm_chunks=range(entry.inode.data.n_chunks()))
        self.installs += 1
        self._enforce_budget()
        return entry

    def place(self, fh: FileHandle, content: SparseFile) -> FileCacheEntry:
        """Enter ``content`` as the cached copy of ``fh``, untimed: the
        caller charges the disk write."""
        path = self._local_path(fh)
        if self.storage.fs.exists(path):
            self.storage.fs.unlink(path)
        inode = self.storage.fs.create(path)
        inode.data = content.copy()
        entry = FileCacheEntry(fh=fh, inode=inode, size=content.size)
        self._entries[fh] = entry
        self._touch(entry)
        return entry

    # -- data access ------------------------------------------------------------
    def read(self, fh: FileHandle, offset: int, count: int) -> Generator:
        """Process: read from the cached copy (disk/page-cache timed).

        A read whose chunk is not in the host page cache first pulls the
        aligned ``READ_EXTENT`` around it off the disk in one access, so
        scattered reads sweeping the file cost one positioning, not one
        per read.  If the entry was dropped or replaced during the disk
        wait (a crash, an invalidation), the read is a miss: ``None``.
        """
        entry = self._entries.get(fh)
        if entry is None:
            self.misses += 1
            return None
        self._touch(entry)
        inode = entry.inode
        if not self.storage.page_cached(inode, offset):
            # The scan stops at the end of the file by itself.
            yield from self.storage.timed_scan_inode(
                inode, offset - offset % self.READ_EXTENT, self.READ_EXTENT)
        data = yield from self.storage.timed_read_inode(inode, offset, count)
        if self._entries.get(fh) is not entry:
            self.misses += 1
            return None
        self.hits += 1
        return data

    def write(self, fh: FileHandle, offset: int, data: bytes) -> Generator:
        """Process: update the cached copy locally and mark it dirty."""
        entry = self._entries.get(fh)
        if entry is None:
            raise KeyError(f"{fh} not in file cache")
        yield from self.storage.timed_write_inode(
            entry.inode, data, offset)
        entry.size = entry.inode.data.size
        entry.dirty = True
        self._touch(entry)
        self._enforce_budget()

    def mark_clean(self, fh: FileHandle) -> None:
        entry = self._entries.get(fh)
        if entry is not None:
            entry.dirty = False

    def dirty_entries(self):
        """Entries with local modifications awaiting upload."""
        return [e for e in self._entries.values() if e.dirty]

    def evict(self, fh: FileHandle) -> None:
        """Drop a cached file (must be clean)."""
        entry = self._entries.pop(fh, None)
        if entry is None:
            return
        if entry.dirty:
            self._entries[fh] = entry
            raise RuntimeError(f"evicting dirty file-cache entry {fh}")
        path = self._local_path(fh)
        if self.storage.fs.exists(path):
            self.storage.fs.unlink(path)

    def clear(self) -> None:
        """Cold-cache setup; refuses if dirty data would be lost."""
        if self.dirty_entries():
            raise RuntimeError("clear() with dirty file-cache entries")
        for fh in list(self._entries):
            self.evict(fh)

    def crash(self) -> None:
        """Process death: every entry goes, dirty ones included."""
        for entry in self._entries.values():
            entry.dirty = False
        self.clear()
