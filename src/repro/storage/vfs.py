"""In-memory POSIX-ish filesystem with sparse file contents.

Real bytes flow through the whole reproduction — when a cloned VM reads
its memory state through two proxies and a WAN, the bytes it gets are
checked against the golden image.  To keep multi-GB VM images cheap,
:class:`SparseFile` stores only written chunks explicitly; unwritten
ranges come from an optional deterministic :class:`ContentSource` (used
to give virtual disks realistic non-zero content without materializing
them) or are zero.

The tree supports directories, regular files, symbolic links, rename,
and stable inode numbers — everything the NFS substrate needs.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

__all__ = [
    "BlockRun",
    "CHUNK_SIZE",
    "ContentSource",
    "FileSystem",
    "FsError",
    "Inode",
    "SparseFile",
]

#: Internal chunk granularity of sparse files (bytes).
CHUNK_SIZE = 8192

_ZERO_CHUNK = bytes(CHUNK_SIZE)


class FsError(Exception):
    """Filesystem error with an errno-style symbolic code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class ContentSource:
    """Deterministic generator of a file's initial (unwritten) content.

    Subclasses override :meth:`chunk`; override :meth:`is_zero` too when
    zero-ness can be decided without generating the bytes (important for
    scanning multi-hundred-MB memory images quickly).
    """

    def chunk(self, index: int) -> bytes:
        """Return the ``CHUNK_SIZE`` bytes of chunk ``index``."""
        raise NotImplementedError

    def is_zero(self, index: int) -> bool:
        """True when chunk ``index`` is all zero bytes."""
        data = self.chunk(index)
        return data.count(0) == len(data)


class BlockRun(bytes):
    """Adjacent blocks sent as one WRITE: the joined bytes, which also
    keep the blocks themselves in ``.blocks``.  :meth:`SparseFile.write`
    stores a run block by block, so an aligned whole chunk is kept by
    reference instead of sliced back out of the join; every other
    consumer sees plain ``bytes`` (a slice of a run is plain ``bytes``).
    """

    @classmethod
    def join(cls, blocks) -> "BlockRun":
        run = cls(b"".join(blocks))
        run.blocks = tuple(blocks)
        return run


class SparseFile:
    """Byte container: explicit written chunks over source/zero fill."""

    def __init__(self, size: int = 0, source: Optional[ContentSource] = None):
        if size < 0:
            raise ValueError(f"negative size: {size}")
        self.size = size
        self.source = source
        self._chunks: Dict[int, bytes] = {}

    # -- chunk-level access ------------------------------------------------
    def _chunk_bytes(self, index: int) -> bytes:
        data = self._chunks.get(index)
        if data is not None:
            return data
        if self.source is not None:
            return self.source.chunk(index)
        return _ZERO_CHUNK

    def chunk_is_zero(self, index: int) -> bool:
        """True when chunk ``index`` currently holds only zero bytes."""
        data = self._chunks.get(index)
        if data is not None:
            # Full chunks compare against the zero constant (memcmp with
            # early exit) instead of counting every zero byte.
            if len(data) == CHUNK_SIZE:
                return data == _ZERO_CHUNK
            return data.count(0) == len(data)
        if self.source is not None:
            return self.source.is_zero(index)
        return True

    @property
    def materialized_chunks(self) -> int:
        """Number of chunks held explicitly (memory cost indicator)."""
        return len(self._chunks)

    # -- byte-level access ---------------------------------------------------
    def read(self, offset: int, count: int) -> bytes:
        """Read up to ``count`` bytes at ``offset`` (short read at EOF)."""
        if offset < 0 or count < 0:
            raise ValueError(f"bad read offset={offset} count={count}")
        if offset >= self.size:
            return b""
        count = min(count, self.size - offset)
        end = offset + count
        idx, within = divmod(offset, CHUNK_SIZE)
        if end <= (idx + 1) * CHUNK_SIZE:
            # Single-chunk read (every block-granular access): hand back
            # the stored chunk or one slice of it, no scratch buffer.
            chunk = self._chunk_bytes(idx)
            if within == 0 and count == CHUNK_SIZE and len(chunk) == CHUNK_SIZE:
                return chunk
            return chunk[within:within + count]
        out = bytearray()
        pos = offset
        while pos < end:
            idx, within = divmod(pos, CHUNK_SIZE)
            take = min(CHUNK_SIZE - within, end - pos)
            chunk = self._chunk_bytes(idx)
            if within == 0 and take == CHUNK_SIZE:
                out += chunk
            else:
                out += chunk[within:within + take]
            pos += take
        return bytes(out)

    def _store_chunk(self, idx: int, data: bytes) -> None:
        """Keep whole chunk ``idx``; an all-zero one costs nothing —
        absent from a zero-filled file (a mostly-zero memory image
        costs its payload), the shared zero chunk over a source."""
        if data != _ZERO_CHUNK:
            self._chunks[idx] = data
        elif self.source is None:
            self._chunks.pop(idx, None)
        else:
            self._chunks[idx] = _ZERO_CHUNK

    def write(self, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset``, extending the file if needed."""
        if offset < 0:
            raise ValueError(f"negative write offset: {offset}")
        if (len(data) == CHUNK_SIZE and offset % CHUNK_SIZE == 0
                and type(data) is bytes):
            # Aligned whole-chunk write (every block-granular copy):
            # store the caller's immutable bytes directly, skipping the
            # memoryview walk and its re-buffering.
            self._store_chunk(offset // CHUNK_SIZE, data)
            end = offset + CHUNK_SIZE
            if end > self.size:
                self.size = end
            return
        if type(data) is BlockRun:
            for block in data.blocks:
                self.write(offset, block)
                offset += len(block)
            return
        pos = offset
        remaining = memoryview(bytes(data))
        while len(remaining):
            idx, within = divmod(pos, CHUNK_SIZE)
            take = min(CHUNK_SIZE - within, len(remaining))
            if within == 0 and take == CHUNK_SIZE:
                self._store_chunk(idx, bytes(remaining[:take]))
            else:
                base = bytearray(self._chunk_bytes(idx))
                base[within:within + take] = remaining[:take]
                self._chunks[idx] = bytes(base)
            remaining = remaining[take:]
            pos += take
        if pos > self.size:
            self.size = pos

    def truncate(self, new_size: int) -> None:
        """Shrink or grow the file; dropped chunks are discarded."""
        if new_size < 0:
            raise ValueError(f"negative size: {new_size}")
        if new_size < self.size:
            keep_last = (new_size + CHUNK_SIZE - 1) // CHUNK_SIZE
            self._chunks = {i: c for i, c in self._chunks.items() if i < keep_last}
            # Zero the tail of the now-final chunk so re-extension reads zeros.
            if new_size % CHUNK_SIZE and (new_size // CHUNK_SIZE) in self._chunks:
                idx = new_size // CHUNK_SIZE
                cut = new_size % CHUNK_SIZE
                base = bytearray(self._chunks[idx])
                base[cut:] = bytes(CHUNK_SIZE - cut)
                self._chunks[idx] = bytes(base)
        self.size = new_size

    # -- bulk helpers ----------------------------------------------------------
    def n_chunks(self) -> int:
        return (self.size + CHUNK_SIZE - 1) // CHUNK_SIZE

    def iter_chunks(self) -> Iterator[Union[bytes, int]]:
        """Yield the file's content as literal ``bytes`` chunks or
        ``int`` lengths of zero runs (for compression-size estimation)."""
        zero_run = 0
        total = self.n_chunks()
        for idx in range(total):
            length = (min(CHUNK_SIZE, self.size - idx * CHUNK_SIZE))
            if self.chunk_is_zero(idx):
                zero_run += length
                continue
            if zero_run:
                yield zero_run
                zero_run = 0
            yield self._chunk_bytes(idx)[:length]
        if zero_run:
            yield zero_run

    def zero_chunk_indices(self) -> List[int]:
        """Indices of all currently-zero chunks (metadata generation)."""
        return [i for i in range(self.n_chunks()) if self.chunk_is_zero(i)]

    def copy(self) -> "SparseFile":
        """Cheap logical copy (chunks are immutable bytes, shared)."""
        clone = SparseFile(self.size, self.source)
        clone._chunks = dict(self._chunks)
        return clone


class Inode:
    """Filesystem object metadata plus payload."""

    FILE = "file"
    DIR = "dir"
    SYMLINK = "symlink"

    def __init__(self, fileid: int, kind: str, clock: Callable[[], float]):
        self.fileid = fileid
        self.kind = kind
        self._clock = clock
        self.mode = 0o755 if kind == Inode.DIR else 0o644
        self.uid = 0
        self.gid = 0
        self.ctime = clock()
        self.mtime = self.ctime
        self.atime = self.ctime
        self.nlink = 1
        # Payload: exactly one of these is used, per kind.
        self.data: Optional[SparseFile] = SparseFile() if kind == Inode.FILE else None
        self.entries: Optional[Dict[str, "Inode"]] = ({} if kind == Inode.DIR else None)
        self.target: Optional[str] = None  # symlink target path

    @property
    def size(self) -> int:
        if self.kind == Inode.FILE:
            return self.data.size
        if self.kind == Inode.SYMLINK:
            return len(self.target or "")
        return CHUNK_SIZE  # conventional directory size

    def touch(self) -> None:
        """Update mtime (content changed)."""
        self.mtime = self._clock()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Inode #{self.fileid} {self.kind} size={self.size}>"


class FileSystem:
    """A mountable tree of inodes addressed by absolute slash paths."""

    MAX_SYMLINK_DEPTH = 16

    def __init__(self, name: str = "fs", clock: Optional[Callable[[], float]] = None):
        self.name = name
        self._clock = clock or itertools.count(1).__next__
        self._next_fileid = itertools.count(2)
        self.root = Inode(1, Inode.DIR, self._wrapped_clock)
        self._by_fileid: Dict[int, Inode] = {1: self.root}

    def _wrapped_clock(self) -> float:
        return float(self._clock())

    # -- path plumbing -------------------------------------------------------
    @staticmethod
    def _split(path: str) -> List[str]:
        if not path.startswith("/"):
            raise FsError("EINVAL", f"path must be absolute: {path!r}")
        return [p for p in path.split("/") if p]

    def _walk(self, parts: List[str], follow: bool = True,
              _depth: int = 0) -> Inode:
        if _depth > self.MAX_SYMLINK_DEPTH:
            raise FsError("ELOOP", "too many levels of symbolic links")
        node = self.root
        for i, part in enumerate(parts):
            if node.kind == Inode.SYMLINK:
                node = self._walk(self._split(node.target), True, _depth + 1)
            if node.kind != Inode.DIR:
                raise FsError("ENOTDIR", "/".join(parts[:i]))
            child = node.entries.get(part)
            if child is None:
                raise FsError("ENOENT", "/".join(parts[:i + 1]))
            node = child
        if follow and node.kind == Inode.SYMLINK:
            node = self._walk(self._split(node.target), True, _depth + 1)
        return node

    def lookup(self, path: str, follow: bool = True) -> Inode:
        """Resolve ``path`` to an inode, following symlinks by default."""
        return self._walk(self._split(path), follow)

    def exists(self, path: str) -> bool:
        try:
            self.lookup(path)
            return True
        except FsError:
            return False

    def get_inode(self, fileid: int) -> Inode:
        """Fetch an inode by number (NFS file-handle resolution)."""
        try:
            return self._by_fileid[fileid]
        except KeyError:
            raise FsError("ESTALE", f"no inode #{fileid}") from None

    def _parent_of(self, path: str) -> Tuple[Inode, str]:
        parts = self._split(path)
        if not parts:
            raise FsError("EINVAL", "operation on root")
        parent = self._walk(parts[:-1], follow=True)
        if parent.kind != Inode.DIR:
            raise FsError("ENOTDIR", "/".join(parts[:-1]))
        return parent, parts[-1]

    def _new_inode(self, kind: str) -> Inode:
        node = Inode(next(self._next_fileid), kind, self._wrapped_clock)
        self._by_fileid[node.fileid] = node
        return node

    # -- namespace operations ---------------------------------------------------
    def mkdir(self, path: str, parents: bool = False) -> Inode:
        """Create a directory; with ``parents`` create missing ancestors."""
        if parents:
            parts = self._split(path)
            for i in range(1, len(parts)):
                prefix = "/" + "/".join(parts[:i])
                if not self.exists(prefix):
                    self.mkdir(prefix)
        parent, name = self._parent_of(path)
        if name in parent.entries:
            raise FsError("EEXIST", path)
        node = self._new_inode(Inode.DIR)
        parent.entries[name] = node
        parent.touch()
        return node

    def create(self, path: str, size: int = 0,
               source: Optional[ContentSource] = None,
               exclusive: bool = True) -> Inode:
        """Create a regular file (optionally pre-sized with a source)."""
        parent, name = self._parent_of(path)
        existing = parent.entries.get(name)
        if existing is not None:
            if exclusive:
                raise FsError("EEXIST", path)
            if existing.kind != Inode.FILE:
                raise FsError("EISDIR", path)
            return existing
        node = self._new_inode(Inode.FILE)
        node.data = SparseFile(size, source)
        parent.entries[name] = node
        parent.touch()
        return node

    def symlink(self, path: str, target: str) -> Inode:
        """Create a symbolic link at ``path`` pointing to ``target``."""
        parent, name = self._parent_of(path)
        if name in parent.entries:
            raise FsError("EEXIST", path)
        node = self._new_inode(Inode.SYMLINK)
        node.target = target
        parent.entries[name] = node
        parent.touch()
        return node

    def readlink(self, path: str) -> str:
        node = self.lookup(path, follow=False)
        if node.kind != Inode.SYMLINK:
            raise FsError("EINVAL", f"not a symlink: {path}")
        return node.target

    def readdir(self, path: str) -> List[str]:
        node = self.lookup(path)
        if node.kind != Inode.DIR:
            raise FsError("ENOTDIR", path)
        return sorted(node.entries)

    def unlink(self, path: str) -> None:
        """Remove a file or symlink."""
        parent, name = self._parent_of(path)
        node = parent.entries.get(name)
        if node is None:
            raise FsError("ENOENT", path)
        if node.kind == Inode.DIR:
            raise FsError("EISDIR", path)
        del parent.entries[name]
        del self._by_fileid[node.fileid]
        parent.touch()

    def rmdir(self, path: str) -> None:
        parent, name = self._parent_of(path)
        node = parent.entries.get(name)
        if node is None:
            raise FsError("ENOENT", path)
        if node.kind != Inode.DIR:
            raise FsError("ENOTDIR", path)
        if node.entries:
            raise FsError("ENOTEMPTY", path)
        del parent.entries[name]
        del self._by_fileid[node.fileid]
        parent.touch()

    def rename(self, old: str, new: str) -> None:
        """Atomically move ``old`` to ``new`` (replacing a plain file)."""
        old_parent, old_name = self._parent_of(old)
        node = old_parent.entries.get(old_name)
        if node is None:
            raise FsError("ENOENT", old)
        new_parent, new_name = self._parent_of(new)
        displaced = new_parent.entries.get(new_name)
        if displaced is not None:
            if displaced.kind == Inode.DIR:
                raise FsError("EISDIR", new)
            del self._by_fileid[displaced.fileid]
        del old_parent.entries[old_name]
        new_parent.entries[new_name] = node
        old_parent.touch()
        new_parent.touch()

    # -- inode-level namespace operations (NFS-style (dir, name) addressing) --
    def lookup_in(self, directory: Inode, name: str) -> Inode:
        """Find ``name`` inside ``directory`` (no symlink following)."""
        if directory.kind != Inode.DIR:
            raise FsError("ENOTDIR", f"#{directory.fileid}")
        child = directory.entries.get(name)
        if child is None:
            raise FsError("ENOENT", name)
        return child

    def create_in(self, directory: Inode, name: str,
                  exclusive: bool = True) -> Inode:
        if directory.kind != Inode.DIR:
            raise FsError("ENOTDIR", f"#{directory.fileid}")
        existing = directory.entries.get(name)
        if existing is not None:
            if exclusive:
                raise FsError("EEXIST", name)
            if existing.kind != Inode.FILE:
                raise FsError("EISDIR", name)
            return existing
        node = self._new_inode(Inode.FILE)
        directory.entries[name] = node
        directory.touch()
        return node

    def mkdir_in(self, directory: Inode, name: str) -> Inode:
        if directory.kind != Inode.DIR:
            raise FsError("ENOTDIR", f"#{directory.fileid}")
        if name in directory.entries:
            raise FsError("EEXIST", name)
        node = self._new_inode(Inode.DIR)
        directory.entries[name] = node
        directory.touch()
        return node

    def symlink_in(self, directory: Inode, name: str, target: str) -> Inode:
        if directory.kind != Inode.DIR:
            raise FsError("ENOTDIR", f"#{directory.fileid}")
        if name in directory.entries:
            raise FsError("EEXIST", name)
        node = self._new_inode(Inode.SYMLINK)
        node.target = target
        directory.entries[name] = node
        directory.touch()
        return node

    def remove_in(self, directory: Inode, name: str) -> None:
        """REMOVE: unlink a file or symlink by (dir, name)."""
        node = self.lookup_in(directory, name)
        if node.kind == Inode.DIR:
            raise FsError("EISDIR", name)
        del directory.entries[name]
        del self._by_fileid[node.fileid]
        directory.touch()

    def rmdir_in(self, directory: Inode, name: str) -> None:
        node = self.lookup_in(directory, name)
        if node.kind != Inode.DIR:
            raise FsError("ENOTDIR", name)
        if node.entries:
            raise FsError("ENOTEMPTY", name)
        del directory.entries[name]
        del self._by_fileid[node.fileid]
        directory.touch()

    def rename_in(self, from_dir: Inode, name: str,
                  to_dir: Inode, new_name: str) -> None:
        node = self.lookup_in(from_dir, name)
        if to_dir.kind != Inode.DIR:
            raise FsError("ENOTDIR", f"#{to_dir.fileid}")
        displaced = to_dir.entries.get(new_name)
        if displaced is not None:
            if displaced.kind == Inode.DIR:
                raise FsError("EISDIR", new_name)
            del self._by_fileid[displaced.fileid]
        del from_dir.entries[name]
        to_dir.entries[new_name] = node
        from_dir.touch()
        to_dir.touch()

    # -- convenience data access ---------------------------------------------
    def read(self, path: str, offset: int = 0, count: Optional[int] = None) -> bytes:
        node = self.lookup(path)
        if node.kind != Inode.FILE:
            raise FsError("EISDIR", path)
        node.atime = self._wrapped_clock()
        if count is None:
            count = node.data.size - offset
        return node.data.read(offset, max(count, 0))

    def write(self, path: str, data: bytes, offset: int = 0) -> None:
        node = self.lookup(path)
        if node.kind != Inode.FILE:
            raise FsError("EISDIR", path)
        node.data.write(offset, data)
        node.touch()

    def walk_files(self, path: str = "/") -> Iterator[Tuple[str, Inode]]:
        """Yield ``(path, inode)`` for every regular file under ``path``."""
        node = self.lookup(path)
        base = path.rstrip("/")
        if node.kind == Inode.FILE:
            yield path, node
            return
        for name in sorted(node.entries or {}):
            child = node.entries[name]
            child_path = f"{base}/{name}"
            if child.kind == Inode.DIR:
                yield from self.walk_files(child_path)
            elif child.kind == Inode.FILE:
                yield child_path, child
