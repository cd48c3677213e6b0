"""Kernel-style NFS client: mounts, path walking, cached block I/O.

Reproduces the behaviours that matter to the paper's evaluation:

* a **memory buffer cache** of limited capacity (hits are free, the
  working sets of VM workloads overflow it on WAN paths),
* **asynchronous staged writes** drained by a bounded-concurrency
  flusher (the "staging writes for a limited time in kernel memory
  buffers" of §3.2.1) with a dirty-pool limit that throttles writers
  to the server's write bandwidth on big bursts,
* **close-to-open consistency**: GETATTR revalidation on open (block
  cache invalidated when the server-side mtime moved), flush + COMMIT
  on close,
* dentry + attribute caching with a timeout, so name-heavy workloads
  (kernel compilation) show the right LOOKUP/GETATTR traffic.

All calls that touch the network are simulation processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from repro.nfs.buffercache import BufferCache
from repro.nfs.protocol import (
    NFS_BLOCK_SIZE,
    Fattr,
    FileHandle,
    NfsError,
    NfsProc,
    NfsRequest,
    NfsStatus,
)
from repro.nfs.rpc import RpcClient
from repro.sim import AllOf, Environment

__all__ = ["MountOptions", "MountedNfs", "NfsClient", "NfsFile"]


@dataclass(frozen=True)
class MountOptions:
    """Tunables of one NFS mount (era-accurate defaults)."""

    block_size: int = NFS_BLOCK_SIZE       # rsize/wsize
    attr_timeout: float = 3.0              # attribute cache validity (s)
    cache_bytes: int = 64 * 1024 * 1024    # buffer cache capacity
    dirty_limit: int = 8 * 1024 * 1024     # staged-write pool limit
    write_concurrency: int = 4             # async WRITE RPCs in flight (biods)
    readahead: int = 0                     # extra blocks prefetched on
                                           # sequential misses (0 = serial)
    nfs_version: int = 3                   # 2 = all writes stable, no COMMIT
    write_gather_bytes: int = 0            # merge adjacent staged blocks
                                           # into one WRITE up to this size
                                           # (0 = one RPC per block)

    def __post_init__(self):
        if self.nfs_version not in (2, 3):
            raise ValueError(f"unsupported NFS version: {self.nfs_version}")
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.write_gather_bytes < 0:
            raise ValueError("write_gather_bytes must be >= 0")


class NfsClient:
    """One host's NFS client holding any number of mounts."""

    def __init__(self, env: Environment, name: str = "nfsclient"):
        self.env = env
        self.name = name
        self.mounts: Dict[str, "MountedNfs"] = {}

    def mount(self, point: str, rpc: RpcClient, root_fh: FileHandle,
              options: Optional[MountOptions] = None) -> "MountedNfs":
        """Attach a served filesystem at ``point``."""
        if point in self.mounts:
            raise ValueError(f"mount point busy: {point}")
        m = MountedNfs(self.env, rpc, root_fh, options or MountOptions(),
                       name=f"{self.name}:{point}")
        self.mounts[point] = m
        return m

    def unmount(self, point: str) -> Generator:
        """Process: flush outstanding writes, then detach."""
        m = self.mounts.pop(point, None)
        if m is None:
            raise ValueError(f"not mounted: {point}")
        yield from m.flush_all()


class MountedNfs:
    """A mounted remote filesystem (the client half of one session)."""

    def __init__(self, env: Environment, rpc: RpcClient, root_fh: FileHandle,
                 options: MountOptions, name: str = "mount"):
        self.env = env
        self.rpc = rpc
        self.root_fh = root_fh
        self.options = options
        self.name = name
        self.cache = BufferCache(options.cache_bytes, options.block_size)
        # Dentry cache: path -> (fh, attrs, stamp); attr cache by handle.
        self._dentries: Dict[str, Tuple[FileHandle, Fattr, float]] = {}
        self._attrs_by_fh: Dict[FileHandle, Tuple[Fattr, float]] = {}
        self._known_mtime: Dict[FileHandle, float] = {}
        # Write-behind machinery.
        self._flusher_running = False
        self._dirty_waiters: List = []
        self._inflight: set = set()       # blocks with a WRITE on the wire
        self._inflight_waiters: List = []

    # -- path resolution ------------------------------------------------------
    @staticmethod
    def _components(path: str) -> List[str]:
        if not path.startswith("/"):
            raise ValueError(f"path must be absolute within mount: {path!r}")
        return [p for p in path.split("/") if p]

    def _dentry_fresh(self, path: str) -> Optional[Tuple[FileHandle, Fattr]]:
        hit = self._dentries.get(path)
        if hit is None:
            return None
        fh, attrs, stamp = hit
        if self.env.now - stamp > self.options.attr_timeout:
            return None
        return fh, attrs

    def _remember(self, path: str, fh: FileHandle, attrs: Fattr) -> None:
        self._dentries[path] = (fh, attrs, self.env.now)
        self._attrs_by_fh[fh] = (attrs, self.env.now)

    def _attrs_fresh(self, fh: FileHandle) -> Optional[Fattr]:
        hit = self._attrs_by_fh.get(fh)
        if hit is None:
            return None
        attrs, stamp = hit
        if self.env.now - stamp > self.options.attr_timeout:
            return None
        return attrs

    def resolve(self, path: str, follow: bool = True,
                _depth: int = 0) -> Generator:
        """Process: walk ``path`` with LOOKUPs; returns ``(fh, attrs)``."""
        if _depth > 8:
            raise NfsError(NfsStatus.INVAL, f"symlink loop at {path}")
        fh, attrs = self.root_fh, None
        walked = ""
        parts = self._components(path)
        for i, part in enumerate(parts):
            walked += "/" + part
            cached = self._dentry_fresh(walked)
            if cached is not None:
                fh, attrs = cached
            else:
                reply = yield from self.rpc.call(NfsRequest(
                    NfsProc.LOOKUP, fh=fh, name=part))
                reply.raise_for_status(walked)
                fh, attrs = reply.fh, reply.attrs
                self._remember(walked, fh, attrs)
            is_leaf = i == len(parts) - 1
            if not is_leaf and attrs is not None and attrs.kind == "symlink":
                reply = yield from self.rpc.call(NfsRequest(
                    NfsProc.READLINK, fh=fh))
                reply.raise_for_status(walked)
                resolved = yield from self.resolve(
                    reply.target, follow=True, _depth=_depth + 1)
                fh, attrs = resolved
        if attrs is None:  # bare "/" — fetch root attrs
            reply = yield from self.rpc.call(NfsRequest(
                NfsProc.GETATTR, fh=fh))
            reply.raise_for_status(path)
            attrs = reply.attrs
        if follow and attrs.kind == "symlink":
            reply = yield from self.rpc.call(NfsRequest(
                NfsProc.READLINK, fh=fh))
            reply.raise_for_status(path)
            resolved = yield from self.resolve(
                reply.target, follow=True, _depth=_depth + 1)
            fh, attrs = resolved
        return fh, attrs

    # -- namespace wrappers -------------------------------------------------------
    def _parent(self, path: str) -> Tuple[str, str]:
        parts = self._components(path)
        if not parts:
            raise ValueError("operation on mount root")
        return "/" + "/".join(parts[:-1]), parts[-1]

    def stat(self, path: str) -> Generator:
        """Process: fresh attributes of ``path`` (GETATTR semantics)."""
        fh, _ = yield from self.resolve(path)
        reply = yield from self.rpc.call(NfsRequest(
            NfsProc.GETATTR, fh=fh))
        reply.raise_for_status(path)
        self._remember(path, fh, reply.attrs)
        return reply.attrs

    def open(self, path: str) -> Generator:
        """Process: open with close-to-open revalidation; returns NfsFile."""
        fh, attrs = yield from self.resolve(path)
        # Revalidate: a fresh GETATTR unless this handle's attrs are young.
        fresh = self._attrs_fresh(fh)
        if fresh is None:
            reply = yield from self.rpc.call(NfsRequest(
                NfsProc.GETATTR, fh=fh))
            reply.raise_for_status(path)
            attrs = reply.attrs
            self._attrs_by_fh[fh] = (attrs, self.env.now)
        else:
            attrs = fresh
        last = self._known_mtime.get(fh)
        if last is not None and attrs.mtime != last:
            self.cache.invalidate_file(fh)
        self._known_mtime[fh] = attrs.mtime
        return NfsFile(self, fh, attrs)

    def create(self, path: str, exclusive: bool = True) -> Generator:
        """Process: create a regular file; returns an open NfsFile."""
        parent_path, name = self._parent(path)
        pfh, _ = yield from self.resolve(parent_path)
        reply = yield from self.rpc.call(NfsRequest(
            NfsProc.CREATE, fh=pfh, name=name, exclusive=exclusive))
        reply.raise_for_status(path)
        self._remember(path, reply.fh, reply.attrs)
        self._known_mtime[reply.fh] = reply.attrs.mtime
        return NfsFile(self, reply.fh, reply.attrs)

    def mkdir(self, path: str) -> Generator:
        parent_path, name = self._parent(path)
        pfh, _ = yield from self.resolve(parent_path)
        reply = yield from self.rpc.call(NfsRequest(
            NfsProc.MKDIR, fh=pfh, name=name))
        reply.raise_for_status(path)
        self._remember(path, reply.fh, reply.attrs)

    def symlink(self, path: str, target: str) -> Generator:
        parent_path, name = self._parent(path)
        pfh, _ = yield from self.resolve(parent_path)
        reply = yield from self.rpc.call(NfsRequest(
            NfsProc.SYMLINK, fh=pfh, name=name, target=target))
        reply.raise_for_status(path)

    def readlink(self, path: str) -> Generator:
        fh, _ = yield from self.resolve(path, follow=False)
        reply = yield from self.rpc.call(NfsRequest(
            NfsProc.READLINK, fh=fh))
        reply.raise_for_status(path)
        return reply.target

    def remove(self, path: str) -> Generator:
        parent_path, name = self._parent(path)
        pfh, _ = yield from self.resolve(parent_path)
        reply = yield from self.rpc.call(NfsRequest(
            NfsProc.REMOVE, fh=pfh, name=name))
        reply.raise_for_status(path)
        self._dentries.pop(path, None)

    def rename(self, old: str, new: str) -> Generator:
        old_parent, old_name = self._parent(old)
        new_parent, new_name = self._parent(new)
        ofh, _ = yield from self.resolve(old_parent)
        nfh, _ = yield from self.resolve(new_parent)
        reply = yield from self.rpc.call(NfsRequest(
            NfsProc.RENAME, fh=ofh, name=old_name, to_fh=nfh, to_name=new_name))
        reply.raise_for_status(old)
        self._dentries.pop(old, None)
        self._dentries.pop(new, None)

    def readdir(self, path: str) -> Generator:
        fh, _ = yield from self.resolve(path)
        reply = yield from self.rpc.call(NfsRequest(
            NfsProc.READDIR, fh=fh))
        reply.raise_for_status(path)
        return list(reply.entries)

    # -- write-behind machinery ----------------------------------------------------
    def _kick_flusher(self) -> None:
        if not self._flusher_running and self.cache.dirty_blocks:
            self._flusher_running = True
            self.env.process(self._flusher(), name=f"{self.name}.flusher")

    def _flusher(self) -> Generator:
        """Drain dirty blocks with bounded WRITE concurrency."""
        width = self.options.write_concurrency
        while self.cache.dirty_blocks:
            if self.options.write_gather_bytes > self.options.block_size:
                runs = self._gather_runs(self.cache.dirty_keys(), width)
                if not runs:
                    break
                yield AllOf(self.env, [
                    self.env.process(self._write_run_rpc(keys, data))
                    for keys, data in runs])
                self._wake_dirty_waiters()
                continue
            batch: List[Tuple[FileHandle, int]] = []
            while len(batch) < width:
                key = self.cache.any_dirty_key()
                if key is None or key in batch:
                    break
                batch.append(key)
                # Reserve: mark clean now so a racing pick skips it; a
                # concurrent rewrite re-dirties and is flushed again.
                self.cache.mark_clean(key)
            if not batch:
                break
            writes = []
            for fh, idx in batch:
                data = self.cache.peek((fh, idx))
                if data is None:
                    continue
                # Register in-flight *before* the process is scheduled so
                # close/flush in the same instant cannot miss this write.
                self._inflight.add((fh, idx))
                writes.append(self.env.process(self._write_rpc(fh, idx, data)))
            if writes:
                yield AllOf(self.env, writes)
            self._wake_dirty_waiters()
        self._flusher_running = False
        self._wake_dirty_waiters()

    def _gather_runs(self, keys: List[Tuple[FileHandle, int]],
                     limit: int) -> List[Tuple[list, bytes]]:
        """Group adjacent dirty blocks into up to ``limit`` gathered runs.

        Each run is reserved synchronously (marked clean, registered
        in-flight) exactly like the per-block path, so racing picks and
        same-instant close/flush see consistent state.  A run breaks at
        file boundaries, index gaps, short (partial) blocks, and the
        ``write_gather_bytes`` cap.
        """
        bs = self.options.block_size
        per_run = max(self.options.write_gather_bytes // bs, 1)
        runs: List[Tuple[list, bytes]] = []
        current: List[Tuple[Tuple[FileHandle, int], bytes]] = []

        def close() -> None:
            if not current:
                return
            run_keys = [k for k, _ in current]
            for k in run_keys:
                self.cache.mark_clean(k)
                self._inflight.add(k)
            runs.append((run_keys, b"".join(d for _, d in current)))
            current.clear()

        for key in keys:
            if not self.cache.is_dirty(key):
                continue   # flushed by a racing pass since listed
            data = self.cache.peek(key)
            if data is None:
                continue
            if current and (key[0] != current[-1][0][0]
                            or key[1] != current[-1][0][1] + 1
                            or len(current[-1][1]) != bs
                            or len(current) >= per_run):
                close()
                if len(runs) >= limit:
                    return runs
            current.append((key, data))
        close()
        return runs

    def _write_run_rpc(self, run_keys: List[Tuple[FileHandle, int]],
                       data: bytes) -> Generator:
        """One gathered WRITE RPC covering several adjacent staged blocks."""
        fh, idx0 = run_keys[0]
        for key in run_keys:
            self._inflight.add(key)
        try:
            stable = self.options.nfs_version == 2
            reply = yield from self.rpc.call(NfsRequest(
                NfsProc.WRITE, fh=fh, offset=idx0 * self.options.block_size,
                data=data, stable=stable))
            reply.raise_for_status(
                f"write {fh} blocks {idx0}..{run_keys[-1][1]}")
        finally:
            for key in run_keys:
                self._inflight.discard(key)
            waiters, self._inflight_waiters = self._inflight_waiters, []
            for gate in waiters:
                gate.succeed()

    def _write_rpc(self, fh: FileHandle, idx: int, data: bytes) -> Generator:
        key = (fh, idx)
        self._inflight.add(key)
        try:
            stable = self.options.nfs_version == 2  # v2 has no unstable writes
            reply = yield from self.rpc.call(NfsRequest(
                NfsProc.WRITE, fh=fh, offset=idx * self.options.block_size,
                data=data, stable=stable))
            reply.raise_for_status(f"write {fh} block {idx}")
        finally:
            self._inflight.discard(key)
            waiters, self._inflight_waiters = self._inflight_waiters, []
            for gate in waiters:
                gate.succeed()

    def _wait_inflight(self, fh: Optional[FileHandle] = None) -> Generator:
        """Process: wait until no WRITE is on the wire (for ``fh`` or any)."""
        def pending() -> bool:
            if fh is None:
                return bool(self._inflight)
            return any(k[0] == fh for k in self._inflight)
        while pending():
            gate = self.env.event()
            self._inflight_waiters.append(gate)
            yield gate

    def _wake_dirty_waiters(self) -> None:
        if self.cache.dirty_bytes <= self.options.dirty_limit:
            waiters, self._dirty_waiters = self._dirty_waiters, []
            for gate in waiters:
                gate.succeed()

    def throttle_dirty(self) -> Generator:
        """Process: block while the dirty pool exceeds its limit."""
        while self.cache.dirty_bytes > self.options.dirty_limit:
            gate = self.env.event()
            self._dirty_waiters.append(gate)
            yield gate

    def flush_file(self, fh: FileHandle) -> Generator:
        """Process: push a file's dirty blocks, then COMMIT."""
        keys = self.cache.dirty_keys_for(fh)
        width = max(self.options.write_concurrency, 1)
        if self.options.write_gather_bytes > self.options.block_size:
            while True:
                runs = self._gather_runs(keys, width)
                if not runs:
                    break
                yield AllOf(self.env, [
                    self.env.process(self._write_run_rpc(rk, data))
                    for rk, data in runs])
        else:
            for i in range(0, len(keys), width):
                writes = []
                for key in keys[i:i + width]:
                    data = self.cache.peek(key)
                    if data is None:
                        continue
                    self.cache.mark_clean(key)
                    self._inflight.add(key)
                    writes.append(self.env.process(
                        self._write_rpc(key[0], key[1], data)))
                if writes:
                    yield AllOf(self.env, writes)
        yield from self._wait_inflight(fh)
        if self.options.nfs_version == 2:
            return  # v2: writes were stable; there is no COMMIT
        reply = yield from self.rpc.call(NfsRequest(
            NfsProc.COMMIT, fh=fh))
        reply.raise_for_status("commit")
        if reply.attrs is not None:
            self._known_mtime[fh] = reply.attrs.mtime

    def flush_all(self) -> Generator:
        """Process: flush every dirty block on this mount."""
        seen = set()
        while True:
            key = self.cache.any_dirty_key()
            if key is None:
                break
            yield from self.flush_file(key[0])
            seen.add(key[0])
        # Wait for any background flusher batch still on the wire.
        yield from self._wait_inflight()
        while self._flusher_running:
            gate = self.env.event()
            self._dirty_waiters.append(gate)
            yield gate

    def drop_caches(self) -> None:
        """Cold-cache setup: forget blocks, dentries and attributes.

        Refuses to discard staged writes — flush first.
        """
        if self.cache.dirty_blocks or self._inflight:
            raise RuntimeError("drop_caches with writes staged or in flight")
        self.cache.clear()
        self._dentries.clear()
        self._attrs_by_fh.clear()
        self._known_mtime.clear()


class NfsFile:
    """An open file on a mount: block-cached read/write, flush-on-close."""

    def __init__(self, mount: MountedNfs, fh: FileHandle, attrs: Fattr):
        self.mount = mount
        self.fh = fh
        self.attrs = attrs
        self.size = attrs.size
        self.env = mount.env
        self._last_read_end: Optional[int] = None

    @property
    def _bs(self) -> int:
        return self.mount.options.block_size

    # -- reading -----------------------------------------------------------------
    def _fetch_block(self, idx: int) -> Generator:
        bs = self.mount.options.block_size
        reply = yield from self.mount.rpc.call(NfsRequest(
            NfsProc.READ, fh=self.fh, offset=idx * bs, count=bs))
        reply.raise_for_status(f"read block {idx}")
        self.mount.cache.put_clean((self.fh, idx), reply.data)
        return reply.data

    def read(self, offset: int, count: int) -> Generator:
        """Process: read up to ``count`` bytes at ``offset``."""
        if offset < 0 or count < 0:
            raise ValueError(f"bad read offset={offset} count={count}")
        end = min(offset + count, self.size)
        if offset >= end:
            return b""
        mount = self.mount
        bs = mount.options.block_size
        cache = mount.cache
        fh = self.fh
        sequential = self._last_read_end == offset
        out: Optional[bytearray] = None
        pos = offset
        while pos < end:
            idx = pos // bs
            base = idx * bs
            block = cache.get((fh, idx))
            if block is None:
                ra = mount.options.readahead
                if ra > 0 and sequential:
                    # Prefetch beyond the request, up to the file's last block.
                    file_last = max((self.size - 1) // bs, idx)
                    wanted = [i for i in range(idx, min(idx + 1 + ra,
                                                        file_last + 1))
                              if cache.peek((fh, i)) is None]
                    fetches = [self.env.process(self._fetch_block(i))
                               for i in wanted]
                    results = yield AllOf(self.env, fetches)
                    block = results[0] if wanted and wanted[0] == idx else \
                        cache.get((fh, idx)) or b""
                else:
                    block = yield from self._fetch_block(idx)
            within = pos - base
            take = end - pos
            if take > bs - within:
                take = bs - within
            # A cached block may be shorter than the file's logical
            # extent there (a hole left by sparse local writes): pad the
            # covered range with zeros, exactly like a real page cache.
            expected = self.size - base
            if expected > bs:
                expected = bs
            if len(block) < expected:
                block = block + bytes(expected - len(block))
            if pos == offset and pos + take == end:
                # The whole request sits inside this block — the
                # dominant shape of block-aligned VM I/O — so hand back
                # the cached bytes (or one slice) without assembling a
                # scratch buffer.
                self._last_read_end = end
                if within == 0 and take == len(block):
                    return block
                return block[within:within + take]
            if out is None:
                out = bytearray()
            out += block[within:within + take]
            pos += take
        self._last_read_end = pos
        return bytes(out)

    def read_all(self, chunk: Optional[int] = None) -> Generator:
        """Process: sequential read of the whole file; returns the bytes."""
        chunk = chunk or self._bs
        out = bytearray()
        pos = 0
        while pos < self.size:
            data = yield from self.read(pos, chunk)
            if not data:
                break
            out += data
            pos += len(data)
        return bytes(out)

    # -- writing -----------------------------------------------------------------
    def write(self, offset: int, data: bytes) -> Generator:
        """Process: stage ``data`` at ``offset`` (write-behind)."""
        if offset < 0:
            raise ValueError(f"negative write offset: {offset}")
        bs = self.mount.options.block_size
        pos = offset
        view = memoryview(bytes(data))
        while len(view):
            idx, within = divmod(pos, bs)
            take = min(bs - within, len(view))
            key = (self.fh, idx)
            existing = self.mount.cache.peek(key)
            if existing is None and (within != 0 or take != bs) \
                    and idx * bs < self.size:
                # Partial update of an uncached block within the file:
                # read-modify-write, like a real page-cache fill.
                existing = yield from self._fetch_block(idx)
            if take == bs == len(data):
                # One whole block: staged as the caller's own immutable
                # object (a zero block stays the one shared zero block).
                block = view.obj
            else:
                base = bytearray(existing or b"")
                if len(base) < within + take:
                    base.extend(bytes(within + take - len(base)))
                base[within:within + take] = view[:take]
                block = bytes(base)
            self.mount.cache.put_dirty(key, block)
            view = view[take:]
            pos += take
        self.size = max(self.size, pos)
        self.mount._kick_flusher()
        yield from self.mount.throttle_dirty()

    def write_sync(self, offset: int, data: bytes) -> Generator:
        """Process: synchronous write — each block goes to the server
        (stable) before returning, bypassing the staging pool.

        This is how a hosted VMM writes its virtual disk (O_SYNC to
        guarantee guest durability), and why WAN writes without a
        write-back proxy are so expensive in the paper.
        """
        if offset < 0:
            raise ValueError(f"negative write offset: {offset}")
        bs = self.mount.options.block_size
        pos = offset
        view = memoryview(bytes(data))
        while len(view):
            idx, within = divmod(pos, bs)
            take = min(bs - within, len(view))
            key = (self.fh, idx)
            existing = self.mount.cache.peek(key)
            if existing is None and (within != 0 or take != bs) \
                    and idx * bs < self.size:
                existing = yield from self._fetch_block(idx)
            if take == bs == len(data):
                # One whole block: sent and cached as the caller's own
                # immutable object, as ``write`` stages it.
                block = view.obj
            else:
                base = bytearray(existing or b"")
                if len(base) < within + take:
                    base.extend(bytes(within + take - len(base)))
                base[within:within + take] = view[:take]
                block = bytes(base)
            reply = yield from self.mount.rpc.call(NfsRequest(
                NfsProc.WRITE, fh=self.fh, offset=idx * bs,
                data=block, stable=True))
            reply.raise_for_status(f"sync write block {idx}")
            self.mount.cache.put_clean(key, block)
            view = view[take:]
            pos += take
        self.size = max(self.size, pos)

    def truncate(self, new_size: int) -> Generator:
        """Process: SETATTR truncate."""
        reply = yield from self.mount.rpc.call(NfsRequest(
            NfsProc.SETATTR, fh=self.fh, size=new_size))
        reply.raise_for_status("truncate")
        self.mount.cache.invalidate_file(self.fh)
        self.size = new_size

    def close(self) -> Generator:
        """Process: flush staged writes and COMMIT (close-to-open)."""
        pending = (self.mount.cache.dirty_keys_for(self.fh)
                   or any(k[0] == self.fh for k in self.mount._inflight))
        if pending:
            yield from self.mount.flush_file(self.fh)
        else:
            yield self.env.timeout(0)
