"""The on-demand file-based data channel (§3.2.2).

Executes the meta-data action pipeline for a whole file:

1. **compress** — gzip on the image server (server CPU held; the file
   is streamed off the server disk concurrently, so the pipeline runs
   at the slower of CPU and disk);
2. **remote copy** — SCP the *compressed* bytes to the compute server
   (TCP-window-limited over the WAN, out-of-band w.r.t. the NFS RPC
   channel, SSH-encrypted);
3. **uncompress** — gunzip on the compute server into the proxy's
   file-based disk cache (CPU overlapped with the cache install's disk
   writes);
4. **read locally** — subsequent NFS READs are served from the cache
   (the proxy's job; see :mod:`repro.core.proxy`).

The reverse pipeline (:meth:`FileChannel.upload`) writes back a dirty
cached file: compress locally, SCP to the server, uncompress there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.core.filecache import FileCacheEntry, ProxyFileCache
from repro.net.compress import GZIP
from repro.net.ssh import ScpTransfer
from repro.net.topology import Host
from repro.nfs.protocol import FileHandle
from repro.sim import AllOf, Environment
from repro.storage.localfs import LocalFileSystem
from repro.storage.vfs import Inode

__all__ = ["CascadedFileChannel", "FileChannel", "RemoteFileLocator"]


@dataclass(frozen=True)
class RemoteFileLocator:
    """How the channel reaches a remote file out-of-band.

    Middleware knows where the image server keeps its files and owns
    SCP credentials for the session's logical accounts; this object is
    that knowledge: a resolver from file handle to the server-side
    inode, plus the hosts at both ends.
    """

    resolve: Callable[[FileHandle], Inode]
    server_host: Host
    server_fs: LocalFileSystem
    client_host: Host


class FileChannel:
    """A file-based data channel between one proxy and one image server."""

    def __init__(self, env: Environment, locator: RemoteFileLocator,
                 scp: ScpTransfer, file_cache: ProxyFileCache,
                 upload_scp: Optional[ScpTransfer] = None):
        self.env = env
        self.locator = locator
        self.scp = scp
        self.upload_scp = upload_scp or scp
        self.file_cache = file_cache
        self.compression = GZIP
        # Statistics
        self.fetches = 0
        self.uploads = 0
        self.bytes_on_wire = 0
        self.bytes_logical = 0

    def reset_stats(self) -> None:
        """Zero the channel counters (mirrors ProxyBlockCache.reset_stats)."""
        self.fetches = 0
        self.uploads = 0
        self.bytes_on_wire = 0
        self.bytes_logical = 0

    # -- helpers ---------------------------------------------------------------
    def _compress_stage(self, host: Host, fs: Optional[LocalFileSystem],
                        inode: Inode) -> Generator:
        """Process: gzip ``inode`` on ``host``; returns compressed size.

        CPU and the streaming disk read overlap (pipeline), so the stage
        takes the max of the two.
        """
        size = inode.data.size
        jobs = [host.compute(self.compression.compress_time(size))]
        if fs is not None:
            jobs.append(self.env.process(
                fs.timed_scan_inode(inode, 0, size)))
        yield AllOf(self.env, jobs)
        return self.compression.compressed_size(inode.data.iter_chunks())

    def _uncompress_stage(self, host: Host, size: int) -> Generator:
        """Process: gunzip CPU for ``size`` output bytes on ``host``."""
        yield host.compute(self.compression.decompress_time(size))

    # -- the forward pipeline -----------------------------------------------------
    def fetch(self, fh: FileHandle) -> Generator:
        """Process: run compress -> remote copy -> uncompress for ``fh``.

        Returns the installed :class:`FileCacheEntry`.
        """
        remote = self.locator.resolve(fh)
        # 1. compress on the server (e.g. using GZIP)
        compressed = yield from self._compress_stage(
            self.locator.server_host, self.locator.server_fs, remote)
        # 2. remote copy the compressed file (e.g. using GSI-enabled SCP)
        yield from self.scp.transfer(compressed)
        # 3. uncompress into the file cache; gunzip CPU overlaps the
        #    cache's disk install.
        decompress = self.env.process(self._uncompress_stage(
            self.locator.client_host, remote.data.size))
        install = self.env.process(self.file_cache.install(fh, remote.data))
        results = yield AllOf(self.env, [decompress, install])
        entry: FileCacheEntry = results[1]
        self.fetches += 1
        self.bytes_on_wire += compressed
        self.bytes_logical += remote.data.size
        return entry

    # -- the reverse pipeline ------------------------------------------------------
    def upload(self, fh: FileHandle) -> Generator:
        """Process: write back a dirty cached file to the server.

        "The file cache can also support write-back, which includes
        similar steps of compressing, uploading and uncompressing."
        """
        entry = self.file_cache.entry(fh)
        if entry is None:
            raise KeyError(f"{fh} not in file cache")
        # 1. compress the local copy (client CPU + client disk read).
        compressed = yield from self._compress_stage(
            self.locator.client_host, self.file_cache.storage, entry.inode)
        # 2. SCP to the server.
        yield from self.upload_scp.transfer(compressed)
        # 3. uncompress on the server, replacing the remote content.
        remote = self.locator.resolve(fh)
        uncompress = self.env.process(self._uncompress_stage(
            self.locator.server_host, entry.inode.data.size))
        def _write_remote():
            remote.data = entry.inode.data.copy()
            remote.touch()
            yield self.env.process(self.locator.server_fs.stage_bulk_write(
                remote, remote.data.size,
                warm_chunks=range(remote.data.n_chunks())))
        write = self.env.process(_write_remote())
        yield AllOf(self.env, [uncompress, write])
        self.file_cache.mark_clean(fh)
        self.uploads += 1
        self.bytes_on_wire += compressed
        self.bytes_logical += entry.inode.data.size
        return compressed


class CascadedFileChannel(FileChannel):
    """A file channel whose "server" is a second-level proxy cache.

    For the WAN-S3 scenario (§4.3.1): compute servers fetch whole files
    from a LAN cache server; the LAN server's own channel pulls from the
    WAN image server on a miss.  ``locator.resolve`` must resolve into
    the parent's file cache — the constructor wires that automatically.
    """

    def __init__(self, env: Environment, parent: FileChannel,
                 client_host: Host, scp: ScpTransfer,
                 file_cache: ProxyFileCache,
                 upload_scp: Optional[ScpTransfer] = None):
        def _resolve(fh: FileHandle) -> Inode:
            entry = parent.file_cache.entry(fh)
            if entry is None:
                # Only an upload finds it missing (``fetch`` makes sure
                # first): the parent restarted and lost its copy, and a
                # whole-file upload carries all of the content anyway.
                held = file_cache.entry(fh)
                if held is None:
                    raise KeyError(f"{fh} missing from second-level cache")
                entry = parent.file_cache.place(fh, held.inode.data)
            return entry.inode

        locator = RemoteFileLocator(
            resolve=_resolve, server_host=parent.locator.client_host,
            server_fs=parent.file_cache.storage, client_host=client_host)
        super().__init__(env, locator, scp, file_cache,
                         upload_scp=upload_scp)
        self.parent = parent

    def fetch(self, fh: FileHandle) -> Generator:
        """Process: ensure the parent holds the file, then pull over LAN.

        Re-checked after each parent fetch: a parent that restarts after
        its install landed but before its fetch returned has lost it.
        """
        while fh not in self.parent.file_cache:
            yield from self.parent.fetch(fh)
        entry = yield from super().fetch(fh)
        return entry

    def upload(self, fh: FileHandle) -> Generator:
        """Process: write back into the parent's cached copy, dirty
        from then on until the parent's own flush uploads it.  A parent
        that restarts mid-upload lost what it was sent: send it again."""
        while True:
            compressed = yield from super().upload(fh)
            held = self.parent.file_cache.entry(fh)
            if held is not None:
                break
        held.size = held.inode.data.size
        held.dirty = True
        return compressed
