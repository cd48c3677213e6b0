"""Kernel NFS server over a local filesystem export.

Services the NFSv3 subset against a :class:`~repro.storage.localfs.
LocalFileSystem`; READ/WRITE are charged the export disk's time, every
call is charged a per-op CPU cost, and a fixed pool of nfsd threads
bounds concurrency (so a flood of requests queues like a real server).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.nfs.protocol import (
    FS_CODE_TO_STATUS,
    Fattr,
    FileHandle,
    NfsProc,
    NfsReply,
    NfsRequest,
    NfsStatus,
)
from repro.sim import Environment, FifoResource
from repro.storage.localfs import LocalFileSystem
from repro.storage.vfs import FsError, Inode

__all__ = ["NfsServer"]


class NfsServer:
    """An NFS server exporting one filesystem.

    Parameters
    ----------
    export:
        The timed local filesystem to serve.
    fsid:
        Identifier baked into the server's file handles.
    nfsd_threads:
        Concurrent service slots (Linux default was 8).
    op_cpu:
        Per-call CPU time in seconds (request decode + dispatch).
    """

    def __init__(self, env: Environment, export: LocalFileSystem,
                 fsid: str = "export", nfsd_threads: int = 8,
                 op_cpu: float = 100e-6):
        self.env = env
        self.export = export
        self.fsid = fsid
        self.op_cpu = op_cpu
        self._nfsd = FifoResource(env, capacity=nfsd_threads, name=f"{fsid}.nfsd")
        self.calls = 0
        # Fault state.  A crashed server answers nothing; in-progress
        # calls are abandoned mid-service (their completed disk effects
        # persist — the media survives, the process dies).  The epoch
        # counter lets a call detect that the server it started under is
        # not the one running now, so its reply is never delivered.
        self.crashed = False
        self.crashes = 0
        self._crash_epoch = 0

    # -- handle plumbing -----------------------------------------------------
    @property
    def root_fh(self) -> FileHandle:
        """Handle of the export root (what MOUNT would return)."""
        return FileHandle(self.fsid, self.export.fs.root.fileid)

    def fh_of(self, inode: Inode) -> FileHandle:
        return FileHandle(self.fsid, inode.fileid)

    def fh_for_path(self, path: str) -> FileHandle:
        """Resolve a path server-side (test/middleware convenience)."""
        return self.fh_of(self.export.fs.lookup(path, follow=False))

    def _resolve(self, fh: Optional[FileHandle]) -> Inode:
        if fh is None:
            raise FsError("ESTALE", "missing file handle")
        if fh.fsid != self.fsid:
            raise FsError("ESTALE", f"foreign fsid {fh.fsid!r}")
        return self.export.fs.get_inode(fh.fileid)

    @staticmethod
    def _attrs(inode: Inode) -> Fattr:
        return Fattr(kind=inode.kind, size=inode.size, fileid=inode.fileid,
                     mtime=inode.mtime, mode=inode.mode,
                     uid=inode.uid, gid=inode.gid)

    # -- fault injection ---------------------------------------------------------
    def crash(self) -> None:
        """Kill the server process: no replies until :meth:`restart`."""
        self.crashed = True
        self.crashes += 1
        self._crash_epoch += 1

    def restart(self) -> None:
        """Boot the server back up with a cold page cache.

        File data survives (it lives on the export disk); the kernel's
        in-memory page cache and write-behind pool do not.
        """
        self.export.drop_caches()
        self.crashed = False

    # -- dispatch ---------------------------------------------------------------
    def handle(self, request: NfsRequest) -> Generator:
        """Process: service one call; returns an :class:`NfsReply`."""
        if self.crashed:
            # Dead servers don't answer: park until interrupted (the
            # caller's retransmission timer is the recovery mechanism).
            yield self.env.event()
        epoch = self._crash_epoch
        # A free nfsd thread (the common case) costs no grant event.
        slot = self._nfsd.try_acquire()
        try:
            if slot is None:
                slot = self._nfsd.request()
                yield slot
                if self.crashed or self._crash_epoch != epoch:
                    # Crashed while we queued: nobody serves us.
                    yield self.env.event()
            yield self.env.timeout(self.op_cpu)
            self.calls += 1
            try:
                reply = yield from self._dispatch(request)
            except FsError as exc:
                status = FS_CODE_TO_STATUS.get(exc.code, NfsStatus.IO)
                reply = NfsReply(request.proc, status)
        finally:
            self._nfsd.release(slot)
        if self._crash_epoch != epoch:
            # The server died while this call was in service: whatever
            # disk effects already happened stand, but the reply is lost.
            yield self.env.event()
        return reply

    def _dispatch(self, req: NfsRequest) -> Generator:
        proc = req.proc
        if proc is NfsProc.NULL:
            yield self.env.timeout(0)
            return NfsReply(proc, NfsStatus.OK)
        if proc is NfsProc.GETATTR:
            node = self._resolve(req.fh)
            yield self.env.timeout(0)
            return NfsReply(proc, NfsStatus.OK, fh=req.fh, attrs=self._attrs(node))
        if proc is NfsProc.SETATTR:
            node = self._resolve(req.fh)
            if node.kind != Inode.FILE:
                return NfsReply(proc, NfsStatus.ISDIR)
            if req.size is not None:
                node.data.truncate(req.size)
                node.touch()
            yield self.env.timeout(0)
            return NfsReply(proc, NfsStatus.OK, fh=req.fh, attrs=self._attrs(node))
        if proc is NfsProc.LOOKUP:
            directory = self._resolve(req.fh)
            child = self.export.fs.lookup_in(directory, req.name)
            yield self.env.timeout(0)
            return NfsReply(proc, NfsStatus.OK, fh=self.fh_of(child),
                            attrs=self._attrs(child))
        if proc is NfsProc.READLINK:
            node = self._resolve(req.fh)
            if node.kind != Inode.SYMLINK:
                return NfsReply(proc, NfsStatus.INVAL)
            yield self.env.timeout(0)
            return NfsReply(proc, NfsStatus.OK, target=node.target)
        if proc is NfsProc.READ:
            node = self._resolve(req.fh)
            if node.kind != Inode.FILE:
                return NfsReply(proc, NfsStatus.ISDIR)
            data = yield from self.export.timed_read_inode(node, req.offset, req.count)
            eof = req.offset + len(data) >= node.data.size
            return NfsReply(proc, NfsStatus.OK, fh=req.fh, data=data,
                            count=len(data), eof=eof, attrs=self._attrs(node))
        if proc is NfsProc.WRITE:
            node = self._resolve(req.fh)
            if node.kind != Inode.FILE:
                return NfsReply(proc, NfsStatus.ISDIR)
            yield from self.export.timed_write_inode(
                node, req.data, req.offset, sync=req.stable)
            return NfsReply(proc, NfsStatus.OK, fh=req.fh,
                            count=len(req.data), attrs=self._attrs(node))
        if proc is NfsProc.CREATE:
            directory = self._resolve(req.fh)
            node = self.export.fs.create_in(directory, req.name,
                                            exclusive=req.exclusive)
            yield self.env.timeout(0)
            return NfsReply(proc, NfsStatus.OK, fh=self.fh_of(node),
                            attrs=self._attrs(node))
        if proc is NfsProc.MKDIR:
            directory = self._resolve(req.fh)
            node = self.export.fs.mkdir_in(directory, req.name)
            yield self.env.timeout(0)
            return NfsReply(proc, NfsStatus.OK, fh=self.fh_of(node),
                            attrs=self._attrs(node))
        if proc is NfsProc.SYMLINK:
            directory = self._resolve(req.fh)
            node = self.export.fs.symlink_in(directory, req.name, req.target)
            yield self.env.timeout(0)
            return NfsReply(proc, NfsStatus.OK, fh=self.fh_of(node),
                            attrs=self._attrs(node))
        if proc is NfsProc.REMOVE:
            directory = self._resolve(req.fh)
            self.export.fs.remove_in(directory, req.name)
            yield self.env.timeout(0)
            return NfsReply(proc, NfsStatus.OK)
        if proc is NfsProc.RMDIR:
            directory = self._resolve(req.fh)
            self.export.fs.rmdir_in(directory, req.name)
            yield self.env.timeout(0)
            return NfsReply(proc, NfsStatus.OK)
        if proc is NfsProc.RENAME:
            from_dir = self._resolve(req.fh)
            to_dir = self._resolve(req.to_fh) if req.to_fh else from_dir
            self.export.fs.rename_in(from_dir, req.name, to_dir, req.to_name)
            yield self.env.timeout(0)
            return NfsReply(proc, NfsStatus.OK)
        if proc is NfsProc.READDIR:
            directory = self._resolve(req.fh)
            if directory.kind != Inode.DIR:
                return NfsReply(proc, NfsStatus.NOTDIR)
            yield self.env.timeout(0)
            return NfsReply(proc, NfsStatus.OK,
                            entries=tuple(sorted(directory.entries)))
        if proc is NfsProc.COMMIT:
            # Flush the export's write-behind pool to stable storage.
            yield from self.export.sync()
            node = self._resolve(req.fh)
            return NfsReply(proc, NfsStatus.OK, fh=req.fh, attrs=self._attrs(node))
        raise ValueError(f"unimplemented NFS procedure: {proc}")
