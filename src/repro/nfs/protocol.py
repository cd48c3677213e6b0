"""NFSv3-subset wire protocol: handles, attributes, requests, replies.

The subset covers every procedure the GVFS data path exercises —
LOOKUP/GETATTR/READ/WRITE/CREATE/REMOVE/RENAME/READDIR/READLINK/
SYMLINK/MKDIR/RMDIR/COMMIT — with enough fidelity (status codes, wire
sizes, stable-write semantics) that proxies interposed on the RPC
stream behave like the real user-level proxies of the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

__all__ = [
    "Fattr",
    "FileHandle",
    "NFS_BLOCK_SIZE",
    "NFS_MAX_BLOCK_SIZE",
    "NfsError",
    "NfsProc",
    "NfsReply",
    "NfsRequest",
    "NfsStatus",
]

#: Default rsize/wsize of era NFS mounts (and the paper's read counts:
#: a 512 MB memory state file is 65,536 reads of 8 KB).
NFS_BLOCK_SIZE = 8 * 1024

#: Protocol limit quoted in the paper (§3.2.1): block sizes up to 32 KB.
NFS_MAX_BLOCK_SIZE = 32 * 1024

#: Wire overhead of one RPC message beyond its payload (XDR + RPC + auth).
RPC_OVERHEAD_BYTES = 96


class NfsProc(enum.Enum):
    """Procedure numbers of the implemented NFSv3 subset."""

    NULL = 0
    GETATTR = 1
    SETATTR = 2
    LOOKUP = 3
    READLINK = 5
    READ = 6
    WRITE = 7
    CREATE = 8
    MKDIR = 9
    SYMLINK = 10
    REMOVE = 12
    RMDIR = 13
    RENAME = 14
    READDIR = 16
    COMMIT = 21


class NfsStatus(enum.Enum):
    """NFSv3 status codes used by the subset."""

    OK = 0
    PERM = 1
    NOENT = 2
    IO = 5
    ACCES = 13
    EXIST = 17
    NOTDIR = 20
    ISDIR = 21
    INVAL = 22
    FBIG = 27
    NOSPC = 28
    ROFS = 30
    NAMETOOLONG = 63
    NOTEMPTY = 66
    STALE = 70


#: Mapping from VFS error codes to NFS status.
FS_CODE_TO_STATUS = {
    "ENOENT": NfsStatus.NOENT,
    "EEXIST": NfsStatus.EXIST,
    "ENOTDIR": NfsStatus.NOTDIR,
    "EISDIR": NfsStatus.ISDIR,
    "EINVAL": NfsStatus.INVAL,
    "ENOTEMPTY": NfsStatus.NOTEMPTY,
    "ESTALE": NfsStatus.STALE,
    "ELOOP": NfsStatus.INVAL,
}


class NfsError(Exception):
    """Raised by client-side helpers when a reply carries an error."""

    def __init__(self, status: NfsStatus, context: str = ""):
        super().__init__(f"NFS error {status.name}" + (f": {context}" if context else ""))
        self.status = status


class FileHandle(NamedTuple):
    """An opaque, persistent reference to a file object on a server.

    ``fsid`` identifies the exported filesystem, ``fileid`` the inode.
    Handles hash/compare by value, so caches can index on them exactly
    as the GVFS proxy hashes NFS file handles.  A tuple underneath:
    handles key every cache dictionary on the data path (about nine
    probes per RPC), so they must hash and compare in C.
    """

    fsid: str
    fileid: int

    def __str__(self) -> str:  # pragma: no cover
        return f"{self.fsid}:{self.fileid}"


# The message classes below are frozen dataclasses in everything but
# construction: ``init=False`` keeps the generated ``==``, ``hash``,
# ``repr`` and ``FrozenInstanceError``; the hand-written ``__init__``
# fills ``__dict__`` directly instead of one ``object.__setattr__`` call
# per field (2.4 -> 0.8 us).  ``tests/nfs/reference_messages.py`` keeps
# the generated constructors as the oracle.
@dataclass(frozen=True, init=False)
class Fattr:
    """File attributes returned by GETATTR and piggybacked on replies."""

    kind: str            # "file" | "dir" | "symlink"
    size: int
    fileid: int
    mtime: float
    mode: int = 0o644
    uid: int = 0
    gid: int = 0

    def __init__(self, kind, size, fileid, mtime, mode=0o644, uid=0, gid=0):
        d = self.__dict__
        (d["kind"], d["size"], d["fileid"], d["mtime"], d["mode"], d["uid"],
         d["gid"]) = kind, size, fileid, mtime, mode, uid, gid


@dataclass(frozen=True, init=False)
class NfsRequest:
    """One NFS call.  Field usage depends on ``proc``.

    * ``fh`` — target object (READ/WRITE/GETATTR/READLINK/READDIR/COMMIT)
      or the *directory* for name-based procs (LOOKUP/CREATE/REMOVE/...).
    * ``name`` — leaf name for name-based procs; new name source for RENAME.
    * ``offset``/``count`` — READ/WRITE extent.
    * ``data`` — WRITE payload (real bytes).
    * ``target`` — SYMLINK target path.
    * ``to_fh``/``to_name`` — RENAME destination directory and name.
    * ``stable`` — WRITE stability: True requests synchronous commit.
    * ``credentials`` — (uid, gid) of the caller; proxies remap these.
    """

    proc: NfsProc
    fh: Optional[FileHandle] = None
    name: Optional[str] = None
    offset: int = 0
    count: int = 0
    data: bytes = b""
    target: Optional[str] = None
    to_fh: Optional[FileHandle] = None
    to_name: Optional[str] = None
    stable: bool = True
    exclusive: bool = True              # CREATE mode (guarded vs unchecked)
    size: Optional[int] = None          # SETATTR truncate size
    credentials: Tuple[int, int] = (0, 0)

    def __init__(self, proc, fh=None, name=None, offset=0, count=0, data=b"",
                 target=None, to_fh=None, to_name=None, stable=True,
                 exclusive=True, size=None, credentials=(0, 0)):
        d = self.__dict__
        (d["proc"], d["fh"], d["name"], d["offset"], d["count"], d["data"],
         d["target"], d["to_fh"], d["to_name"], d["stable"], d["exclusive"],
         d["size"], d["credentials"]) = (
            proc, fh, name, offset, count, data, target, to_fh, to_name,
            stable, exclusive, size, credentials)

    def wire_size(self) -> int:
        """Bytes this call occupies on the wire.

        Memoized: one request object crosses every hop of a proxy
        cascade, and each hop sizes it for both the transport and its
        stats, so the sum is computed once and cached in the instance
        dict (beside the fields; ``==``/``hash``/``repr`` never see it).
        """
        d = self.__dict__
        n = d.get("_wire_size")
        if n is None:
            n = RPC_OVERHEAD_BYTES
            if d["proc"] is NfsProc.WRITE:
                n += len(d["data"])
            for s in (d["name"], d["target"], d["to_name"]):
                if s:
                    n += len(s)
            d["_wire_size"] = n
        return n

    def replace(self, **kwargs) -> "NfsRequest":
        """A copy with some fields substituted (proxy rewriting), built
        dict to dict — it runs once per request a proxy remaps — and
        without the memoised wire size, which the new fields may change."""
        for name in kwargs:
            if name not in self.__dataclass_fields__:
                raise TypeError(f"NfsRequest has no field {name!r}")
        copy = object.__new__(NfsRequest)
        state = copy.__dict__
        state.update(self.__dict__)
        state.pop("_wire_size", None)
        state.update(kwargs)
        return copy


@dataclass(frozen=True, init=False)
class NfsReply:
    """One NFS reply.

    ``attrs`` carries post-op attributes (NFSv3 piggybacking); ``data``
    carries READ payloads; ``fh``/``attrs`` carry LOOKUP/CREATE results;
    ``entries`` carries READDIR listings; ``target`` READLINK results.
    ``eof`` marks a READ that reached end of file.
    """

    proc: NfsProc
    status: NfsStatus
    fh: Optional[FileHandle] = None
    attrs: Optional[Fattr] = None
    data: bytes = b""
    count: int = 0
    eof: bool = False
    target: Optional[str] = None
    entries: Tuple[str, ...] = ()

    def __init__(self, proc, status, fh=None, attrs=None, data=b"", count=0,
                 eof=False, target=None, entries=()):
        d = self.__dict__
        (d["proc"], d["status"], d["fh"], d["attrs"], d["data"], d["count"],
         d["eof"], d["target"], d["entries"]) = (
            proc, status, fh, attrs, data, count, eof, target, entries)

    @property
    def ok(self) -> bool:
        return self.status is NfsStatus.OK

    def wire_size(self) -> int:
        """Bytes this reply occupies on the wire (memoized, see
        :meth:`NfsRequest.wire_size`)."""
        d = self.__dict__
        n = d.get("_wire_size")
        if n is None:
            n = RPC_OVERHEAD_BYTES
            if d["proc"] is NfsProc.READ:
                n += len(d["data"])
            if d["target"]:
                n += len(d["target"])
            for entry in d["entries"]:
                n += len(entry) + 8
            d["_wire_size"] = n
        return n

    def raise_for_status(self, context: str = "") -> "NfsReply":
        """Return self when OK; raise :class:`NfsError` otherwise."""
        if not self.ok:
            raise NfsError(self.status, context)
        return self
