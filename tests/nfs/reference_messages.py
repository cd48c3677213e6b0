"""Reference model for the NFS message classes: the same fields and
defaults declared with the *generated* ``@dataclass(frozen=True)``
constructor, ``dataclasses.replace`` and the ``object.__setattr__``
memo — the bodies the hand-written production ``__init__``/
``wire_size``/``replace`` replaced, kept as the oracle for
``test_message_equivalence.py``.

The classes carry the production names so their generated ``repr``
reads the same.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.nfs.protocol import (RPC_OVERHEAD_BYTES, FileHandle, NfsProc,
                                NfsStatus)


@dataclass(frozen=True)
class Fattr:
    kind: str
    size: int
    fileid: int
    mtime: float
    mode: int = 0o644
    uid: int = 0
    gid: int = 0


@dataclass(frozen=True)
class NfsRequest:
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
    exclusive: bool = True
    size: Optional[int] = None
    credentials: Tuple[int, int] = (0, 0)

    def wire_size(self) -> int:
        n = self.__dict__.get("_wire_size")
        if n is None:
            n = RPC_OVERHEAD_BYTES
            if self.proc is NfsProc.WRITE:
                n += len(self.data)
            for s in (self.name, self.target, self.to_name):
                if s:
                    n += len(s)
            object.__setattr__(self, "_wire_size", n)
        return n

    def replace(self, **kwargs) -> "NfsRequest":
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class NfsReply:
    proc: NfsProc
    status: NfsStatus
    fh: Optional[FileHandle] = None
    attrs: Optional[Fattr] = None
    data: bytes = b""
    count: int = 0
    eof: bool = False
    target: Optional[str] = None
    entries: Tuple[str, ...] = ()

    def wire_size(self) -> int:
        n = self.__dict__.get("_wire_size")
        if n is None:
            n = RPC_OVERHEAD_BYTES
            if self.proc is NfsProc.READ:
                n += len(self.data)
            if self.target:
                n += len(self.target)
            n += sum(len(e) + 8 for e in self.entries)
            object.__setattr__(self, "_wire_size", n)
        return n
