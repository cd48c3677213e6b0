"""Meta-data layer: locate ``.gvfs`` companions, answer zero reads.

Implements the paper's middleware-generated meta-data handling
(§3.2.2): on the first READ of a file the layer probes the server for
the file's meta-data companion (located via the name learned by the
attr layer), parses it, and caches the result — including negative
results — per handle.  Reads fully covered by the zero map are
reconstructed locally with nothing on the wire; everything else passes
down the stack, with the parsed meta-data left in ``self.cache`` for
the file-channel and block-cache layers to consult synchronously.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Generator, Optional

from repro.core.layers.base import ProxyLayer
from repro.core.metadata import FileMetadata, METADATA_SUFFIX, metadata_name_for
from repro.nfs.protocol import FileHandle, NfsProc, NfsReply, NfsRequest, NfsStatus

__all__ = ["ZeroMapLayer"]


@lru_cache(maxsize=16)
def _zeros(n: int) -> bytes:
    """One shared zero block per read size, not one per READ."""
    return bytes(n)


@dataclass
class ZeroMapStats:
    zero_filtered_reads: int = 0    # reads answered locally from the zero map
    metadata_probes: int = 0        # upstream LOOKUPs for .gvfs companions


class ZeroMapLayer(ProxyLayer):
    """Fetch, parse and apply per-file middleware meta-data."""

    ROLE = "metadata"
    Stats = ZeroMapStats

    def __init__(self):
        super().__init__()
        # fh -> parsed metadata (None = known absent).
        self.cache: Dict[FileHandle, Optional[FileMetadata]] = {}

    # ---------------------------------------------------------------- resolve
    def resolve(self, fh: FileHandle) -> Generator:
        """Process: find (and cache) the meta-data associated with a
        handle ``handle`` has not resolved yet.

        Issued against the upstream RPC client directly — meta-data
        traffic is middleware-internal and is not counted as forwarded
        client requests.
        """
        if not self.config.metadata:
            return None
        name_info = self.stack.names.get(fh)
        if name_info is None:
            # Never saw a LOOKUP for this handle; cannot locate meta-data.
            self.cache[fh] = None
            return None
        dir_fh, name = name_info
        if name.startswith(".") and name.endswith(METADATA_SUFFIX):
            self.cache[fh] = None
            return None
        self.stats.metadata_probes += 1
        look = yield from self.stack.upstream.call(NfsRequest(
            NfsProc.LOOKUP, fh=dir_fh, name=metadata_name_for(name)))
        if not look.ok:
            self.cache[fh] = None
            return None
        raw = bytearray()
        offset = 0
        while True:
            reply = yield from self.stack.upstream.call(NfsRequest(
                NfsProc.READ, fh=look.fh, offset=offset,
                count=self.stack.block_size()))
            if not reply.ok or not reply.data:
                break
            raw += reply.data
            offset += len(reply.data)
            if reply.eof:
                break
        try:
            meta = FileMetadata.from_bytes(bytes(raw))
        except (ValueError, KeyError):
            meta = None
        self.cache[fh] = meta
        return meta

    # ------------------------------------------------------------------ handle
    def handle(self, request) -> Generator:
        if request.proc is not NfsProc.READ:
            return (yield from self.next.handle(request))
        fh, offset, count = request.fh, request.offset, request.count
        # Entries exist only under config.metadata: probe before the generator.
        cache = self.cache
        meta = cache[fh] if fh in cache else (yield from self.resolve(fh))
        if meta is not None and meta.covers_read(offset, count):
            # Zero-filled blocks: reconstruct locally, nothing on the wire.
            end = min(offset + count, max(meta.file_size,
                                          self.stack.local_size(fh)))
            n = max(end - offset, 0)
            self.stats.zero_filtered_reads += 1
            return NfsReply(NfsProc.READ, NfsStatus.OK, fh=fh,
                            data=_zeros(n), count=n,
                            eof=offset + n >= meta.file_size)
        return (yield from self.next.handle(request))

    # --------------------------------------------------------------- lifecycle
    def crash(self) -> None:
        self.cache.clear()

    def invalidate(self) -> None:
        self.cache.clear()
