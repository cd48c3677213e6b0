"""End-to-end block integrity: crc32 per block, verified at the client.

The cache hierarchy is deep — client frames, cascade levels, peer
copies — and every copy is a place silent corruption can hide behind a
perfectly valid cache tag.  Following the end-to-end
argument (and AliEnFS's validate-every-path design), integrity is not
delegated to any cache: a :class:`ChecksumLayer` in **record** mode
sits in the origin-adjacent forwarding stack and checksums every block
as it leaves or reaches the server of record; a second instance in
**verify** mode sits at the top of the client stack and re-checks
every full-block READ reply that is about to cross back to the client
— wherever the bytes came from (local frame, cascade level, peer
borrow, or origin itself).

Both instances share one :class:`ChecksumRegistry` ((fh, block) ->
(crc32, length)), standing in for checksums that a real deployment
would persist beside the image or carry in the protocol.

On a mismatch the layer *repairs*: the block is discarded from every
cascade level below (sideways, via ``discard_block``), peer borrowing
of that key is suppressed so the refetch cannot be served the same bad
copy from a neighbour, and the READ is re-issued to the upstream of
record — at most :attr:`~ChecksumLayer.MAX_REPAIRS` times before the
client gets a clean I/O error instead of garbled data.

Cost discipline: recording and verifying are synchronous crc32 calls —
the clean path through this layer adds **zero** simulation events, so
happy-path timings are bit-identical with and without it.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import Dict, Generator, Optional, Tuple

from repro.core.layers.base import ProxyLayer
from repro.nfs.protocol import FileHandle, NfsProc, NfsReply, NfsStatus

__all__ = ["ChecksumLayer", "ChecksumRegistry"]


class ChecksumRegistry:
    """Shared (fh, block) -> (crc32, length) map of blocks of record."""

    #: Digest sidecar filename, persisted beside each image directory.
    PERSIST_NAME = ".gvfs-digests.json"

    def __init__(self):
        self._crcs: Dict[Tuple, Tuple[int, int]] = {}
        self.recorded = 0
        self.invalidated = 0

    def record(self, key, data: bytes) -> None:
        self._crcs[key] = (zlib.crc32(data), len(data))
        self.recorded += 1

    def get(self, key) -> Optional[Tuple[int, int]]:
        return self._crcs.get(key)

    def matches(self, key, data: bytes) -> Optional[bool]:
        """True/False against the recorded checksum, None if unrecorded."""
        rec = self._crcs.get(key)
        if rec is None:
            return None
        crc, length = rec
        return len(data) == length and zlib.crc32(data) == crc

    def invalidate(self, key) -> None:
        if self._crcs.pop(key, None) is not None:
            self.invalidated += 1

    def __len__(self) -> int:
        return len(self._crcs)

    # ------------------------------------------------------------- persistence
    def save(self, fs, path: str, fileids=None) -> int:
        """Persist digests as a JSON sidecar file inside ``fs``.

        Rows are ``[fsid, fileid, block, crc32, length]``; only keys of
        the ``(FileHandle, block)`` shape are persistable (chaosbench
        uses opaque keys for negative controls — those stay in-memory).
        ``fileids`` restricts the slice to one image's files so sidecars
        beside different images don't carry each other's digests.
        """
        rows = []
        for key, (crc, length) in self._crcs.items():
            fh, idx = key
            if not isinstance(fh, FileHandle):
                continue
            if fileids is not None and fh.fileid not in fileids:
                continue
            rows.append([fh.fsid, fh.fileid, idx, crc, length])
        rows.sort()
        payload = json.dumps(rows, separators=(",", ":")).encode()
        if fs.exists(path):
            inode = fs.lookup(path)
            inode.data.truncate(0)
        else:
            inode = fs.create(path)
        inode.data.write(0, payload)
        inode.touch()
        return len(rows)

    def load(self, fs, path: str) -> int:
        """Merge a persisted sidecar back into this registry."""
        inode = fs.lookup(path)
        raw = inode.data.read(0, inode.data.size)
        rows = json.loads(raw.decode())
        for fsid, fileid, idx, crc, length in rows:
            self._crcs[(FileHandle(fsid, fileid), idx)] = (crc, length)
        return len(rows)


@dataclass
class ChecksumStats:
    crcs_recorded: int = 0       # blocks checksummed at the origin boundary
    crcs_verified: int = 0       # client reads checked against the registry
    corruptions_caught: int = 0  # mismatches detected before reaching a reader
    corruptions_repaired: int = 0  # caught reads healed by a clean refetch
    verify_skipped: int = 0      # reads not checkable (partial / unrecorded)
    verify_unrepaired: int = 0   # repairs exhausted; clean IO error returned


class ChecksumLayer(ProxyLayer):
    """Record or verify per-block crc32s at a stack boundary."""

    ROLE = "checksum"
    Stats = ChecksumStats
    #: Refetch attempts before a caught corruption becomes an IO error.
    MAX_REPAIRS = 2

    def __init__(self, registry: ChecksumRegistry,
                 record: bool = False, verify: bool = False):
        super().__init__()
        self.registry = registry
        self.record = record
        self.verify = verify

    # ------------------------------------------------------------------ handle
    def handle(self, request) -> Generator:
        proc = request.proc
        if proc is NfsProc.WRITE:
            reply = yield from self.next.handle(request)
            if self.verify:
                # The write just diverged local state from the block of
                # record; coverage resumes when the write-back reaches
                # the record instance at the origin.
                self._invalidate_span(request)
            elif self.record and reply.ok:
                self._record_write(request)
            return reply
        if proc is not NfsProc.READ:
            return (yield from self.next.handle(request))
        reply = yield from self.next.handle(request)
        if not reply.ok or reply.data is None:
            return reply
        if self.record:
            self._record_read(request, reply)
            return reply
        if self.verify:
            return (yield from self._verify_read(request, reply))
        return reply

    # ---------------------------------------------------------------- recording
    def _block_span(self, request):
        bs = self.stack.block_size()
        idx, within = divmod(request.offset, bs)
        return bs, idx, within

    def _record_read(self, request, reply) -> None:
        # Full-block fetches only — exactly what cache misses emit.  A
        # short reply is the file's tail block (lengths are frame-exact
        # in every cache), so its actual length is part of the record.
        bs, idx, within = self._block_span(request)
        if within or request.count != bs:
            return
        self.registry.record((request.fh, idx), reply.data)
        self.stats.crcs_recorded += 1

    def _record_write(self, request) -> None:
        # Write-backs arrive as merged runs of whole blocks; re-record
        # each full chunk.  A trailing partial chunk may be either the
        # file's tail or a partial overwrite — indistinguishable here,
        # so its record is dropped rather than guessed.
        bs, idx, within = self._block_span(request)
        data = request.data
        if within:
            for i in range(idx, (request.offset + len(data) - 1) // bs + 1):
                self.registry.invalidate((request.fh, i))
            return
        for start in range(0, len(data), bs):
            chunk = data[start:start + bs]
            key = (request.fh, idx + start // bs)
            if len(chunk) == bs:
                self.registry.record(key, chunk)
                self.stats.crcs_recorded += 1
            else:
                self.registry.invalidate(key)

    def _invalidate_span(self, request) -> None:
        bs = self.stack.block_size()
        first = request.offset // bs
        last = (request.offset + max(len(request.data or b"") - 1, 0)) // bs
        for i in range(first, last + 1):
            self.registry.invalidate((request.fh, i))

    # -------------------------------------------------------------- verification
    def _verify_read(self, request, reply) -> Generator:
        bs, idx, within = self._block_span(request)
        if within or request.count != bs:
            self.stats.verify_skipped += 1
            return reply
        key = (request.fh, idx)
        ok = self.registry.matches(key, reply.data)
        if ok is None:
            self.stats.verify_skipped += 1
            return reply
        self.stats.crcs_verified += 1
        if ok:
            return reply
        self.stats.corruptions_caught += 1
        for _ in range(self.MAX_REPAIRS):
            reply = yield from self._refetch(request, key)
            if not reply.ok or reply.data is None:
                break
            self.stats.crcs_verified += 1
            if self.registry.matches(key, reply.data):
                self.stats.corruptions_repaired += 1
                return reply
        self.stats.verify_unrepaired += 1
        return NfsReply(NfsProc.READ, NfsStatus.IO, fh=request.fh)

    def _refetch(self, request, key) -> Generator:
        """Process: discard every cascade copy of ``key`` and re-read.

        Peer borrowing of the key is suppressed for the duration so the
        refetch is answered by the upstream of record, not by whichever
        neighbour may hold the same bad bytes.  (A corrupt copy still
        advertised by a peer is that peer's to catch: every client runs
        its own verify instance.)
        """
        peers = []
        for stack in self.stack.cascade_stacks():
            cache_layer = stack.layer("block-cache")
            if cache_layer is not None:
                cache_layer.discard_block(key)
            peer_layer = stack.layer("peer-cache")
            if peer_layer is not None and key not in peer_layer.suppressed:
                peer_layer.suppressed.add(key)
                peers.append(peer_layer)
        try:
            reply = yield from self.next.handle(request)
        finally:
            for peer_layer in peers:
                peer_layer.suppressed.discard(key)
        return reply
