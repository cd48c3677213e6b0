"""File-channel layer: whole-file heterogeneous caching (§3.2.2).

Files whose meta-data carries action lists (compress → remote copy →
uncompress) are fetched once through the file-based data channel and
then served from the proxy's file cache.  Writes to a file held in the
file cache stay local and upload on flush (write-back of e.g. a
checkpointed memory state).  Concurrent READs of one file coalesce on
a per-file fetch gate, symmetric to the block layer's miss gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional

from repro.core.layers.base import ProxyLayer
from repro.nfs.protocol import FileHandle, NfsProc, NfsReply, NfsStatus

__all__ = ["FileChannelLayer"]


@dataclass
class FileChannelStats:
    file_cache_reads: int = 0   # reads served from the whole-file cache
    channel_fetches: int = 0    # action lists executed (one per file fetch)
    absorbed_writes: int = 0    # writes kept local in the file cache
    stalled_uploads: int = 0    # uploads parked on a stall fault
    dropped_uploads: int = 0    # uploads lost to a drop fault (entry stays
                                # dirty, so a later flush retries it)
    replicated_uploads: int = 0  # extra per-replica uploads via a selector


class FileChannelLayer(ProxyLayer):
    """Serve whole files through the file-based data channel.

    With a *channel selector* attached, each whole-file fetch is routed
    to a live origin replica (``fetch_channel(fh)``) and each flush
    upload is replicated to every live replica (``upload_channels(fh)``)
    — the farm's whole-file counterpart of the terminal layer's origin
    selector.  Without one, the single baked-in channel is used.
    """

    ROLE = "file-channel"
    Stats = FileChannelStats

    def __init__(self, channel, selector=None):
        super().__init__()
        self.channel = channel
        self.selector = selector
        # fh -> in-progress channel fetch gate (concurrent READs wait).
        self.fetching: Dict[FileHandle, object] = {}
        # Fault-injection state: a gate parking flush uploads, and a
        # count of upcoming uploads to lose on the floor.
        self._upload_gate = None
        self._drop_uploads = 0

    # ------------------------------------------------------------- fault port
    def inject_fault(self, kind: str, arg=None) -> None:
        if kind == "stall-uploads":
            if self._upload_gate is None:
                self._upload_gate = self.env.event()
        elif kind == "resume-uploads":
            gate, self._upload_gate = self._upload_gate, None
            if gate is not None and not gate.triggered:
                gate.succeed()
        elif kind == "drop-upload":
            self._drop_uploads += int(arg or 1)
        else:
            super().inject_fault(kind, arg)

    @property
    def file_cache(self):
        return self.channel.file_cache

    # ------------------------------------------------------------------ fetch
    def ensure_file_cached(self, fh: FileHandle) -> Generator:
        """Process: run the file channel for ``fh`` exactly once."""
        if fh in self.file_cache:
            return
        gate = self.fetching.get(fh)
        if gate is not None:
            yield gate  # someone else is already fetching
            return
        gate = self.env.event()
        self.fetching[fh] = gate
        try:
            channel = self.channel
            if self.selector is not None:
                channel = self.selector.fetch_channel(fh)
            yield from channel.fetch(fh)
            self.stats.channel_fetches += 1
        finally:
            if self.fetching.get(fh) is gate:
                del self.fetching[fh]
            if not gate.triggered:
                gate.succeed()

    # ------------------------------------------------------------------ handle
    def handle(self, request) -> Generator:
        proc = request.proc

        if proc is NfsProc.WRITE:
            fh, offset, data = request.fh, request.offset, request.data
            # Writes to a file held in the file cache stay local,
            # uploaded on flush.
            if fh in self.file_cache:
                yield from self.file_cache.write(fh, offset, data)
                self.stats.absorbed_writes += 1
                self.stack.bump_local_size(fh, offset + len(data))
                return NfsReply(NfsProc.WRITE, NfsStatus.OK, fh=fh,
                                count=len(data))
            return (yield from self.next.handle(request))

        if proc is not NfsProc.READ:
            return (yield from self.next.handle(request))

        fh, offset, count = request.fh, request.offset, request.count
        meta = self.stack.cached_meta(fh)
        if meta is not None and meta.wants_file_channel:
            # Whole-file channel: fetch once, then serve from file cache.
            yield from self.ensure_file_cached(fh)
            reply = yield from self._read_cached(fh, offset, count)
            if reply is not None:
                return reply
        # File already in the file cache (e.g. after write-back install)?
        if fh in self.file_cache:
            reply = yield from self._read_cached(fh, offset, count)
            if reply is not None:
                return reply
        return (yield from self.next.handle(request))

    def _read_cached(self, fh: FileHandle, offset: int,
                     count: int) -> Generator:
        data = yield from self.file_cache.read(fh, offset, count)
        if data is None:
            return None
        self.stats.file_cache_reads += 1
        size = self.file_cache.entry(fh).size
        return NfsReply(NfsProc.READ, NfsStatus.OK, fh=fh, data=data,
                        count=len(data), eof=offset + len(data) >= size)

    # --------------------------------------------------------------- lifecycle
    def flush(self) -> Generator:
        for entry in self.file_cache.dirty_entries():
            if self._upload_gate is not None:
                # Stalled by fault injection: park until resumed.  The
                # entry stays dirty the whole time, so a crash mid-stall
                # loses nothing that was ever acknowledged as flushed.
                self.stats.stalled_uploads += 1
                yield self._upload_gate
            if self._drop_uploads > 0:
                # Lost upload: skip the channel send but leave the entry
                # dirty — the next flush retries, so the write is late,
                # never lost.
                self._drop_uploads -= 1
                self.stats.dropped_uploads += 1
                continue
            if self.selector is not None:
                channels = self.selector.upload_channels(entry.fh)
                for channel in channels:
                    yield from channel.upload(entry.fh)
                self.stats.replicated_uploads += max(len(channels) - 1, 0)
            else:
                yield from self.channel.upload(entry.fh)

    def crash(self) -> None:
        for gate in self.fetching.values():
            if not gate.triggered:
                gate.succeed()
        self.fetching.clear()
        gate, self._upload_gate = self._upload_gate, None
        if gate is not None and not gate.triggered:
            gate.succeed()
        # Whole-file cache state (and any dirty entries) dies with the
        # process; the journal covers block-cache writes only.
        self.file_cache.crash()

    def quiesce(self) -> Generator:
        while self.fetching:
            fh = next(iter(self.fetching))
            yield self.fetching[fh]

    def invalidate_guard(self) -> Optional[str]:
        if self.fetching:
            return "invalidate with file fetches in flight; quiesce first"
        return None

    def invalidate(self) -> None:
        self.file_cache.clear()

    def dirty_files(self) -> int:
        return len(self.file_cache.dirty_entries())

    def reset(self) -> None:
        super().reset()
        self.channel.reset_stats()
