"""Application access profiling and profile-driven prefetch.

§3.2.2: "Grid middleware should be able to accumulate knowledge for
applications from their past behaviors and make intelligent decisions
based on the knowledge", and §6 names "dynamic profiling of application
data access behavior to support pre-fetching and high-bandwidth
transfers of large data blocks in a selective manner" as future work.

This module implements that loop:

* :class:`AccessProfiler` observes the READ stream at a proxy and
  records the ordered set of blocks a session touched (the
  application's working set, in first-touch order);
* :class:`ApplicationKnowledgeBase` persists profiles per application
  name (the middleware's accumulated knowledge), with serialization so
  profiles survive across sessions;
* :class:`Prefetcher` replays a profile into a fresh session's proxy
  block cache with configurable concurrency — batched, pipelined
  fetches instead of the demand-paged one-block-per-round-trip pattern,
  hiding WAN latency before the application starts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from repro.nfs.protocol import FileHandle, NfsProc, NfsRequest
from repro.sim import AllOf, Environment

__all__ = ["AccessProfile", "AccessProfiler", "ApplicationKnowledgeBase",
           "Prefetcher", "format_pipeline_report"]

_MAGIC = "GVFS-PROFILE-1"


@dataclass(frozen=True)
class AccessProfile:
    """Ordered first-touch block trace of one application run.

    Blocks are keyed ``(fsid, fileid, block_index)``: file ids are
    stable properties of the image on its server, so a profile recorded
    in one session addresses the same data in the next.
    """

    application: str
    blocks: Tuple[Tuple[str, int, int], ...]
    block_size: int = 8192

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def bytes_covered(self) -> int:
        return len(self.blocks) * self.block_size

    def to_bytes(self) -> bytes:
        doc = {"application": self.application,
               "block_size": self.block_size,
               "blocks": [list(b) for b in self.blocks]}
        return (_MAGIC + "\n" + json.dumps(doc, separators=(",", ":"))).encode()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "AccessProfile":
        text = raw.decode()
        magic, _, body = text.partition("\n")
        if magic != _MAGIC:
            raise ValueError(f"bad profile magic: {magic!r}")
        doc = json.loads(body)
        return cls(application=doc["application"],
                   blocks=tuple((b[0], b[1], b[2]) for b in doc["blocks"]),
                   block_size=doc["block_size"])


class AccessProfiler:
    """Records the READ stream observed at one proxy."""

    def __init__(self, application: str, block_size: int = 8192):
        self.application = application
        self.block_size = block_size
        self._seen: set = set()
        self._order: List[Tuple[str, int, int]] = []
        self.recording = True

    def observe(self, request: NfsRequest) -> None:
        """Proxy read-observer hook (attach via proxy.read_observers)."""
        if not self.recording or request.proc is not NfsProc.READ:
            return
        fh = request.fh
        first = request.offset // self.block_size
        last = (max(request.offset + request.count - 1, request.offset)
                // self.block_size)
        for idx in range(first, last + 1):
            key = (fh.fsid, fh.fileid, idx)
            if key not in self._seen:
                self._seen.add(key)
                self._order.append(key)

    def stop(self) -> AccessProfile:
        """Finish recording; returns the accumulated profile."""
        self.recording = False
        return AccessProfile(application=self.application,
                             blocks=tuple(self._order),
                             block_size=self.block_size)


class ApplicationKnowledgeBase:
    """Middleware's per-application profile store."""

    def __init__(self):
        self._profiles: Dict[str, AccessProfile] = {}

    def remember(self, profile: AccessProfile) -> None:
        self._profiles[profile.application] = profile

    def recall(self, application: str) -> Optional[AccessProfile]:
        return self._profiles.get(application)

    def applications(self) -> List[str]:
        return sorted(self._profiles)

    # Profiles can round-trip through files (e.g. stored on the image
    # server next to the application's image).
    def export(self, application: str) -> bytes:
        return self._profiles[application].to_bytes()

    def import_profile(self, raw: bytes) -> AccessProfile:
        profile = AccessProfile.from_bytes(raw)
        self.remember(profile)
        return profile


class Prefetcher:
    """Replays a profile into a proxy's block cache ahead of execution.

    Issues upstream READs with ``concurrency`` requests in flight —
    the "high-bandwidth transfers of large data blocks in a selective
    manner" of §6 — and installs each reply in the proxy block cache so
    the application's demand reads hit locally.
    """

    def __init__(self, env: Environment, proxy, concurrency: int = 8):
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if proxy.block_cache is None:
            raise ValueError("prefetch requires a proxy block cache")
        self.env = env
        self.proxy = proxy
        self.concurrency = concurrency
        # Statistics
        self.blocks_fetched = 0
        self.blocks_skipped = 0

    def _fetch_one(self, fh: FileHandle, index: int,
                   block_size: int) -> Generator:
        self.proxy.layer("readahead").register_prefetch((fh, index))
        reply = yield from self.proxy.upstream.call(NfsRequest(
            NfsProc.READ, fh=fh, offset=index * block_size,
            count=block_size,
            credentials=self.proxy.config.identity or (0, 0)))
        if reply.ok and reply.data:
            victim = yield from self.proxy.block_cache.insert(
                (fh, index), reply.data, dirty=False)
            if victim is not None:
                yield from self.proxy.layer("block-cache").dispose_victim(
                    victim)
            self.blocks_fetched += 1
        else:
            readahead = self.proxy.layer("readahead")
            readahead.stats.prefetch_failed += 1
            readahead.forget_prefetch((fh, index))
            self.blocks_skipped += 1

    def prefetch(self, profile: AccessProfile) -> Generator:
        """Process: pull every profiled block into the block cache."""
        pending: List[Tuple[FileHandle, int]] = []
        for fsid, fileid, index in profile.blocks:
            key = (FileHandle(fsid, fileid), index)
            cached = self.proxy.block_cache._where.get(key)
            if cached is not None:
                self.blocks_skipped += 1
                continue
            pending.append(key)
        for start in range(0, len(pending), self.concurrency):
            batch = pending[start:start + self.concurrency]
            jobs = [self.env.process(self._fetch_one(
                fh, index, profile.block_size)) for fh, index in batch]
            yield AllOf(self.env, jobs)


def format_pipeline_report(proxy) -> str:
    """Human-readable summary of a proxy's pipelined-I/O counters.

    Covers prefetch accuracy (readahead + profile replays), miss
    coalescing, and write coalescing — the middleware's view of whether
    the pipelined path is earning its keep for this session.
    """
    ahead = proxy.layer("readahead").stats
    blocks = proxy.layer("block-cache").stats
    lines = [
        f"pipelined I/O — {proxy.config.name}",
        f"  readahead windows : {ahead.readahead_windows}",
        f"  prefetch issued   : {ahead.prefetch_issued}",
        f"  prefetch used     : {ahead.prefetch_used}",
        f"  prefetch failed   : {ahead.prefetch_failed}",
        f"  prefetch wasted   : {ahead.prefetch_wasted}",
        f"  prefetch accuracy : {ahead.prefetch_accuracy:.1%}",
        f"  coalesced misses  : {blocks.coalesced_misses}",
        f"  merged WRITE rpcs : {blocks.merged_write_rpcs}"
        f" ({blocks.merged_write_blocks} blocks)",
    ]
    return "\n".join(lines)
