"""Configuration of GVFS proxies and their caches.

The paper stresses that proxies are created *per user / per
application* and can therefore carry customized policies (§3.2.1):
cache size, write policy, block size, associativity.  These dataclasses
are those knobs; middleware builds one per session.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.nfs.protocol import NFS_BLOCK_SIZE, NFS_MAX_BLOCK_SIZE

__all__ = ["CachePolicy", "ProxyCacheConfig", "ProxyConfig"]


class CachePolicy(enum.Enum):
    """Write policy of a proxy disk cache."""

    WRITE_BACK = "write-back"
    WRITE_THROUGH = "write-through"


@dataclass(frozen=True)
class ProxyCacheConfig:
    """Geometry and policy of one proxy block cache.

    Defaults mirror §4.1: "512 file banks which are 16-way associative,
    and has a capacity of 8 GBytes".
    """

    capacity_bytes: int = 8 * 1024 * 1024 * 1024
    n_banks: int = 512
    associativity: int = 16
    block_size: int = NFS_BLOCK_SIZE
    policy: CachePolicy = CachePolicy.WRITE_BACK
    #: Keep a persistent dirty-frame journal alongside the bank files so
    #: a crashed proxy can recover its write-back dirty set (off by
    #: default: journal appends cost disk time on every dirty write).
    journal: bool = False

    def __post_init__(self):
        if self.block_size <= 0 or self.block_size > NFS_MAX_BLOCK_SIZE:
            raise ValueError(
                f"block_size must be in (0, {NFS_MAX_BLOCK_SIZE}], "
                f"got {self.block_size} (NFS protocol limit, §3.2.1)")
        if self.n_banks < 1 or self.associativity < 1:
            raise ValueError("n_banks and associativity must be >= 1")
        if self.capacity_bytes < self.n_banks * self.associativity * self.block_size:
            raise ValueError("capacity too small for one set per bank")

    @property
    def total_frames(self) -> int:
        return self.capacity_bytes // self.block_size

    @property
    def frames_per_bank(self) -> int:
        return max(self.total_frames // self.n_banks, self.associativity)

    @property
    def sets_per_bank(self) -> int:
        return max(self.frames_per_bank // self.associativity, 1)


@dataclass(frozen=True)
class ProxyConfig:
    """Behaviour of one GVFS proxy."""

    name: str = "gvfs-proxy"
    #: Attach a block cache with this geometry (None = forwarding only).
    cache: Optional[ProxyCacheConfig] = None
    #: Enable meta-data handling (zero maps + file channel).
    metadata: bool = True
    #: Map incoming credentials to this local identity (server-side
    #: proxies allocate short-lived logical-user accounts, §3.1).
    identity: Optional[Tuple[int, int]] = None
    #: Absorb client COMMITs when write-back caching (the middleware,
    #: not the kernel client, decides when data reaches the server).
    absorb_commits: bool = True
    #: Pipelined I/O — sequential readahead: how many blocks ahead of
    #: the reader the window *speculates*, beyond the evidence.  A run
    #: length the file handle's own history vouches for is fetched
    #: whole whatever this says (``core/layers/readahead.py``); with no
    #: history, or past it, this is the window.  0 disables readahead,
    #: history and all.
    readahead_depth: int = 8
    #: Evidence of a sequential reader the detector asks for before it
    #: prefetches: a run of this many adjacent blocks — the current
    #: one, or, from its first miss, the one the history vouches for.
    readahead_min_run: int = 2
    #: Pipelined I/O — coalesced write-back: maximum bytes merged into
    #: one upstream WRITE RPC when flushing adjacent dirty blocks
    #: (values at or below the cache block size mean one RPC per block).
    write_coalesce_bytes: int = 64 * 1024
    #: Concurrent upstream write-back RPCs in flight during a flush.
    write_pipeline_depth: int = 4
    #: Maximum dirty blocks held in the write-back cache before new
    #: writes force synchronous write-back (or, with the upstream down,
    #: are rejected) — bounds data loss exposure.  0 disables the limit.
    dirty_high_water_blocks: int = 0

    def __post_init__(self):
        if self.readahead_depth < 0:
            raise ValueError("readahead_depth must be >= 0")
        if self.readahead_min_run < 1:
            raise ValueError("readahead_min_run must be >= 1")
        if self.write_coalesce_bytes < 0:
            raise ValueError("write_coalesce_bytes must be >= 0")
        if self.write_pipeline_depth < 1:
            raise ValueError("write_pipeline_depth must be >= 1")
        if self.dirty_high_water_blocks < 0:
            raise ValueError("dirty_high_water_blocks must be >= 0")

