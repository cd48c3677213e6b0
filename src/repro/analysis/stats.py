"""Small statistics helpers used by experiments and reports.

Nothing exotic — means, speedups, overhead percentages, and a compact
session-statistics collector that aggregates the counters scattered
across a GVFS chain (mount, proxies, caches, channels) into one record
the middleware (or a benchmark) can print.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["SessionStats", "collect_session_stats", "geometric_mean",
           "overhead", "speedup"]


def speedup(baseline: float, improved: float) -> float:
    """How many times faster ``improved`` is than ``baseline``."""
    if improved <= 0:
        raise ValueError("improved time must be positive")
    return baseline / improved


def overhead(baseline: float, measured: float) -> float:
    """Fractional overhead of ``measured`` relative to ``baseline``."""
    if baseline <= 0:
        raise ValueError("baseline time must be positive")
    return measured / baseline - 1.0


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (the right average for ratios/speedups)."""
    if not values:
        raise ValueError("empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


@dataclass
class SessionStats:
    """Aggregated counters of one GVFS session."""

    rpc_calls: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    buffer_cache_hits: int = 0
    buffer_cache_misses: int = 0
    zero_filtered_reads: int = 0
    block_cache_hits: int = 0
    block_cache_misses: int = 0
    file_cache_reads: int = 0
    absorbed_writes: int = 0
    writebacks: int = 0
    channel_fetches: int = 0
    channel_bytes_on_wire: int = 0
    channel_bytes_logical: int = 0

    @property
    def buffer_cache_hit_rate(self) -> float:
        total = self.buffer_cache_hits + self.buffer_cache_misses
        return self.buffer_cache_hits / total if total else 0.0

    @property
    def block_cache_hit_rate(self) -> float:
        total = self.block_cache_hits + self.block_cache_misses
        return self.block_cache_hits / total if total else 0.0

    @property
    def channel_compression_ratio(self) -> float:
        if not self.channel_bytes_logical:
            return 1.0
        return self.channel_bytes_on_wire / self.channel_bytes_logical

    def summary(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"RPC calls            : {self.rpc_calls}",
            f"wire bytes (tx/rx)   : {self.bytes_sent} / {self.bytes_received}",
            f"buffer cache hit rate: {self.buffer_cache_hit_rate:.1%}",
            f"block cache hit rate : {self.block_cache_hit_rate:.1%}",
            f"zero-filtered reads  : {self.zero_filtered_reads}",
            f"file-cache reads     : {self.file_cache_reads}",
            f"absorbed writes      : {self.absorbed_writes}",
            f"write-backs upstream : {self.writebacks}",
            f"channel fetches      : {self.channel_fetches} "
            f"(wire/logical ratio {self.channel_compression_ratio:.2f})",
        ]
        return "\n".join(lines)


def collect_session_stats(session) -> SessionStats:
    """Aggregate a :class:`~repro.core.session.GvfsSession`'s counters."""
    stats = SessionStats()
    mount = getattr(session, "mount", None)
    if mount is not None and hasattr(mount, "rpc"):
        stats.rpc_calls = mount.rpc.stats.calls
        stats.bytes_sent = mount.rpc.stats.bytes_sent
        stats.bytes_received = mount.rpc.stats.bytes_received
        stats.buffer_cache_hits = mount.cache.hits
        stats.buffer_cache_misses = mount.cache.misses
    proxy = getattr(session, "client_proxy", None)
    if proxy is not None:
        # Each counter from the layer that owns it; a layer this stack
        # does not compose counts nothing.
        layers = proxy.stats_snapshot()
        blocks = layers.get("block-cache", {})
        channel = layers.get("file-channel", {})
        stats.zero_filtered_reads = layers.get("metadata", {}).get(
            "zero_filtered_reads", 0)
        stats.block_cache_hits = blocks.get("block_cache_hits", 0)
        stats.block_cache_misses = blocks.get("block_cache_misses", 0)
        stats.file_cache_reads = channel.get("file_cache_reads", 0)
        # Two owners: whole files kept in the file cache, blocks kept in
        # the write-back block cache.
        stats.absorbed_writes = (channel.get("absorbed_writes", 0)
                                 + blocks.get("absorbed_writes", 0))
        stats.writebacks = blocks.get("writebacks", 0)
        stats.channel_fetches = channel.get("channel_fetches", 0)
        if proxy.channel is not None:
            stats.channel_bytes_on_wire = proxy.channel.bytes_on_wire
            stats.channel_bytes_logical = proxy.channel.bytes_logical
    return stats
