"""Pipelined proxy I/O benchmark: readahead sweep + coalesced flush.

Two measurements of the demand-path pipelining inside
:class:`~repro.core.proxy.GvfsProxy`:

* **Cold sequential WAN read sweep** — a fresh WAN+C session streams a
  file through the proxy at readahead depths {0, 1, 4, 8, 16}.  Depth 0
  is the pre-pipelining behaviour (one synchronous upstream RPC per
  block-cache miss); deeper windows overlap WAN round trips with client
  consumption.
* **Coalesced flush** — a dirty file in the proxy's write-back cache is
  flushed upstream per-block (the legacy path: one WRITE RPC per 8 KB
  block, serial) and with run coalescing (adjacent dirty blocks merged
  into large WRITEs, pipelined).

Both are deterministic discrete-event runs; the numbers feed
``results/pipelined_io.txt``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Sequence

from repro.core.config import ProxyCacheConfig, ProxyConfig
from repro.core.session import GvfsSession, Scenario, ServerEndpoint
from repro.net.topology import make_paper_testbed
from repro.vm.image import VmConfig, VmImage

__all__ = ["FlushComparison", "ReadPoint", "format_pipelined_io",
           "run_flush_comparison", "run_read_sweep"]

MB = 1024 * 1024
BS = 8192

#: Roomy geometry so neither measurement is perturbed by evictions
#: (a 32 MB dirty file is 4096 blocks; 128 MB / 8-way holds it easily).
BENCH_CACHE = ProxyCacheConfig(capacity_bytes=128 * MB, n_banks=32,
                               associativity=8)


@dataclass(frozen=True)
class ReadPoint:
    """One depth of the cold sequential read sweep."""

    depth: int
    seconds: float
    prefetch_issued: int
    prefetch_used: int
    prefetch_accuracy: float
    coalesced_misses: int


@dataclass(frozen=True)
class FlushComparison:
    """Per-block vs coalesced write-back of one dirty file."""

    file_mb: int
    per_block_rpcs: int
    per_block_seconds: float
    coalesced_rpcs: int
    coalesced_seconds: float
    merged_write_blocks: int


def _build(proxy_config: ProxyConfig, image_mb: int = 48, seed: int = 17):
    testbed = make_paper_testbed()
    endpoint = ServerEndpoint(testbed.env, testbed.wan_server)
    VmImage.create(endpoint.export.fs, "/images/app",
                   VmConfig(name="app", memory_mb=image_mb, disk_gb=0.25,
                            persistent=False, seed=seed))
    session = GvfsSession.build(testbed, Scenario.WAN_CACHED,
                                endpoint=endpoint, cache_config=BENCH_CACHE,
                                metadata=False, proxy_config=proxy_config)
    return testbed, session


def _drive(testbed, gen: Generator):
    box = {}

    def wrapper(env):
        box["value"] = yield env.process(gen)

    testbed.env.process(wrapper(testbed.env))
    testbed.env.run()
    return box["value"]


def run_read_sweep(depths: Sequence[int] = (0, 1, 4, 8, 16),
                   read_mb: int = 8) -> Dict[int, ReadPoint]:
    """Cold sequential WAN read of ``read_mb`` MB at each readahead depth."""
    n_blocks = read_mb * MB // BS
    results: Dict[int, ReadPoint] = {}
    for depth in depths:
        testbed, session = _build(ProxyConfig(readahead_depth=depth))

        def job(env):
            f = yield env.process(
                session.mount.open("/images/app/disk.vmdk"))
            # Measure the stream, not the open.
            session.client_proxy.block_cache.reset_stats()
            t0 = env.now
            for b in range(n_blocks):
                yield env.process(f.read(b * BS, BS))
            return env.now - t0

        seconds = _drive(testbed, job(testbed.env))
        ahead = session.client_proxy.layer("readahead").stats
        blocks = session.client_proxy.layer("block-cache").stats
        results[depth] = ReadPoint(depth=depth, seconds=seconds,
                                   prefetch_issued=ahead.prefetch_issued,
                                   prefetch_used=ahead.prefetch_used,
                                   prefetch_accuracy=ahead.prefetch_accuracy,
                                   coalesced_misses=blocks.coalesced_misses)
    return results


def _flush_once(file_mb: int, coalesce_bytes: int,
                pipeline_depth: int):
    """Dirty ``file_mb`` MB in the proxy cache, flush it, count WRITEs."""
    testbed, session = _build(ProxyConfig(
        write_coalesce_bytes=coalesce_bytes,
        write_pipeline_depth=pipeline_depth))
    proxy = session.client_proxy

    def job(env):
        f = yield env.process(session.mount.create("/images/app/scratch"))
        chunk = b"\xa5" * MB
        for i in range(file_mb):
            yield env.process(f.write(i * MB, chunk))
        # Drain the kernel client's staged writes into the proxy cache
        # (absorbed there: write-back policy, COMMITs absorbed).
        yield env.process(session.mount.flush_all())
        proxy.block_cache.reset_stats()   # staging was warm-up
        before = proxy.upstream.stats.by_proc.get("WRITE", 0)
        t0 = env.now
        yield env.process(proxy.flush())
        return proxy.upstream.stats.by_proc.get("WRITE", 0) - before, \
            env.now - t0

    return (_drive(testbed, job(testbed.env)),
            proxy.layer("block-cache").stats)


def run_flush_comparison(file_mb: int = 32,
                         coalesce_bytes: int = 64 * 1024,
                         pipeline_depth: int = 4) -> FlushComparison:
    """Flush one dirty file per-block (legacy) and coalesced."""
    (pb_rpcs, pb_seconds), _ = _flush_once(file_mb, coalesce_bytes=0,
                                           pipeline_depth=1)
    (co_rpcs, co_seconds), stats = _flush_once(file_mb, coalesce_bytes,
                                               pipeline_depth=pipeline_depth)
    return FlushComparison(file_mb=file_mb,
                           per_block_rpcs=pb_rpcs,
                           per_block_seconds=pb_seconds,
                           coalesced_rpcs=co_rpcs,
                           coalesced_seconds=co_seconds,
                           merged_write_blocks=stats.merged_write_blocks)


def format_pipelined_io(reads: Dict[int, ReadPoint],
                        flush: FlushComparison) -> str:
    """Render both measurements as the archived results table."""
    base = reads[min(reads)]
    lines = [
        "Extension: pipelined proxy I/O (WAN+C, cold caches)",
        "",
        "Sequential readahead — 8 MB cold sequential read:",
        "  depth   time(s)  speedup  issued  used  accuracy  coalesced",
    ]
    for depth in sorted(reads):
        p = reads[depth]
        lines.append(
            f"  {depth:5d}  {p.seconds:8.1f}  "
            f"{base.seconds / p.seconds:6.1f}x  {p.prefetch_issued:6d}  "
            f"{p.prefetch_used:4d}  {p.prefetch_accuracy:7.1%}  "
            f"{p.coalesced_misses:9d}")
    lines += [
        "",
        f"Coalesced write-back — flush of a dirty {flush.file_mb} MB file:",
        f"  per-block (legacy) : {flush.per_block_rpcs:5d} WRITE RPCs, "
        f"{flush.per_block_seconds:7.1f} s",
        f"  coalesced+pipelined: {flush.coalesced_rpcs:5d} WRITE RPCs, "
        f"{flush.coalesced_seconds:7.1f} s",
        f"  RPC reduction      : "
        f"{1 - flush.coalesced_rpcs / flush.per_block_rpcs:6.1%} "
        f"({flush.merged_write_blocks} blocks carried)",
    ]
    return "\n".join(lines)
