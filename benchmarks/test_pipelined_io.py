"""Pipelined proxy I/O benchmark: readahead depth sweep + coalesced
write-back, archived as ``results/pipelined_io.txt``.

Sweeps the proxy's sequential-readahead depth over a cold 8 MB WAN read
(depth 0 is the pre-pipelining demand path: one synchronous upstream
RPC per block-cache miss) and flushes a dirty 32 MB file from the
proxy's write-back cache both per-block (one serial 8 KB WRITE per
block) and with run coalescing (adjacent dirty blocks merged into large
WRITEs, several in flight).
"""

from dataclasses import replace

from conftest import once

from repro.core.config import ProxyCacheConfig, ProxyConfig
from repro.core.session import GvfsSession, Scenario, ServerEndpoint
from repro.net.topology import make_paper_testbed
from repro.vm.image import VmConfig, VmImage

MB = 1024 * 1024
BS = 8192
DEPTHS = (0, 1, 4, 8, 16)
READ_MB = 8
FLUSH_MB = 32

#: Roomy geometry so neither measurement is perturbed by evictions
#: (a 32 MB dirty file is 4096 blocks; 128 MB / 8-way holds it easily).
BENCH_CACHE = ProxyCacheConfig(capacity_bytes=128 * MB, n_banks=32,
                               associativity=8)


def run_job(proxy_config, job):
    """Run ``job(env, session)`` on a fresh WAN+C session; returns
    ``(job's value, session)``."""
    testbed = make_paper_testbed()
    endpoint = ServerEndpoint(testbed.env, testbed.wan_server)
    VmImage.create(endpoint.export.fs, "/images/app",
                   VmConfig(name="app", memory_mb=48, disk_gb=0.25,
                            persistent=False, seed=17))
    session = GvfsSession.build(testbed, Scenario.WAN_CACHED,
                                endpoint=endpoint, cache_config=BENCH_CACHE,
                                proxy_config=replace(proxy_config,
                                                     metadata=False))
    box = {}

    def wrapper(env):
        box["value"] = yield env.process(job(env, session))

    testbed.env.process(wrapper(testbed.env))
    testbed.env.run()
    return box["value"], session


def cold_read(env, session):
    """Seconds to stream ``READ_MB`` MB sequentially, open excluded."""
    f = yield env.process(session.mount.open("/images/app/disk.vmdk"))
    session.client_proxy.block_cache.reset_stats()
    t0 = env.now
    for b in range(READ_MB * MB // BS):
        yield env.process(f.read(b * BS, BS))
    return env.now - t0


def dirty_flush(env, session):
    """``(WRITE RPCs, seconds)`` to flush a dirty ``FLUSH_MB`` MB file."""
    proxy = session.client_proxy
    f = yield env.process(session.mount.create("/images/app/scratch"))
    for i in range(FLUSH_MB):
        yield env.process(f.write(i * MB, b"\xa5" * MB))
    # Drain the kernel client's staged writes into the proxy cache
    # (absorbed there: write-back policy, COMMITs absorbed).
    yield env.process(session.mount.flush_all())
    proxy.block_cache.reset_stats()   # staging was warm-up
    before = proxy.upstream.stats.by_proc.get("WRITE", 0)
    t0 = env.now
    yield env.process(proxy.flush())
    return (proxy.upstream.stats.by_proc.get("WRITE", 0) - before,
            env.now - t0)


def test_pipelined_io(benchmark, save_table):
    box = {}

    def run_all():
        box["reads"] = {depth: run_job(ProxyConfig(readahead_depth=depth),
                                       cold_read)
                        for depth in DEPTHS}
        box["per_block"], _ = run_job(ProxyConfig(
            write_coalesce_bytes=0, write_pipeline_depth=1), dirty_flush)
        box["coalesced"], box["flushed"] = run_job(ProxyConfig(
            write_coalesce_bytes=64 * 1024, write_pipeline_depth=4),
            dirty_flush)

    once(benchmark, run_all)
    reads = box["reads"]
    base_seconds = reads[0][0]
    lines = [
        "Extension: pipelined proxy I/O (WAN+C, cold caches)",
        "",
        f"Sequential readahead — {READ_MB} MB cold sequential read:",
        "  depth   time(s)  speedup  issued  used  accuracy  coalesced",
    ]
    for depth, (seconds, session) in reads.items():
        ahead = session.client_proxy.layer("readahead").stats
        blocks = session.client_proxy.layer("block-cache").stats
        lines.append(
            f"  {depth:5d}  {seconds:8.1f}  "
            f"{base_seconds / seconds:6.1f}x  {ahead.prefetch_issued:6d}  "
            f"{ahead.prefetch_used:4d}  {ahead.prefetch_accuracy:7.1%}  "
            f"{blocks.coalesced_misses:9d}")
    (pb_rpcs, pb_seconds), (co_rpcs, co_seconds) = (box["per_block"],
                                                    box["coalesced"])
    merged = box["flushed"].client_proxy.layer(
        "block-cache").stats.merged_write_blocks
    lines += [
        "",
        f"Coalesced write-back — flush of a dirty {FLUSH_MB} MB file:",
        f"  per-block (legacy) : {pb_rpcs:5d} WRITE RPCs, "
        f"{pb_seconds:7.1f} s",
        f"  coalesced+pipelined: {co_rpcs:5d} WRITE RPCs, "
        f"{co_seconds:7.1f} s",
        f"  RPC reduction      : {1 - co_rpcs / pb_rpcs:6.1%} "
        f"({merged} blocks carried)",
    ]
    save_table("pipelined_io", "\n".join(lines))

    # Depth 8 must at least halve the cold sequential read time.
    seconds8, session8 = reads[8]
    ahead8 = session8.client_proxy.layer("readahead").stats
    assert seconds8 * 2 <= base_seconds
    assert ahead8.prefetch_used > 0
    assert ahead8.prefetch_accuracy > 0.8
    # Coalescing must cut the flush to under 25% of the per-block RPCs.
    assert co_rpcs * 4 < pb_rpcs
    assert co_seconds < pb_seconds
