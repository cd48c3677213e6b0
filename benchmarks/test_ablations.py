"""Ablations of the design choices DESIGN.md calls out.

Each ablation switches one GVFS mechanism off (or sweeps one knob) and
measures the consequence on a focused micro-experiment, confirming that
every mechanism the paper proposes actually carries its weight in this
reproduction:

* write-back vs write-through proxy cache policy;
* zero-map metadata on/off for a memory-state resume;
* the whole-file channel vs block-by-block fetch of the memory state;
* SSH tunnel cipher overhead on/off;
* proxy cache block size sweep (up to the 32 KB protocol limit).
"""

import pytest
from conftest import once

from repro.core.config import CachePolicy, ProxyCacheConfig
from repro.core.metadata import generate_metadata, metadata_path_for
from repro.core.session import GvfsSession, Scenario, ServerEndpoint
from repro.net.topology import Testbed, make_paper_testbed
from repro.sim import Environment
from repro.vm.image import VmConfig, VmImage
from repro.vm.monitor import VmMonitor

MB = 1024 * 1024
SMALL_CACHE = ProxyCacheConfig(capacity_bytes=64 * MB, n_banks=32,
                               associativity=4)


def build_rig(metadata=True, policy=CachePolicy.WRITE_BACK,
              image_mb=8, block_size=8192, zero_map=True,
              file_channel=True):
    testbed = make_paper_testbed()
    endpoint = ServerEndpoint(testbed.env, testbed.wan_server)
    image = VmImage.create(endpoint.export.fs, "/images/g",
                           VmConfig(name="g", memory_mb=image_mb,
                                    disk_gb=0.01, seed=77))
    if metadata:
        from repro.core.metadata import FILE_CHANNEL_ACTIONS
        generate_metadata(endpoint.export.fs, image.memory_path,
                          actions=FILE_CHANNEL_ACTIONS if file_channel else [],
                          include_zero_map=zero_map)
    cache = ProxyCacheConfig(capacity_bytes=64 * MB, n_banks=32,
                             associativity=4, block_size=block_size,
                             policy=policy)
    session = GvfsSession.build(testbed, Scenario.WAN_CACHED,
                                endpoint=endpoint, cache_config=cache,
                                metadata=metadata)
    return testbed, endpoint, image, session


def drive(testbed, gen):
    box = {}

    def wrapper(env):
        box["value"] = yield env.process(gen)
        box["t"] = env.now

    testbed.env.process(wrapper(testbed.env))
    testbed.env.run()
    return box.get("value"), box["t"]


def timed_resume(**kwargs):
    testbed, endpoint, image, session = build_rig(**kwargs)
    monitor = VmMonitor(testbed.env, testbed.compute[0])

    def job(env):
        t0 = env.now
        yield env.process(monitor.resume(session.mount, "/images/g"))
        return env.now - t0

    value, _ = drive(testbed, job(testbed.env))
    return value, session


def timed_burst_write(policy, nbytes=4 * MB):
    testbed, endpoint, image, session = build_rig(metadata=False,
                                                  policy=policy)

    def job(env):
        f = yield env.process(session.mount.create("/images/g/out.dat"))
        t0 = env.now
        yield env.process(f.write_sync(0, b"w" * nbytes))
        wrote = env.now - t0
        yield env.process(session.flush())
        return wrote

    value, _ = drive(testbed, job(testbed.env))
    return value


def test_ablation_write_policy(benchmark, save_table):
    box = {}

    def run_all():
        box["write_back"] = timed_burst_write(CachePolicy.WRITE_BACK)
        box["write_through"] = timed_burst_write(CachePolicy.WRITE_THROUGH)

    once(benchmark, run_all)
    table = "\n".join([
        "Ablation: proxy cache write policy (4 MB synchronous burst, WAN)",
        f"  write-back   : {box['write_back']:8.2f} s (absorbed locally)",
        f"  write-through: {box['write_through']:8.2f} s (every block pays "
        "the WAN)",
        f"  ratio        : {box['write_through'] / box['write_back']:8.1f}x",
    ])
    save_table("ablation_write_policy", table)
    assert box["write_back"] < box["write_through"] / 10


def test_ablation_zero_map_and_channel(benchmark, save_table):
    box = {}

    def run_all():
        box["full"], _ = timed_resume()                        # both on
        box["no_zero"], _ = timed_resume(zero_map=False)       # channel only
        box["no_channel"], _ = timed_resume(file_channel=False)  # zeros only
        box["none"], _ = timed_resume(metadata=False)          # block path

    once(benchmark, run_all)
    table = "\n".join([
        "Ablation: meta-data handling on an 8 MB memory-state resume (WAN)",
        f"  zero map + file channel : {box['full']:8.2f} s",
        f"  file channel only       : {box['no_zero']:8.2f} s",
        f"  zero map only           : {box['no_channel']:8.2f} s",
        f"  no meta-data (blocks)   : {box['none']:8.2f} s",
    ])
    save_table("ablation_metadata", table)
    # Every mechanism beats the bare block path; zero map is the big
    # win for a zero-rich image; combining them is never worse than
    # the channel alone.
    assert box["full"] < box["none"]
    assert box["no_channel"] < box["none"]
    assert box["full"] <= box["no_zero"] * 1.05


def test_ablation_tunnel_cipher(benchmark, save_table):
    """Cipher CPU on the RPC path: visible but second-order on the WAN."""
    from repro.net.ssh import SshTunnel

    box = {}

    def run_with_cipher(cipher_bps):
        testbed, endpoint, image, session = build_rig(metadata=False,
                                                      image_mb=4)
        # Rewire the session's tunnels with the ablated cipher rate.
        rpc = session.client_proxy.upstream
        rpc.out.cipher_bps = cipher_bps
        rpc.back.cipher_bps = cipher_bps
        monitor = VmMonitor(testbed.env, testbed.compute[0])

        def job(env):
            t0 = env.now
            yield env.process(monitor.resume(session.mount, "/images/g"))
            return env.now - t0

        value, _ = drive(testbed, job(testbed.env))
        return value

    def run_all():
        box["era_cipher"] = run_with_cipher(35e6)
        box["free_cipher"] = run_with_cipher(1e15)

    once(benchmark, run_all)
    table = "\n".join([
        "Ablation: SSH tunnel cipher cost (4 MB block-path resume, WAN)",
        f"  35 MB/s cipher (era)  : {box['era_cipher']:8.2f} s",
        f"  free cipher           : {box['free_cipher']:8.2f} s",
        f"  cipher overhead       : "
        f"{box['era_cipher'] / box['free_cipher'] - 1:8.1%}",
    ])
    save_table("ablation_cipher", table)
    assert box["free_cipher"] < box["era_cipher"]
    # On a 38 ms RTT path the cipher is a small fraction of each call.
    assert box["era_cipher"] < box["free_cipher"] * 1.2


def test_ablation_cache_block_size(benchmark, save_table):
    """Bigger frames amortize round trips on sequential access, up to
    the NFS protocol limit of 32 KB (§3.2.1)."""
    box = {}

    def resume_with_block(bs):
        # Client rsize follows the proxy frame size so requests align.
        from repro.nfs.client import MountOptions
        testbed = make_paper_testbed()
        endpoint = ServerEndpoint(testbed.env, testbed.wan_server)
        VmImage.create(endpoint.export.fs, "/images/g",
                       VmConfig(name="g", memory_mb=4, disk_gb=0.01,
                                seed=78))
        cache = ProxyCacheConfig(capacity_bytes=64 * MB, n_banks=32,
                                 associativity=4, block_size=bs)
        session = GvfsSession.build(
            testbed, Scenario.WAN_CACHED, endpoint=endpoint,
            cache_config=cache, metadata=False,
            mount_options=MountOptions(block_size=bs))
        monitor = VmMonitor(testbed.env, testbed.compute[0], block_size=bs)

        def job(env):
            t0 = env.now
            yield env.process(monitor.resume(session.mount, "/images/g"))
            return env.now - t0

        value, _ = drive(testbed, job(testbed.env))
        return value

    def run_all():
        for bs in (4096, 8192, 16384, 32768):
            box[bs] = resume_with_block(bs)

    once(benchmark, run_all)
    rows = [f"  {bs // 1024:>3} KB blocks: {box[bs]:8.2f} s"
            for bs in sorted(box)]
    save_table("ablation_block_size", "\n".join(
        ["Ablation: proxy/mount block size (4 MB block-path resume, WAN)",
         *rows]))
    assert box[32768] < box[4096] / 2  # fewer round trips win


def test_ablation_cache_capacity_and_associativity(benchmark, save_table):
    """Cache geometry under a working set larger than a small cache:
    capacity misses reappear exactly as §3.2.1 predicts ('the large
    storage capacity of disks implies great reduction on capacity and
    conflict misses'); higher associativity mitigates conflicts."""
    from repro.nfs.client import MountOptions

    WORKING_SET_BLOCKS = 1024            # 8 MB touched twice

    def hit_rate(capacity_bytes, associativity):
        testbed = make_paper_testbed()
        endpoint = ServerEndpoint(testbed.env, testbed.wan_server)
        VmImage.create(endpoint.export.fs, "/images/g",
                       VmConfig(name="g", memory_mb=4, disk_gb=0.05,
                                seed=79))
        cache = ProxyCacheConfig(capacity_bytes=capacity_bytes, n_banks=8,
                                 associativity=associativity,
                                 block_size=8192)
        session = GvfsSession.build(
            testbed, Scenario.WAN_CACHED, endpoint=endpoint,
            cache_config=cache, metadata=False,
            mount_options=MountOptions(cache_bytes=1 << 20))  # tiny kernel cache

        def job(env):
            f = yield env.process(session.mount.open("/images/g/disk.vmdk"))
            for sweep in range(2):
                for b in range(WORKING_SET_BLOCKS):
                    yield env.process(f.read(b * 8192, 8192))

        def driver(env):
            yield env.process(job(env))

        testbed.env.process(driver(testbed.env))
        testbed.env.run()
        return session.client_proxy.layer("block-cache").hit_ratio

    box = {}

    def run_all():
        box["small-1way"] = hit_rate(4 * 1024 * 1024, 1)     # half the set
        box["small-16way"] = hit_rate(4 * 1024 * 1024, 16)
        box["big-1way"] = hit_rate(64 * 1024 * 1024, 1)
        box["big-16way"] = hit_rate(64 * 1024 * 1024, 16)

    once(benchmark, run_all)
    table = "\n".join([
        "Ablation: proxy cache capacity x associativity "
        "(8 MB set, 2 sweeps, hit rate)",
        f"   4 MB,  direct-mapped: {box['small-1way']:7.1%}",
        f"   4 MB, 16-way        : {box['small-16way']:7.1%}",
        f"  64 MB,  direct-mapped: {box['big-1way']:7.1%}",
        f"  64 MB, 16-way        : {box['big-16way']:7.1%}",
        "(an undersized LRU cache thrashes on cyclic sweeps — the",
        " textbook pathology — which is why §3.2.1 leans on disk-sized",
        " capacity rather than cleverness to kill capacity misses)",
    ])
    save_table("ablation_capacity", table)
    # Capacity dominates: a cache bigger than the working set serves
    # the whole second sweep; an undersized one cannot, at any
    # associativity (cyclic sweeps are LRU's worst case).
    assert box["big-16way"] > 0.45
    assert box["big-1way"] > 0.45
    assert box["small-16way"] < 0.1
    assert box["small-1way"] < 0.2
