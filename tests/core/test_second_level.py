"""Block-path tests for the second-level (LAN) caching proxy, and the
equivalence of ``build_cascade`` with the sessions it generalizes."""

import pytest

from repro.core.session import (
    GvfsSession,
    Scenario,
    ServerEndpoint,
    build_cascade,
)
from repro.net.topology import Testbed
from repro.sim import Environment
from repro.vm.image import VmConfig, VmImage
from tests.core.harness import SMALL_CACHE, ComposedSecondLevel


def make_rig(n_compute=2):
    testbed = Testbed(Environment(), n_compute=n_compute)
    endpoint = ServerEndpoint(testbed.env, testbed.wan_server)
    image = VmImage.create(endpoint.export.fs, "/images/golden",
                           VmConfig(name="golden", memory_mb=2, disk_gb=0.01,
                                    seed=47))
    second = build_cascade(testbed, endpoint, [SMALL_CACHE])[0]
    sessions = [GvfsSession.build(testbed, Scenario.WAN_CACHED,
                                  endpoint=endpoint, compute_index=i,
                                  cache_config=SMALL_CACHE, via=second)
                for i in range(n_compute)]
    return testbed, endpoint, image, second, sessions


def run(testbed, gen):
    box = {}

    def wrapper(env):
        box["value"] = yield env.process(gen)
        box["t"] = env.now

    testbed.env.process(wrapper(testbed.env))
    testbed.env.run()
    return box


def read_block(session, block):
    def gen(env):
        f = yield env.process(session.mount.open("/images/golden/disk.vmdk"))
        data = yield env.process(f.read(block * 8192, 8192))
        return data
    return gen


def test_lan_cache_fills_on_first_compute_miss():
    testbed, endpoint, image, second, sessions = make_rig()
    run(testbed, read_block(sessions[0], 0)(testbed.env))
    assert second.block_cache.cached_blocks >= 1
    assert sessions[0].client_proxy.block_cache.cached_blocks >= 1


def test_second_compute_node_hits_lan_not_wan():
    testbed, endpoint, image, second, sessions = make_rig()
    run(testbed, read_block(sessions[0], 0)(testbed.env))
    server_calls_before = endpoint.server.calls
    box = run(testbed, read_block(sessions[1], 0)(testbed.env))
    # compute1's miss was served by the LAN proxy's block cache: only
    # its own LOOKUP/GETATTR traffic reached the WAN server.
    assert second.proxy.layer("block-cache").stats.block_cache_hits >= 1
    reads_at_server = endpoint.server.calls - server_calls_before
    assert box["value"] == image.disk_inode.data.read(0, 8192)
    # No READ went to the origin for that block.
    assert second.proxy.upstream.stats.by_proc.get("READ", 0) == 1


def test_lan_hit_faster_than_wan_miss():
    testbed, endpoint, image, second, sessions = make_rig()
    cold = run(testbed, read_block(sessions[0], 3)(testbed.env))

    # Warm the LAN cache with a second block too.
    run(testbed, read_block(sessions[0], 5)(testbed.env))

    def timed(env):
        # The open-time LOOKUP walk and the proxy's one-time metadata
        # probe still cross the WAN; time a steady-state data read.
        f = yield env.process(sessions[1].mount.open(
            "/images/golden/disk.vmdk"))
        yield env.process(f.read(3 * 8192, 8192))  # pays the .gvfs probe
        t0 = env.now
        yield env.process(f.read(5 * 8192, 8192))
        return env.now - t0

    warm = run(testbed, timed(testbed.env))
    # The steady-state read pays LAN round trips only (~1 ms vs ~39 ms).
    assert warm["value"] < 0.01


def test_data_integrity_through_three_proxies():
    testbed, endpoint, image, second, sessions = make_rig()
    golden = image.disk_inode.data
    for block in (0, 5, 11):
        box = run(testbed, read_block(sessions[1], block)(testbed.env))
        assert box["value"] == golden.read(block * 8192, 8192)


# -- build_cascade is pure generalization: bit-identical equivalence --------

def _read_sequence(via_factory, n_compute=2):
    """Run a fixed cross-session read sequence against whatever
    ``via_factory(testbed, endpoint)`` interposes; return per-read
    (simulated time, bytes) pairs plus every proxy's stats snapshot."""
    testbed = Testbed(Environment(), n_compute=n_compute)
    endpoint = ServerEndpoint(testbed.env, testbed.wan_server)
    image = VmImage.create(endpoint.export.fs, "/images/golden",
                           VmConfig(name="golden", memory_mb=2, disk_gb=0.01,
                                    seed=47))
    via, levels = via_factory(testbed, endpoint)
    sessions = [GvfsSession.build(testbed, Scenario.WAN_CACHED,
                                  endpoint=endpoint, compute_index=i,
                                  cache_config=SMALL_CACHE, via=via)
                for i in range(n_compute)]
    trace = []
    for session_index, block in [(0, 0), (1, 0), (0, 3), (1, 5), (1, 3)]:
        box = run(testbed, read_block(sessions[session_index],
                                      block)(testbed.env))
        trace.append((testbed.env.now, box["value"]))
    snapshots = ([level.proxy.stats_snapshot() for level in levels]
                 + [s.client_proxy.stats_snapshot() for s in sessions])
    return trace, snapshots


def test_depth2_cascade_matches_second_level_cache_goldens():
    """A depth-2 ``build_cascade`` must stay byte- and simulated-time-
    identical to §3.2.3's second-level cache wired by hand (a raw
    ``ProxyStack`` on the LAN server, no cascade machinery)."""
    def classic(testbed, endpoint):
        level = ComposedSecondLevel(testbed, endpoint, SMALL_CACHE)
        return level, [level]

    def cascaded(testbed, endpoint):
        cascade = build_cascade(testbed, endpoint, [SMALL_CACHE])
        return cascade[0], cascade

    ref_trace, ref_snaps = _read_sequence(classic)
    new_trace, new_snaps = _read_sequence(cascaded)
    assert new_trace == ref_trace
    assert new_snaps == ref_snaps


def test_depth1_cascade_is_a_plain_caching_proxy():
    """``build_cascade(levels=[])`` interposes nothing: sessions built
    through it behave identically to plain WAN+C sessions."""
    def plain(testbed, endpoint):
        return None, []

    def empty_cascade(testbed, endpoint):
        cascade = build_cascade(testbed, endpoint, [])
        assert cascade == []
        return None, cascade

    ref_trace, ref_snaps = _read_sequence(plain)
    new_trace, new_snaps = _read_sequence(empty_cascade)
    assert new_trace == ref_trace
    assert new_snaps == ref_snaps
