"""The farm's whole-file path: a session reaches a replicated farm
through one upstream RPC client and one file channel.

Every other farm test registers its image without meta-data, so no
whole-file fetch or upload ever crosses the farm there.  These tests
pin that path — a clone fetching its memory state through a replica,
the same clone failing over when that replica crashes mid-transfer,
and an absorbed whole-file write flushed onto every replica — to
simulated end instants, so a rewiring of the farm that changes what
happens on the wire shows up as a different number.
"""

import pytest

from repro.core.session import GvfsSession, LocalMount, Scenario
from repro.middleware.farm import ImageFarm
from repro.net.topology import make_paper_testbed
from repro.vm.cloning import CloneManager
from repro.vm.image import VmConfig, VmImage
from repro.vm.monitor import VmMonitor
from tests.core.harness import SMALL_CACHE

IMAGE = "/images/golden"


def farm_rig(n_compute=1, sessions=1):
    """A 3-server farm holding one image *with* meta-data, and
    ``sessions`` WAN+C sessions on it (one per compute node)."""
    testbed = make_paper_testbed(n_compute=n_compute)
    farm = ImageFarm(testbed, n_servers=3, seed=5)
    image = farm.register_image(
        "golden",
        VmConfig(name="golden", memory_mb=8, disk_gb=0.01,
                 persistent=False, seed=23),
        zero_fraction=0.5)
    built = [GvfsSession.build(testbed, Scenario.WAN_CACHED, origin=farm,
                               compute_index=i, cache_config=SMALL_CACHE)
             for i in range(sessions)]
    return testbed, farm, image, built


def clone_on(testbed, session, index=0):
    compute = testbed.compute[index]
    manager = CloneManager(testbed.env, VmMonitor(testbed.env, compute),
                           session.mount, LocalMount(compute.local))
    return manager.clone(IMAGE, f"/clones/c{index}", resume=False)


def run(env, gen):
    box = {}

    def wrapper(env):
        box["value"] = yield env.process(gen)

    env.process(wrapper(env))
    env.run()
    return box["value"]


def assert_intact_clone(testbed, image, index=0):
    golden = image.memory_inode.data
    copied = testbed.compute[index].local.fs.read(
        f"/clones/c{index}/{VmImage.MEMORY_NAME}")
    assert copied == golden.read(0, golden.size)


def test_clone_fetches_the_memory_state_through_a_replica():
    testbed, farm, image, (session,) = farm_rig()
    run(testbed.env, clone_on(testbed, session))
    assert testbed.env.now == 6.455744117048863
    layer = session.client_proxy.layer("file-channel")
    assert layer.stats.channel_fetches == 1
    assert layer.stats.file_cache_reads > 0
    totals = farm.client_totals()
    assert totals["channel_failovers"] == 0
    assert totals["aborted_fetches"] == 0
    assert_intact_clone(testbed, image)


def test_replica_crash_mid_fetch_fails_over_and_clones_intact():
    testbed, farm, image, (session,) = farm_rig()
    env = testbed.env

    def crash(env):
        yield env.timeout(0.5)
        farm.data_servers[0].crash()

    env.process(crash(env))
    run(env, clone_on(testbed, session))
    assert env.now == 7.02968877500005
    totals = farm.client_totals()
    assert totals["aborted_fetches"] == 1
    assert totals["channel_failovers"] == 2
    assert session.client_proxy.layer("file-channel").stats \
        .channel_fetches == 1
    assert_intact_clone(testbed, image)


def test_absorbed_whole_file_write_flushes_to_every_replica():
    testbed, farm, image, (session,) = farm_rig()
    env = testbed.env
    path = f"{IMAGE}/{VmImage.MEMORY_NAME}"
    payload = b"\x5a" * 8192

    def write_and_flush(env):
        handle = yield from session.mount.open(path)
        yield from handle.read(0, 8192)          # whole-file fetch
        yield from handle.write(8192, payload)   # absorbed locally
        yield from handle.close()
        yield env.process(session.flush())

    run(env, write_and_flush(env))
    assert env.now == 5.807899388740608
    layer = session.client_proxy.layer("file-channel")
    assert layer.stats.absorbed_writes >= 1
    assert not session.client_proxy.channel.file_cache.dirty_entries()
    for node in farm.data_servers:
        assert node.fs.read(path)[8192:16384] == payload


def test_each_farm_session_reports_what_its_own_replicas_carried():
    """Sessions rotate across replicas, so a session's channel counters
    must cover every replica it can fetch from, not the first one."""
    testbed, farm, image, sessions = farm_rig(n_compute=2, sessions=2)
    env = testbed.env
    for i, session in enumerate(sessions):
        env.process(clone_on(testbed, session, i))
    env.run()
    channels = [session.client_proxy.channel for session in sessions]
    for session, channel in zip(sessions, channels):
        assert session.client_proxy.layer("file-channel").stats \
            .channel_fetches == 1
        assert channel.fetches == 1
    assert channels[0].bytes_on_wire > 0
    assert channels[1].bytes_on_wire == channels[0].bytes_on_wire
    assert channels[1].bytes_logical == channels[0].bytes_logical
    assert channels[1].scp.bytes_transferred == channels[0].bytes_on_wire
    for session in sessions:
        session.client_proxy.reset()
    for channel in channels:
        assert (channel.fetches, channel.bytes_on_wire,
                channel.bytes_logical) == (0, 0, 0)


def test_harden_rpc_refuses_a_farm_session():
    """A farm session's upstream fans out to one RPC client per
    replica; there is no single client to harden."""
    _, _, _, (session,) = farm_rig()
    with pytest.raises(ValueError, match="farm"):
        session.harden_rpc(timeout=0.5)
