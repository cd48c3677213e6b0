"""Tests for the sharded, replicated image-server farm."""

import pytest

from repro.core.layers.checksum import ChecksumRegistry
from repro.middleware.farm import ImageFarm
from repro.net.topology import make_paper_testbed
from repro.nfs.protocol import FileHandle
from repro.sim import Environment
from repro.storage.vfs import FileSystem
from repro.vm.image import VmConfig

BLOCK = 8192


def make_farm(n_servers=4, seed=0, register=True):
    testbed = make_paper_testbed(n_compute=2)
    farm = ImageFarm(testbed, n_servers=n_servers, seed=seed)
    if register:
        farm.register_image(
            "golden",
            VmConfig(name="golden", memory_mb=4, disk_gb=0.01,
                     persistent=False, seed=17),
            zero_fraction=0.5, generate_metadata=False)
    return testbed, farm


def run_small_storm(n_servers=4, sessions=8, crash_at=None,
                    crash_index=1, seed=0, finished=None):
    """A small clone storm (with per-session checkpoint writes) against
    a fresh farm; returns (farm, manager, env).  ``finished`` collects
    ``(user index, completion instant)`` pairs."""
    from repro.middleware.imageserver import ImageRequirements
    from repro.middleware.sessions import VmSessionManager
    from repro.sim import AllOf
    from repro.sim.chaos import attach_data_servers
    from repro.sim.faults import FaultInjector, FaultPlan

    testbed = make_paper_testbed(n_compute=4)
    env = testbed.env
    farm = ImageFarm(testbed, n_servers=n_servers, seed=seed)
    manager = VmSessionManager(testbed, origin=farm,
                               account_pool_size=sessions)
    farm.register_image(
        "golden",
        VmConfig(name="golden", memory_mb=4, disk_gb=0.01,
                 persistent=False, seed=17),
        zero_fraction=0.5, generate_metadata=False)
    farm.provision_dir("/checkpoints")
    requirements = ImageRequirements(min_memory_mb=4)

    def one_user(env, index):
        yield env.timeout(index * 0.05)
        session = yield env.process(manager.create_session(
            f"u{index}", requirements))
        ckpt = yield from session.gvfs.mount.create(
            f"/checkpoints/u{index}.ckpt")
        payload = bytes([index % 251]) * BLOCK
        for b in range(2):
            yield from ckpt.write(b * BLOCK, payload)
        yield from ckpt.close()
        yield env.process(manager.end_session(session))
        if finished is not None:
            finished.append((index, env.now))

    def driver(env):
        yield AllOf(env, [env.process(one_user(env, i))
                          for i in range(sessions)])

    if crash_at is not None:
        injector = FaultInjector(env)
        names = attach_data_servers(injector, "farm", farm)
        injector.schedule(FaultPlan.server_crash(names[crash_index],
                                                 at=crash_at))
    env.process(driver(env))
    env.run()
    return farm, manager, env


# -- placement ----------------------------------------------------------------

def test_same_seed_same_placement_map():
    _, a = make_farm(seed=11)
    _, b = make_farm(seed=11)
    snap_a = a.metadata.placement_snapshot()
    assert snap_a
    assert snap_a == b.metadata.placement_snapshot()


def test_different_seed_different_placement_map():
    _, a = make_farm(seed=11)
    _, b = make_farm(seed=12)
    assert (a.metadata.placement_snapshot()
            != b.metadata.placement_snapshot())


def test_placement_respects_replication_factor():
    _, farm = make_farm(n_servers=4)
    for owners in farm.metadata.placement_snapshot().values():
        assert len(owners) == 2
        assert len(set(owners)) == 2


def test_retirement_keeps_surviving_owners():
    """Rendezvous property: retiring one server never moves a range
    between its surviving owners."""
    _, farm = make_farm(n_servers=4)
    before = farm.metadata.placement_snapshot()
    victim = farm.data_servers[2]
    farm.metadata.retire_server(victim)
    after = farm.metadata.placement_snapshot()
    for key, owners in before.items():
        survivors = [n for n in owners if n != victim.name]
        assert after[key] == survivors


def test_image_fileids_aligned_across_servers():
    _, farm = make_farm(n_servers=3)
    reference = farm.data_servers[0].fs
    for path, inode in reference.walk_files("/images/golden"):
        for node in farm.data_servers[1:]:
            assert node.fs.lookup(path).fileid == inode.fileid


# -- checksum sidecar persistence ---------------------------------------------

def test_checksum_registry_save_load_roundtrip():
    env = Environment()
    fs = FileSystem(env)
    registry = ChecksumRegistry()
    fh = FileHandle("images", 42)
    registry.record((fh, 0), b"a" * BLOCK)
    registry.record((fh, 1), b"b" * 100)
    registry.record(("opaque", 3), b"never persisted")
    saved = registry.save(fs, "/digests.json", fileids={42})
    assert saved == 2

    restored = ChecksumRegistry()
    assert restored.load(fs, "/digests.json") == 2
    assert restored.matches((fh, 0), b"a" * BLOCK) is True
    assert restored.matches((fh, 0), b"x" * BLOCK) is False
    assert restored.matches((fh, 1), b"b" * 100) is True
    assert restored.matches(("opaque", 3), b"never persisted") is None


def test_farm_persists_digest_sidecar_on_every_replica():
    _, farm = make_farm(n_servers=3)
    sidecar = f"/images/golden/{ChecksumRegistry.PERSIST_NAME}"
    sizes = set()
    for node in farm.data_servers:
        assert node.fs.exists(sidecar)
        sizes.add(node.fs.lookup(sidecar).data.size)
    assert len(sizes) == 1 and sizes.pop() > 0
    # A fresh registry rebuilt from the sidecar verifies image blocks.
    restored = ChecksumRegistry()
    assert restored.load(farm.data_servers[1].fs, sidecar) > 0
    fs = farm.data_servers[0].fs
    inode = fs.lookup("/images/golden/mem.vmss")
    fh = FileHandle("images", inode.fileid)
    assert restored.matches((fh, 0), inode.data.read(0, BLOCK)) is True


# -- storms -------------------------------------------------------------------

def test_storm_without_crash_spreads_load():
    farm, manager, env = run_small_storm(n_servers=4, sessions=8)
    calls = {node.name: node.endpoint.server.calls
             for node in farm.data_servers}
    assert all(count > 0 for count in calls.values()), calls
    audit = farm.audit_acknowledged_writes()
    assert audit["acked_blocks"] == 8 * 2
    assert audit["lost_blocks"] == 0
    assert farm.client_totals()["failed_writes"] == 0


def test_crash_mid_storm_bounded_recovery_no_lost_writes():
    farm, manager, env = run_small_storm(n_servers=4, sessions=8,
                                         crash_at=0.7)
    victim = farm.data_servers[1]
    assert not victim.alive and victim.retired
    # The storm completed despite the crash.
    assert all(s.closed for s in manager.sessions)
    totals = farm.client_totals()
    assert (totals["failovers"] + totals["aborted_attempts"]
            + totals["channel_failovers"] + totals["aborted_fetches"]) > 0
    # Bounded recovery: re-replication finished within the storm, with
    # every lost range rebuilt and verified against the sidecar digests.
    assert farm.recovery_complete()
    (record,) = farm.recovery_log
    assert record["ranges_rebuilt"] == record["ranges_lost"] > 0
    assert record["ranges_unrecoverable"] == 0
    assert record["verify_failures"] == 0
    assert record["blocks_verified"] > 0
    assert record["finished"] <= env.now
    # Zero lost acknowledged writes, zero stale bytes accepted.
    audit = farm.audit_acknowledged_writes()
    assert audit["acked_blocks"] == 8 * 2
    assert audit["lost_blocks"] == 0
    # No corrupted bytes reached a reader (client verify layers).
    totals_by_layer = manager.fleet_snapshot(deep=False)["layer_totals"]
    checksum = totals_by_layer.get("checksum", {})
    assert (checksum.get("corruptions_caught", 0)
            == checksum.get("corruptions_repaired", 0))


def test_crash_determinism_same_seed_same_timeline():
    results = []
    for _ in range(2):
        farm, manager, env = run_small_storm(n_servers=4, sessions=6,
                                             crash_at=0.6)
        results.append((env.now,
                        farm.metadata.placement_snapshot(),
                        farm.client_totals(),
                        [r["finished"] for r in farm.recovery_log]))
    assert results[0] == results[1]


def test_crash_replay_independent_of_allocation_history():
    """``abandon`` interrupts in-flight attempts in insertion order, not
    in the address order of a set: the crash instant replays bit for
    bit however the interpreter's heap happens to be laid out."""
    results, ballast = [], []
    for round_ in range(4):
        finished = []
        farm, manager, env = run_small_storm(n_servers=4, sessions=12,
                                             crash_at=0.7, finished=finished)
        assert farm.client_totals()["aborted_attempts"] >= 2
        results.append((finished, env.events_scheduled, env.now))
        # Shift every later allocation: odd-sized survivors of this round.
        ballast.append([bytearray(16 * (i % 7 + 1))
                        for i in range(1009 * (round_ + 1))])
    assert results[1:] == results[:1] * 3


def test_restarted_server_stays_retired():
    farm, manager, env = run_small_storm(n_servers=4, sessions=4,
                                         crash_at=0.6)
    victim = farm.data_servers[1]
    victim.restart()
    assert not victim.endpoint.server.crashed
    assert victim.retired and not victim.alive
    for owners in farm.metadata.placement_snapshot().values():
        assert victim.name not in owners


def test_no_live_servers_raises():
    from repro.nfs.rpc import RpcTimeout

    _, farm = make_farm(n_servers=2, register=False)
    for node in farm.data_servers:
        node.crash()
    with pytest.raises(RpcTimeout):
        farm.metadata.primary()


def test_single_server_farm_serves_alone():
    farm, manager, env = run_small_storm(n_servers=1, sessions=3)
    assert farm.metadata.replication == 1
    assert all(s.closed for s in manager.sessions)
    assert farm.audit_acknowledged_writes()["lost_blocks"] == 0
