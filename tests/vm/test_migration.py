"""Tests for VM checkpointing and migration over GVFS (§6)."""

import pytest

from repro.core.session import (GvfsSession, LocalMount, Scenario,
                                ServerEndpoint, build_cascade)
from repro.net.topology import Testbed
from repro.sim import Environment
from repro.storage.vfs import SparseFile
from repro.vm.cloning import CloneManager
from repro.vm.image import VmConfig, VmImage
from repro.vm.migration import MigrationManager
from repro.vm.monitor import VmMonitor
from tests.core.harness import SMALL_CACHE


class MigRig:
    """Two compute servers, one image server, one running VM."""

    def __init__(self, image_mb=2):
        self.testbed = Testbed(Environment(), n_compute=2)
        self.env = self.testbed.env
        self.endpoint = ServerEndpoint(self.env, self.testbed.wan_server)
        cfg = VmConfig(name="mobile", memory_mb=image_mb, disk_gb=0.01,
                       seed=41, persistent=False)
        self.image = VmImage.create(self.endpoint.export.fs, "/images/mobile",
                                    cfg)
        self.image.generate_metadata()
        self.sessions = [
            GvfsSession.build(self.testbed, Scenario.WAN_CACHED,
                              endpoint=self.endpoint, compute_index=i,
                              cache_config=SMALL_CACHE)
            for i in range(2)]
        self.monitors = [VmMonitor(self.env, self.testbed.compute[i])
                         for i in range(2)]
        self.manager = MigrationManager(
            self.env, self.monitors[0], self.sessions[0],
            self.monitors[1], self.sessions[1])

    def run(self, gen):
        box = {}

        def wrapper(env):
            box["value"] = yield env.process(gen)
            box["t"] = env.now

        self.env.process(wrapper(self.env))
        self.env.run()
        return box["value"], box["t"]

    def boot_vm(self):
        vm, _ = self.run(self.monitors[0].resume(self.sessions[0].mount,
                                                 "/images/mobile"))
        return vm


def test_checkpoint_persists_state_to_server():
    rig = MigRig()
    vm = rig.boot_vm()
    before = rig.image.memory_inode.mtime
    phases, _ = rig.run(rig.manager.checkpoint(vm, "/images/mobile"))
    assert set(phases) == {"suspend", "flush", "metadata"}
    assert not vm.running
    # The new memory state reached the image server...
    assert rig.image.memory_inode.mtime > before
    # ...and its meta-data was regenerated for the new content.
    raw = rig.endpoint.export.fs.read("/images/mobile/.mem.vmss.gvfs")
    from repro.core.metadata import FileMetadata
    meta = FileMetadata.from_bytes(raw)
    assert meta.file_size == vm.config.memory_bytes


def test_migrate_produces_running_vm_on_destination():
    rig = MigRig()
    vm = rig.boot_vm()
    result, _ = rig.run(rig.manager.migrate(vm, "/images/mobile",
                                            dest_dir="/migrated/mobile"))
    assert result.vm is not None
    assert result.vm.running
    assert result.vm.host is rig.testbed.compute[1]
    assert not vm.running
    assert result.total_seconds > 0
    assert "suspend" in result.phases and "instantiate" in result.phases


def test_migrated_memory_matches_checkpoint():
    rig = MigRig()
    vm = rig.boot_vm()
    rig.run(rig.manager.migrate(vm, "/images/mobile",
                                dest_dir="/migrated/mobile"))
    golden = rig.image.memory_inode.data
    dest_fs = rig.testbed.compute[1].local.fs
    copied = dest_fs.read("/migrated/mobile/mem.vmss")
    assert copied == golden.read(0, golden.size)


def test_migration_uses_compressed_channel():
    rig = MigRig(image_mb=4)
    vm = rig.boot_vm()
    dest_channel = rig.sessions[1].client_proxy.channel
    rig.run(rig.manager.migrate(vm, "/images/mobile"))
    assert dest_channel.fetches == 1
    assert dest_channel.bytes_on_wire < dest_channel.bytes_logical


def test_checkpoint_upload_is_compressed_when_state_cached():
    """When the source resumed through the channel, the new checkpoint
    is uploaded compressed (file-cache write-back) rather than
    block-by-block over the WAN."""
    rig = MigRig(image_mb=4)
    vm = rig.boot_vm()
    src_channel = rig.sessions[0].client_proxy.channel
    assert src_channel.fetches == 1  # resume pulled it into the cache
    rig.run(rig.manager.checkpoint(vm, "/images/mobile"))
    assert src_channel.uploads == 1


def test_downtime_far_below_full_state_staging():
    rig = MigRig(image_mb=64)
    vm = rig.boot_vm()
    result, _ = rig.run(rig.manager.migrate(vm, "/images/mobile"))
    # Comparator: moving the raw state twice (suspend upload + resume
    # download) at one uncompressed WAN stream.
    from repro.net.ssh import ScpTransfer
    scp = ScpTransfer(rig.env, rig.testbed.wan_route(0))
    staging_roundtrip = 2 * scp.transfer_time(rig.image.total_state_bytes)
    # GVFS migration wins on the data movement; the comparator excludes
    # staging's own suspend/resume fixed costs, so the bound is modest
    # here and grows with state size (the disk is never copied at all).
    assert result.downtime_seconds < staging_roundtrip * 0.7


# -- the checkpoint reaches the origin through any cascade ----------------------

BS = 8192


def stale_blocks(copied: bytes, expected: bytes) -> int:
    assert len(copied) == len(expected)
    return sum(copied[o:o + BS] != expected[o:o + BS]
               for o in range(0, len(expected), BS))


@pytest.mark.parametrize("metadata", [True, False], ids=["meta", "nometa"])
@pytest.mark.parametrize("mode", ["inclusive", "cooperative"])
@pytest.mark.parametrize("depth", [1, 2])
def test_destination_memory_is_what_the_source_suspended(depth, mode,
                                                         metadata):
    """Three peers each resume a VM and migrate it to their ring
    neighbour (the fleet scenario's migration wave, scaled down): the
    destination's local memory copy is, byte for byte, what the
    source's ``suspend`` wrote — whatever write-back levels sit between
    the client proxies and the image server."""
    n = 3
    testbed = Testbed(Environment(), n_compute=n)
    env = testbed.env
    endpoint = ServerEndpoint(env, testbed.wan_server)
    fs = endpoint.export.fs
    configs = []
    for i in range(n):
        cfg = VmConfig(name=f"mobile{i}", memory_mb=2, disk_gb=0.01,
                       seed=900 + i, persistent=False)
        image = VmImage.create(fs, f"/images/mobile{i}", cfg,
                               zero_fraction=0.5)
        if metadata:
            image.generate_metadata()
        configs.append(cfg)
    cascade = build_cascade(testbed, endpoint, [SMALL_CACHE] * (depth - 1))
    directory = testbed.peer_directory() if mode == "cooperative" else None
    sessions = [GvfsSession.build(testbed, Scenario.WAN_CACHED,
                                  endpoint=endpoint, compute_index=i,
                                  cache_config=SMALL_CACHE, via=cascade,
                                  peer_directory=directory,
                                  metadata=metadata)
                for i in range(n)]
    monitors = [VmMonitor(env, testbed.compute[i]) for i in range(n)]

    def work(i):
        yield env.timeout(2.0 * i)
        vm = yield env.process(monitors[i].resume(sessions[i].mount,
                                                  f"/images/mobile{i}"))
        dst = (i + 1) % n
        mover = MigrationManager(env, monitors[i], sessions[i],
                                 monitors[dst], sessions[dst])
        yield from mover.migrate(vm, f"/images/mobile{i}",
                                 dest_dir=f"/migrated/mobile{i}")

    for i in range(n):
        env.process(work(i))
    env.run()

    stale = []
    for i, cfg in enumerate(configs):
        expected = SparseFile(cfg.memory_bytes, VmMonitor.suspend_payload(
            cfg)).read(0, cfg.memory_bytes)
        copied = testbed.compute[(i + 1) % n].local.fs.read(
            f"/migrated/mobile{i}/mem.vmss")
        # ... and so is the server of record.
        origin = fs.read(f"/images/mobile{i}/mem.vmss")
        stale += [stale_blocks(copied, expected),
                  stale_blocks(origin, expected)]
    assert stale == [0, 0] * n, \
        f"stale memory blocks per VM (destination, origin): {stale}"
