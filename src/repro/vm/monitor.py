"""The VM monitor: resume, suspend, and guest execution.

Models the behaviour of a hosted VMM (VMware GSX, §4.1) as seen by the
file system — which is all that matters to GVFS:

* **resume** reads the VM configuration and then the *entire* memory
  state file, block by block ("resuming a VMware VM requires reading
  the entire memory state file"), then spends a fixed device-init time;
* **suspend** writes the entire memory state back;
* a running guest turns application file accesses into scattered
  virtual-disk block I/O, filtered through a **guest page cache** (the
  VM's own RAM) — re-reads of a warm working set never leave the VM;
* guest writes go to the redo log (non-persistent disks) or the virtual
  disk itself (persistent).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generator, Optional

from repro.net.topology import Host
from repro.nfs.protocol import NFS_BLOCK_SIZE
from repro.vm.image import GuestFile, RandomContent, VmConfig, VmImage
from repro.vm.redolog import RedoLog

__all__ = ["VirtualMachine", "VmMonitor"]


class VirtualMachine:
    """A live (resumed) VM instance on a compute server."""

    #: Fraction of guest RAM usable as guest page cache.
    GUEST_CACHE_FRACTION = 0.6
    #: CPU cost of a guest-page-cache hit (copy + syscall inside guest).
    GUEST_HIT_CPU = 4e-6

    def __init__(self, env, host: Host, config: VmConfig, disk_file,
                 redo: Optional[RedoLog], block_size: int = NFS_BLOCK_SIZE):
        self.env = env
        self.host = host
        self.config = config
        self.disk_file = disk_file
        self.redo = redo
        self.block_size = block_size
        cache_blocks = int(config.memory_bytes * self.GUEST_CACHE_FRACTION
                           // block_size)
        self._guest_cache: OrderedDict = OrderedDict()
        self._guest_cache_capacity = max(cache_blocks, 16)
        self.running = True
        # Guest write payload: one source for the VM's life, so payload
        # chunk i is generated once, not once per guest file written.
        self._write_payload = RandomContent(config.seed ^ 0x5EED)
        # User data (attached by middleware; see attach_user_data).
        self.user_mount = None
        self.user_dir = ""
        self.user_bytes_read = 0
        self.user_bytes_written = 0
        # Statistics
        self.guest_cache_hits = 0
        self.guest_cache_misses = 0
        self.disk_bytes_read = 0
        self.disk_bytes_written = 0

    # -- virtual disk I/O ----------------------------------------------------
    def _disk_read(self, offset: int, count: int) -> Generator:
        if self.redo is not None:
            data = yield from self.redo.read(offset, count)
        else:
            data = yield from self.disk_file.read(offset, count)
        self.disk_bytes_read += len(data)
        return data

    def _disk_write(self, offset: int, data: bytes) -> Generator:
        # A hosted VMM writes virtual-disk state synchronously (O_SYNC)
        # for guest-visible durability — which is why WAN writes without
        # a write-back proxy dominate the paper's I/O-intensive phases.
        if self.redo is not None:
            yield from self.redo.write(offset, data)
        else:
            yield from self.disk_file.write_sync(offset, data)
        self.disk_bytes_written += len(data)

    def _guest_cache_touch(self, offset: int) -> bool:
        if offset in self._guest_cache:
            self._guest_cache.move_to_end(offset)
            self.guest_cache_hits += 1
            return True
        self.guest_cache_misses += 1
        return False

    def _guest_cache_insert(self, offset: int) -> None:
        self._guest_cache[offset] = True
        self._guest_cache.move_to_end(offset)
        while len(self._guest_cache) > self._guest_cache_capacity:
            self._guest_cache.popitem(last=False)

    # -- guest file operations ---------------------------------------------------
    def read_guest_file(self, gf: GuestFile, fraction: float = 1.0) -> Generator:
        """Process: the guest reads (a prefix ``fraction`` of) a file.

        Blocks found in the guest page cache cost only guest CPU; the
        rest become virtual-disk block reads at the file's scattered
        disk offsets.
        """
        offsets = gf.block_offsets(self.config.disk_bytes, self.block_size,
                                   self.config.seed)
        n = max(int(len(offsets) * fraction), 1) if offsets else 0
        hits = 0
        for offset in offsets[:n]:
            if self._guest_cache_touch(offset):
                hits += 1
                continue
            yield from self._disk_read(offset, self.block_size)
            self._guest_cache_insert(offset)
        if hits:
            # Guest CPU for in-cache copies, charged in one batch.
            yield self.host.compute(hits * self.GUEST_HIT_CPU)

    def write_guest_file(self, gf: GuestFile, fraction: float = 1.0,
                         sync: bool = False) -> Generator:
        """Process: the guest writes (a prefix of) a file.

        Written blocks enter the guest cache; the guest's own flusher
        pushes them to the virtual disk / redo log, modelled as the
        write happening inline (``sync``) or through the guest cache
        with the device write still charged (journalled data reaches
        the virtual disk within the guest flush interval — which a
        several-second benchmark iteration always exceeds).
        """
        del sync  # both paths charge the device write; kept for API clarity
        offsets = gf.block_offsets(self.config.disk_bytes, self.block_size,
                                   self.config.seed)
        n = max(int(len(offsets) * fraction), 1) if offsets else 0
        payload = self._write_payload
        for i, offset in enumerate(offsets[:n]):
            yield from self._disk_write(offset,
                                        payload.chunk(i)[:self.block_size])
            self._guest_cache_insert(offset)

    def compute(self, cpu_seconds: float):
        """Guest computation runs on the host CPU (one vCPU)."""
        return self.host.compute(cpu_seconds)

    def drop_guest_caches(self) -> None:
        """Forget the guest page cache (fresh-boot conditions)."""
        self._guest_cache.clear()

    # -- user data (Figure 1's data servers) -------------------------------
    def attach_user_data(self, mount, base_dir: str) -> None:
        """Mount the user's Grid virtual file system inside the VM.

        Per §2, middleware builds the virtual workspace "by mounting the
        user's Grid virtual file system inside the VM clone": user files
        live on a *data server* and are accessed through their own GVFS
        session, independent of the VM image's session.
        """
        self.user_mount = mount
        self.user_dir = base_dir.rstrip("/")

    def _require_user_data(self):
        if getattr(self, "user_mount", None) is None:
            raise RuntimeError("no user data mounted in this VM")

    def read_user_file(self, name: str) -> Generator:
        """Process: the guest reads a user file via the data-server
        mount; returns the bytes."""
        self._require_user_data()
        f = yield from self.user_mount.open(f"{self.user_dir}/{name}")
        out = bytearray()
        offset = 0
        while offset < f.size:
            data = yield from f.read(offset, self.block_size)
            if not data:
                break
            out += data
            offset += len(data)
        yield from f.close()
        self.user_bytes_read = getattr(self, "user_bytes_read", 0) + len(out)
        return bytes(out)

    def write_user_file(self, name: str, payload: bytes) -> Generator:
        """Process: the guest writes a user file via the data mount."""
        self._require_user_data()
        f = yield from self.user_mount.create(
            f"{self.user_dir}/{name}", exclusive=False)
        offset = 0
        view = memoryview(payload)
        while offset < len(view):
            take = min(self.block_size, len(view) - offset)
            yield from f.write(offset, bytes(view[offset:offset + take]))
            offset += take
        yield from f.close()
        self.user_bytes_written = (getattr(self, "user_bytes_written", 0)
                                   + len(payload))


class VmMonitor:
    """VMM on one compute server, storing VM state in mounted files."""

    #: Fixed device re-initialization time on resume (VMM overhead).
    DEVICE_INIT_SECONDS = 8.0
    #: CPU cost the VMM spends per memory-state block restored
    #: (address-space rebuild + device state replay).
    RESTORE_CPU_PER_BLOCK = 100e-6

    def __init__(self, env, host: Host, block_size: int = NFS_BLOCK_SIZE):
        self.env = env
        self.host = host
        self.block_size = block_size

    def resume(self, mount, vm_dir: str,
               disk_mount=None, disk_dir: Optional[str] = None,
               redo_mount=None, redo_dir: Optional[str] = None,
               redo_name: Optional[str] = None,
               verify_against=None) -> Generator:
        """Process: resume the VM whose state sits in ``mount:vm_dir``.

        ``disk_mount``/``disk_dir`` override where the virtual disk is
        opened (cloning symlinks the disk from a different place);
        ``redo_mount``/``redo_dir``/``redo_name`` place the redo log of
        a non-persistent disk (clones keep redo logs on the GVFS mount
        so the proxy's write-back absorbs them).  Returns a
        :class:`VirtualMachine`.
        """
        vm_dir = vm_dir.rstrip("/")
        cfg_file = yield from mount.open(f"{vm_dir}/{VmImage.CONFIG_NAME}")
        raw = yield from cfg_file.read(0, 65536)
        config = VmConfig.from_bytes(raw)

        # Read the ENTIRE memory state file, block by block.
        mem_file = yield from mount.open(f"{vm_dir}/{VmImage.MEMORY_NAME}")
        offset = 0
        blocks = 0
        while offset < mem_file.size:
            data = yield from mem_file.read(offset, self.block_size)
            if not data:
                break
            if verify_against is not None:
                expected = verify_against.read(offset, len(data))
                if data != expected:
                    raise AssertionError(
                        f"memory state corruption at offset {offset}")
            blocks += 1
            offset += len(data)
        # VMM CPU for rebuilding the address space, charged in one batch.
        yield self.host.compute(blocks * self.RESTORE_CPU_PER_BLOCK)
        yield from mem_file.close()

        # Open the virtual disk (possibly behind a symbolic link).
        dmount = disk_mount if disk_mount is not None else mount
        ddir = (disk_dir if disk_dir is not None else vm_dir).rstrip("/")
        disk_file = yield from dmount.open(f"{ddir}/{VmImage.DISK_NAME}")

        redo = None
        if not config.persistent:
            rmount = redo_mount if redo_mount is not None else mount
            rdir = (redo_dir if redo_dir is not None else vm_dir).rstrip("/")
            rname = redo_name or f"{VmImage.DISK_NAME}.REDO"
            redo_file = yield from rmount.create(f"{rdir}/{rname}",
                                                 exclusive=False)
            redo = RedoLog(self.env, disk_file, redo_file, self.block_size)

        yield self.env.timeout(self.DEVICE_INIT_SECONDS)
        return VirtualMachine(self.env, self.host, config, disk_file, redo,
                              self.block_size)

    @staticmethod
    def suspend_payload(config: VmConfig) -> RandomContent:
        """The memory state :meth:`suspend` writes for a VM of
        ``config`` (what a checkpoint must read back, byte for byte)."""
        return RandomContent(config.seed ^ 0xD1E, zero_fraction=0.85)

    def suspend(self, mount, vm_dir: str, vm: VirtualMachine) -> Generator:
        """Process: write the VM's entire memory state back to its files."""
        vm_dir = vm_dir.rstrip("/")
        mem_file = yield from mount.open(f"{vm_dir}/{VmImage.MEMORY_NAME}")
        payload = self.suspend_payload(vm.config)
        offset = 0
        size = vm.config.memory_bytes
        idx = 0
        while offset < size:
            take = min(self.block_size, size - offset)
            yield from mem_file.write(offset, payload.chunk(idx)[:take])
            offset += take
            idx += 1
        yield from mem_file.close()
        vm.running = False
