"""VM image generation: memory state, virtual disk, configuration.

Images are generated deterministically from a seed with the two
content properties the paper's results hinge on:

* **memory state** is zero-rich — "normally the memory state contains
  many zero-filled blocks"; a 512 MB post-boot RedHat 7.3 image had
  60,452 of 65,750 blocks (~92 %) zero-filled — and its non-zero pages
  are *compressible* (gzip shrinks them further);
* the **virtual disk** is large (GBs) but guests touch a small working
  set (<10 %, §3.2.2), scattered across the disk.

Non-zero content is produced lazily by :class:`RandomContent`, so a
1.6 GB disk costs nothing until blocks are actually read.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.core.metadata import (
    FileMetadata,
    generate_memory_state_metadata,
)
from repro.storage.vfs import CHUNK_SIZE, ContentSource, FileSystem, Inode, SparseFile

__all__ = [
    "GuestFile",
    "RandomContent",
    "VmConfig",
    "VmImage",
    "make_memory_state",
    "make_virtual_disk",
]


#: Shared all-zero chunk — immutable, so every zero read can be one object.
_ZERO_CHUNK = bytes(CHUNK_SIZE)


def _mix(seed: int, index: int) -> int:
    """Cheap deterministic 64-bit mix of (seed, index)."""
    x = (seed * 0x9E3779B97F4A7C15 + index * 0xC2B2AE3D27D4EB4F) & (2**64 - 1)
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & (2**64 - 1)
    x ^= x >> 29
    return x


class RandomContent(ContentSource):
    """Deterministic chunk content with a configurable zero fraction.

    A chunk is zero when its mixed hash falls below ``zero_fraction``;
    zero-ness is decided *without* generating bytes, so scanning a
    multi-hundred-MB file for its zero map is fast.  Non-zero chunks are
    half-entropy (a 4 KB random page tiled twice), giving gzip the ~2:1
    ratio typical of real memory pages.

    Generated chunks are memoised per source, and a source lives as
    long as what it backs: one per image *file* (memory state, virtual
    disk) and one per *VM* for the guest's write payload — so a chunk
    is generated once however many clones, runs or guest files ask for
    it.
    """

    #: Per-source memo capacity: 8192 chunks x 8 KB = 64 MB ceiling —
    #: enough to hold every non-zero chunk of a paper-scale memory
    #: state (or every payload index a VM's guest files reach), so
    #: back-to-back clones and guest writes regenerate nothing.
    _MEMO_CHUNKS = 8192

    def __init__(self, seed: int, zero_fraction: float = 0.0):
        if not 0.0 <= zero_fraction <= 1.0:
            raise ValueError(f"zero_fraction out of range: {zero_fraction}")
        self.seed = seed
        self.zero_fraction = zero_fraction
        self._threshold = int(zero_fraction * 2**64)
        # Chunk generation (a bit-generator construction + fill per
        # call) is one of the hottest non-simulation costs of a clone or
        # a guest write, and the same chunks are asked for over and over
        # (per clone, per run, per guest file, and by compression
        # sizing).  The bytes are deterministic, so an LRU memo returns
        # the identical object without re-generating it.
        self._memo: "OrderedDict[int, bytes]" = OrderedDict()

    def is_zero(self, index: int) -> bool:
        return _mix(self.seed, index) < self._threshold

    def chunk(self, index: int) -> bytes:
        if _mix(self.seed, index) < self._threshold:
            return _ZERO_CHUNK
        memo = self._memo
        data = memo.get(index)
        if data is not None:
            memo.move_to_end(index)
            return data
        # The 4 KB half is the PCG64 raw stream itself, little-endian:
        # the one primitive numpy keeps stable across versions.
        raw = np.random.PCG64(_mix(self.seed, index)).random_raw(
            CHUNK_SIZE // 16)
        half = raw.astype("<u8", copy=False).tobytes()
        data = half + half
        memo[index] = data
        if len(memo) > self._MEMO_CHUNKS:
            memo.popitem(last=False)
        return data


def make_memory_state(size: int, zero_fraction: float = 0.92,
                      seed: int = 0) -> SparseFile:
    """A memory-state file: ``zero_fraction`` of blocks are zero-filled."""
    return SparseFile(size=size, source=RandomContent(seed, zero_fraction))


def make_virtual_disk(size: int, populated_fraction: float = 0.45,
                      seed: int = 0) -> SparseFile:
    """A virtual disk: mostly populated with filesystem content."""
    return SparseFile(size=size,
                      source=RandomContent(seed + 1, 1.0 - populated_fraction))


@dataclass(frozen=True)
class GuestFile:
    """A file inside the guest's filesystem, mapped onto the virtual disk.

    The layout is a deterministic scatter of the file's blocks across
    the disk — what an aged ext2 filesystem looks like — so guest file
    reads become the scattered ``.vmdk`` block accesses that the proxy
    cache must absorb.
    """

    name: str
    size: int

    def block_offsets(self, disk_size: int, block_size: int,
                      seed: int) -> List[int]:
        """Disk offsets (block-aligned) holding this file's blocks."""
        n = (self.size + block_size - 1) // block_size
        total_blocks = disk_size // block_size
        if total_blocks <= 0:
            raise ValueError("disk smaller than one block")
        name_seed = zlib.crc32(self.name.encode()) ^ seed
        # Files live in extents of ~16 contiguous blocks scattered around.
        offsets: List[int] = []
        extent = 16
        base = None
        for i in range(n):
            if i % extent == 0:
                base = _mix(name_seed, i // extent) % total_blocks
            offsets.append(((base + i % extent) % total_blocks) * block_size)
        return offsets


@dataclass(frozen=True)
class VmConfig:
    """Static configuration of a VM image (the ``.cfg`` file contents)."""

    name: str
    memory_mb: int = 320
    disk_gb: float = 1.6
    os_name: str = "Red Hat Linux 7.3"
    persistent: bool = False      # non-persistent disks use redo logs
    seed: int = 0

    @property
    def memory_bytes(self) -> int:
        return self.memory_mb * 1024 * 1024

    @property
    def disk_bytes(self) -> int:
        return int(self.disk_gb * 1024 * 1024 * 1024)

    def to_bytes(self) -> bytes:
        lines = [f"displayName = \"{self.name}\"",
                 f"memsize = \"{self.memory_mb}\"",
                 f"guestOS = \"{self.os_name}\"",
                 f"disk.size = \"{self.disk_bytes}\"",
                 f"disk.mode = \"{'persistent' if self.persistent else 'undoable'}\"",
                 f"repro.seed = \"{self.seed}\""]
        return ("\n".join(lines) + "\n").encode()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "VmConfig":
        fields: Dict[str, str] = {}
        for line in raw.decode().splitlines():
            if "=" in line:
                key, _, value = line.partition("=")
                fields[key.strip()] = value.strip().strip('"')
        return cls(name=fields["displayName"],
                   memory_mb=int(fields["memsize"]),
                   disk_gb=int(fields["disk.size"]) / 1024 ** 3,
                   os_name=fields["guestOS"],
                   persistent=fields["disk.mode"] == "persistent",
                   seed=int(fields.get("repro.seed", "0")))


class VmImage:
    """The files of one VM image inside a filesystem directory.

    Layout::

        <dir>/vm.cfg       configuration
        <dir>/mem.vmss     memory (suspend) state
        <dir>/disk.vmdk    virtual disk
        <dir>/.mem.vmss.gvfs   meta-data (after generate_metadata())
    """

    CONFIG_NAME = "vm.cfg"
    MEMORY_NAME = "mem.vmss"
    DISK_NAME = "disk.vmdk"

    def __init__(self, fs: FileSystem, directory: str, config: VmConfig):
        self.fs = fs
        self.directory = directory.rstrip("/")
        self.config = config

    # -- paths ------------------------------------------------------------
    @property
    def config_path(self) -> str:
        return f"{self.directory}/{self.CONFIG_NAME}"

    @property
    def memory_path(self) -> str:
        return f"{self.directory}/{self.MEMORY_NAME}"

    @property
    def disk_path(self) -> str:
        return f"{self.directory}/{self.DISK_NAME}"

    # -- creation -----------------------------------------------------------
    @classmethod
    def create(cls, fs: FileSystem, directory: str, config: VmConfig,
               zero_fraction: float = 0.92,
               disk_populated: float = 0.45) -> "VmImage":
        """Materialize a golden image in ``fs`` at ``directory``."""
        if not fs.exists(directory):
            fs.mkdir(directory, parents=True)
        image = cls(fs, directory, config)
        cfg = fs.create(image.config_path)
        cfg.data.write(0, config.to_bytes())
        mem = fs.create(image.memory_path)
        mem.data = make_memory_state(config.memory_bytes, zero_fraction,
                                     seed=config.seed)
        disk = fs.create(image.disk_path)
        disk.data = make_virtual_disk(config.disk_bytes, disk_populated,
                                      seed=config.seed)
        return image

    @classmethod
    def load(cls, fs: FileSystem, directory: str) -> "VmImage":
        """Open an existing image directory."""
        raw = fs.read(f"{directory.rstrip('/')}/{cls.CONFIG_NAME}")
        return cls(fs, directory, VmConfig.from_bytes(raw))

    # -- inodes ----------------------------------------------------------------
    @property
    def memory_inode(self) -> Inode:
        return self.fs.lookup(self.memory_path)

    @property
    def disk_inode(self) -> Inode:
        return self.fs.lookup(self.disk_path)

    # -- middleware steps ----------------------------------------------------------
    def generate_metadata(self, block_size: int = 8192) -> FileMetadata:
        """Middleware pre-processing: zero map + file channel for the
        memory state (§3.2.2)."""
        return generate_memory_state_metadata(self.fs, self.memory_path,
                                              block_size=block_size)

    @property
    def total_state_bytes(self) -> int:
        """Size of everything an SCP-based clone must move."""
        return (self.memory_inode.data.size + self.disk_inode.data.size
                + len(self.config.to_bytes()))
