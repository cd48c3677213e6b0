"""Meta-data handling (§3.2.2): zero-block maps and action lists.

Middleware generates a meta-data file for certain files using its
application knowledge; the file lives *in the same directory as the
file it is associated with* under a special name, so a proxy can look
it up in-band through ordinary NFS calls.  Contents:

* a **zero map**: which blocks of the file are entirely zero-filled —
  for VM memory state, usually the large majority — letting the
  client-side proxy satisfy those reads locally;
* an **action list** describing how to fetch the file when accessed:
  ``compress`` (gzip on the server), ``remote-copy`` (SCP to the
  client), ``uncompress`` (into the proxy file cache), ``read-locally``
  (serve all requests from the cached copy).

The on-disk representation is a compact JSON document preceded by a
magic line; it round-trips through real bytes so proxies genuinely
fetch and parse it over NFS.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import FrozenSet, List, Sequence, Tuple

from repro.nfs.protocol import NFS_BLOCK_SIZE
from repro.storage.vfs import CHUNK_SIZE, FileSystem, SparseFile

__all__ = [
    "METADATA_SUFFIX",
    "FileMetadata",
    "MetadataAction",
    "generate_memory_state_metadata",
    "generate_metadata",
    "metadata_path_for",
]

#: Special filename suffix: meta-data for ``X`` is stored as ``.X.gvfs``.
METADATA_SUFFIX = ".gvfs"

_MAGIC = "GVFS-META-1"


class MetadataAction(Enum):
    """Actions a proxy performs when the described file is accessed."""

    COMPRESS = "compress"
    REMOTE_COPY = "remote-copy"
    UNCOMPRESS = "uncompress"
    READ_LOCALLY = "read-locally"


#: The canonical whole-file transfer pipeline of §3.2.2.
FILE_CHANNEL_ACTIONS: Tuple[MetadataAction, ...] = (
    MetadataAction.COMPRESS,
    MetadataAction.REMOTE_COPY,
    MetadataAction.UNCOMPRESS,
    MetadataAction.READ_LOCALLY,
)


def metadata_path_for(path: str) -> str:
    """Meta-data file path for ``path`` (same directory, special name)."""
    head, _, name = path.rpartition("/")
    return f"{head}/.{name}{METADATA_SUFFIX}"


def metadata_name_for(name: str) -> str:
    """Meta-data leaf name for a file's leaf ``name``."""
    return f".{name}{METADATA_SUFFIX}"


@dataclass(frozen=True)
class FileMetadata:
    """Parsed meta-data of one file."""

    file_size: int
    block_size: int = NFS_BLOCK_SIZE
    zero_blocks: FrozenSet[int] = frozenset()
    actions: Tuple[MetadataAction, ...] = ()

    # -- queries -----------------------------------------------------------
    def is_zero_block(self, block_index: int) -> bool:
        return block_index in self.zero_blocks

    def covers_read(self, offset: int, count: int) -> bool:
        """True when every block of [offset, offset+count) is zero."""
        if count <= 0:
            return True
        first = offset // self.block_size
        last = (min(offset + count, self.file_size) - 1) // self.block_size
        if first == last:       # every block-sized guest READ
            return first in self.zero_blocks
        return all(i in self.zero_blocks for i in range(first, last + 1))

    @property
    def wants_file_channel(self) -> bool:
        return MetadataAction.REMOTE_COPY in self.actions

    @property
    def n_blocks(self) -> int:
        return (self.file_size + self.block_size - 1) // self.block_size

    @property
    def n_zero_blocks(self) -> int:
        return len(self.zero_blocks)

    # -- serialization --------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Encode as the on-disk meta-data file content."""
        doc = {
            "file_size": self.file_size,
            "block_size": self.block_size,
            # Run-length encode the sorted zero-block list: [start, len] pairs.
            "zero_runs": _rle(sorted(self.zero_blocks)),
            "actions": [a.value for a in self.actions],
        }
        return (_MAGIC + "\n" + json.dumps(doc, separators=(",", ":"))).encode()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "FileMetadata":
        """Parse an on-disk meta-data file."""
        text = raw.decode()
        magic, _, body = text.partition("\n")
        if magic != _MAGIC:
            raise ValueError(f"bad meta-data magic: {magic!r}")
        doc = json.loads(body)
        zero: List[int] = []
        for start, length in doc["zero_runs"]:
            zero.extend(range(start, start + length))
        return cls(file_size=doc["file_size"], block_size=doc["block_size"],
                   zero_blocks=frozenset(zero),
                   actions=tuple(MetadataAction(a) for a in doc["actions"]))


def _rle(sorted_indices: Sequence[int]) -> List[List[int]]:
    """Run-length encode a sorted index list into [start, length] pairs."""
    runs: List[List[int]] = []
    for idx in sorted_indices:
        if runs and idx == runs[-1][0] + runs[-1][1]:
            runs[-1][1] += 1
        else:
            runs.append([idx, 1])
    return runs


def scan_zero_blocks(data: SparseFile, block_size: int) -> FrozenSet[int]:
    """Indices of all-zero blocks of ``data`` at ``block_size`` granularity.

    Works at the sparse file's chunk granularity, so scanning a mostly
    sparse multi-hundred-MB memory image touches only real chunks.
    """
    if block_size % CHUNK_SIZE == 0:
        per = block_size // CHUNK_SIZE
        n_blocks = (data.size + block_size - 1) // block_size
        zero = set()
        for b in range(n_blocks):
            first = b * per
            last = min((b + 1) * per, data.n_chunks())
            if all(data.chunk_is_zero(i) for i in range(first, last)):
                zero.add(b)
        return frozenset(zero)
    # Fallback for block sizes not aligned to the chunk size.
    n_blocks = (data.size + block_size - 1) // block_size
    zero = set()
    for b in range(n_blocks):
        blob = data.read(b * block_size, block_size)
        if blob.count(0) == len(blob):
            zero.add(b)
    return frozenset(zero)


def generate_metadata(fs: FileSystem, path: str,
                      block_size: int = NFS_BLOCK_SIZE,
                      actions: Sequence[MetadataAction] = (),
                      include_zero_map: bool = True) -> FileMetadata:
    """Pre-process ``path`` on the server and write its meta-data file.

    This is the middleware step of §3.2.2: scan the file for zero
    blocks, record the prescribed actions, and store the result next to
    the file under the special lookup name.
    """
    node = fs.lookup(path)
    zero = scan_zero_blocks(node.data, block_size) if include_zero_map \
        else frozenset()
    meta = FileMetadata(file_size=node.data.size, block_size=block_size,
                        zero_blocks=zero, actions=tuple(actions))
    meta_path = metadata_path_for(path)
    if fs.exists(meta_path):
        fs.unlink(meta_path)
    fs.create(meta_path)
    fs.write(meta_path, meta.to_bytes())
    return meta


def generate_memory_state_metadata(fs: FileSystem, path: str,
                                   block_size: int = NFS_BLOCK_SIZE) -> FileMetadata:
    """Meta-data for a VM memory state file: zero map + file channel.

    "Since for VMware the entire memory state file is always required
    ... and since it is often highly compressible, the above technique
    can be applied very efficiently" (§3.2.2).
    """
    return generate_metadata(fs, path, block_size=block_size,
                             actions=FILE_CHANNEL_ACTIONS,
                             include_zero_map=True)
