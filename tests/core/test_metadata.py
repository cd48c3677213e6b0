"""Tests for meta-data generation, serialization and queries (§3.2.2)."""

import pytest

from repro.core.metadata import (
    FILE_CHANNEL_ACTIONS,
    FileMetadata,
    MetadataAction,
    generate_memory_state_metadata,
    generate_metadata,
    metadata_name_for,
    metadata_path_for,
    scan_zero_blocks,
)
from repro.storage.vfs import CHUNK_SIZE, FileSystem, SparseFile


def test_metadata_path_naming():
    assert metadata_path_for("/images/vm1.vmss") == "/images/.vm1.vmss.gvfs"
    assert metadata_name_for("vm1.vmss") == ".vm1.vmss.gvfs"


def test_scan_zero_blocks_sparse():
    f = SparseFile(size=8 * CHUNK_SIZE)
    f.write(2 * CHUNK_SIZE, b"\x01")
    f.write(5 * CHUNK_SIZE + 100, b"\x02")
    zero = scan_zero_blocks(f, CHUNK_SIZE)
    assert zero == frozenset({0, 1, 3, 4, 6, 7})


def test_scan_zero_blocks_multichunk_block():
    f = SparseFile(size=8 * CHUNK_SIZE)
    f.write(3 * CHUNK_SIZE, b"\x01")
    zero = scan_zero_blocks(f, 2 * CHUNK_SIZE)  # blocks of 2 chunks
    assert zero == frozenset({0, 2, 3})  # block 1 covers chunks 2-3 (dirty)


def test_scan_zero_blocks_unaligned_block_size():
    f = SparseFile(size=10_000)
    f.write(5_000, b"\x01")
    zero = scan_zero_blocks(f, 3_000)  # not a multiple of CHUNK_SIZE
    assert 1 not in zero
    assert 0 in zero


def test_serialization_roundtrip():
    meta = FileMetadata(file_size=123456, block_size=8192,
                        zero_blocks=frozenset({0, 1, 2, 7, 9, 10}),
                        actions=FILE_CHANNEL_ACTIONS)
    again = FileMetadata.from_bytes(meta.to_bytes())
    assert again == meta


def test_serialization_rejects_bad_magic():
    with pytest.raises(ValueError):
        FileMetadata.from_bytes(b"NOT-META\n{}")


def test_rle_compactness():
    meta = FileMetadata(file_size=8192 * 100_000, block_size=8192,
                        zero_blocks=frozenset(range(90_000)))
    assert len(meta.to_bytes()) < 500  # one run, tiny file


def test_covers_read():
    meta = FileMetadata(file_size=10 * 8192, block_size=8192,
                        zero_blocks=frozenset({0, 1, 2, 5}))
    assert meta.covers_read(0, 8192)
    assert meta.covers_read(0, 3 * 8192)
    assert meta.covers_read(100, 200)          # inside block 0
    assert not meta.covers_read(2 * 8192, 2 * 8192)  # spans block 3
    assert not meta.covers_read(3 * 8192, 1)
    assert meta.covers_read(5 * 8192, 8192)
    assert meta.covers_read(0, 0)              # empty read trivially covered


def test_covers_read_clamps_to_file_size():
    meta = FileMetadata(file_size=8192 + 10, block_size=8192,
                        zero_blocks=frozenset({0, 1}))
    # Read beyond EOF only touches blocks 0-1, both zero.
    assert meta.covers_read(0, 100 * 8192)
    # One-block reads take a single probe; one starting at or past EOF
    # touches no block at all.
    assert meta.covers_read(8192, 8192) and meta.covers_read(8192 + 9, 1)
    assert meta.covers_read(8192 + 10, 8192) and meta.covers_read(5 * 8192, 1)
    sparse = FileMetadata(file_size=8192 + 10, block_size=8192,
                          zero_blocks=frozenset({0}))
    assert not sparse.covers_read(8192, 8192)
    assert not sparse.covers_read(8000, 8192)      # spans blocks 0-1
    assert sparse.covers_read(2 * 8192, 8192)


def test_is_zero_block_and_counts():
    meta = FileMetadata(file_size=4 * 8192, block_size=8192,
                        zero_blocks=frozenset({1, 3}))
    assert meta.is_zero_block(1)
    assert not meta.is_zero_block(0)
    assert meta.n_blocks == 4
    assert meta.n_zero_blocks == 2


def test_generate_metadata_writes_special_file():
    fs = FileSystem()
    fs.mkdir("/images")
    fs.create("/images/mem.vmss", size=4 * 8192)
    fs.write("/images/mem.vmss", b"\x07" * 100, offset=8192)
    meta = generate_metadata(fs, "/images/mem.vmss",
                             actions=[MetadataAction.READ_LOCALLY])
    assert fs.exists("/images/.mem.vmss.gvfs")
    parsed = FileMetadata.from_bytes(fs.read("/images/.mem.vmss.gvfs"))
    assert parsed == meta
    assert parsed.zero_blocks == frozenset({0, 2, 3})
    assert parsed.actions == (MetadataAction.READ_LOCALLY,)


def test_generate_metadata_overwrites_previous():
    fs = FileSystem()
    fs.create("/f", size=8192)
    generate_metadata(fs, "/f")
    fs.write("/f", b"\x01")
    meta = generate_metadata(fs, "/f")
    assert meta.zero_blocks == frozenset()


def test_memory_state_metadata_uses_file_channel():
    fs = FileSystem()
    fs.create("/mem.vmss", size=16 * 8192)
    meta = generate_memory_state_metadata(fs, "/mem.vmss")
    assert meta.wants_file_channel
    assert meta.actions == FILE_CHANNEL_ACTIONS
    assert meta.n_zero_blocks == 16


def test_paper_zero_filter_ratio():
    """§3.2.2: a 512 MB post-boot memory image has ~92% zero blocks —
    the metadata machinery must report that fraction for such a file."""
    from repro.vm.image import make_memory_state  # deferred import
    f = make_memory_state(512 * 1024 * 1024, zero_fraction=0.92, seed=1)
    zero = scan_zero_blocks(f, 8192)
    total = (f.size + 8191) // 8192
    assert 0.90 < len(zero) / total < 0.94
