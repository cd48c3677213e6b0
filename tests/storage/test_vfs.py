"""Unit tests for the in-memory VFS and sparse files."""

import pytest

from repro.storage.vfs import (
    CHUNK_SIZE,
    ContentSource,
    FileSystem,
    FsError,
    Inode,
    SparseFile,
    _ZERO_CHUNK,
)


class PatternSource(ContentSource):
    """Deterministic non-zero content for even chunks, zeros for odd."""

    def chunk(self, index):
        if index % 2 == 0:
            return bytes([index % 251 + 1]) * CHUNK_SIZE
        return bytes(CHUNK_SIZE)

    def is_zero(self, index):
        return index % 2 == 1


# -- SparseFile ---------------------------------------------------------------

def test_empty_file_reads_nothing():
    f = SparseFile()
    assert f.size == 0
    assert f.read(0, 100) == b""


def test_unwritten_ranges_read_zero():
    f = SparseFile(size=100)
    assert f.read(0, 100) == bytes(100)


def test_write_then_read_roundtrip():
    f = SparseFile()
    f.write(10, b"hello world")
    assert f.read(10, 11) == b"hello world"
    assert f.size == 21
    assert f.read(0, 10) == bytes(10)


def test_write_across_chunk_boundary():
    f = SparseFile()
    data = bytes(range(256)) * 100  # 25600 bytes, > 3 chunks
    f.write(CHUNK_SIZE - 13, data)
    assert f.read(CHUNK_SIZE - 13, len(data)) == data


def test_read_past_eof_is_short():
    f = SparseFile()
    f.write(0, b"abc")
    assert f.read(1, 100) == b"bc"
    assert f.read(3, 10) == b""
    assert f.read(100, 5) == b""


def test_overwrite_merges_with_existing():
    f = SparseFile()
    f.write(0, b"A" * 100)
    f.write(50, b"B" * 10)
    assert f.read(0, 100) == b"A" * 50 + b"B" * 10 + b"A" * 40


def test_negative_offsets_rejected():
    f = SparseFile()
    with pytest.raises(ValueError):
        f.read(-1, 10)
    with pytest.raises(ValueError):
        f.read(0, -10)
    with pytest.raises(ValueError):
        f.write(-1, b"x")
    with pytest.raises(ValueError):
        SparseFile(size=-1)


def test_truncate_shrink_drops_data():
    f = SparseFile()
    f.write(0, b"X" * (3 * CHUNK_SIZE))
    f.truncate(CHUNK_SIZE + 100)
    assert f.size == CHUNK_SIZE + 100
    # Re-extend: tail must read as zeros.
    f.truncate(2 * CHUNK_SIZE)
    assert f.read(CHUNK_SIZE + 100, 100) == bytes(100)
    assert f.read(CHUNK_SIZE, 100) == b"X" * 100


def test_truncate_negative_rejected():
    with pytest.raises(ValueError):
        SparseFile().truncate(-1)


def test_content_source_provides_initial_content():
    f = SparseFile(size=4 * CHUNK_SIZE, source=PatternSource())
    assert f.read(0, 4) == bytes([1]) * 4
    assert f.read(CHUNK_SIZE, 4) == bytes(4)  # odd chunk: zeros
    assert f.materialized_chunks == 0  # reading does not materialize


def test_write_overrides_source():
    f = SparseFile(size=2 * CHUNK_SIZE, source=PatternSource())
    f.write(0, b"ZZZZ")
    assert f.read(0, 4) == b"ZZZZ"
    assert f.read(4, 4) == bytes([1]) * 4  # rest of chunk keeps source data


def test_zero_chunks_over_a_source_are_one_shared_object():
    """A suspended memory image is mostly zeros written over generated
    content: each all-zero chunk must hide the source, and none may
    cost a private 8 KB."""
    source = PatternSource()
    f = SparseFile(size=6 * CHUNK_SIZE, source=source)
    model = bytearray(b"".join(source.chunk(i) for i in range(6)))
    for offset, length in ((0, CHUNK_SIZE),                      # aligned
                           (2 * CHUNK_SIZE - 10, 2 * CHUNK_SIZE + 20)):
        f.write(offset, bytes(bytearray(length)))    # a fresh object each
        model[offset:offset + length] = bytes(length)
    assert f.read(0, f.size) == model
    assert model[4 * CHUNK_SIZE + 10] == 5           # the source shows again
    assert all(f._chunks[i] is _ZERO_CHUNK for i in (0, 2, 3))
    assert [f.chunk_is_zero(i) for i in range(6)] == [
        True, True, True, True, False, True]
    f.write(0, b"\x07" * CHUNK_SIZE)                    # ... and back
    assert f.read(0, CHUNK_SIZE) == b"\x07" * CHUNK_SIZE
    # Without a source an all-zero chunk is simply absent.
    g = SparseFile()
    g.write(0, b"\x01" * CHUNK_SIZE)
    g.write(0, bytes(CHUNK_SIZE))
    assert g.materialized_chunks == 0 and g.read(0, 4) == bytes(4)


def test_chunk_is_zero_uses_source_hint():
    f = SparseFile(size=4 * CHUNK_SIZE, source=PatternSource())
    assert not f.chunk_is_zero(0)
    assert f.chunk_is_zero(1)
    f.write(CHUNK_SIZE, b"\x01")
    assert not f.chunk_is_zero(1)
    # Overwriting the lone non-zero byte makes the chunk all-zero again,
    # and zero-ness must now be detected by scanning the materialized data.
    f.write(CHUNK_SIZE, b"\x00")
    assert f.chunk_is_zero(1)
    assert f.read(CHUNK_SIZE, 2) == bytes(2)


def test_zero_chunk_indices():
    f = SparseFile(size=4 * CHUNK_SIZE, source=PatternSource())
    assert f.zero_chunk_indices() == [1, 3]


def test_iter_chunks_coalesces_zero_runs():
    f = SparseFile(size=5 * CHUNK_SIZE)
    f.write(2 * CHUNK_SIZE, b"data")
    parts = list(f.iter_chunks())
    assert parts[0] == 2 * CHUNK_SIZE          # leading zero run
    assert isinstance(parts[1], bytes)          # the data chunk
    assert parts[2] == 2 * CHUNK_SIZE          # trailing zero run


def test_iter_chunks_respects_partial_tail():
    f = SparseFile(size=CHUNK_SIZE + 100)
    total = sum(p if isinstance(p, int) else len(p) for p in f.iter_chunks())
    assert total == CHUNK_SIZE + 100


def test_copy_is_logically_independent():
    f = SparseFile()
    f.write(0, b"orig")
    c = f.copy()
    c.write(0, b"copy")
    assert f.read(0, 4) == b"orig"
    assert c.read(0, 4) == b"copy"


# -- FileSystem ----------------------------------------------------------------

def test_mkdir_create_lookup():
    fs = FileSystem()
    fs.mkdir("/a")
    fs.mkdir("/a/b")
    node = fs.create("/a/b/f.txt")
    assert fs.lookup("/a/b/f.txt") is node
    assert fs.readdir("/a") == ["b"]


def test_mkdir_parents():
    fs = FileSystem()
    fs.mkdir("/x/y/z", parents=True)
    assert fs.exists("/x/y/z")


def test_create_exclusive_conflict():
    fs = FileSystem()
    fs.create("/f")
    with pytest.raises(FsError) as e:
        fs.create("/f")
    assert e.value.code == "EEXIST"
    # Non-exclusive create returns the existing file.
    assert fs.create("/f", exclusive=False) is fs.lookup("/f")


def test_lookup_missing_raises_enoent():
    fs = FileSystem()
    with pytest.raises(FsError) as e:
        fs.lookup("/nope")
    assert e.value.code == "ENOENT"


def test_relative_path_rejected():
    fs = FileSystem()
    with pytest.raises(FsError) as e:
        fs.lookup("relative/path")
    assert e.value.code == "EINVAL"


def test_file_as_directory_raises_enotdir():
    fs = FileSystem()
    fs.create("/f")
    with pytest.raises(FsError) as e:
        fs.lookup("/f/child")
    assert e.value.code == "ENOTDIR"


def test_read_write_through_fs():
    fs = FileSystem()
    fs.create("/data")
    fs.write("/data", b"content", offset=5)
    assert fs.read("/data") == bytes(5) + b"content"
    assert fs.read("/data", offset=5, count=7) == b"content"


def test_symlink_followed_on_lookup():
    fs = FileSystem()
    fs.mkdir("/real")
    fs.create("/real/file")
    fs.write("/real/file", b"via-link")
    fs.symlink("/alias", "/real")
    assert fs.read("/alias/file") == b"via-link"
    assert fs.readlink("/alias") == "/real"
    assert fs.lookup("/alias", follow=False).kind == Inode.SYMLINK


def test_symlink_loop_detected():
    fs = FileSystem()
    fs.symlink("/a", "/b")
    fs.symlink("/b", "/a")
    with pytest.raises(FsError) as e:
        fs.lookup("/a")
    assert e.value.code == "ELOOP"


def test_readlink_on_regular_file_rejected():
    fs = FileSystem()
    fs.create("/f")
    with pytest.raises(FsError) as e:
        fs.readlink("/f")
    assert e.value.code == "EINVAL"


def test_unlink_file_and_stale_inode():
    fs = FileSystem()
    node = fs.create("/f")
    fs.unlink("/f")
    assert not fs.exists("/f")
    with pytest.raises(FsError) as e:
        fs.get_inode(node.fileid)
    assert e.value.code == "ESTALE"


def test_unlink_directory_rejected():
    fs = FileSystem()
    fs.mkdir("/d")
    with pytest.raises(FsError) as e:
        fs.unlink("/d")
    assert e.value.code == "EISDIR"


def test_rmdir_requires_empty():
    fs = FileSystem()
    fs.mkdir("/d")
    fs.create("/d/f")
    with pytest.raises(FsError) as e:
        fs.rmdir("/d")
    assert e.value.code == "ENOTEMPTY"
    fs.unlink("/d/f")
    fs.rmdir("/d")
    assert not fs.exists("/d")


def test_rename_moves_and_replaces():
    fs = FileSystem()
    fs.create("/a")
    fs.write("/a", b"A")
    fs.create("/b")
    fs.rename("/a", "/b")
    assert not fs.exists("/a")
    assert fs.read("/b") == b"A"


def test_rename_missing_source():
    fs = FileSystem()
    with pytest.raises(FsError) as e:
        fs.rename("/missing", "/dst")
    assert e.value.code == "ENOENT"


def test_get_inode_by_fileid():
    fs = FileSystem()
    node = fs.create("/f")
    assert fs.get_inode(node.fileid) is node
    assert fs.get_inode(1) is fs.root


def test_fileids_are_unique_and_stable():
    fs = FileSystem()
    ids = {fs.create(f"/f{i}").fileid for i in range(50)}
    assert len(ids) == 50


def test_walk_files():
    fs = FileSystem()
    fs.mkdir("/a/b", parents=True)
    fs.create("/a/f1")
    fs.create("/a/b/f2")
    paths = [p for p, _ in fs.walk_files("/")]
    assert paths == ["/a/b/f2", "/a/f1"]


def test_mtime_updates_on_write():
    ticks = iter(range(1, 100))
    fs = FileSystem(clock=lambda: next(ticks))
    node = fs.create("/f")
    before = node.mtime
    fs.write("/f", b"x")
    assert node.mtime > before
