"""Tests for the NFS client: resolution, caching, write-behind, consistency."""

import pytest

from repro.nfs.client import MountOptions
from repro.nfs.protocol import NfsError, NfsStatus
from tests.nfs.harness import Stack


def seed(stack, path, content):
    parts = path.strip("/").split("/")
    for i in range(1, len(parts)):
        prefix = "/" + "/".join(parts[:i])
        if not stack.server_fs.fs.exists(prefix):
            stack.server_fs.fs.mkdir(prefix)
    stack.server_fs.fs.create(path)
    stack.server_fs.fs.write(path, content)


def test_open_read_roundtrip():
    s = Stack()
    seed(s, "/dir/file.txt", b"grid virtual file system")

    def proc(env):
        f = yield env.process(s.mount.open("/dir/file.txt"))
        data = yield env.process(f.read(0, 100))
        return data

    value, _ = s.run(proc(s.env))
    assert value == b"grid virtual file system"


def test_read_window():
    s = Stack()
    seed(s, "/f", bytes(range(200)))

    def proc(env):
        f = yield env.process(s.mount.open("/f"))
        return (yield env.process(f.read(50, 25)))

    value, _ = s.run(proc(s.env))
    assert value == bytes(range(50, 75))


def test_read_past_eof_short():
    s = Stack()
    seed(s, "/f", b"abc")

    def proc(env):
        f = yield env.process(s.mount.open("/f"))
        tail = yield env.process(f.read(2, 50))
        beyond = yield env.process(f.read(10, 5))
        return tail, beyond

    (tail, beyond), _ = s.run(proc(s.env))
    assert tail == b"c"
    assert beyond == b""


def test_open_missing_raises_nfs_error():
    s = Stack()

    def proc(env):
        try:
            yield env.process(s.mount.open("/missing"))
        except NfsError as exc:
            return exc.status

    value, _ = s.run(proc(s.env))
    assert value is NfsStatus.NOENT


def test_buffer_cache_hits_avoid_rpc():
    s = Stack()
    seed(s, "/f", b"x" * 8192)

    def proc(env):
        f = yield env.process(s.mount.open("/f"))
        yield env.process(f.read(0, 8192))
        before = s.rpc.stats.by_proc.get("READ", 0)
        yield env.process(f.read(0, 8192))
        return before, s.rpc.stats.by_proc.get("READ", 0)

    (before, after), _ = s.run(proc(s.env))
    assert before == 1
    assert after == 1  # second read: pure cache hit


def test_write_read_your_writes_before_flush():
    s = Stack(latency=0.050, bandwidth=1e6)  # slow link: flush lags
    seed(s, "/f", b"A" * 16384)

    def proc(env):
        f = yield env.process(s.mount.open("/f"))
        yield env.process(f.write(100, b"NEW"))
        data = yield env.process(f.read(98, 8))
        return data

    value, _ = s.run(proc(s.env))
    assert value == b"AANEWAAA"


def test_close_flushes_to_server():
    s = Stack()
    seed(s, "/f", b"")

    def proc(env):
        f = yield env.process(s.mount.open("/f"))
        yield env.process(f.write(0, b"durable"))
        yield env.process(f.close())
        return s.server_fs.fs.read("/f")

    value, _ = s.run(proc(s.env))
    assert value == b"durable"


def test_append_extends_file():
    s = Stack()
    seed(s, "/f", b"12345")

    def proc(env):
        f = yield env.process(s.mount.open("/f"))
        yield env.process(f.write(5, b"6789"))
        yield env.process(f.close())
        return f.size, s.server_fs.fs.read("/f")

    (size, server_view), _ = s.run(proc(s.env))
    assert size == 9
    assert server_view == b"123456789"


def test_partial_block_write_preserves_rest():
    s = Stack()
    seed(s, "/f", b"Z" * 20000)

    def proc(env):
        f = yield env.process(s.mount.open("/f"))
        yield env.process(f.write(9000, b"mid"))
        yield env.process(f.close())
        return s.server_fs.fs.read("/f")

    value, _ = s.run(proc(s.env))
    assert value[:9000] == b"Z" * 9000
    assert value[9000:9003] == b"mid"
    assert value[9003:] == b"Z" * (20000 - 9003)


def test_create_and_write_new_file():
    s = Stack()

    def proc(env):
        f = yield env.process(s.mount.create("/new.bin"))
        yield env.process(f.write(0, b"\x01\x02"))
        yield env.process(f.close())
        return s.server_fs.fs.read("/new.bin")

    value, _ = s.run(proc(s.env))
    assert value == b"\x01\x02"


def test_namespace_operations_through_client():
    s = Stack()

    def proc(env):
        yield env.process(s.mount.mkdir("/d"))
        f = yield env.process(s.mount.create("/d/f"))
        yield env.process(f.close())
        yield env.process(s.mount.symlink("/d/ln", "/d/f"))
        target = yield env.process(s.mount.readlink("/d/ln"))
        names = yield env.process(s.mount.readdir("/d"))
        yield env.process(s.mount.rename("/d/f", "/d/g"))
        yield env.process(s.mount.remove("/d/g"))
        after = yield env.process(s.mount.readdir("/d"))
        return target, names, after

    (target, names, after), _ = s.run(proc(s.env))
    assert target == "/d/f"
    assert names == ["f", "ln"]
    assert after == ["ln"]


def test_symlink_followed_on_open():
    s = Stack()
    seed(s, "/real", b"through the link")

    def proc(env):
        yield env.process(s.mount.symlink("/alias", "/real"))
        f = yield env.process(s.mount.open("/alias"))
        return (yield env.process(f.read(0, 100)))

    value, _ = s.run(proc(s.env))
    assert value == b"through the link"


def test_dirty_limit_throttles_writer():
    opts = MountOptions(dirty_limit=64 * 1024, write_concurrency=1)
    s = Stack(latency=0.010, bandwidth=1e6, options=opts)
    seed(s, "/f", b"")

    def proc(env):
        f = yield env.process(s.mount.open("/f"))
        yield env.process(f.write(0, b"q" * 512 * 1024))
        return env.now

    value, _ = s.run(proc(s.env))
    # Must have waited for several WRITE round trips, not returned at ~0.
    assert value > 0.010 * 10


def test_mtime_change_invalidates_cache_on_open():
    s = Stack(options=MountOptions(attr_timeout=0.0))
    seed(s, "/f", b"old-contents")

    def proc(env):
        f = yield env.process(s.mount.open("/f"))
        first = yield env.process(f.read(0, 12))
        # Another party rewrites the file server-side.
        yield env.timeout(1)
        s.server_fs.fs.write("/f", b"new-contents")
        f2 = yield env.process(s.mount.open("/f"))
        second = yield env.process(f2.read(0, 12))
        return first, second

    (first, second), _ = s.run(proc(s.env))
    assert first == b"old-contents"
    assert second == b"new-contents"


def test_attr_cache_suppresses_getattr_within_timeout():
    s = Stack(options=MountOptions(attr_timeout=30.0))
    seed(s, "/f", b"data")

    def proc(env):
        yield env.process(s.mount.open("/f"))
        count_after_first = s.rpc.stats.by_proc.get("GETATTR", 0)
        yield env.process(s.mount.open("/f"))
        return count_after_first, s.rpc.stats.by_proc.get("GETATTR", 0)

    (first, second), _ = s.run(proc(s.env))
    assert second == first  # re-open within timeout: no extra GETATTR


def test_drop_caches_requires_clean_state():
    s = Stack(latency=0.050, bandwidth=1e6)
    seed(s, "/f", b"")

    def proc(env):
        f = yield env.process(s.mount.open("/f"))
        yield env.process(f.write(0, b"dirty"))
        try:
            s.mount.drop_caches()
            return "allowed"
        except RuntimeError:
            pass
        yield env.process(s.mount.flush_all())
        s.mount.drop_caches()
        return "ok"

    value, _ = s.run(proc(s.env))
    assert value == "ok"


def test_unmount_flushes():
    s = Stack()
    seed(s, "/f", b"")

    def proc(env):
        f = yield env.process(s.mount.open("/f"))
        yield env.process(f.write(0, b"bye"))
        yield env.process(s.client.unmount("/mnt"))
        return s.server_fs.fs.read("/f")

    value, _ = s.run(proc(s.env))
    assert value == b"bye"
    assert "/mnt" not in s.client.mounts


def test_read_all_streams_whole_file():
    s = Stack()
    payload = bytes(i % 256 for i in range(50_000))
    seed(s, "/blob", payload)

    def proc(env):
        f = yield env.process(s.mount.open("/blob"))
        return (yield env.process(f.read_all()))

    value, _ = s.run(proc(s.env))
    assert value == payload


def test_readahead_speeds_up_sequential_wan_reads():
    payload = bytes(512 * 1024)

    def run_with(readahead):
        s = Stack(latency=0.020, bandwidth=12.5e6,
                  options=MountOptions(readahead=readahead))
        seed(s, "/big", payload)

        def proc(env):
            f = yield env.process(s.mount.open("/big"))
            yield env.process(f.read_all())

        _, t = s.run(proc(s.env))
        return t

    serial = run_with(0)
    pipelined = run_with(4)
    assert pipelined < serial * 0.5


def test_truncate_through_client():
    s = Stack()
    seed(s, "/f", b"0123456789")

    def proc(env):
        f = yield env.process(s.mount.open("/f"))
        yield env.process(f.truncate(4))
        attrs = yield env.process(s.mount.stat("/f"))
        return attrs.size, s.server_fs.fs.read("/f")

    (size, data), _ = s.run(proc(s.env))
    assert size == 4
    assert data == b"0123"


def test_whole_block_write_stages_the_callers_object():
    """A whole aligned block is staged as the immutable object handed
    in (a VM suspending a mostly-zero memory image stages one shared
    zero block, not a copy per block); anything else is merged."""
    s = Stack()
    seed(s, "/f", b"A" * 32768)
    zero, other = bytes(8192), b"B" * 8192

    def proc(env):
        f = yield env.process(s.mount.open("/f"))
        yield env.process(f.write(0, zero))
        yield env.process(f.write(8192, other))
        staged = [s.mount.cache.peek((f.fh, idx)) for idx in (0, 1)]
        yield env.process(f.write(16384 + 5, b"xyz"))
        data = yield env.process(f.read(0, 32768))
        yield env.process(f.close())
        return staged, data

    (staged, data), _ = s.run(proc(s.env))
    assert staged[0] is zero and staged[1] is other
    expected = zero + other + b"A" * 5 + b"xyz" + b"A" * (16384 - 8)
    assert data == expected
    assert s.server_fs.fs.read("/f") == expected
