"""One copy per written block: a whole block is one immutable ``bytes``
object that the kernel client, the proxy's frames and the origin all
hold by reference; a partial update builds a new object, so no holder
can change another holder's bytes."""

from repro.storage.vfs import CHUNK_SIZE, BlockRun, SparseFile

from tests.core.harness import Rig
from tests.core.test_pipelined_io import BS, PATH
from tests.core.test_write_path_machine import frame

FIRST = 16                       # the guest's blocks: FIRST .. FIRST + 7


def guest_blocks():
    return [bytes([k + 1]) * BS for k in range(8)]


def write_and_flush(rig, blocks):
    def job():
        handle = yield rig.env.process(rig.mount.open(PATH))
        for k, block in enumerate(blocks):
            yield rig.env.process(handle.write_sync((FIRST + k) * BS, block))
        yield rig.env.process(rig.session.flush())
        return handle.fh
    fh, _ = rig.run(job())
    return fh


def test_whole_block_write_sync_is_the_callers_object_everywhere():
    rig = Rig(metadata=False)
    data = bytes(range(256)) * (BS // 256)
    partial = b"\x07" * 100

    def job():
        handle = yield rig.env.process(rig.mount.open(PATH))
        yield rig.env.process(handle.write_sync(3 * BS, data))
        yield rig.env.process(handle.write_sync(5 * BS + 10, partial))
        return handle.fh
    fh, _ = rig.run(job())
    cache = rig.session.client_proxy.block_cache
    assert rig.mount.cache.peek((fh, 3)) is data
    assert frame(cache, (fh, 3)) is data
    # A part makes a new block, in the client and in the proxy alike.
    assert rig.mount.cache.peek((fh, 5))[10:110] == partial
    assert frame(cache, (fh, 5)) == rig.mount.cache.peek((fh, 5))


def test_flushed_run_lands_at_the_origin_as_the_guests_objects():
    rig = Rig(metadata=False)
    blocks = guest_blocks()
    write_and_flush(rig, blocks)
    stats = rig.session.client_proxy.layer("block-cache").stats
    assert (stats.merged_write_rpcs, stats.merged_write_blocks) == (1, 8)
    origin = rig.endpoint.export.fs.lookup(PATH).data
    assert all(origin._chunks[FIRST + k] is block
               for k, block in enumerate(blocks))


def test_garbling_a_shared_frame_or_origin_chunk_leaves_the_others():
    rig = Rig(metadata=False)
    blocks = guest_blocks()
    fh = write_and_flush(rig, blocks)
    key = (fh, FIRST)
    cache = rig.session.client_proxy.block_cache
    origin = rig.endpoint.export.fs.lookup(PATH).data
    block = blocks[0]
    assert frame(cache, key) is block and origin._chunks[FIRST] is block

    assert cache.corrupt_frame(key)
    assert frame(cache, key) != block
    assert origin._chunks[FIRST] is block
    assert rig.mount.cache.peek(key) is block
    assert block == bytes([1]) * BS

    second = (fh, FIRST + 1)
    origin.write((FIRST + 1) * BS + 100, b"\xee" * 50)
    assert origin.read((FIRST + 1) * BS + 100, 50) == b"\xee" * 50
    assert frame(cache, second) is blocks[1] == bytes([2]) * BS
    assert rig.mount.cache.peek(second) is blocks[1]


def test_block_run_is_the_joined_bytes_and_slices_to_plain_bytes():
    blocks = [bytes([k]) * CHUNK_SIZE for k in (1, 2, 3)] + [b"tail"]
    run = BlockRun.join(blocks)
    assert run == b"".join(blocks) and isinstance(run, bytes)
    assert all(a is b for a, b in zip(run.blocks, blocks))
    assert type(run[:100]) is bytes and type(run[:]) is bytes
    assert run[CHUNK_SIZE - 2:CHUNK_SIZE + 2] == b"\x01\x01\x02\x02"

    stored = SparseFile()
    stored.write(CHUNK_SIZE, run)
    assert all(stored._chunks[1 + k] is blocks[k] for k in range(3))
    assert stored.read(0, stored.size) == bytes(CHUNK_SIZE) + run
    assert type(stored._chunks[4]) is bytes
