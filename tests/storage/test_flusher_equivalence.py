"""Reference-model equivalence for the parked write-behind flusher.

The production :class:`LocalFileSystem` keeps one flusher process for
its life, parked on an idle event between bursts; the oracle in
``reference_flusher.py`` spawns a process per burst.  Both replay the
same seeded schedules — async writes, bulk stages, sync writes and
reads contending for the disk arm, dirty-limit throttling, ``sync()``,
simultaneous arrivals — and every completion instant, ``Disk`` counter
and ``dirty_bytes`` observation must compare equal with ``==``; only
the event count may differ, by exactly one per burst (the completion
event of a process nobody awaits).  The last tests pin the event
budget of an async write so a later change cannot quietly put the
process back.
"""

import random

import pytest

from repro.sim import Environment
from repro.storage.disk import DiskParams
from repro.storage.localfs import LocalFileSystem
from repro.storage.vfs import CHUNK_SIZE

from tests.storage.reference_flusher import ReferenceLocalFileSystem

SCHEDULES = 48
BLOCK = 8
FILES = 3
FILE_BYTES = 4 * 1024 * 1024
LIMITS = (64 * 1024, 512 * 1024, 16 * 1024 * 1024)
KINDS = ("write", "write", "write", "write_sync", "bulk", "read", "read",
         "sync")


def make_plan(seed: int) -> dict:
    """One random schedule as plain data, so both models replay it."""
    rng = random.Random(seed)
    horizon = rng.uniform(0.05, 1.5)
    bursts = [rng.uniform(0.0, horizon) for _ in range(rng.randint(1, 4))]
    actors = []
    for _ in range(rng.randint(2, 6)):
        ops = []
        for _ in range(rng.randint(3, 14)):
            kind = rng.choice(KINDS)
            ops.append({
                "gap": rng.choice((0.0, 0.0, rng.uniform(0.0, horizon / 8))),
                "kind": kind, "file": rng.randrange(FILES),
                "offset": rng.randrange(0, FILE_BYTES // 2, CHUNK_SIZE // 2),
                "nbytes": rng.choice((0, 512, CHUNK_SIZE, 4 * CHUNK_SIZE,
                                      256 * 1024, rng.randint(1, 1 << 20))),
                "bulk": rng.choice((0, 1 << 16, 1 << 20, 3 << 20)),
                "warm": rng.sample(range(64), rng.randint(0, 4))})
        actors.append({
            "start": (rng.choice(bursts) if rng.random() < 0.6
                      else rng.uniform(0.0, horizon)),
            "ops": ops})
    return {"dirty_limit": rng.choice(LIMITS), "actors": actors,
            "positioning": rng.choice((0.0, 5.5e-3)),
            "bandwidth": rng.choice((8e6, 40e6))}


def run_plan(fs_cls, plan: dict) -> dict:
    env = Environment()
    lfs = fs_cls(env, name="node", page_cache_bytes=64 * CHUNK_SIZE,
                 disk_params=DiskParams(positioning=plan["positioning"],
                                        bandwidth=plan["bandwidth"]))
    lfs.dirty_limit = plan["dirty_limit"]
    inodes = []
    for i in range(FILES):
        inode = lfs.fs.create(f"/f{i}")
        inode.data.write(FILE_BYTES - 1, b"\0")     # sized, sparse
        inodes.append(inode)
    outcome = {"ops": []}

    def actor(index, spec):
        yield env.timeout(spec["start"])
        for k, op in enumerate(spec["ops"]):
            yield env.timeout(op["gap"])
            inode = inodes[op["file"]]
            issued = (env.now, lfs.dirty_bytes)
            if op["kind"] in ("write", "write_sync"):
                yield from lfs.timed_write_inode(
                    inode, bytes([index + 1]) * op["nbytes"], op["offset"],
                    sync=op["kind"] == "write_sync")
            elif op["kind"] == "bulk":
                yield from lfs.stage_bulk_write(inode, op["bulk"], op["warm"])
            elif op["kind"] == "read":
                yield from lfs.timed_read_inode(inode, op["offset"],
                                                op["nbytes"])
            else:
                yield from lfs.sync()
            outcome["ops"].append((index, k, issued, env.now, lfs.dirty_bytes))

    for index, spec in enumerate(plan["actors"]):
        env.process(actor(index, spec))
    env.run()                 # returns: a parked flusher holds nothing up
    outcome["ops"].sort(key=lambda op: op[:2])
    disk = lfs.disk
    outcome["disk"] = (disk.reads, disk.writes, disk.bytes_read,
                       disk.bytes_written, disk.busy_time, disk.seeks,
                       disk.queue_length)
    outcome["cache"] = (lfs.cache_hits, lfs.cache_misses, lfs.readahead_fills)
    outcome["end"] = (env.now, lfs.dirty_bytes)
    outcome["events"] = env.events_scheduled
    if fs_cls is ReferenceLocalFileSystem:
        outcome["bursts"] = lfs.bursts
    return outcome


@pytest.mark.parametrize("block", range(SCHEDULES // BLOCK))
def test_parked_flusher_matches_spawn_per_burst_reference(block):
    for seed in range(block * BLOCK, (block + 1) * BLOCK):
        plan = make_plan(seed)
        got = run_plan(LocalFileSystem, plan)
        want = run_plan(ReferenceLocalFileSystem, plan)
        saved = want.pop("events") - got.pop("events")
        bursts = want.pop("bursts")
        assert got == want, f"schedule {seed} diverged"
        assert got["end"][1] == 0
        # One completion event per burst, and nothing else.
        assert saved == bursts > 0, f"schedule {seed}"


def test_schedules_exercise_every_hazard():
    """The plans above are not vacuous: across them writers throttle on
    the dirty limit, ``sync()`` waits, reads queue behind the flusher
    and the flusher parks and is kicked again many times."""
    throttled = synced = queued = bursts = 0
    for seed in range(SCHEDULES):
        plan = make_plan(seed)
        got = run_plan(ReferenceLocalFileSystem, plan)
        kinds = {(i, k): op["kind"] for i, spec in enumerate(plan["actors"])
                 for k, op in enumerate(spec["ops"])}
        for index, k, issued, done, _ in got["ops"]:
            kind = kinds[index, k]
            waited = done > issued[0]
            throttled += kind in ("write", "bulk") and waited
            synced += kind == "sync" and waited
            queued += kind == "read" and waited and issued[1] > 0
        bursts += got["bursts"]
    assert throttled > 20 and synced > 20 and queued > 20 and bursts > 100


# -- event budgets -------------------------------------------------------------

def events_of(env, body) -> int:
    """Events scheduled by running ``body()`` (a generator function) as
    one process to quiescence, less the process's own bootstrap and
    completion."""
    before = env.events_scheduled
    env.process(body())
    env.run()
    return env.events_scheduled - before - 2


def make_fs():
    env = Environment()
    lfs = LocalFileSystem(env, name="node")
    return env, lfs, lfs.fs.create("/f")


def test_async_write_into_an_idle_file_system_costs_two_events():
    env, lfs, inode = make_fs()

    def write():
        yield from lfs.timed_write_inode(inode, b"x" * CHUNK_SIZE)

    # The first burst starts the flusher (bootstrap + disk timer); every
    # later one kicks the parked flusher (kick + disk timer).
    assert events_of(env, write) == 2
    assert events_of(env, write) == 2
    assert events_of(env, write) == 2
    assert lfs.dirty_bytes == 0 and lfs.disk.writes == 3


def test_write_while_the_flusher_runs_costs_no_event():
    env, lfs, inode = make_fs()
    spent = []

    def two_writes():
        # Both land before the flusher first runs: one batch takes both.
        yield from lfs.timed_write_inode(inode, b"x" * CHUNK_SIZE)
        before = env.events_scheduled
        yield from lfs.timed_write_inode(inode, b"y" * CHUNK_SIZE, CHUNK_SIZE)
        spent.append(env.events_scheduled - before)

    def write_mid_flush():
        yield from lfs.stage_bulk_write(inode, 1 << 16)
        yield env.timeout(1e-5)             # the disk arm is busy now
        before = env.events_scheduled
        yield from lfs.timed_write_inode(inode, b"z" * CHUNK_SIZE)
        spent.append(env.events_scheduled - before)

    assert events_of(env, two_writes) == 2          # kick + one disk timer
    # Kick, our own timeout, and one disk timer per flusher batch: the
    # late write is drained by the running flusher's next batch.
    assert events_of(env, write_mid_flush) == 4
    assert spent == [0, 0]
    assert lfs.disk.writes == 3 and lfs.dirty_bytes == 0


def test_run_returns_with_the_flusher_parked():
    env, lfs, inode = make_fs()

    def write():
        yield from lfs.timed_write_inode(inode, b"x" * CHUNK_SIZE)

    env.process(write())
    env.run()
    assert lfs.dirty_bytes == 0 and env.peek() == float("inf")
    # Parked is not dead: the next burst drains too, at disk speed.
    t0 = env.now
    env.process(write())
    env.run()
    assert lfs.dirty_bytes == 0 and lfs.disk.writes == 2
    assert env.now == t0 + lfs.disk.params.access_time(CHUNK_SIZE, True)
