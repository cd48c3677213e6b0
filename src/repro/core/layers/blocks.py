"""Block-cache layer: the proxy disk cache with write-back (§3.2.1).

Block-aligned READs are served from the set-associative disk cache;
misses fetch the whole enclosing block from upstream, coalescing
concurrent fetches of one block onto a single RPC via per-block gates.
Writes are absorbed (write-back) or mirrored through (write-through)
with read-modify-write merging into complete frames.  ``flush`` pushes
dirty blocks upstream in coalesced runs — adjacent blocks of one file
merged into single large WRITEs, several RPCs pipelined — then COMMITs
each touched file.

Degraded-mode decisions (clean error on a miss with the upstream down,
the dirty high-water mark, write rejects during an outage) are
delegated sideways to the fault-guard layer; readahead bookkeeping
(run detection, prefetch accounting) to the readahead layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

from repro.core.config import CachePolicy
from repro.core.layers.base import ProxyLayer
from repro.nfs.protocol import (FileHandle, NfsProc, NfsReply, NfsRequest,
                                NfsStatus)
from repro.nfs.rpc import RpcTimeout
from repro.sim import AllOf
from repro.storage.vfs import BlockRun

__all__ = ["BlockCacheLayer"]


@dataclass
class BlockCacheStats:
    block_cache_hits: int = 0
    block_cache_misses: int = 0
    coalesced_misses: int = 0       # READs that waited on an in-flight fetch
    absorbed_writes: int = 0        # writes absorbed into the write-back cache
    absorbed_commits: int = 0       # client COMMITs answered locally
    writebacks: int = 0             # dirty blocks pushed upstream
    merged_write_rpcs: int = 0      # coalesced upstream WRITEs during flush
    merged_write_blocks: int = 0    # blocks those WRITEs carried
    recovered_dirty_blocks: int = 0 # dirty frames rebuilt from the journal
    frames_corrupted: int = 0       # cached frames garbled by fault injection
    procs_blackholed: int = 0       # incoming RPCs parked by a blackhole fault
    procs_delayed: int = 0          # incoming RPCs slowed by a delay fault
    procs_duplicated: int = 0       # incoming RPCs delivered twice by a fault


class BlockCacheLayer(ProxyLayer):
    """Serve block-aligned I/O from the proxy disk cache."""

    ROLE = "block-cache"
    Stats = BlockCacheStats
    FAULT_PROCS = True

    def __init__(self, block_cache):
        super().__init__()
        self.block_cache = block_cache
        # (fh, block) -> in-progress block fetch gate: N concurrent READs
        # of one uncached block coalesce onto a single upstream RPC.
        self.gates: dict = {}

    # --------------------------------------------------------------- sideways
    @property
    def _readahead(self):
        return self.stack.layer("readahead")

    @property
    def _guard(self):
        return self.stack.layer("fault-guard")

    @property
    def hit_ratio(self) -> float:
        """hits / (hits + misses) so far (0.0 before any block traffic)."""
        seen = self.stats.block_cache_hits + self.stats.block_cache_misses
        return self.stats.block_cache_hits / seen if seen else 0.0

    @property
    def write_back(self) -> bool:
        return (self.config.cache is not None
                and self.config.cache.policy is CachePolicy.WRITE_BACK)

    # ------------------------------------------------------------- fault port
    def inject_fault(self, kind: str, arg=None) -> None:
        """Corrupt one cached frame in place, or arm per-proc faults.

        ``corrupt-frame`` garbles the ``arg``-th (mod population, so a
        seeded sweep never misses) clean cached frame on disk — the
        cache tag stays valid, exactly the silent-corruption case an
        end-to-end checksum must catch.
        """
        if kind == "corrupt-frame":
            keys = self.block_cache.iter_clean_keys()
            if not keys:
                return
            key = keys[(arg or 0) % len(keys)]
            if self.block_cache.corrupt_frame(key):
                self.stats.frames_corrupted += 1
            return
        super().inject_fault(kind, arg)

    def discard_block(self, key) -> bool:
        """Drop one clean cached block (checksum-repair refetch path)."""
        return self.block_cache.discard(key)

    # ------------------------------------------------------------------ handle
    def handle(self, request) -> Generator:
        if self.proc_faults is not None:
            duplicate = yield from self.apply_proc_faults(request)
            if duplicate:
                # Deliver the duplicate first and drop its reply — the
                # caller sees only the second, like a retransmission
                # whose original also arrived.
                yield from self._route(request)
        return (yield from self._route(request))

    def _route(self, request) -> Generator:
        proc = request.proc
        if proc is NfsProc.READ:
            return (yield from self._handle_read(request))
        if proc is NfsProc.WRITE:
            return (yield from self._handle_write(request))
        if proc is NfsProc.COMMIT and self.write_back \
                and self.config.absorb_commits:
            self.stats.absorbed_commits += 1
            return NfsReply(proc, NfsStatus.OK, fh=request.fh)
        return (yield from self.next.handle(request))

    # -------------------------------------------------------------------- READ
    def _handle_read(self, request) -> Generator:
        fh, offset, count = request.fh, request.offset, request.count
        meta = self.stack.cached_meta(fh)

        # The kernel client issues block-aligned reads of the mount's
        # rsize; requests that do not fit one frame pass down untouched.
        bs = self.stack.block_size()
        idx, within = divmod(offset, bs)
        if within + count > bs:
            return (yield from self.next.handle(request))
        key = (fh, idx)
        while True:
            hit = yield from self.block_cache.lookup(key)
            if hit is not None:
                self.stats.block_cache_hits += 1
                guard = self._guard
                if guard is not None:
                    # Read-only degraded mode: clean cached data keeps
                    # the VM running through the outage.
                    guard.note_cached_read()
                readahead = self._readahead
                if readahead is not None:
                    readahead.consume_prefetch(key, meta)
                data = hit.data[within:within + count]
                eof = len(hit.data) < bs and within + count >= len(hit.data)
                return NfsReply(NfsProc.READ, NfsStatus.OK, fh=fh, data=data,
                                count=len(data), eof=eof)
            gate = self.gates.get(key)
            if gate is None:
                break
            # Another READ (demand or readahead) already has this block
            # on the wire: wait for its frame instead of issuing a
            # second upstream RPC for the same bytes.
            self.stats.coalesced_misses += 1
            yield gate
        self.stats.block_cache_misses += 1
        readahead = self._readahead
        if readahead is not None:
            readahead.note_demand_miss(fh, idx, meta)
        gate = self.env.event()
        self.gates[key] = gate
        victim = None
        try:
            upstream_req = request.replace(offset=idx * bs, count=bs)
            guard = self._guard
            if guard is not None:
                # Upstream unreachable and the block is not cached: the
                # VM gets a clean I/O error, not a hang.
                reply = yield from guard.guarded_fetch(upstream_req)
            else:
                reply = yield from self.next.handle(upstream_req)
            if reply.ok:
                victim = yield from self.block_cache.insert(
                    key, reply.data, dirty=False)
        finally:
            # Always release the gate, even when the upstream RPC fails —
            # a failed fetch must never wedge later READs of this block.
            # (A proxy crash may have already succeeded and dropped it.)
            # Once out of the table nobody new can find the gate, so
            # one that gathered no waiter is dropped, not fired.
            if self.gates.get(key) is gate:
                del self.gates[key]
            if gate.callbacks and not gate.triggered:
                gate.succeed()
        if not reply.ok:
            return reply
        if victim is not None:
            yield from self.dispose_victim(victim)
        data = reply.data[within:within + count]
        eof = reply.eof and within + count >= len(reply.data)
        return NfsReply(NfsProc.READ, NfsStatus.OK, fh=fh, data=data,
                        count=len(data), eof=eof,
                        attrs=self.stack.patched_attrs(fh, reply.attrs))

    # ------------------------------------------------------------------- WRITE
    def _handle_write(self, request) -> Generator:
        fh, offset, data = request.fh, request.offset, request.data

        if self.block_cache.read_only:
            # A shared read-only cache (golden-image data only, §3.2.1):
            # writes pass straight through.
            return (yield from self.next.handle(request))

        # One piece per frame touched: the kernel client writes within
        # a frame, the flush of a proxy below sends coalesced runs —
        # which must leave no frame they cover holding older bytes.
        bs = self.stack.block_size()
        idx, within = divmod(offset, bs)
        pieces = [((fh, idx), within, data)]
        if within + len(data) > bs:
            pieces = [((fh, idx), within, data[:bs - within])]
            for pos in range(bs - within, len(data), bs):
                idx += 1
                pieces.append(((fh, idx), 0, data[pos:pos + bs]))

        if not self.write_back:
            # Write-through: server first, then refresh the cached copy.
            reply = yield from self.next.handle(request)
            if reply.ok:
                for key, within, piece in pieces:
                    try:
                        yield from self.merge_into_cache(key, within, piece)
                    except RpcTimeout:
                        pass   # server has the data; only the cache refresh failed
                self.stack.bump_local_size(fh, offset + len(data))
            return reply

        # Write-back: absorb into the disk cache and acknowledge.  The
        # fault guard enforces the dirty high-water mark first: at the
        # limit, a write that would dirty a *new* frame drains a run
        # synchronously — or, with the upstream down, is rejected.
        guard = self._guard
        if guard is not None:
            for key, _, _ in pieces:
                rejected = yield from guard.ensure_write_capacity(key)
                if rejected is not None:
                    return rejected
        try:
            for key, within, piece in pieces:
                yield from self.merge_into_cache(key, within, piece,
                                                 dirty=True)
        except RpcTimeout:
            # The read-modify-write base fetch failed; absorbing the
            # partial write over a zeroed base would corrupt the block
            # at flush time, so fail the write cleanly instead.
            if guard is not None:
                return guard.reject_write(fh)
            return NfsReply(NfsProc.WRITE, NfsStatus.IO, fh=fh)
        readahead = self._readahead
        if readahead is not None:
            for key, _, _ in pieces:
                readahead.forget_prefetch(key)
        self.stats.absorbed_writes += 1
        self.stack.bump_local_size(fh, offset + len(data))
        return NfsReply(NfsProc.WRITE, NfsStatus.OK, fh=fh, count=len(data))

    def merge_into_cache(self, key, within: int, data: bytes,
                         dirty: bool = False) -> Generator:
        """Process: read-modify-write ``data`` into the cached block.

        A piece covering the whole frame is stored as the caller's own
        immutable object; a partial one builds a new block, so no other
        holder of the old bytes sees the change.
        """
        fh, idx = key
        bs = self.stack.block_size()
        existing = yield from self.block_cache.lookup(key)
        if existing is not None:
            dirty = dirty or existing.dirty
        if within == 0 and len(data) == bs and type(data) is bytes:
            block = data
        else:
            if existing is not None:
                base = bytearray(existing.data)
            elif 0 < within or len(data) < bs:
                # Partial block not yet cached: fetch it so the cache
                # holds a complete frame for later reads/write-back.
                reply = yield from self.stack.upstream.call(NfsRequest(
                    NfsProc.READ, fh=fh, offset=idx * bs, count=bs,
                    credentials=self.config.identity or (0, 0)))
                base = bytearray(reply.data if reply.ok else b"")
            else:
                base = bytearray()
            if len(base) < within + len(data):
                base.extend(bytes(within + len(data) - len(base)))
            base[within:within + len(data)] = data
            block = bytes(base)
        victim = yield from self.block_cache.insert(key, block, dirty=dirty)
        if victim is not None:
            yield from self.dispose_victim(victim)

    # -------------------------------------------------------------- write-back
    def dispose_victim(self, victim) -> Generator:
        """Process: push one (dirty) eviction victim upstream."""
        yield from self.write_back_block(victim.key, victim.data)

    def write_back_block(self, key, data: bytes) -> Generator:
        """Process: push one dirty block upstream."""
        fh, idx = key
        reply = yield from self.stack.upstream.call(NfsRequest(
            NfsProc.WRITE, fh=fh, offset=idx * self.stack.block_size(),
            data=data, stable=False,
            credentials=self.config.identity or (0, 0)))
        reply.raise_for_status(f"write-back {fh} block {idx}")
        self.stats.writebacks += 1

    def write_back_run(self, run: List[Tuple[FileHandle, int]]) -> Generator:
        """Process: push one run of adjacent dirty blocks upstream as
        merged WRITE RPCs.

        Re-validated as it goes: a concurrent readahead insert can evict
        (and itself write back) parts of the run while we wait on RPCs,
        so each pass keeps only still-dirty keys and re-splits on the
        adjacency that is left.
        """
        fh = run[0][0]
        bs = self.stack.block_size()
        remaining = list(run)
        while remaining:
            live = [k for k in remaining if self.block_cache.is_dirty(k)]
            if not live:
                return
            end = 1
            while end < len(live) and live[end][1] == live[end - 1][1] + 1:
                end += 1
            sub, remaining = live[:end], live[end:]
            datas = yield from self.block_cache.read_many(sub)
            # The frames' own objects go upstream: one alone, or joined
            # into a run that still carries them.
            reply = yield from self.stack.upstream.call(NfsRequest(
                NfsProc.WRITE, fh=fh, offset=sub[0][1] * bs,
                data=datas[0] if len(datas) == 1 else BlockRun.join(datas),
                stable=False, credentials=self.config.identity or (0, 0)))
            reply.raise_for_status(
                f"write-back {fh} blocks {sub[0][1]}..{sub[-1][1]}")
            for key in sub:
                self.block_cache.mark_clean(key)
            self.stats.writebacks += len(sub)
            self.stats.merged_write_rpcs += 1
            self.stats.merged_write_blocks += len(sub)

    # --------------------------------------------------------------- lifecycle
    def flush(self) -> Generator:
        """Process: dirty blocks upstream in coalesced, pipelined runs,
        then one COMMIT per touched file."""
        runs = self.block_cache.dirty_runs(self.config.write_coalesce_bytes)
        touched = set()
        width = self.config.write_pipeline_depth
        for start in range(0, len(runs), width):
            batch = runs[start:start + width]
            for run in batch:
                touched.update(key[0] for key in run)
            if len(batch) == 1:
                yield from self.write_back_run(batch[0])
            else:
                yield AllOf(self.env, [
                    self.env.process(self.write_back_run(run))
                    for run in batch])
        for fh in sorted(touched, key=lambda f: (f.fsid, f.fileid)):
            reply = yield from self.stack.upstream.call(NfsRequest(
                NfsProc.COMMIT, fh=fh))
            reply.raise_for_status("flush commit")

    def crash(self) -> None:
        for gate in self.gates.values():
            if not gate.triggered:
                gate.succeed()
        self.gates.clear()
        self.block_cache.crash()

    def recover(self) -> Generator:
        recovered = yield from self.block_cache.recover_from_journal()
        self.stats.recovered_dirty_blocks += len(recovered)
        return recovered

    def quiesce(self) -> Generator:
        while self.gates:
            key = next(iter(self.gates))
            yield self.gates[key]

    def invalidate_guard(self) -> Optional[str]:
        if self.gates:
            return "invalidate with fetches in flight; quiesce first"
        return None

    def invalidate(self) -> None:
        self.block_cache.flush_tags()

    def dirty_blocks(self) -> int:
        return len(self.block_cache.dirty_blocks())

    def stats_snapshot(self, deep: bool = False) -> dict:
        # Beyond the request counters, the cache's own occupancy and
        # churn.
        snap = super().stats_snapshot()
        cache = self.block_cache
        snap["cache_insertions"] = cache.insertions
        snap["cache_evictions"] = cache.evictions
        snap["cached_blocks"] = cache.cached_blocks
        snap["capacity_frames"] = cache.config.total_frames
        return snap

    def reset(self) -> None:
        super().reset()
        self.block_cache.reset_stats()
