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

Exclusive-cascade demotion (off by default): once :meth:`arm_demotion`
verifies the next level up also runs a block cache, clean eviction
victims are handed upstream as ``DEMOTE`` calls carrying the block
bytes — the receiver caches them without re-reading origin — instead
of being dropped, so stacked cascade levels stop holding duplicate
copies of the same golden-image blocks.  Adaptive sizing can also
``bypass`` a level whose cache stopped paying: a bypassed layer passes
every request straight down and absorbs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

from repro.core.config import CachePolicy
from repro.core.layers.base import ProxyLayer
from repro.nfs.protocol import (FileHandle, NfsError, NfsProc, NfsReply,
                                NfsRequest, NfsStatus)
from repro.nfs.rpc import RpcTimeout
from repro.sim import AllOf, AnyOf

__all__ = ["BlockCacheLayer"]

#: Sentinel distinguishing the demote deadline from a (None) failed send.
_DEMOTE_LOST = object()


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
    demotions_out: int = 0          # clean victims DEMOTEd to the next level
    demotions_in: int = 0           # demoted blocks absorbed from below
    demotion_drops: int = 0         # demotes refused or failed (best-effort)
    demotion_timeouts: int = 0      # demotes abandoned at the send deadline
    bypassed_requests: int = 0      # requests passed through while bypassed
    frames_corrupted: int = 0       # cached frames garbled by fault injection
    procs_blackholed: int = 0       # incoming RPCs parked by a blackhole fault
    procs_delayed: int = 0          # incoming RPCs slowed by a delay fault
    procs_duplicated: int = 0       # incoming RPCs delivered twice by a fault


class BlockCacheLayer(ProxyLayer):
    """Serve block-aligned I/O from the proxy disk cache."""

    ROLE = "block-cache"
    Stats = BlockCacheStats
    FAULT_PROCS = True
    #: Seconds a demote send may spend before being abandoned (a clean
    #: victim is re-fetchable; an outage must not wedge the eviction).
    DEMOTE_DEADLINE = 2.0

    def __init__(self, block_cache):
        super().__init__()
        self.block_cache = block_cache
        # (fh, block) -> in-progress block fetch gate: N concurrent READs
        # of one uncached block coalesce onto a single upstream RPC.
        self.gates: dict = {}
        #: Exclusive-cascade demotion, armed via :meth:`arm_demotion`.
        self.demote_enabled = False
        #: Adaptive-sizing bypass: pass everything straight down.
        self.bypassed = False

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
        end-to-end checksum must catch.  The per-proc kinds matter here
        because DEMOTE enters a stack through its front door and is
        routed to this layer, bypassing the sender's terminal.
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
        if proc is NfsProc.DEMOTE:
            return (yield from self._handle_demote(request))
        if self.bypassed:
            self.stats.bypassed_requests += 1
            return (yield from self.next.handle(request))
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
        """Process: read-modify-write ``data`` into the cached block."""
        fh, idx = key
        bs = self.stack.block_size()
        existing = yield from self.block_cache.lookup(key)
        if existing is not None:
            base = bytearray(existing.data)
            dirty = dirty or existing.dirty
        elif 0 < within or len(data) < bs:
            # Partial block not yet cached: fetch it so the cache holds a
            # complete frame for later reads/write-back (read-modify-write).
            reply = yield from self.stack.upstream.call(NfsRequest(
                NfsProc.READ, fh=fh, offset=idx * bs, count=bs,
                credentials=self.config.identity or (0, 0)))
            base = bytearray(reply.data if reply.ok else b"")
        else:
            base = bytearray()
        if len(base) < within + len(data):
            base.extend(bytes(within + len(data) - len(base)))
        base[within:within + len(data)] = data
        victim = yield from self.block_cache.insert(key, bytes(base),
                                                    dirty=dirty)
        if victim is not None:
            yield from self.dispose_victim(victim)

    # --------------------------------------------------- exclusive demotion
    def arm_demotion(self) -> bool:
        """Arm exclusive-cascade demotion for this level.

        Only sensible — and only safe — when the next level up also
        runs a writable block cache of the same block size: the kernel
        NFS server does not speak ``DEMOTE``, and a demoted block must
        land in a frame it fits.  Returns whether demotion was armed;
        arming also turns on clean-victim capture in the cache (the
        only way clean victims surface at all).
        """
        up = self.stack.upstream_stack()
        if up is None:
            return False
        target = up.layer("block-cache")
        if target is None or target.block_cache.read_only:
            return False
        if up.block_size() != self.stack.block_size():
            return False
        self.demote_enabled = True
        self.block_cache.capture_clean_victims = True
        return True

    def dispose_victim(self, victim) -> Generator:
        """Process: route one eviction victim — dirty blocks write back
        upstream; clean ones (surfaced only while demotion is armed)
        demote one hop up."""
        if victim.dirty:
            yield from self.write_back_block(victim.key, victim.data)
        else:
            yield from self.demote_block(victim.key, victim.data)

    def demote_block(self, key, data: bytes) -> Generator:
        """Process: hand one clean eviction victim to the next level up.

        Best effort: a lost demote costs a future refetch, never
        correctness, so upstream failures are swallowed rather than
        propagated into whatever I/O triggered the eviction.  The send
        is bounded by ``DEMOTE_DEADLINE`` even when the upstream client
        has no timeout of its own (the session default): a demote stuck
        behind a dead link is abandoned — and counted, not absorbed —
        instead of wedging the eviction that triggered it.
        """
        if not self.demote_enabled:
            return
        fh, idx = key
        request = NfsRequest(
            NfsProc.DEMOTE, fh=fh,
            offset=idx * self.stack.block_size(), data=data,
            stable=False, credentials=self.config.identity or (0, 0))
        attempt = self.env.process(self._demote_call(request),
                                   name=f"demote-{idx}")
        timer = self.env.timeout(self.DEMOTE_DEADLINE, value=_DEMOTE_LOST)
        outcome = yield AnyOf(self.env, [attempt, timer])
        if outcome is _DEMOTE_LOST:
            if attempt.is_alive:
                attempt.interrupt("demote deadline")
            self.stats.demotion_timeouts += 1
            self.stats.demotion_drops += 1
            return
        if outcome is not None and outcome.ok:
            self.stats.demotions_out += 1
        else:
            self.stats.demotion_drops += 1

    def _demote_call(self, request) -> Generator:
        """Process: one demote send; upstream failure maps to None."""
        try:
            return (yield from self.stack.upstream.call(request))
        except (RpcTimeout, NfsError):
            return None

    def _handle_demote(self, request) -> Generator:
        """Process: absorb a block demoted by the cache one level down.

        The block is installed clean without re-reading origin — that
        is the whole point of the fast path.  A demote never travels
        further down the stack (one hop per demote; an insert here may
        of course evict a victim of its own, which is disposed the
        usual way), and never overwrites a resident copy: a raced
        demand fill is as fresh, and a dirty local copy is newer.
        """
        fh, data = request.fh, request.data
        bs = self.stack.block_size()
        idx, within = divmod(request.offset, bs)
        if (self.bypassed or self.block_cache.read_only or within
                or len(data) > bs):
            self.stats.demotion_drops += 1
            return NfsReply(NfsProc.DEMOTE, NfsStatus.OK, fh=fh)
        key = (fh, idx)
        if key in self.block_cache:
            self.stats.demotion_drops += 1
            return NfsReply(NfsProc.DEMOTE, NfsStatus.OK, fh=fh)
        victim = yield from self.block_cache.insert(key, data, dirty=False)
        self.stats.demotions_in += 1
        if victim is not None:
            yield from self.dispose_victim(victim)
        return NfsReply(NfsProc.DEMOTE, NfsStatus.OK, fh=fh, count=len(data))

    # -------------------------------------------------------------- write-back
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
            reply = yield from self.stack.upstream.call(NfsRequest(
                NfsProc.WRITE, fh=fh, offset=sub[0][1] * bs,
                data=b"".join(datas), stable=False,
                credentials=self.config.identity or (0, 0)))
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

    def replace_cache(self, new_cache) -> None:
        """Swap the backing block cache (adaptive resizing).

        Refused while dirty frames exist — the caller flushes first, so
        a resize can never lose write-back data.  Cooperative state
        carries over: observers move to the new cache (which starts
        empty, so the old contents are retracted from any directory)
        and clean-victim capture keeps its setting.
        """
        if self.block_cache.dirty_frames:
            raise RuntimeError(f"{self.block_cache.name}: replace_cache "
                               "with dirty frames; flush first")
        if new_cache.config.block_size != self.block_cache.config.block_size:
            raise ValueError("replace_cache must keep the block size")
        old = self.block_cache
        new_cache.capture_clean_victims = old.capture_clean_victims
        new_cache.observers.extend(old.observers)
        for obs in old.observers:
            obs.cache_cleared()
        old.observers.clear()
        self.gates.clear()
        self.block_cache = new_cache

    def stats_snapshot(self, deep: bool = False) -> dict:
        # Beyond the request counters, expose the cache's own occupancy
        # and churn: the adaptive-sizing planner estimates each level's
        # working set from deep snapshots alone (repro.core.adaptive).
        snap = super().stats_snapshot()
        cache = self.block_cache
        snap["cache_insertions"] = cache.insertions
        snap["cache_evictions"] = cache.evictions
        snap["cached_blocks"] = cache.cached_blocks
        snap["capacity_frames"] = cache.config.total_frames
        snap["bypassed"] = int(self.bypassed)
        return snap

    def reset(self) -> None:
        super().reset()
        self.block_cache.reset_stats()
