"""Sharded, replicated image-server farm: the namenode/datanode split.

The paper stores every golden image on one image server (§3.2.3); this
module refactors that origin tier into a *farm* in the H(M)DFS style:

- :class:`MetadataService` — the namenode.  Maps ``(fileid, chunk
  range)`` keys to ``replication`` data servers with deterministic
  rendezvous placement (same seed ⇒ same map), retires crashed servers
  from every placement, and mirrors namespace mutations so all live
  replicas export an identical tree (same creation order ⇒ same
  fileids, so one NFS file handle resolves on any replica).
- :class:`DataServerNode` — one datanode: a host with its own access
  link (:meth:`~repro.net.topology.Testbed.add_origin_pool`) running a
  :class:`~repro.core.session.ServerEndpoint` (kernel NFS server +
  record-mode checksum proxy) over a full copy of the namespace and
  the replica ranges it owns.
- :class:`ImageFarm` — the farm façade: provisions the pool, ingests
  golden images onto every replica (digests persisted beside each
  image via ``ChecksumRegistry.save``), re-replicates lost ranges when
  a server crashes, and audits acknowledged writes after a run.
- :class:`FarmOriginClient` — a session's upstream RPC client, the
  same object a proxy's terminal layer and block-cache write-backs
  call for any other origin: reads resolve to a replica owning the
  block and fail over on crash; writes fan out to every live owner
  and are acknowledged when at least one replica has them; namespace
  mutations serialize through the primary and mirror to the rest.
- :class:`FarmFileChannel` — a session's file channel, used like any
  other: fetches come from a live replica and fail over, flush uploads
  land on all of them.

:meth:`ImageFarm.connect_hop` hands a session both, wired per replica
by the same :func:`~repro.core.session.connect_hop` that wires every
other proxy's next hop; nothing in the proxy's layers knows it is
talking to a farm.

Failure handling follows PR 8's peer-retirement pattern rather than
retransmission timers: when a data server crashes
(:meth:`DataServerNode.crash`, driven by ``FaultPlan.server_crash``
through ``repro.sim.chaos.attach_data_servers``), the farm immediately
retires it from the placement map, interrupts every in-flight RPC
attempt bound for it (the callers fail over to a surviving replica at
the same instant instead of stalling on a dead server), and starts a
re-replication process that copies each under-replicated range from a
survivor to the next server in preference order, verifying every block
against the persisted digests before admitting the new replica.
"""

from __future__ import annotations

import itertools
import zlib
from collections import defaultdict
from types import SimpleNamespace
from typing import Callable, Dict, Generator, List, Optional, Set, Tuple

from repro.core.channel import FileChannel
from repro.core.layers.checksum import ChecksumRegistry
from repro.core.session import ServerEndpoint, connect_hop
from repro.middleware.imageserver import ImageCatalog
from repro.nfs.protocol import FileHandle, NfsProc
from repro.nfs.rpc import RpcClient, RpcTimeout
from repro.sim import AllOf, FifoResource, Interrupt
from repro.storage.vfs import FsError

__all__ = ["DataServerNode", "FarmFileChannel", "FarmOriginClient",
           "ImageFarm", "MetadataService"]

#: Mutations of the namespace (not block data): serialized through the
#: primary replica and mirrored synchronously to the others, so every
#: live server keeps assigning the same fileids in the same order.
NAMESPACE_PROCS = frozenset([
    NfsProc.CREATE, NfsProc.MKDIR, NfsProc.SYMLINK, NfsProc.REMOVE,
    NfsProc.RMDIR, NfsProc.RENAME, NfsProc.SETATTR,
])


class FarmInvariantError(Exception):
    """Replica state diverged (fileid misalignment — a bug, not a fault)."""


class MetadataService:
    """The namenode: deterministic replica placement over chunk ranges.

    Placement is rendezvous (highest-random-weight) hashing: for key
    ``(fileid, range)`` every server gets the score
    ``crc32(f"{seed}:{fileid}:{range}:{server.name}")`` and the top
    ``replication`` *live* servers own the range.  Scores depend only
    on the seed and names, so the same seed always yields the same map
    (the determinism test), dead servers drop out without reshuffling
    survivors (the rendezvous property), and placements materialize
    lazily on first touch — registering a 10 GB image costs nothing
    until ranges are read or written.
    """

    def __init__(self, seed: int = 0, replication: int = 2,
                 range_blocks: int = 64, block_size: int = 8192):
        if replication < 1:
            raise ValueError(f"replication must be >= 1: {replication}")
        if range_blocks < 1:
            raise ValueError(f"range_blocks must be >= 1: {range_blocks}")
        self.seed = seed
        self.replication = replication
        self.range_blocks = range_blocks
        self.block_size = block_size
        self.range_bytes = range_blocks * block_size
        self.servers: List["DataServerNode"] = []
        self.retired: Set[str] = set()
        self._placement: Dict[Tuple[int, int], List["DataServerNode"]] = {}
        # Counters for reports.
        self.placements = 0
        self.retirements = 0
        self.entries_retracted = 0

    # -- membership ----------------------------------------------------------
    def register_server(self, node: "DataServerNode") -> None:
        self.servers.append(node)

    def alive_servers(self) -> List["DataServerNode"]:
        return [node for node in self.servers if node.alive]

    def primary(self) -> "DataServerNode":
        """The first live server — the serialization point for
        namespace mutations."""
        for node in self.servers:
            if node.alive:
                return node
        raise RpcTimeout("image farm has no live data servers")

    # -- placement -----------------------------------------------------------
    def _score(self, fileid: int, rng: int, name: str) -> int:
        return zlib.crc32(f"{self.seed}:{fileid}:{rng}:{name}".encode())

    def preference(self, fileid: int, rng: int) -> List["DataServerNode"]:
        """All servers (alive or not) in rendezvous order for a key."""
        return sorted(
            self.servers,
            key=lambda node: (-self._score(fileid, rng, node.name),
                              node.name))

    def placement_of(self, fileid: int,
                     rng: int) -> List["DataServerNode"]:
        """The owners of range ``rng`` of file ``fileid``, materialized
        from the live prefix of the preference order on first touch."""
        key = (fileid, rng)
        owners = self._placement.get(key)
        if owners is None:
            owners = [node for node in self.preference(fileid, rng)
                      if node.alive][:self.replication]
            self._placement[key] = owners
            self.placements += 1
        return owners

    def locate_block(self, fileid: int,
                     block_idx: int) -> List["DataServerNode"]:
        """Live owners of the range containing ``block_idx``."""
        owners = self.placement_of(fileid, block_idx // self.range_blocks)
        return [node for node in owners if node.alive]

    def ranges_spanning(self, offset: int, length: int) -> range:
        """Range indices touched by a byte span."""
        first = offset // self.range_bytes
        last = (offset + max(length - 1, 0)) // self.range_bytes
        return range(first, last + 1)

    def admit_replica(self, fileid: int, rng: int,
                      node: "DataServerNode") -> None:
        """Record a rebuilt (verified) replica in the placement map."""
        owners = self.placement_of(fileid, rng)
        if node not in owners:
            owners.append(node)

    def retire_server(self, node: "DataServerNode"
                      ) -> List[Tuple[int, int]]:
        """Retract a crashed server from every placement.

        Returns the keys the retirement left under-replicated, in
        deterministic order, for the re-replication process.  Retired
        servers never rejoin placements — a restarted process comes
        back with no claim on its old ranges (re-replication has moved
        them on), matching how PR 8 retires crashed peers.
        """
        self.retired.add(node.name)
        self.retirements += 1
        lost: List[Tuple[int, int]] = []
        for key, owners in self._placement.items():
            if node in owners:
                owners.remove(node)
                self.entries_retracted += 1
                lost.append(key)
        lost.sort()
        return lost

    def placement_snapshot(self) -> Dict[str, List[str]]:
        """Materialized placements as plain names (determinism tests)."""
        return {f"{fileid}:{rng}": [node.name for node in owners]
                for (fileid, rng), owners in sorted(self._placement.items())}

    # -- namespace mirroring -------------------------------------------------
    def mirror_namespace(self, request, reply,
                         served_by: "DataServerNode") -> None:
        """Apply a namespace mutation (already applied by the primary
        of record, ``served_by``) to every other live replica.

        Mirroring is synchronous and untimed — it models the namenode's
        control-plane metadata update, not a data transfer — and it is
        what keeps fileid assignment aligned: the primary serializes
        the mutation order, and each mirror replays it in that order,
        so per-filesystem inode counters advance in lockstep.  A
        diverging fileid is a bug in the model, not a simulated fault,
        and raises :class:`FarmInvariantError`.
        """
        for node in self.alive_servers():
            if node is served_by:
                continue
            self._apply_namespace(node, request, reply)

    def _apply_namespace(self, node: "DataServerNode", request,
                         reply) -> None:
        fs = node.fs
        proc = request.proc
        if proc is NfsProc.CREATE:
            made = fs.create_in(fs.get_inode(request.fh.fileid),
                                request.name, exclusive=request.exclusive)
        elif proc is NfsProc.MKDIR:
            made = fs.mkdir_in(fs.get_inode(request.fh.fileid), request.name)
        elif proc is NfsProc.SYMLINK:
            made = fs.symlink_in(fs.get_inode(request.fh.fileid),
                                 request.name, request.target)
        elif proc is NfsProc.REMOVE:
            fs.remove_in(fs.get_inode(request.fh.fileid), request.name)
            return
        elif proc is NfsProc.RMDIR:
            fs.rmdir_in(fs.get_inode(request.fh.fileid), request.name)
            return
        elif proc is NfsProc.RENAME:
            from_dir = fs.get_inode(request.fh.fileid)
            to_dir = (fs.get_inode(request.to_fh.fileid)
                      if request.to_fh else from_dir)
            fs.rename_in(from_dir, request.name, to_dir, request.to_name)
            return
        elif proc is NfsProc.SETATTR:
            inode = fs.get_inode(request.fh.fileid)
            if request.size is not None:
                inode.data.truncate(request.size)
                inode.touch()
            return
        else:
            raise ValueError(f"not a namespace proc: {proc}")
        if reply.fh is not None and made.fileid != reply.fh.fileid:
            raise FarmInvariantError(
                f"{node.name}: {proc.name} {request.name!r} assigned "
                f"fileid {made.fileid}, primary assigned {reply.fh.fileid}")

    def mirror_size(self, fileid: int, end: int,
                    receivers: List["DataServerNode"]) -> None:
        """Grow every live non-receiver's inode to at least ``end``.

        Replicated writes land only on the owners of the ranges they
        touch, but GETATTR may be answered by *any* live replica — so
        file sizes (attributes are namenode metadata) mirror to all."""
        for node in self.alive_servers():
            if node in receivers:
                continue
            try:
                inode = node.fs.get_inode(fileid)
            except FsError:
                continue
            if inode.data.size < end:
                inode.data.truncate(end)
                inode.touch()


class DataServerNode:
    """One datanode: a provisioned host running an image-server endpoint."""

    def __init__(self, farm: "ImageFarm", index: int, host):
        self.farm = farm
        self.index = index
        self.host = host
        self.name = host.name
        self.endpoint = ServerEndpoint(farm.env, host, fsid=farm.fsid,
                                       integrity=farm.integrity)
        self.retired = False

    @property
    def fs(self):
        return self.endpoint.export.fs

    @property
    def alive(self) -> bool:
        return not self.endpoint.server.crashed and not self.retired

    def crash(self) -> None:
        """Fault-injection port (``FaultKind.SERVER_CRASH``): kill the
        server process and retire this node from the farm."""
        if self.endpoint.server.crashed:
            return
        self.endpoint.server.crash()
        self.farm.on_server_down(self)

    def restart(self) -> None:
        """Boot the server process back up.  The node stays retired —
        re-replication has already moved its ranges on; a rejoining
        server would re-enter through placement of *new* ranges, which
        this model does not grant to once-crashed nodes."""
        self.endpoint.server.restart()

    def __repr__(self) -> str:  # pragma: no cover
        state = "up" if self.alive else "down"
        return f"<DataServerNode {self.name} {state}>"


def _rotated(nodes: List[DataServerNode], rot: int) -> List[DataServerNode]:
    if len(nodes) > 1:
        rot %= len(nodes)
        return nodes[rot:] + nodes[:rot]
    return nodes


class _ReplicaFailover:
    """The failover loop a session's farm client and farm channel share.

    Each attempt on a replica runs as an interruptible process
    registered per data server.  Failover is timer-free: :meth:`_abandon`
    (called by the farm at the crash instant) interrupts the attempts
    bound for the dead server, so their callers move to the next
    replica immediately instead of waiting out a retransmission ladder.
    """

    #: Suffix of an attempt's process name.
    ATTEMPT = "attempt"

    def __init__(self, farm: "ImageFarm", name: str):
        self.farm = farm
        self.env = farm.env
        self.name = name
        # In-flight attempts per node, in insertion order (a dict, not
        # a set): abandon() must replay identically run after run.
        self._inflight: Dict[str, Dict] = defaultdict(dict)
        self.failovers = 0

    def _attempt(self, node: DataServerNode, work: Generator) -> Generator:
        """Run ``work`` against ``node`` as a process the farm can
        interrupt the instant ``node`` crashes."""
        proc = self.env.process(work,
                                name=f"{self.name}.{node.name}.{self.ATTEMPT}")
        self._inflight[node.name][proc] = None
        try:
            result = yield proc
        finally:
            self._inflight[node.name].pop(proc, None)
        return result

    def _failover(self, targets: List[DataServerNode],
                  work: Callable[[DataServerNode], Generator],
                  what: str) -> Generator:
        """Try ``work(node)`` on each live target in order; returns
        ``(node, result)`` of the first that completes.  Every replica
        given up on, and a success anywhere but the first target, count
        one failover."""
        last_error: Optional[Exception] = None
        for i, node in enumerate(targets):
            if not node.alive:
                continue
            try:
                result = yield from self._attempt(node, work(node))
            except (Interrupt, RpcTimeout) as error:
                last_error = error
                self.failovers += 1
                continue
            if i > 0:
                self.failovers += 1
            return node, result
        raise last_error or RpcTimeout(
            f"{self.name}: no live replica for {what}")

    def _abandon(self, node: DataServerNode) -> int:
        """Interrupt every in-flight attempt bound for a crashed node
        (the awaiting callers fail over now); returns how many."""
        aborted = 0
        for proc in list(self._inflight[node.name]):
            if proc.is_alive:
                proc.interrupt("data server crashed")
                aborted += 1
        self._inflight[node.name].clear()
        return aborted


class FarmOriginClient(_ReplicaFailover):
    """One session's upstream RPC client across the farm.

    It connects the session to every data server (one
    :func:`~repro.core.session.connect_hop` per replica) and routes
    each ``call`` by procedure:

    - **READ** → the live owners of the block's range, rotated per
      session (load spread), tried in order with failover;
    - **WRITE** → parallel fan-out to every live owner of the touched
      ranges; acknowledged when at least one replica succeeds (the
      ack is logged for the post-run audit), file size mirrored to
      non-owners;
    - **COMMIT** → broadcast to all live servers (each syncs its own
      write-behind pool);
    - namespace mutations → the primary, then mirrored by the
      namenode;
    - everything else (LOOKUP, GETATTR, READDIR, …) → any live server
      (the namespace is fully replicated), rotated, with failover.

    The per-replica RPC clients keep their defaults (no retransmission
    timer): a crashed replica is abandoned, not timed out.
    """

    def __init__(self, farm: "ImageFarm", name: str, compute_host):
        super().__init__(farm, name)
        self.metadata = farm.metadata
        self.rotation = farm.next_rotation()
        self._clients: Dict[str, RpcClient] = {}
        self._channel_builders: Dict[str, Callable] = {}
        for node in farm.data_servers:
            rpc, build = connect_hop(farm.testbed, compute_host,
                                     node.endpoint, f"{name}.{node.name}")
            self._clients[node.name] = rpc
            self._channel_builders[node.name] = build
        # Counters.
        self.aborted_attempts = 0
        self.degraded_reads = 0
        self.replicated_writes = 0
        self.acked_writes = 0
        self.failed_writes = 0

    def file_channel(self, file_cache) -> "FarmFileChannel":
        """The session's file channel: one per replica over this
        client's hops, all filling ``file_cache``."""
        channel = FarmFileChannel(self.farm, self.name, file_cache,
                                  self._channel_builders)
        self.farm.channels.append(channel)
        return channel

    # -- dispatch ------------------------------------------------------------
    def call(self, request) -> Generator:
        return (yield from self.dispatch(request))

    def dispatch(self, request) -> Generator:
        proc = request.proc
        if proc is NfsProc.WRITE:
            return (yield from self._replicated_write(request))
        if proc is NfsProc.COMMIT:
            return (yield from self._broadcast_commit(request))
        if proc in NAMESPACE_PROCS:
            return (yield from self._namespace_op(request))
        if proc is NfsProc.READ:
            targets = self._read_targets(request)
        else:
            # Rotate over the *full* pool: a retired server left in the
            # order is skipped by the failover loop, which counts the
            # skip — the fast-path failover the namenode's retraction
            # buys us (no timeout, just a live replica one slot over).
            targets = _rotated(list(self.metadata.servers), self.rotation)
        node, reply = yield from self._failover_call(request, targets)
        return reply

    # -- target selection ----------------------------------------------------
    def _read_targets(self, request) -> List[DataServerNode]:
        block = request.offset // self.metadata.block_size
        rng = block // self.metadata.range_blocks
        owners = self.metadata.locate_block(request.fh.fileid, block)
        if (self.metadata.retirements
                and len(owners) < self.metadata.replication):
            # A crash took one of this range's owners and re-replication
            # hasn't refilled it yet: the read is served degraded, from
            # a surviving replica the retraction failed us over to.
            self.degraded_reads += 1
        # Rotate by session and range so concurrent cloners spread
        # across both replicas of a hot range instead of mobbing one.
        return _rotated(owners, self.rotation + rng)

    # -- failover machinery --------------------------------------------------
    def _failover_call(self, request,
                       targets: List[DataServerNode]) -> Generator:
        return (yield from self._failover(
            targets, lambda node: self._clients[node.name].call(request),
            request.proc.name))

    def abandon(self, node: DataServerNode) -> None:
        self.aborted_attempts += self._abandon(node)

    def _settled(self, node: DataServerNode, request,
                 results: List) -> Generator:
        """Fan-out arm: never fails (AllOf would abandon its siblings),
        it records ``(node, reply-or-None)`` instead."""
        try:
            reply = yield from self._attempt(
                node, self._clients[node.name].call(request))
        except (Interrupt, RpcTimeout):
            results.append((node, None))
            return
        results.append((node, reply))

    # -- write path ----------------------------------------------------------
    def _replicated_write(self, request) -> Generator:
        fileid = request.fh.fileid
        owners: List[DataServerNode] = []
        for rng in self.metadata.ranges_spanning(request.offset,
                                                 len(request.data)):
            for node in self.metadata.placement_of(fileid, rng):
                if node.alive and node not in owners:
                    owners.append(node)
        if not owners:
            self.failed_writes += 1
            raise RpcTimeout(f"{self.name}: no live owner for WRITE "
                             f"{fileid}@{request.offset}")
        results: List[Tuple[DataServerNode, object]] = []
        yield AllOf(self.env, [
            self.env.process(self._settled(node, request, results),
                             name=f"{self.name}.{node.name}.write")
            for node in owners])
        acked = [(node, reply) for node, reply in results
                 if reply is not None and reply.ok]
        if not acked:
            self.failed_writes += 1
            raise RpcTimeout(f"{self.name}: no replica acknowledged WRITE "
                             f"{fileid}@{request.offset}")
        self.replicated_writes += len(acked)
        self.acked_writes += 1
        lost_arms = len(owners) - len(acked)
        if lost_arms:
            self.failovers += lost_arms
        self.farm.record_acknowledged_write(request)
        self.metadata.mirror_size(fileid, request.offset + len(request.data),
                                  [node for node, _ in acked])
        return acked[0][1]

    def _broadcast_commit(self, request) -> Generator:
        targets = self.metadata.alive_servers()
        if not targets:
            raise RpcTimeout(f"{self.name}: no live replica for COMMIT")
        results: List[Tuple[DataServerNode, object]] = []
        yield AllOf(self.env, [
            self.env.process(self._settled(node, request, results),
                             name=f"{self.name}.{node.name}.commit")
            for node in targets])
        acked = [reply for _, reply in results
                 if reply is not None and reply.ok]
        if not acked:
            raise RpcTimeout(f"{self.name}: no replica completed COMMIT")
        return acked[0]

    # -- namespace path ------------------------------------------------------
    def _namespace_op(self, request) -> Generator:
        # The namenode's global namespace lock: apply-on-primary and
        # mirror-to-replicas form one critical section, so two sessions'
        # concurrent CREATEs cannot reach the primary in one order and
        # the mirrors in the other (which would assign divergent
        # fileids).  Primary-first target order, NOT rotated — one
        # serialization point for the mutation stream.
        grant = self.farm.namespace_lock.request()
        yield grant
        try:
            node, reply = yield from self._failover_call(
                request, list(self.metadata.servers))
            if reply.ok:
                self.metadata.mirror_namespace(request, reply,
                                               served_by=node)
        finally:
            self.farm.namespace_lock.release(grant)
        return reply

    def stats_snapshot(self) -> Dict[str, int]:
        return {"failovers": self.failovers,
                "aborted_attempts": self.aborted_attempts,
                "degraded_reads": self.degraded_reads,
                "replicated_writes": self.replicated_writes,
                "acked_writes": self.acked_writes,
                "failed_writes": self.failed_writes}


class FarmFileChannel(_ReplicaFailover):
    """One session's file channel across the farm.

    It holds one :class:`~repro.core.channel.FileChannel` per replica,
    all filling the session's one file cache, and is used like one:

    - ``fetch(fh)`` runs against a live replica (rotated per session)
      and fails over: when the farm crashes that replica mid-transfer
      the attempt is abandoned and restarted from the next live one
      (an interrupted fetch installs nothing, so the retry is clean);
    - ``upload(fh)`` writes the cached file back to every live replica
      in turn, so a flushed whole-file write lands everywhere.

    Its counters add up what every replica's channel carried.
    """

    ATTEMPT = "fetch"

    def __init__(self, farm: "ImageFarm", name: str, file_cache,
                 builders: Dict[str, Callable]):
        super().__init__(farm, name)
        self.rotation = farm.next_channel_rotation()
        self.file_cache = file_cache
        self._channels: Dict[str, FileChannel] = {
            node_name: build(file_cache)
            for node_name, build in builders.items()}
        self.aborted_fetches = 0

    def _total(self, counter: str) -> int:
        return sum(getattr(channel, counter)
                   for channel in self._channels.values())

    fetches = property(lambda self: self._total("fetches"))
    uploads = property(lambda self: self._total("uploads"))
    bytes_on_wire = property(lambda self: self._total("bytes_on_wire"))
    bytes_logical = property(lambda self: self._total("bytes_logical"))

    @property
    def scp(self) -> SimpleNamespace:
        """Download-SCP totals over every replica."""
        return SimpleNamespace(bytes_transferred=sum(
            channel.scp.bytes_transferred
            for channel in self._channels.values()))

    def reset_stats(self) -> None:
        for channel in self._channels.values():
            channel.reset_stats()

    def fetch(self, fh) -> Generator:
        # Rotate over the *full* pool so a session whose preferred
        # replica has been retired visibly fails over to the next live
        # one (the fast path: the namenode's retraction spares us the
        # timeout, but it is still a fetch served despite a dead
        # replica, and counts as one).
        node, entry = yield from self._failover(
            _rotated(self.farm.data_servers, self.rotation),
            lambda node: self._channels[node.name].fetch(fh), "file fetch")
        return entry

    def upload(self, fh) -> Generator:
        for node in self.farm.metadata.alive_servers():
            yield from self._channels[node.name].upload(fh)

    def abandon(self, node: DataServerNode) -> None:
        self.aborted_fetches += self._abandon(node)


class ImageFarm:
    """The farm façade: pool + namenode + ingest + recovery + audit.

    Build one per testbed, register golden images through it, and hand
    it to ``GvfsSession.build(origin=...)`` (or
    ``VmSessionManager(origin=...)``) — each session then resolves its
    misses across the farm instead of a single image server.
    """

    def __init__(self, testbed, n_servers: int = 4, replication: int = 2,
                 seed: int = 0, range_blocks: int = 64,
                 block_size: int = 8192, profile: str = "site",
                 prefix: str = "data-server", fsid: str = "images",
                 integrity: Optional[ChecksumRegistry] = None):
        self.testbed = testbed
        self.env = testbed.env
        self.fsid = fsid
        self.integrity = integrity if integrity is not None \
            else ChecksumRegistry()
        self.metadata = MetadataService(
            seed=seed, replication=min(replication, n_servers),
            range_blocks=range_blocks, block_size=block_size)
        self.data_servers: List[DataServerNode] = []
        for i, host in enumerate(testbed.add_origin_pool(
                n_servers, prefix=prefix, profile=profile)):
            node = DataServerNode(self, i, host)
            self.data_servers.append(node)
            self.metadata.register_server(node)
        # The catalog lives on the first server's tree; every other
        # replica replays the same creation order (fileid alignment).
        self.catalog = ImageCatalog(self.data_servers[0].fs)
        for node in self.data_servers[1:]:
            if not node.fs.exists(self.catalog.root):
                node.fs.mkdir(self.catalog.root, parents=True)
        self.clients: List[FarmOriginClient] = []
        self.channels: List[FarmFileChannel] = []
        # Separate rotation sequences for RPC clients and file channels:
        # interleaved allocation from one counter would stride sessions
        # across only every other replica (e.g. servers {0, 2} of 4).
        self._client_rotation = itertools.count()
        self._channel_rotation = itertools.count()
        # The namenode's namespace mutation lock (see _namespace_op).
        self.namespace_lock = FifoResource(self.env, capacity=1,
                                           name="farm.namespace")
        # Ack log for the post-run audit: (fileid, block) -> (crc, len)
        # of the last acknowledged bytes for that block.
        self.ack_log: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self.recovery_log: List[Dict] = []
        self._recovery_procs: List = []

    # -- session wiring (the GvfsSession.build(origin=...) protocol) ---------
    @property
    def endpoint(self) -> ServerEndpoint:
        """Root-handle source for mounts.  Handles resolve identically
        on every replica, so the first server's endpoint serves."""
        return self.data_servers[0].endpoint

    def connect_hop(self, compute_host, name: str
                    ) -> Tuple[FarmOriginClient,
                               Callable[..., FarmFileChannel]]:
        """A session's next hop into the farm, shaped like
        :func:`~repro.core.session.connect_hop`: its upstream RPC
        client and a builder for its file channel."""
        client = FarmOriginClient(self, name, compute_host)
        self.clients.append(client)
        return client, client.file_channel

    def next_rotation(self) -> int:
        return next(self._client_rotation)

    def next_channel_rotation(self) -> int:
        return next(self._channel_rotation)

    # -- ingest --------------------------------------------------------------
    def register_image(self, name: str, config, applications=(),
                       zero_fraction: float = 0.92,
                       generate_metadata: bool = True):
        """Create a golden image on *every* replica and place it.

        The catalog registers on the first server; each other replica
        replays the identical ``VmImage.create`` (content is procedural
        and lazy, so mirroring costs no bulk copying), fileid alignment
        is asserted, per-block digests are computed into the shared
        checksum registry and persisted beside the image on every
        replica, and every file's ranges get placements eagerly so the
        map is inspectable before traffic arrives.
        """
        from repro.vm.image import VmImage
        image = self.catalog.register(name, config,
                                      applications=applications,
                                      zero_fraction=zero_fraction,
                                      generate_metadata=generate_metadata)
        for node in self.data_servers[1:]:
            mirrored = VmImage.create(node.fs, image.directory, config,
                                      zero_fraction=zero_fraction)
            if generate_metadata:
                mirrored.generate_metadata()
        fileids = self._verify_alignment(image.directory)
        self._ingest_digests(image.directory, fileids)
        # Eager placement: materialize every range of every image file
        # now, while all servers are up, so the placement map is fully
        # inspectable (and snapshot-comparable) before traffic arrives.
        fs = self.data_servers[0].fs
        for fileid in fileids:
            size = fs.get_inode(fileid).data.size
            for rng in range(max(
                    1, -(-size // self.metadata.range_bytes))):
                self.metadata.placement_of(fileid, rng)
        return image

    def provision_dir(self, path: str) -> None:
        """Create a directory on every replica (pre-run provisioning,
        e.g. a ``/checkpoints`` tree), keeping fileids aligned."""
        for node in self.data_servers:
            if not node.fs.exists(path):
                node.fs.mkdir(path, parents=True)

    def _verify_alignment(self, directory: str) -> List[int]:
        """Assert every file under ``directory`` has one fileid
        everywhere; returns the fileids (for the digest sidecar)."""
        reference = self.data_servers[0].fs
        fileids = []
        for path, inode in sorted(reference.walk_files(directory)):
            fileid = inode.fileid
            fileids.append(fileid)
            for node in self.data_servers[1:]:
                other = node.fs.lookup(path).fileid
                if other != fileid:
                    raise FarmInvariantError(
                        f"{node.name}: {path} is fileid {other}, "
                        f"expected {fileid}")
        return fileids

    def _ingest_digests(self, directory: str, fileids: List[int]) -> None:
        """Record per-block digests of the image into the shared
        registry (untimed middleware pre-processing), then persist the
        sidecar beside the image on every replica — a rebuilt replica
        is verified against these digests on re-replication."""
        bs = self.metadata.block_size
        fs = self.data_servers[0].fs
        for path, inode in sorted(fs.walk_files(directory)):
            fh = FileHandle(self.fsid, inode.fileid)
            for idx in range((inode.data.size + bs - 1) // bs):
                self.integrity.record((fh, idx),
                                      inode.data.read(idx * bs, bs))
        sidecar = f"{directory}/{ChecksumRegistry.PERSIST_NAME}"
        for node in self.data_servers:
            self.integrity.save(node.fs, sidecar, fileids=set(fileids))

    # -- crash handling ------------------------------------------------------
    def on_server_down(self, node: DataServerNode) -> None:
        """The crash epoch: retire the dead server from every
        placement, release its in-flight callers to fail over, and
        start re-replicating what it owned."""
        if node.retired:
            return
        node.retired = True
        lost = self.metadata.retire_server(node)
        for client in self.clients:
            client.abandon(node)
        for channel in self.channels:
            channel.abandon(node)
        if lost and self.metadata.alive_servers():
            self._recovery_procs.append(self.env.process(
                self._rereplicate(node, lost),
                name=f"farm.rereplicate.{node.name}"))

    def _rereplicate(self, dead: DataServerNode,
                     keys: List[Tuple[int, int]]) -> Generator:
        """Process: rebuild replication for every range ``dead`` owned.

        For each lost range: read it from a surviving owner (timed disk
        scan), stream it across the farm's site links, write it onto
        the next live server in the range's preference order, verify
        every block against the registry digests, and only then admit
        the new replica to the placement map.
        """
        record = {"server": dead.name, "started": self.env.now,
                  "ranges_lost": len(keys), "ranges_rebuilt": 0,
                  "ranges_unrecoverable": 0, "ranges_underreplicated": 0,
                  "bytes_copied": 0, "blocks_verified": 0,
                  "verify_failures": 0}
        self.recovery_log.append(record)
        bs = self.metadata.block_size
        for fileid, rng in keys:
            survivors = [n for n in self.metadata.placement_of(fileid, rng)
                         if n.alive]
            if not survivors:
                record["ranges_unrecoverable"] += 1
                continue
            target = next(
                (n for n in self.metadata.preference(fileid, rng)
                 if n.alive and n not in survivors), None)
            if target is None:
                # Fewer live servers than the replication factor: the
                # survivors still hold the data (nothing is lost), the
                # farm just cannot restore full replication.
                record["ranges_underreplicated"] += 1
                continue
            source = survivors[0]
            try:
                src_inode = source.fs.get_inode(fileid)
                dst_inode = target.fs.get_inode(fileid)
            except FsError:
                record["ranges_unrecoverable"] += 1
                continue
            start = rng * self.metadata.range_bytes
            length = min(self.metadata.range_bytes,
                         src_inode.data.size - start)
            if length > 0:
                data = yield from source.endpoint.export.timed_read_inode(
                    src_inode, start, length)
                yield from self.testbed.route(
                    source.host, target.host).transmit(len(data) + 128)
                yield from target.endpoint.export.timed_write_inode(
                    dst_inode, data, start)
                bad = 0
                fh = FileHandle(self.fsid, fileid)
                for i in range(0, len(data), bs):
                    idx = (start + i) // bs
                    ok = self.integrity.matches((fh, idx), data[i:i + bs])
                    if ok is False:
                        bad += 1
                    elif ok:
                        record["blocks_verified"] += 1
                if bad:
                    record["verify_failures"] += bad
                    continue  # do not admit an unverifiable replica
                record["bytes_copied"] += len(data)
            self.metadata.admit_replica(fileid, rng, target)
            record["ranges_rebuilt"] += 1
        record["finished"] = self.env.now
        record["seconds"] = self.env.now - record["started"]

    # -- post-run audit ------------------------------------------------------
    def record_acknowledged_write(self, request) -> None:
        """Log the block-aligned content of an acknowledged WRITE; the
        audit later proves some live replica still holds these bytes."""
        bs = self.metadata.block_size
        data, offset = request.data, request.offset
        fileid = request.fh.fileid
        head = (-offset) % bs
        if head:
            # Unaligned head fragment: not auditable standalone.
            data = data[head:]
            offset += head
        idx = offset // bs
        for i in range(0, len(data), bs):
            chunk = data[i:i + bs]
            self.ack_log[(fileid, idx + i // bs)] = (zlib.crc32(chunk),
                                                     len(chunk))

    def audit_acknowledged_writes(self) -> Dict:
        """Check every acknowledged block against the live replicas.

        A block is *lost* if no live owner of its range holds matching
        bytes; *stale* replicas are live owners whose copy mismatches
        (e.g. a write arm interrupted by the crash before the server
        applied it — the surviving ack'd copy is authoritative)."""
        lost: List[List[int]] = []
        stale = 0
        for (fileid, idx), (crc, length) in sorted(self.ack_log.items()):
            owners = self.metadata.locate_block(fileid, idx)
            good = 0
            bs = self.metadata.block_size
            for node in owners:
                try:
                    inode = node.fs.get_inode(fileid)
                except FsError:
                    continue
                chunk = inode.data.read(idx * bs, length)
                if len(chunk) == length and zlib.crc32(chunk) == crc:
                    good += 1
                else:
                    stale += 1
            if good == 0:
                lost.append([fileid, idx])
        return {"acked_blocks": len(self.ack_log),
                "lost_blocks": len(lost),
                "stale_replicas": stale,
                "lost_examples": lost[:8]}

    # -- reporting -----------------------------------------------------------
    def recovery_complete(self) -> bool:
        return all("finished" in rec for rec in self.recovery_log)

    def client_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = {"failovers": 0, "aborted_attempts": 0,
                                  "degraded_reads": 0,
                                  "replicated_writes": 0, "acked_writes": 0,
                                  "failed_writes": 0,
                                  "channel_failovers": 0,
                                  "aborted_fetches": 0}
        for client in self.clients:
            for key, value in client.stats_snapshot().items():
                totals[key] += value
        for channel in self.channels:
            totals["channel_failovers"] += channel.failovers
            totals["aborted_fetches"] += channel.aborted_fetches
        return totals

    def farm_snapshot(self) -> Dict:
        return {
            "servers": {node.name: {"alive": node.alive,
                                    "calls": node.endpoint.server.calls}
                        for node in self.data_servers},
            "replication": self.metadata.replication,
            "placements": self.metadata.placements,
            "retirements": self.metadata.retirements,
            "entries_retracted": self.metadata.entries_retracted,
            "clients": self.client_totals(),
            "recovery": [dict(rec) for rec in self.recovery_log],
            "digests": len(self.integrity),
        }
