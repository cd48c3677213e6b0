"""Per-session GVFS assembly: proxy chains for the paper's scenarios.

§4.2.1 defines four execution scenarios, reproduced here:

* **LOCAL** — VM state on the compute server's local disk (no NFS);
* **LAN** — state NFS-mounted from the LAN image server, access
  forwarded by GVFS proxies via SSH tunnels;
* **WAN** — same across the WAN image server;
* **WAN_CACHED** — WAN plus client-side proxy disk caching (WAN+C).

A :class:`GvfsSession` is what middleware builds per user: kernel
client -> (loopback) -> client proxy [caches] -> (SSH tunnel) -> server
proxy [identity map] -> (loopback) -> kernel NFS server.
:func:`build_cascade` inserts caching proxies into that chain (one on
the LAN server is the WAN-S3 cloning scenario).

Every caching proxy built here takes its policy from an explicit
``proxy_config`` argument — a :class:`ProxyConfig` template whose
``name``/``cache``/``metadata`` the builder fills in — so two sessions
on one testbed can run different readahead or write-back settings
(per-user / per-application policy, §3.2.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable, Generator, List, Optional, Sequence, Tuple, Union

from repro.core.blockcache import ProxyBlockCache
from repro.core.channel import CascadedFileChannel, FileChannel, RemoteFileLocator
from repro.core.config import ProxyCacheConfig, ProxyConfig
from repro.core.filecache import ProxyFileCache
from repro.core.layers.checksum import ChecksumLayer
from repro.core.proxy import GvfsProxy
from repro.net.ssh import ScpTransfer, SshTunnel
from repro.net.topology import Host, NetworkConditions, Testbed, resolve_profile
from repro.nfs.client import MountOptions, NfsClient
from repro.nfs.protocol import FileHandle
from repro.nfs.rpc import LoopbackTransport, RpcCircuitBreaker, RpcClient
from repro.nfs.server import NfsServer
from repro.sim import Environment
from repro.storage.localfs import LocalFileSystem
from repro.storage.vfs import FsError, Inode

__all__ = ["CascadeLevel", "CascadeLevelSpec", "GvfsSession", "LocalFile",
           "LocalMount", "Scenario", "ServerEndpoint", "build_cascade",
           "connect_hop"]


class Scenario(enum.Enum):
    """The four execution scenarios of §4.2.1."""

    LOCAL = "Local"
    LAN = "LAN"
    WAN = "WAN"
    WAN_CACHED = "WAN+C"


# --------------------------------------------------------------------------
# Local (no-NFS) mount adapter
# --------------------------------------------------------------------------

class LocalFile:
    """Open file on a local filesystem, mirroring the NfsFile interface."""

    def __init__(self, lfs: LocalFileSystem, inode: Inode):
        self.env = lfs.env
        self._lfs = lfs
        self.inode = inode

    @property
    def size(self) -> int:
        return self.inode.data.size

    def read(self, offset: int, count: int) -> Generator:
        data = yield from self._lfs.timed_read_inode(self.inode, offset, count)
        return data

    def read_all(self, chunk: int = 65536) -> Generator:
        out = bytearray()
        pos = 0
        while pos < self.size:
            data = yield from self.read(pos, chunk)
            if not data:
                break
            out += data
            pos += len(data)
        return bytes(out)

    def write(self, offset: int, data: bytes) -> Generator:
        yield from self._lfs.timed_write_inode(self.inode, data, offset)

    def write_sync(self, offset: int, data: bytes) -> Generator:
        """Synchronous (O_SYNC) write: charged to the disk immediately."""
        yield from self._lfs.timed_write_inode(self.inode, data, offset,
                                               sync=True)

    def truncate(self, new_size: int) -> Generator:
        self.inode.data.truncate(new_size)
        self.inode.touch()
        yield self.env.timeout(0)

    def close(self) -> Generator:
        yield self.env.timeout(0)


class LocalMount:
    """Adapter exposing the MountedNfs surface over a local filesystem,
    so VM monitors and workloads run unchanged in the LOCAL scenario."""

    def __init__(self, lfs: LocalFileSystem):
        self.env = lfs.env
        self.lfs = lfs

    def open(self, path: str) -> Generator:
        inode = self.lfs.fs.lookup(path)
        yield self.env.timeout(0)
        return LocalFile(self.lfs, inode)

    def create(self, path: str, exclusive: bool = True) -> Generator:
        inode = self.lfs.fs.create(path, exclusive=exclusive)
        yield self.env.timeout(0)
        return LocalFile(self.lfs, inode)

    def stat(self, path: str) -> Generator:
        inode = self.lfs.fs.lookup(path)
        yield self.env.timeout(0)
        return inode

    def mkdir(self, path: str) -> Generator:
        self.lfs.fs.mkdir(path)
        yield self.env.timeout(0)

    def symlink(self, path: str, target: str) -> Generator:
        self.lfs.fs.symlink(path, target)
        yield self.env.timeout(0)

    def readlink(self, path: str) -> Generator:
        target = self.lfs.fs.readlink(path)
        yield self.env.timeout(0)
        return target

    def remove(self, path: str) -> Generator:
        self.lfs.fs.unlink(path)
        yield self.env.timeout(0)

    def rename(self, old: str, new: str) -> Generator:
        self.lfs.fs.rename(old, new)
        yield self.env.timeout(0)

    def readdir(self, path: str) -> Generator:
        names = self.lfs.fs.readdir(path)
        yield self.env.timeout(0)
        return names

    def flush_all(self) -> Generator:
        yield from self.lfs.sync()

    def drop_caches(self) -> None:
        self.lfs.drop_caches()


# --------------------------------------------------------------------------
# Server side
# --------------------------------------------------------------------------

class ServerEndpoint:
    """The image-server side: kernel NFS server + server-side proxy.

    The server-side proxy authenticates requests and maps identities to
    a short-lived logical account (§3.1); it carries no caches.
    """

    def __init__(self, env: Environment, host: Host, fsid: str = "images",
                 logical_identity=(1001, 1001), integrity=None):
        self.env = env
        self.host = host
        self.integrity = integrity
        self.export = host.local
        self.server = NfsServer(env, self.export, fsid=fsid)
        loop = LoopbackTransport(env)
        # ``integrity`` (a ChecksumRegistry) adds a record-mode checksum
        # layer at this origin-adjacent boundary: every block leaving or
        # reaching the server of record is checksummed, so client-side
        # verify instances have a truth to check against.
        checksum = (ChecksumLayer(integrity, record=True)
                    if integrity is not None else None)
        self.proxy = GvfsProxy(
            env,
            RpcClient(env, self.server, loop, loop, name=f"{fsid}.srvproxy"),
            ProxyConfig(name=f"{host.name}.server-proxy", metadata=False,
                        identity=logical_identity),
            checksum=checksum)

    @property
    def root_fh(self) -> FileHandle:
        return self.server.root_fh

    def resolve(self, fh: FileHandle) -> Inode:
        """Out-of-band handle resolution for file channels (SCP source)."""
        if fh.fsid != self.server.fsid:
            raise FsError("ESTALE", f"foreign fsid {fh.fsid}")
        return self.export.fs.get_inode(fh.fileid)


# --------------------------------------------------------------------------
# Caching hops: the client proxy and every cascade level
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CascadeLevel:
    """One caching hop.  A GVFS proxy is both an NFS server and an NFS
    client (§3.1), so a cascade level is the same caching proxy a
    client runs; the hop below uses :attr:`proxy` as its upstream
    handler and :attr:`channel` as its file channel's parent."""

    name: str
    host: Host
    proxy: GvfsProxy
    channel: FileChannel
    block_cache: ProxyBlockCache


def connect_hop(testbed: Testbed, host: Host,
                upstream: Union[ServerEndpoint, CascadeLevel], name: str
                ) -> Tuple[RpcClient, Callable[[ProxyFileCache], FileChannel]]:
    """Wire ``host`` to its next hop ``upstream``: ``upstream.host`` is
    the far end and ``upstream.proxy`` the handler, and ``upstream`` is
    an image server's endpoint or a cascade level (a level's
    ``channel`` is the parent of this hop's file channel).  The hop
    crosses the WAN only to reach the WAN image server.

    Returns the hop's :class:`RpcClient` (a tunnel pair over the
    outbound and back routes) and a function that builds the hop's file
    channel into a file cache: SCP down the back route, SCP up the
    outbound route, reading the endpoint's files or the level's file
    cache.  The channel comes later because the file cache it fills is
    built after the RPC client.
    """
    env = testbed.env
    via_wan = upstream.host is testbed.wan_server
    route_out = testbed.route(host, upstream.host, via_wan)
    route_back = testbed.route(upstream.host, host, via_wan)
    rpc = RpcClient(env, upstream.proxy,
                    SshTunnel(env, route_out, name=f"{name}.out"),
                    SshTunnel(env, route_back, name=f"{name}.back"),
                    name=f"{name}.rpc")

    def file_channel(file_cache: ProxyFileCache) -> FileChannel:
        scp = ScpTransfer(env, route_back, name=f"{name}.scp")
        upload_scp = ScpTransfer(env, route_out, name=f"{name}.scp-up")
        parent = getattr(upstream, "channel", None)
        if parent is not None:
            return CascadedFileChannel(env, parent, host, scp, file_cache,
                                       upload_scp=upload_scp)
        locator = RemoteFileLocator(resolve=upstream.resolve,
                                    server_host=upstream.host,
                                    server_fs=upstream.export,
                                    client_host=host)
        return FileChannel(env, locator, scp, file_cache,
                           upload_scp=upload_scp)

    return rpc, file_channel


def _build_hop(testbed: Testbed, endpoint: ServerEndpoint, host: Host,
               name: str, proxy_name: str, *,
               above: Optional[CascadeLevel] = None, origin=None,
               caching: bool = True,
               cache_config: Optional[ProxyCacheConfig] = None,
               shared_block_cache: Optional[ProxyBlockCache] = None,
               metadata: bool = True,
               proxy_config: ProxyConfig = ProxyConfig(),
               peer_directory=None, integrity=None
               ) -> Union[CascadeLevel, RpcClient]:
    """Build one caching proxy on ``host`` over the next hop: ``above``
    (a cascade level), else the ``origin`` farm, else ``endpoint``.
    Without ``caching`` (the LAN and WAN scenarios) it stops at the
    transport and returns the RPC client a kernel client mounts
    through.  ``integrity`` puts a verify-mode checksum layer on top.
    """
    env = testbed.env
    upstream, file_channel = (
        origin.connect_hop(host, name) if origin is not None
        else connect_hop(testbed, host, above or endpoint, name))
    if not caching:
        return upstream

    block_cache = (shared_block_cache if shared_block_cache is not None
                   else ProxyBlockCache(env, host.local,
                                        cache_config or ProxyCacheConfig(),
                                        name=f"{name}.blocks"))
    channel = file_channel(
        ProxyFileCache(env, host.local, name=f"{name}.files"))
    peer_member = (peer_directory.join(name, host, block_cache)
                   if peer_directory is not None else None)
    checksum = (ChecksumLayer(integrity, verify=True)
                if integrity is not None else None)
    proxy = GvfsProxy(env, upstream,
                      replace(proxy_config, name=proxy_name,
                              cache=block_cache.config, metadata=metadata),
                      block_cache=block_cache, channel=channel,
                      peer_member=peer_member, checksum=checksum)
    return CascadeLevel(name=name, host=host, proxy=proxy, channel=channel,
                        block_cache=block_cache)


# --------------------------------------------------------------------------
# Cache cascades: intermediate caching-proxy levels between client and origin
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CascadeLevelSpec:
    """Declarative description of one cascade level for
    :func:`build_cascade`.

    ``cache_config`` carries the level's block-cache geometry; ``host``
    pins the level to an existing testbed host (default: the LAN image
    server for the origin-adjacent level, a freshly attached LAN host
    otherwise).

    ``profile`` calibrates the level's *access link* when the cascade
    provisions a fresh host for it: a :data:`repro.net.topology
    .LINK_PROFILES` name (``"rack"``/``"site"``/``"lan"``/``"wan"``)
    or explicit :class:`NetworkConditions` — so a rack-level cache one
    gigabit hop away and a site cache across the campus backbone stop
    sharing the single-switch LAN calibration.  Incompatible with
    ``host`` (a pinned host keeps the access link it already has).
    ``proxy_config`` overrides the cascade-wide policy template for
    this level.
    """

    cache_config: Optional[ProxyCacheConfig] = None
    host: Optional[Host] = None
    name: Optional[str] = None
    profile: Optional[Union[str, NetworkConditions]] = None
    proxy_config: Optional[ProxyConfig] = None


def build_cascade(testbed: Testbed, endpoint: ServerEndpoint,
                  levels: Sequence[Union[CascadeLevelSpec, ProxyCacheConfig]],
                  name: str = "cascade",
                  proxy_config: ProxyConfig = ProxyConfig()
                  ) -> List[CascadeLevel]:
    """Assemble an arbitrary-depth proxy-cache cascade (§3.2.3
    generalized): compute node → rack cache → … → site cache → origin.

    ``levels`` lists the *intermediate* cache levels, ordered
    client-ward → origin-ward; each entry is a :class:`CascadeLevelSpec`
    (or a bare :class:`ProxyCacheConfig` as shorthand).  The levels are
    returned in that order; sessions attach with ``via=levels[0]`` (an
    empty list builds none: a plain caching client proxy).  The
    origin-adjacent level defaults to the LAN image server host reaching
    the origin across the WAN (§3.2.3's second-level proxy cache, "setup
    on a LAN server ... to further exploit the locality"); additional
    client-ward levels get their own LAN-attached hosts.
    ``proxy_config`` is the policy template of every level that does
    not carry its own.
    """
    specs = [spec if isinstance(spec, CascadeLevelSpec)
             else CascadeLevelSpec(cache_config=spec) for spec in levels]
    built: List[CascadeLevel] = []
    above: Optional[CascadeLevel] = None
    for pos in range(len(specs) - 1, -1, -1):
        spec = specs[pos]
        level_no = pos + 2          # the client proxy is level 1
        host = spec.host
        if host is not None and spec.profile is not None:
            raise ValueError(
                f"cascade level {spec.name or level_no}: 'profile' only "
                "applies when the cascade provisions the host; a pinned "
                "host keeps its existing access link")
        if host is None:
            conditions = (resolve_profile(spec.profile)
                          if spec.profile is not None else None)
            if above is None and conditions is None:
                host = testbed.lan_server
            else:
                host = testbed.add_host(f"{name}-l{level_no}",
                                        conditions=conditions)
        level_name = spec.name or f"{name}-l{level_no}"
        above = _build_hop(testbed, endpoint, host, level_name, level_name,
                           above=above, cache_config=spec.cache_config,
                           proxy_config=spec.proxy_config or proxy_config)
        built.append(above)
    built.reverse()
    return built


# --------------------------------------------------------------------------
# The session
# --------------------------------------------------------------------------

@dataclass
class GvfsSession:
    """One user's GVFS session: the mount plus every interposed proxy."""

    env: Environment
    scenario: Scenario
    mount: object                       # MountedNfs or LocalMount
    compute_host: Host
    endpoint: Optional[ServerEndpoint] = None
    client_proxy: Optional[GvfsProxy] = None

    # -- middleware operations ------------------------------------------------
    def flush(self) -> Generator:
        """Process: force all session dirty state to the image server —
        through every caching proxy on the way, client-ward first: a
        write-back cascade level absorbs what the proxy below it
        flushes (a level shared by several sessions drains all it
        holds, never less than this session's data)."""
        yield self.env.process(self.mount.flush_all())
        if self.client_proxy is not None:
            for stack in self.client_proxy.cascade_stacks():
                if stack.block_cache is not None:
                    yield self.env.process(stack.flush())

    def harden_rpc(self, timeout: float = 1.0, max_retries: int = 5,
                   backoff: float = 2.0, max_timeout: float = 8.0,
                   breaker_threshold: Optional[int] = None,
                   breaker_reset: float = 5.0,
                   dirty_high_water_blocks: Optional[int] = None) -> RpcClient:
        """Enable failure handling on the session's WAN-facing RPC path.

        Sessions are built with ``timeout=None`` (no retransmission) —
        correct on a perfect network and free of timer cost.  Under
        fault injection the middleware calls this to switch the client
        proxy's upstream (or, with no proxy, the mount itself) to the
        retransmission ladder, optionally with a circuit breaker (which
        also arms the proxy's degraded mode) and a dirty high-water
        mark.  Returns the hardened :class:`RpcClient`.  A farm
        session has no one client to harden (its upstream fans out to
        one client per replica, and fails over by itself) and raises
        :class:`ValueError`.
        """
        client = (self.client_proxy.upstream if self.client_proxy is not None
                  else self.mount.rpc)
        if not isinstance(client, RpcClient):
            raise ValueError("harden_rpc: a farm session's upstream fails "
                             "over across replicas; there is no single "
                             "RPC client to harden")
        client.timeout = timeout
        client.max_retries = max_retries
        client.backoff = backoff
        client.max_timeout = max_timeout
        if breaker_threshold is not None:
            client.breaker = RpcCircuitBreaker(
                self.env, failure_threshold=breaker_threshold,
                reset_after=breaker_reset)
        if (dirty_high_water_blocks is not None
                and self.client_proxy is not None):
            self.client_proxy.config = replace(
                self.client_proxy.config,
                dirty_high_water_blocks=dirty_high_water_blocks)
        return client

    def cold_caches(self) -> Generator:
        """Process: the experiments' cold-cache setup — flush dirty
        state, then unmount/mount (drop kernel caches) and flush the
        proxy caches."""
        yield self.env.process(self.flush())
        self.mount.drop_caches()
        if self.client_proxy is not None:
            # Late readahead fetches must land (or fail) before the
            # tags drop, or they would repopulate a "cold" cache.
            yield self.env.process(self.client_proxy.quiesce())
            self.client_proxy.invalidate_caches()
        self.compute_host.local.drop_caches()

    # -- construction ------------------------------------------------------------
    @classmethod
    def build(cls, testbed: Testbed, scenario: Scenario,
              endpoint: Optional[ServerEndpoint] = None,
              compute_index: int = 0,
              cache_config: Optional[ProxyCacheConfig] = None,
              mount_options: Optional[MountOptions] = None,
              metadata: bool = True,
              via: Optional[CascadeLevel] = None,
              shared_block_cache: Optional[ProxyBlockCache] = None,
              peer_directory=None,
              origin=None,
              proxy_config: ProxyConfig = ProxyConfig()
              ) -> "GvfsSession":
        """Wire a session for ``scenario`` on compute node ``compute_index``.

        ``endpoint`` names the image server side.  ``via``
        interposes a cache cascade: the client-ward level
        :func:`build_cascade` returned (``None``: no intermediate
        levels).  ``cache_config`` overrides the client cache geometry
        for WAN_CACHED (defaults to §4.1's 512 banks / 16-way / 8 GB).
        ``shared_block_cache`` lets several sessions on one host share
        a read-only cache of golden-image blocks (§3.2.1); the proxy
        then forwards writes upstream.

        ``peer_directory`` (a :meth:`Testbed.peer_directory`) registers
        this session's block cache with the site's cooperative peer
        directory so LAN peers answer each other's misses before they
        escalate over the WAN.

        An endpoint that records checksums (built with a
        ``ChecksumRegistry``) gives a WAN_CACHED client proxy a
        verify-mode checksum layer at its top, checking every
        client-bound full block against the origin's record.

        ``origin`` replaces the single upstream with a replicated
        origin provider (duck-typed; canonically
        ``repro.middleware.farm.ImageFarm``): anything exposing
        ``endpoint`` (root-handle source, recording with the farm's
        shared checksum registry) and ``connect_hop(compute_host,
        name)``, which returns what :func:`connect_hop` returns — an
        upstream client with ``call(request)`` and a file-channel
        builder — both fanning out across the replicas behind them.
        ``origin`` and ``via`` are mutually exclusive — a farm is
        already its own data plane.

        ``proxy_config`` is the client proxy's policy template
        (WAN_CACHED only): readahead depth, write coalescing and
        pipelining, dirty high-water mark.  Its ``name``, ``cache`` and
        ``metadata`` fields are overwritten by the session's own.
        """
        env = testbed.env
        n = next(testbed.session_numbers)
        compute = testbed.compute[compute_index]
        if origin is not None:
            if via is not None:
                raise ValueError("origin farm and cascade 'via' are "
                                 "mutually exclusive")
            endpoint = origin.endpoint

        if scenario is Scenario.LOCAL:
            return cls(env=env, scenario=scenario,
                       mount=LocalMount(compute.local), compute_host=compute)

        if endpoint is None:
            raise ValueError(f"a {scenario.value} session needs an "
                             "endpoint or an origin")

        hop = _build_hop(testbed, endpoint, compute, f"s{n}",
                         f"s{n}.client-proxy", above=via, origin=origin,
                         caching=scenario is Scenario.WAN_CACHED,
                         cache_config=cache_config,
                         shared_block_cache=shared_block_cache,
                         metadata=metadata, proxy_config=proxy_config,
                         peer_directory=peer_directory,
                         integrity=endpoint.integrity)
        if isinstance(hop, CascadeLevel):
            client_proxy = hop.proxy
            loop = LoopbackTransport(env)
            mount_rpc = RpcClient(env, client_proxy, loop, loop,
                                  name=f"s{n}.mount")
        else:
            # LAN / WAN without client caching: the kernel client talks
            # through the tunnel straight to the server-side proxy.
            client_proxy, mount_rpc = None, hop

        nfs_client = NfsClient(env, name=f"s{n}.client")
        mount = nfs_client.mount("/gvfs", mount_rpc, endpoint.root_fh,
                                 mount_options or MountOptions())
        return cls(env=env, scenario=scenario, mount=mount,
                   compute_host=compute, endpoint=endpoint,
                   client_proxy=client_proxy)
