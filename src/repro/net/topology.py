"""Hosts and the paper's experimental topology.

The HPDC'04 testbed (§4.1):

* **LAN image server** — dual 1.8 GHz PIII, 1 GB RAM, at UF.
* **WAN image server** — dual 1 GHz PIII, 1 GB RAM, at Northwestern,
  reached across Abilene.
* **Compute servers** — UF cluster nodes (1.1 GHz PIII for the
  application runs; quad 2.4 GHz Xeon for the cloning runs), 100 Mbit/s
  Ethernet to the LAN image server.

Calibration constants below are set once from era-accurate values
(100 Mbit Ethernet; Abilene UF↔NWU one-way delay ~19 ms; 64 KiB TCP
windows) and shared by *every* experiment — no per-figure tuning.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.net.link import Route, duplex
from repro.sim import AnyOf, Environment, Event, FifoResource
from repro.storage.disk import DiskParams, SCSI_2003
from repro.storage.localfs import LocalFileSystem

__all__ = ["Host", "LINK_PROFILES", "NetworkConditions", "PeerCacheDirectory",
           "PeerMember", "Testbed", "make_paper_testbed", "resolve_profile",
           "LAN_2003", "RACK_2003", "SITE_2003", "WAN_2003"]


@dataclass(frozen=True)
class NetworkConditions:
    """One-way latency (s) and raw bandwidth (bytes/s) of a path segment."""

    latency: float
    bandwidth: float


#: 100 Mbit/s switched Ethernet, sub-millisecond one-way delay.
LAN_2003 = NetworkConditions(latency=0.1e-3, bandwidth=12.5e6)

#: Abilene path UF <-> Northwestern: ~38 ms RTT; the shared campus/
#: backbone segment offers far more raw bandwidth than one 2003 TCP
#: stream can use (per-stream throughput is window-limited instead).
WAN_2003 = NetworkConditions(latency=18.8e-3, bandwidth=30e6)

#: Top-of-rack gigabit interconnect (era clusters were moving the
#: intra-rack hop to 1000BASE-T): one switch hop, negligible delay.
RACK_2003 = NetworkConditions(latency=0.05e-3, bandwidth=125e6)

#: Campus/site backbone: still 100 Mbit per access port but several
#: switch/router hops away, so noticeably more one-way delay than the
#: single-switch LAN segment.
SITE_2003 = NetworkConditions(latency=0.5e-3, bandwidth=12.5e6)

#: Named per-hop link profiles for cascade levels and added hosts —
#: a rack-level cache sits one gigabit hop away, a site cache across
#: the campus backbone, the origin across the WAN.
LINK_PROFILES: Dict[str, NetworkConditions] = {
    "lan": LAN_2003,
    "rack": RACK_2003,
    "site": SITE_2003,
    "wan": WAN_2003,
}


def resolve_profile(profile) -> NetworkConditions:
    """Map a profile name (or pass through conditions) to
    :class:`NetworkConditions`."""
    if isinstance(profile, NetworkConditions):
        return profile
    try:
        return LINK_PROFILES[profile]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown link profile {profile!r}; choose from "
            f"{sorted(LINK_PROFILES)} or pass NetworkConditions") from None


class Host:
    """A machine: CPUs, a local disk/page-cache, and a name.

    CPU capacity is a FIFO resource; compute phases of workloads and
    CPU-bound pipeline stages (gzip) hold one CPU while they run so
    co-located work contends realistically.
    """

    def __init__(self, env: Environment, name: str, cpus: int = 1,
                 cpu_speed: float = 1.0,
                 disk_params: DiskParams = SCSI_2003,
                 page_cache_bytes: int = 512 * 1024 * 1024):
        self.env = env
        self.name = name
        self.cpu_speed = float(cpu_speed)
        self.cpu = FifoResource(env, capacity=cpus, name=f"{name}.cpu")
        self.local = LocalFileSystem(env, name=f"{name}.local",
                                     disk_params=disk_params,
                                     page_cache_bytes=page_cache_bytes)

    def compute(self, cpu_seconds: float):
        """Process: hold one CPU for ``cpu_seconds`` (scaled by speed)."""
        def _run():
            req = self.cpu.request()
            try:
                yield req
                yield self.env.timeout(cpu_seconds / self.cpu_speed)
            finally:
                self.cpu.release(req)
        return self.env.process(_run(), name=f"{self.name}.compute")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Host {self.name}>"


class PeerMember:
    """One proxy's membership in a site's peer-cache directory.

    Doubles as the block cache's observer (``block_published`` /
    ``block_retracted`` / ``cache_cleared`` / ``cache_crashed``),
    relaying ownership changes into the directory, and as the handle
    the proxy's peer-cache layer borrows through.  Fully duck-typed on the cache object — the
    network package never imports :mod:`repro.core`.
    """

    __slots__ = ("name", "host", "block_cache", "directory")

    def __init__(self, name: str, host: Host, block_cache, directory):
        self.name = name
        self.host = host
        self.block_cache = block_cache
        self.directory = directory

    # -- cache observer feed (pushed membership updates) ---------------------
    def block_published(self, key) -> None:
        self.directory._publish(self, key)

    def block_retracted(self, key) -> None:
        self.directory._retract(self, key)

    def cache_cleared(self) -> None:
        self.directory._retract_all(self)

    def cache_crashed(self) -> None:
        # The proxy process died: beyond retracting its advertisements,
        # the directory must stop waiting on any WAN fetch this member
        # was the designated fetcher for.
        self.directory.retire(self)

    # -- the borrow face used by the proxy's peer-cache layer ----------------
    def borrow(self, key):
        """Process: fetch ``key`` from a same-site peer (see
        :meth:`PeerCacheDirectory.borrow`)."""
        return self.directory.borrow(self, key)

    def abandon(self, key) -> None:
        """This member's own fetch of ``key`` published nothing."""
        self.directory.abandon(self, key)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<PeerMember {self.name} on {self.host.name}>"


class PeerCacheDirectory:
    """Per-site block-ownership directory for cooperative proxy caching.

    Peer proxies on one site register their block caches; each cache
    pushes ownership deltas as blocks become (or stop being) shareable,
    so the directory's map is always current without polling.  Only
    *clean* blocks are listed — dirty frames are session-private until
    written back.  A miss then consults the directory before crossing
    the WAN: a small query round trip to the directory host, and on a
    hit the block moves peer-to-peer over the site's cheap links.

    Timing model: membership updates ride existing traffic (piggybacked
    deltas, not charged); a lookup pays the query round trip; a borrow
    additionally pays the request message to the owner, the owner's
    bank-file read, and the block-sized response.  Routes between host
    pairs are built once and cached, so steady-state lookups allocate
    nothing.
    """

    #: Size of a directory query / response / block-request message.
    QUERY_BYTES = 128
    #: How long a miss waits for a site peer's in-flight fetch of the
    #: same block before giving up and crossing the WAN itself.
    PENDING_TIMEOUT = 0.5

    def __init__(self, testbed: "Testbed", site: str = "site0",
                 host: Optional[Host] = None):
        self.testbed = testbed
        self.env = testbed.env
        self.site = site
        #: Host answering directory queries (the LAN image server by
        #: default — it is on every member's cheap-link horizon).
        self.host = host if host is not None else testbed.lan_server
        self.members: List[PeerMember] = []
        # key -> owners, in deterministic registration order.
        self._owners: Dict = {}
        # key -> (fetcher, publication gate): set when the directory
        # told a member "nobody has it" (that member becomes the site's
        # designated WAN fetcher); later askers wait on the gate instead
        # of duplicating the fetch.  Recording the fetcher lets a crash
        # release exactly its gates (see :meth:`retire`).
        self._pending: Dict = {}
        self._routes: Dict = {}
        # Statistics
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.coalesced = 0
        self.pending_timeouts = 0
        self.bytes_served = 0
        self.retirements = 0

    def join(self, name: str, host: Host, block_cache) -> PeerMember:
        """Register a proxy's block cache; returns its member handle.

        Installs the membership observer on the cache and seeds the
        directory with whatever clean blocks the cache already holds
        (a warm cache joining late is immediately useful).  Joining the
        same cache twice returns the existing member.
        """
        for member in self.members:
            if member.block_cache is block_cache:
                return member
        member = PeerMember(name, host, block_cache, self)
        self.members.append(member)
        block_cache.observers.append(member)
        for key in block_cache.iter_clean_keys():
            self._publish(member, key)
        return member

    # -- membership map (synchronous, pushed by cache observers) -------------
    def _publish(self, member: PeerMember, key) -> None:
        owners = self._owners.get(key)
        if owners is None:
            self._owners[key] = [member]
        elif member not in owners:
            owners.append(member)
        pending = self._pending.pop(key, None)
        if pending is not None:
            self._release(pending[1])

    def _retract(self, member: PeerMember, key) -> None:
        owners = self._owners.get(key)
        if owners is not None and member in owners:
            owners.remove(member)
            if not owners:
                del self._owners[key]

    def _retract_all(self, member: PeerMember) -> None:
        dead = [key for key, owners in self._owners.items()
                if member in owners]
        for key in dead:
            self._retract(member, key)

    def retire(self, member: PeerMember) -> None:
        """A member's proxy crashed: drop its advertisements *and*
        release every borrow gate it was the designated fetcher for.

        Waiters on a released gate re-query, find no owner, and fall
        through to their own upstream — a crash costs them one retry,
        never a :attr:`PENDING_TIMEOUT` stall on a fetch that will
        never be published.
        """
        self._retract_all(member)
        stuck = [key for key, (fetcher, _) in self._pending.items()
                 if fetcher is member]
        for key in stuck:
            self._release(self._pending.pop(key)[1])
        self.retirements += 1

    def abandon(self, member: PeerMember, key) -> None:
        """``key``'s designated fetcher came back empty-handed: its
        askers re-query now, not after :attr:`PENDING_TIMEOUT`, and no
        reservation stays behind."""
        pending = self._pending.get(key)
        if pending is not None and pending[0] is member:
            del self._pending[key]
            self._release(pending[1])

    @staticmethod
    def _release(gate: Event) -> None:
        """Wake the askers parked on a gate just taken out of the
        pending table; one nobody waited on is dropped, not fired (an
        asker registers in the same step that it finds the gate, so
        none can arrive later)."""
        if gate.callbacks and not gate.triggered:
            gate.succeed()

    def locate(self, key, exclude: Optional[PeerMember] = None):
        """First registered owner of ``key`` other than ``exclude``
        (deterministic: registration order), or None."""
        owners = self._owners.get(key)
        if not owners:
            return None
        for owner in owners:
            if owner is not exclude:
                return owner
        return None

    def _route(self, src: Host, dst: Host) -> Route:
        pair = (src.name, dst.name)
        route = self._routes.get(pair)
        if route is None:
            route = self.testbed.route(src, dst)
            self._routes[pair] = route
        return route

    def borrow(self, member: PeerMember, key):
        """Process: try to fetch ``key`` from a same-site peer.

        Returns ``(data, owner_found)``: ``(bytes, True)`` on a peer
        hit; ``(None, False)`` when no peer owns the block;
        ``(None, True)`` when the directory's answer was stale — the
        listed owner evicted or dirtied the block before the request
        arrived (the caller falls through to its upstream either way).

        When no peer owns the block but one is already fetching it over
        the WAN (this member was told "nobody has it" moments ago), the
        directory answers "in flight — wait": the asker blocks on the
        publication gate up to :attr:`PENDING_TIMEOUT` and then borrows
        the freshly landed copy over the LAN, so a storm of peers
        cloning one image moves each block across the WAN once instead
        of once per peer.
        """
        self.lookups += 1
        # Query round trip to the directory host.
        yield from self._route(member.host, self.host).transmit(
            self.QUERY_BYTES)
        owner = self.locate(key, exclude=member)
        yield from self._route(self.host, member.host).transmit(
            self.QUERY_BYTES)
        if owner is None:
            pending = self._pending.get(key)
            if pending is None:
                # This member becomes the designated fetcher.
                self._pending[key] = (member, Event(self.env))
                self.misses += 1
                return None, False
            gate = pending[1]
            yield AnyOf(self.env, [gate,
                                   self.env.timeout(self.PENDING_TIMEOUT)])
            if not gate.triggered:
                # The fetcher stalled (WAN fault, failed fetch): stop
                # advertising it so the next asker takes over, and fall
                # through to our own upstream.
                if self._pending.get(key) is pending:
                    del self._pending[key]
                self.pending_timeouts += 1
                self.misses += 1
                return None, False
            # Published while we waited: re-query for the owner.
            yield from self._route(member.host, self.host).transmit(
                self.QUERY_BYTES)
            owner = self.locate(key, exclude=member)
            yield from self._route(self.host, member.host).transmit(
                self.QUERY_BYTES)
            if owner is None:
                # Evicted again in the window between publish and
                # re-query; give up and go upstream.
                self.misses += 1
                return None, False
            self.coalesced += 1
        # Block request to the owner; its cache charges the bank read.
        yield from self._route(member.host, owner.host).transmit(
            self.QUERY_BYTES)
        data = yield from owner.block_cache.read_cached(key)
        if data is None:
            # Stale entry: gone (or dirtied) since the directory answered.
            yield from self._route(owner.host, member.host).transmit(
                self.QUERY_BYTES)
            self.stale += 1
            return None, True
        yield from self._route(owner.host, member.host).transmit(
            len(data) + self.QUERY_BYTES)
        self.hits += 1
        self.bytes_served += len(data)
        return data, True

    def stats_snapshot(self) -> Dict[str, int]:
        return {"members": len(self.members),
                "listed_blocks": len(self._owners),
                "lookups": self.lookups, "hits": self.hits,
                "misses": self.misses, "stale": self.stale,
                "coalesced": self.coalesced,
                "pending_timeouts": self.pending_timeouts,
                "bytes_served": self.bytes_served,
                "retirements": self.retirements}


class Testbed:
    """The wired-up testbed: hosts plus routes between them.

    Routes are derived from per-host access links and shared segments,
    so concurrent flows (e.g. eight parallel clonings) contend exactly
    where the real topology would make them contend: on the image
    server's access link and on endpoint CPUs.
    """

    __test__ = False  # not a pytest test class despite the Test* name

    def __init__(self, env: Environment, n_compute: int = 1,
                 lan: NetworkConditions = LAN_2003,
                 wan: NetworkConditions = WAN_2003,
                 compute_cpu_speed: float = 1.0,
                 compute_page_cache_bytes: int = 512 * 1024 * 1024):
        if n_compute < 1:
            raise ValueError("need at least one compute server")
        self.env = env
        self.lan_conditions = lan
        self.wan_conditions = wan

        # Hosts. CPU speeds are relative to the 1.1 GHz PIII compute node.
        self.compute: List[Host] = [
            Host(env, f"compute{i}", cpus=4, cpu_speed=compute_cpu_speed,
                 page_cache_bytes=compute_page_cache_bytes)
            for i in range(n_compute)]
        self.lan_server = Host(env, "lan-image-server", cpus=2, cpu_speed=1.6)
        self.wan_server = Host(env, "wan-image-server", cpus=2, cpu_speed=0.9)

        # Access links (full duplex pairs): one per compute node, one per
        # image server; plus the shared WAN segment.
        self._access: Dict[str, tuple] = {}
        for host in [*self.compute, self.lan_server, self.wan_server]:
            self._access[host.name] = duplex(
                env, lan.latency, lan.bandwidth, name=f"{host.name}.eth")
        self.wan_segment = duplex(env, wan.latency, wan.bandwidth,
                                  name="abilene")

        # Cooperative peer-cache directories, one per site, created on
        # first use (see :meth:`peer_directory`).
        self._peer_directories: Dict[str, PeerCacheDirectory] = {}
        # The ``s{n}`` of session names: per testbed, so a rig's names
        # do not depend on what else the process built.
        self.session_numbers = itertools.count(1)

    # -- host construction --------------------------------------------------
    def add_host(self, name: str, cpus: int = 2, cpu_speed: float = 1.6,
                 page_cache_bytes: int = 512 * 1024 * 1024,
                 conditions: Optional[NetworkConditions] = None) -> Host:
        """Add an attached host (e.g. an intermediate cascade-cache
        server) with its own access-link pair, routable to every other
        host via :meth:`route`.  Defaults mirror the LAN image server;
        ``conditions`` picks the access-link calibration (a
        :data:`LINK_PROFILES` entry such as rack or site conditions)
        instead of the testbed-wide LAN segment.
        """
        if name in self._access:
            raise ValueError(f"host {name!r} already exists")
        conditions = conditions or self.lan_conditions
        host = Host(self.env, name, cpus=cpus, cpu_speed=cpu_speed,
                    page_cache_bytes=page_cache_bytes)
        self._access[name] = duplex(
            self.env, conditions.latency, conditions.bandwidth,
            name=f"{name}.eth")
        return host

    def add_origin_pool(self, n: int, prefix: str = "data-server",
                        profile: str = "site", cpus: int = 2,
                        cpu_speed: float = 1.6,
                        page_cache_bytes: int = 512 * 1024 * 1024
                        ) -> List[Host]:
        """Provision ``n`` origin-tier hosts (an image-server farm).

        Each data server gets its *own* access-link duplex at the named
        :data:`LINK_PROFILES` calibration (default: campus-backbone
        site links), so aggregate farm bandwidth scales with the number
        of servers instead of funneling through one image server's
        port.  Hosts are named ``{prefix}0..{n-1}`` and are routable
        from every compute node via :meth:`route`.
        """
        if n < 1:
            raise ValueError("need at least one data server")
        conditions = resolve_profile(profile)
        return [self.add_host(f"{prefix}{i}", cpus=cpus,
                              cpu_speed=cpu_speed,
                              page_cache_bytes=page_cache_bytes,
                              conditions=conditions)
                for i in range(n)]

    # -- cooperative caching --------------------------------------------------
    def peer_directory(self, site: str = "site0") -> PeerCacheDirectory:
        """The site's cooperative peer-cache directory, created on
        first use.  Proxies join it via
        :meth:`PeerCacheDirectory.join`; the default directory host is
        the LAN image server."""
        directory = self._peer_directories.get(site)
        if directory is None:
            directory = PeerCacheDirectory(self, site=site)
            self._peer_directories[site] = directory
        return directory

    # -- route construction -------------------------------------------------
    def route(self, src: Host, dst: Host, via_wan: bool = False) -> Route:
        """A route between any two attached hosts.  ``via_wan`` inserts
        the shared Abilene segment (cache-cascade hops between LAN hosts
        stay on campus Ethernet)."""
        src_up, _ = self._access[src.name]
        _, dst_down = self._access[dst.name]
        hops = [src_up]
        if via_wan:
            # Forward direction of the shared segment is UF -> NWU.
            hops.append(self.wan_segment[0] if dst is self.wan_server
                        else self.wan_segment[1])
        hops.append(dst_down)
        return Route(hops, name=f"{src.name}->{dst.name}")

    def wan_route(self, compute_index: int = 0) -> Route:
        """Compute node → WAN image server (across Abilene)."""
        return self.route(self.compute[compute_index], self.wan_server, True)

    def wan_route_back(self, compute_index: int = 0) -> Route:
        """WAN image server → compute node."""
        return self.route(self.wan_server, self.compute[compute_index], True)


def make_paper_testbed(env: Optional[Environment] = None,
                       n_compute: int = 1, **kwargs) -> Testbed:
    """The testbed of §4.1 with the calibrated era constants.

    ``kwargs`` forward to :class:`Testbed` (e.g. ``compute_cpu_speed``
    for the quad-Xeon cloning nodes).
    """
    return Testbed(env or Environment(), n_compute=n_compute, **kwargs)
