"""Peer-cache layer: cooperative LAN caching across same-site proxies.

The paper's proxies share read-only golden-image state *vertically*
(cascade levels); AliEnFS-style cooperative caching shares it
*horizontally*: before a block miss escalates to the (WAN) upstream,
ask the site's peer-cache directory whether another proxy on the same
site already holds the block, and borrow it over the cheap rack/site
links.  The directory (see ``PeerCacheDirectory`` in
:mod:`repro.net.topology`) is kept current by push updates from each
member's block cache — only *clean* blocks are ever published, dirty
frames stay session-private until written back — so a lookup is one
small query round trip, and a hit moves the block peer-to-peer without
touching the upstream at all.

Placement: the layer sits *below* the fault guard and directly above
the upstream RPC terminal.  Both demand misses (the fault guard's
``guarded_fetch`` re-enters the stack below the cache) and readahead
window fetches flow through it, so prefetches borrow from peers too —
and peer hits keep serving while the WAN upstream is down, shrinking
degraded mode's blast radius.  With no directory hit the layer is a
pure fall-through and adds zero simulation events.

The member handle is duck-typed (``borrow(key)`` process returning
``(data | None, owner_found)``): layers never import the network
package, mirroring how the upstream RPC client is injected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.core.layers.base import ProxyLayer
from repro.nfs.protocol import NfsProc, NfsReply, NfsStatus

__all__ = ["PeerCacheLayer"]


@dataclass
class PeerCacheStats:
    peer_hits: int = 0         # misses answered by a same-site peer
    peer_misses: int = 0       # lookups with no owner; went upstream
    peer_stale: int = 0        # owner listed but block gone on arrival
    peer_bytes: int = 0        # payload bytes served peer-to-peer
    peer_suppressed: int = 0   # borrows skipped during checksum repair
    procs_blackholed: int = 0  # borrows parked by a blackhole fault
    procs_delayed: int = 0     # borrows slowed by a delay fault
    procs_duplicated: int = 0  # (unused; duplication targets RPC layers)


class PeerCacheLayer(ProxyLayer):
    """Answer block misses from same-site peer proxies before the WAN."""

    ROLE = "peer-cache"
    Stats = PeerCacheStats
    FAULT_PROCS = True

    def __init__(self, member):
        super().__init__()
        #: This proxy's membership handle in the site's peer-cache
        #: directory (opaque; created by ``PeerCacheDirectory.join``).
        self.member = member
        #: Keys the checksum layer is re-fetching after a corruption
        #: catch: a peer's copy is the prime suspect, so borrowing is
        #: suppressed and the refetch goes to the upstream of record.
        self.suppressed = set()

    def handle(self, request) -> Generator:
        if request.proc is not NfsProc.READ:
            return (yield from self.next.handle(request))
        if self.proc_faults is not None:
            # Delay / blackhole the peer-borrow path (a READ reaching
            # this layer is exactly a borrow candidate).
            yield from self.apply_proc_faults(request)
        # Only whole-block fetches are candidates — exactly what the
        # block-cache and readahead layers above emit on a miss.  A
        # peer's cache stores whole frames, so nothing else can hit.
        bs = self.stack.block_size()
        fh, offset, count = request.fh, request.offset, request.count
        idx, within = divmod(offset, bs)
        if within or count != bs:
            return (yield from self.next.handle(request))
        if (fh, idx) in self.suppressed:
            self.stats.peer_suppressed += 1
            return (yield from self.next.handle(request))
        data, owner_found = yield from self.member.borrow((fh, idx))
        if data is None:
            if owner_found:
                self.stats.peer_stale += 1
            else:
                self.stats.peer_misses += 1
            reply = None
            try:
                reply = yield from self.next.handle(request)
            finally:
                if reply is None or not reply.ok or not reply.data:
                    # Nothing to publish (an outage, a window past
                    # EOF): nobody may wait on this member's fetch.
                    self.member.abandon((fh, idx))
            return reply
        self.stats.peer_hits += 1
        self.stats.peer_bytes += len(data)
        # Like a local cache hit: a short block is the file's last
        # (lengths are frame-exact in every cache), and no post-op
        # attributes ride along.
        return NfsReply(NfsProc.READ, NfsStatus.OK, fh=fh, data=data,
                        count=len(data), eof=len(data) < bs)
