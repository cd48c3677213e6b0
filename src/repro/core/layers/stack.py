"""The composable GVFS proxy stack.

A :class:`ProxyStack` is an NFS RPC handler assembled from
:class:`~repro.core.layers.base.ProxyLayer` instances.  The stack owns
the front door (request accounting, per-request CPU cost, credential
remapping, request observers) and fans lifecycle operations out to
every layer; everything else — meta-data, caches, readahead, degraded
mode, the upstream hop — lives in the layers.

Composition expresses the paper's deployment shapes directly:

* a **forwarding** proxy (the server-side identity mapper) is a stack
  with no cache layers;
* a **caching client** proxy adds the file-channel, block-cache and
  readahead layers;
* a **second-level LAN cache** is the same caching composition whose
  upstream RPC client points at another proxy — cascading is stacking;
* a **shared read-only cache** is a block-cache layer handed a cache
  object owned by another session.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from repro.core.config import ProxyConfig
from repro.core.layers.attrs import AttrPatchLayer
from repro.core.layers.base import ProxyLayer
from repro.core.layers.blocks import BlockCacheLayer
from repro.core.layers.degraded import DegradedModeLayer
from repro.core.layers.filechannel import FileChannelLayer
from repro.core.layers.peers import PeerCacheLayer
from repro.core.layers.readahead import ReadaheadLayer
from repro.core.layers.terminal import UpstreamRpcLayer
from repro.core.layers.zeromap import ZeroMapLayer
from repro.sim import Interrupt

__all__ = [
    "ProxyStack",
    "disable_stack_reports",
    "enable_stack_reports",
    "format_cascade_reports",
    "format_stack_reports",
    "registered_stacks",
    "standard_layers",
]


@dataclass
class FrontDoorStats:
    requests: int = 0       # RPC calls that entered the stack


def standard_layers(block_cache=None, channel=None,
                    peer_member=None, checksum=None) -> List[ProxyLayer]:
    """The canonical GVFS composition: attr patching and meta-data on
    top, optional end-to-end checksum recording/verification, optional
    file-channel and block-cache/readahead caching in the middle, the
    fault guard, the optional peer-cache lookup, and the upstream hop
    at the bottom.

    The peer layer sits below the fault guard so both demand misses
    (``guarded_fetch`` re-enters below the cache) and readahead window
    fetches consult same-site peers before crossing the WAN.  The
    checksum layer (a pre-built
    :class:`~repro.core.layers.checksum.ChecksumLayer`) sits *above*
    every cache, so a verify instance checks blocks however they got
    here — local frame, cascade level, or peer borrow.
    """
    layers: List[ProxyLayer] = [AttrPatchLayer(), ZeroMapLayer()]
    if checksum is not None:
        layers.append(checksum)
    if channel is not None:
        layers.append(FileChannelLayer(channel))
    if block_cache is not None:
        layers.append(BlockCacheLayer(block_cache))
        layers.append(ReadaheadLayer())
    layers.append(DegradedModeLayer())
    if peer_member is not None:
        layers.append(PeerCacheLayer(peer_member))
    layers.append(UpstreamRpcLayer())
    return layers


class ProxyStack:
    """One user-level file system proxy, composed from layers."""

    #: CPU cost of proxy request processing (user-level RPC dispatch).
    OP_CPU = 30e-6

    #: ``handle`` takes the arrival instant of a request still on the
    #: loopback, or in a tunnel's decryption, and sleeps that delay +
    #: admission as one event (``RpcHandler`` protocol).
    absorbs_hop = True

    def __init__(self, env, upstream, config: ProxyConfig = ProxyConfig(),
                 layers: Optional[List[ProxyLayer]] = None):
        self.env = env
        self.upstream = upstream
        self.config = config
        self.layers: List[ProxyLayer] = list(
            standard_layers() if layers is None else layers)
        if not self.layers:
            raise ValueError("a proxy stack needs at least one layer")
        # Observers of the incoming request stream (access profilers,
        # middleware telemetry).  Called synchronously per request.
        self.read_observers: List = []
        self.front_stats = FrontDoorStats()
        self._roles: Dict[str, ProxyLayer] = {}
        below: Optional[ProxyLayer] = None
        for layer in reversed(self.layers):
            layer.attach(self, below)
            self._roles.setdefault(layer.ROLE, layer)
            below = layer
        self.head: ProxyLayer = below
        _register_stack(self)

    # ----------------------------------------------------------- layer lookup
    def layer(self, role: str) -> Optional[ProxyLayer]:
        """The first layer with ``ROLE == role``, or None."""
        return self._roles.get(role)

    # ----------------------------------------------------------- the cascade
    def upstream_stack(self) -> Optional["ProxyStack"]:
        """The next proxy stack up the cascade, if this stack's upstream
        RPC client points at one (cascading is stack composition: a
        second-level cache, an N-th level, the server-side forwarding
        proxy).  None when the upstream is a kernel NFS server."""
        handler = getattr(self.upstream, "handler", None)
        return handler if isinstance(handler, ProxyStack) else None

    def cascade_stacks(self) -> List["ProxyStack"]:
        """Every stack from here to the origin, client-ward first
        (``[self]`` when nothing proxies above the upstream server)."""
        stacks: List[ProxyStack] = []
        stack: Optional[ProxyStack] = self
        while stack is not None and stack not in stacks:
            stacks.append(stack)
            stack = stack.upstream_stack()
        return stacks

    @property
    def block_cache(self):
        layer = self._roles.get("block-cache")
        return layer.block_cache if layer is not None else None

    @property
    def channel(self):
        layer = self._roles.get("file-channel")
        return layer.channel if layer is not None else None

    # ------------------------------------------------------ cross-layer state
    def block_size(self) -> int:
        return self.config.cache.block_size if self.config.cache else 8192

    @property
    def names(self) -> Dict:
        layer = self._roles.get("attr-patch")
        return layer.names if layer is not None else {}

    def local_size(self, fh) -> int:
        layer = self._roles.get("attr-patch")
        return layer.local_size.get(fh, 0) if layer is not None else 0

    def bump_local_size(self, fh, end: int) -> None:
        layer = self._roles.get("attr-patch")
        if layer is not None:
            layer.bump_local_size(fh, end)

    def patched_attrs(self, fh, attrs):
        layer = self._roles.get("attr-patch")
        return layer.patched_attrs(fh, attrs) if layer is not None else attrs

    def cached_meta(self, fh):
        """The meta-data the zero-map layer resolved for ``fh`` earlier
        in the current request (None when absent or unresolved)."""
        layer = self._roles.get("metadata")
        return layer.cache.get(fh) if layer is not None else None

    # ------------------------------------------------------------- front door
    def handle(self, request, arrival: Optional[float] = None) -> Generator:
        """Process: service one RPC call (the server face of the proxy).

        An ``RpcClient`` whose hop ends in a pure delay (the loopback,
        a tunnel's decryption) passes the instant its request will
        arrive: the front door then sleeps once, until ``arrival +
        OP_CPU`` — where hop sleep + admission sleep end.
        """
        if arrival is None:
            self.front_stats.requests += 1
            yield self.env.timeout(self.OP_CPU)
        else:
            try:
                yield self.env.timeout_at(arrival + self.OP_CPU)
            except Interrupt:
                # An RPC time-out: the request counts only if it got here.
                if self.env.now >= arrival:
                    self.front_stats.requests += 1
                raise
            self.front_stats.requests += 1
        if self.config.identity is not None:
            request = request.replace(credentials=self.config.identity)
        for observer in self.read_observers:
            observer(request)
        return (yield from self.head.handle(request))

    # -------------------------------------------------- middleware operations
    #
    # Lifecycle operations walk the layers bottom-up (upstream-most
    # first): flush pushes dirty blocks (and their COMMITs) upstream
    # before dirty whole files upload; crash releases block-fetch gates
    # before file-fetch gates.  This matches the monolithic proxy's
    # event ordering exactly.

    def flush(self) -> Generator:
        """Process: middleware-signalled write-back of all dirty state.

        Dirty blocks go upstream in *coalesced runs*: adjacent blocks of
        one file merged into a single large WRITE RPC (up to
        ``write_coalesce_bytes``), with ``write_pipeline_depth`` RPCs in
        flight.  Each touched file is then COMMITted and dirty
        file-cache entries upload through the channel — the paper's
        session-end consistency point (O/S signal interface).
        """
        for layer in reversed(self.layers):
            yield from layer.flush()
        yield self.env.timeout(0)

    def crash(self) -> None:
        """Simulate proxy process death: all in-memory state is lost.

        Cached block *data* survives in the bank files on the host disk,
        but the tags mapping frames to blocks do not — without the
        dirty-frame journal, absorbed writes awaiting write-back are
        gone.  In-flight fetch gates are released so concurrent READs
        retry instead of wedging (their refetch simply misses).
        """
        for layer in reversed(self.layers):
            layer.crash()

    def recover(self) -> Generator:
        """Process: restart after :meth:`crash`, replaying the journal.

        Rebuilds the dirty-frame set from the persistent journal (when
        the cache was configured with one) so the pending write-back is
        not lost; a subsequent :meth:`flush` pushes it upstream.
        Returns the recovered block keys.
        """
        recovered: List[Tuple] = []
        for layer in reversed(self.layers):
            got = yield from layer.recover()
            if got:
                recovered.extend(got)
        yield self.env.timeout(0)
        return recovered

    def quiesce(self) -> Generator:
        """Process: wait out every in-flight fetch (demand readahead
        block fetches *and* file-channel fetches) — cold-cache setup
        must not race a late insert."""
        for layer in reversed(self.layers):
            yield from layer.quiesce()
        yield self.env.timeout(0)

    def dirty_state(self) -> Tuple[int, int]:
        """(dirty blocks, dirty whole files) awaiting write-back."""
        block = self._roles.get("block-cache")
        channel = self._roles.get("file-channel")
        return (block.dirty_blocks() if block is not None else 0,
                channel.dirty_files() if channel is not None else 0)

    def invalidate_caches(self) -> None:
        """Cold-cache setup: drop cached blocks/files and learned metadata.

        Dirty state must have been flushed first.  Every layer's guard
        runs before any layer mutates, so a refusal leaves the stack
        untouched.
        """
        blocks, files = self.dirty_state()
        if blocks or files:
            raise RuntimeError("invalidate with dirty cached data; flush first")
        for layer in self.layers:
            reason = layer.invalidate_guard()
            if reason:
                raise RuntimeError(reason)
        for layer in reversed(self.layers):
            layer.invalidate()

    # ------------------------------------------------------------------ stats
    def reset(self, deep: bool = True) -> None:
        """Zero the front door and every layer uniformly — including
        component counters layers own (block cache, file channel).

        ``deep`` (the default) resets *every level of the cascade* this
        stack heads — intermediate cache levels and the server-side
        forwarding proxy included — so a benchmark's warm-up/measure
        split never leaks warm-up counters through a deeper level.
        ``deep=False`` resets only this stack.
        """
        stacks = self.cascade_stacks() if deep else [self]
        for stack in stacks:
            stack.front_stats.requests = 0
            for layer in stack.layers:
                layer.reset()

    def stats_snapshot(self, deep: bool = False) -> Dict[str, Dict[str, int]]:
        """Per-layer counters, keyed by layer role, front door first.

        With ``deep=True`` the snapshot covers every level of the
        cascade: each upstream proxy stack's snapshot nests under an
        ``"upstream"`` key (name plus its own per-layer counters), so a
        cascade's full cache behaviour reads out of one call.
        """
        snap: Dict = {"front": {"requests": self.front_stats.requests}}
        for layer in self.layers:
            snap[layer.ROLE] = layer.stats_snapshot(deep)
        if deep:
            up = self.upstream_stack()
            if up is not None:
                snap["upstream"] = {"name": up.config.name,
                                    "layers": up.stats_snapshot(deep=True)}
        return snap

    def format_stack_report(self) -> str:
        """Human-readable per-layer counter report."""
        lines = [f"proxy stack {self.config.name}"]
        for role, counters in self.stats_snapshot().items():
            shown = {k: v for k, v in counters.items() if v}
            if shown:
                body = "  ".join(f"{k}={v}" for k, v in shown.items())
            else:
                body = "(idle)"
            lines.append(f"  {role:<14} {body}")
        return "\n".join(lines)

    def format_cascade_report(self) -> str:
        """Aggregated per-level report for the cascade this stack heads:
        one line per level with its block-cache hit/miss/ratio and
        forwarded request count."""
        lines = [f"cascade from {self.config.name} "
                 f"(depth {len(self.cascade_stacks())})"]
        for i, stack in enumerate(self.cascade_stacks(), start=1):
            layer = stack._roles.get("block-cache")
            if layer is None:
                body = (f"requests={stack.front_stats.requests} "
                        "(no block cache)")
            else:
                hits = layer.stats.block_cache_hits
                misses = layer.stats.block_cache_misses
                ratio = hits / (hits + misses) if hits + misses else 0.0
                body = (f"requests={stack.front_stats.requests} "
                        f"hits={hits} misses={misses} "
                        f"hit_ratio={ratio:.3f}")
            lines.append(f"  L{i} {stack.config.name:<20} {body}")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# Stack report registry (the CLI's --stack-report flag)
# --------------------------------------------------------------------------

_report_registry: Optional[List[ProxyStack]] = None


def enable_stack_reports() -> None:
    """Start recording every stack built from now on, so the CLI can
    print per-layer reports after a run.  Off by default: sessions are
    built in bulk by benchmarks and must not leak."""
    global _report_registry
    _report_registry = []


def disable_stack_reports() -> None:
    global _report_registry
    _report_registry = None


def _register_stack(stack: ProxyStack) -> None:
    if _report_registry is not None:
        _report_registry.append(stack)


def registered_stacks() -> List[ProxyStack]:
    return list(_report_registry or ())


def format_stack_reports() -> str:
    """Reports for every recorded stack that saw traffic."""
    reports = [stack.format_stack_report() for stack in registered_stacks()
               if stack.front_stats.requests]
    return "\n\n".join(reports)


def format_cascade_reports() -> str:
    """Aggregated cascade reports, one per recorded cascade head.

    A *head* is a stack that saw traffic, proxies through at least one
    further stack, and is not itself an upstream level of another
    recorded stack — i.e. the client proxy of each session chain.
    """
    stacks = [s for s in registered_stacks() if s.front_stats.requests]
    upstream_ids = {id(level) for s in stacks
                    for level in s.cascade_stacks()[1:]}
    heads = [s for s in stacks
             if id(s) not in upstream_ids and s.upstream_stack() is not None]
    return "\n\n".join(s.format_cascade_report() for s in heads)
