"""The GVFS user-level proxy (§3.1–3.2), as a composed layer stack.

A proxy *receives* NFS RPC calls (like a server) and *issues* them
(like a client), so proxies cascade into multi-level hierarchies.
:class:`GvfsProxy` is the canonical composition of the layers in
:mod:`repro.core.layers`:

    attr-patch → metadata/zero-map → [file-channel] →
    [block-cache → readahead] → fault-guard → upstream-rpc

covering, per the paper's extensions: credential remapping (logical
user accounts / short-lived identities), the block-based disk cache
with write-back or write-through policy, meta-data handling
(zero-filled blocks answered locally, whole-file fetches routed
through the file-based data channel into the file-based cache —
heterogeneous caching), and middleware-driven consistency (client
COMMITs can be absorbed; the middleware signals write-back/flush
explicitly via :meth:`GvfsProxy.flush`, mirroring the O/S-signal
interface).

Everything is transparent to the kernel client above and the server
below: requests and replies are ordinary protocol messages.  All
cache, readahead and degraded-mode logic lives in the layer modules;
this module only assembles the stack.
"""

from __future__ import annotations

from typing import Optional

from repro.core.blockcache import ProxyBlockCache
from repro.core.channel import FileChannel
from repro.core.config import ProxyConfig
from repro.core.layers import ProxyStack, standard_layers
from repro.nfs.rpc import RpcClient
from repro.sim import Environment

__all__ = ["GvfsProxy"]


class GvfsProxy(ProxyStack):
    """One user-level file system proxy in a GVFS session chain.

    The standard layer composition over an upstream RPC client: pass a
    ``block_cache`` to enable the disk cache and readahead, a
    ``channel`` to enable whole-file heterogeneous caching.
    """

    def __init__(self, env: Environment, upstream: RpcClient,
                 config: ProxyConfig = ProxyConfig(),
                 block_cache: Optional[ProxyBlockCache] = None,
                 channel: Optional[FileChannel] = None,
                 peer_member=None, checksum=None,
                 origin_selector=None, channel_selector=None):
        if config.cache is not None and block_cache is None:
            raise ValueError("config requests a cache but none was attached")
        super().__init__(env, upstream, config,
                         standard_layers(block_cache=block_cache,
                                         channel=channel,
                                         peer_member=peer_member,
                                         checksum=checksum,
                                         origin_selector=origin_selector,
                                         channel_selector=channel_selector))
