"""Terminal layer: the client face of the proxy.

The bottom of every stack: whatever reaches it goes out through the
stack's upstream RPC client (an SSH tunnel to the next proxy in the
cascade, or a loopback to the kernel server).  The upstream client is
looked up on the stack at call time, so middleware (and tests) can
swap or harden it live.

This is also the natural place to fault a single RPC procedure on the
upstream hop — blackhole every READ, delay COMMITs — so the terminal
opts into the per-proc fault port (``FAULT_PROCS``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.core.layers.base import ProxyLayer

__all__ = ["UpstreamRpcLayer"]


@dataclass
class UpstreamRpcStats:
    forwarded: int = 0          # requests that went upstream on the wire
    procs_blackholed: int = 0   # requests parked by a blackhole fault
    procs_delayed: int = 0      # requests slowed by a delay fault
    procs_duplicated: int = 0   # requests sent twice by a dup fault


class UpstreamRpcLayer(ProxyLayer):
    """Issue requests upstream like an NFS client.

    Every request goes out through ``stack.upstream.call`` — whatever
    sits upstream: a tunnelled :class:`~repro.nfs.rpc.RpcClient` to the
    next proxy, or a replicated farm's client, which picks replicas
    behind that same call.
    """

    ROLE = "upstream-rpc"
    Stats = UpstreamRpcStats
    FAULT_PROCS = True

    def handle(self, request) -> Generator:
        if self.proc_faults is not None:
            duplicate = yield from self.apply_proc_faults(request)
            if duplicate:
                # The extra delivery goes first and its reply is
                # discarded — the caller sees only the second, like a
                # retransmitted RPC whose original also landed.
                self.stats.forwarded += 1
                yield from self.stack.upstream.call(request)
        self.stats.forwarded += 1
        reply = yield from self.stack.upstream.call(request)
        return reply
