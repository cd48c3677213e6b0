"""Reference model for :class:`repro.nfs.rpc.RpcClient`: the attempt
body in which the request leg is always its own sleep, followed by the
handler's own admission sleep — kept verbatim as the oracle the fused
same-host hop is compared against in ``test_rpc_equivalence.py``.
"""

from __future__ import annotations

from typing import Generator

from repro.nfs.protocol import NfsReply, NfsRequest
from repro.nfs.rpc import RpcClient


class ReferenceRpcClient(RpcClient):
    """An RPC client whose request leg never merges with the handler."""

    def _attempt(self, request: NfsRequest) -> Generator:
        yield from self.out.transmit(request.wire_size())
        reply = yield from self.handler.handle(request)
        if not isinstance(reply, NfsReply):
            raise TypeError(
                f"handler {self.handler!r} returned {reply!r}, expected NfsReply")
        yield from self.back.transmit(reply.wire_size())
        return reply
