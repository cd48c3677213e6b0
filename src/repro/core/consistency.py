"""Middleware-driven consistency (§3.2.1).

Kernel NFS clients cannot safely keep long-term write-back state
because they know nothing about sharing.  GVFS moves the decision up a
layer: the proxies hold dirty data until the *middleware* — which knows
tasks are independent (Condor-style scheduling) or that a session has
ended — signals it.  The real implementation uses O/S signals; here the
signal delivery is a method call that runs the session's one flush
walk (the mount, then every caching proxy up to the origin), with a
log the tests and experiments can inspect.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.core.session import GvfsSession
from repro.sim import Environment

__all__ = ["ConsistencySignal", "MiddlewareConsistency"]


class ConsistencySignal(enum.Enum):
    """Signals middleware can deliver to a session's proxies."""

    #: Write dirty cached data back to the server (keep caches warm).
    WRITE_BACK = "SIGUSR1"
    #: Write back, then invalidate the client proxy's cached contents
    #: (session end / ownership handoff to another client).
    FLUSH = "SIGUSR2"


@dataclass(frozen=True)
class SignalRecord:
    """One delivered signal, for session accounting."""

    time: float
    signal: ConsistencySignal
    #: The session's client proxy (None: a session without one).
    proxy_name: Optional[str]
    duration: float


class MiddlewareConsistency:
    """The middleware's handle on a session's consistency points."""

    def __init__(self, env: Environment):
        self.env = env
        self.log: List[SignalRecord] = []

    def signal(self, session: GvfsSession,
               sig: ConsistencySignal) -> Generator:
        """Process: deliver ``sig`` to ``session`` and wait for completion.

        Either signal runs :meth:`GvfsSession.flush`, so dirty data
        reaches the origin through every cascade level; ``FLUSH`` then
        invalidates the client proxy's caches.
        """
        start = self.env.now
        yield self.env.process(session.flush())
        proxy = session.client_proxy
        if sig is ConsistencySignal.FLUSH and proxy is not None:
            proxy.invalidate_caches()
        self.log.append(SignalRecord(
            time=start, signal=sig,
            proxy_name=proxy.config.name if proxy is not None else None,
            duration=self.env.now - start))
