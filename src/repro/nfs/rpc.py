"""RPC transport layer: moves NFS calls over links, tunnels or loopback.

An :class:`RpcClient` binds a caller to any object implementing the
handler protocol (``handle(request)`` as a simulation process returning
a reply).  Both the kernel NFS server and every GVFS proxy are handlers,
which is what lets proxies cascade: a proxy's ``handle`` may invoke its
own upstream :class:`RpcClient`, exactly like the real user-level
proxies that "behave both as a server (receiving RPC calls) and a
client (issuing RPC calls)" (§3.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional, Protocol, runtime_checkable

from repro.nfs.protocol import NfsReply, NfsRequest
from repro.sim import AnyOf, Environment

__all__ = ["LoopbackTransport", "RpcCircuitBreaker", "RpcCircuitOpen",
           "RpcClient", "RpcHandler", "RpcStats", "RpcTimeout", "Transport"]


class RpcTimeout(Exception):
    """All retransmissions of a call timed out (server unreachable)."""


class RpcCircuitOpen(RpcTimeout):
    """Call rejected without trying: the circuit breaker is open.

    Subclasses :class:`RpcTimeout` so existing "upstream unreachable"
    handling catches fast failures too.
    """


@runtime_checkable
class Transport(Protocol):
    """Anything that can carry a message of N bytes as a process."""

    def transmit(self, nbytes: int) -> Generator: ...  # pragma: no cover


@runtime_checkable
class RpcHandler(Protocol):
    """Anything that can service an NFS request as a process.

    One whose admission is a plain sleep may set ``absorbs_hop = True``
    and accept ``handle(request, arrival)``: a request still crossing a
    :class:`LoopbackTransport`, or being decrypted at the far end of a
    tunnel (``carry``), arrives at the absolute instant ``arrival`` and
    the handler sleeps that pure delay and its admission as one event.
    """

    def handle(self, request: NfsRequest) -> Generator: ...  # pragma: no cover


class LoopbackTransport:
    """Same-host RPC hop (kernel client <-> co-located user proxy).

    Costs a constant per message: two context switches plus a copy.
    The hop is a *pure delay* — no resource, no fault port, no state that
    changes between send and arrival (``messages`` counts at send) — the
    contract that lets a handler absorb it into its admission sleep.
    """

    def __init__(self, env: Environment, per_message: float = 30e-6,
                 per_byte: float = 1 / 400e6):
        self.env = env
        self.per_message = per_message
        self.per_byte = per_byte
        self.messages = 0

    def send(self, nbytes: int) -> float:
        """Count one message and return the delay after which it
        arrives; the caller owes the sleep."""
        if nbytes < 0:
            raise ValueError(f"negative message size: {nbytes}")
        self.messages += 1
        return self.per_message + nbytes * self.per_byte

    def transmit(self, nbytes: int) -> Generator:
        yield self.env.timeout(self.send(nbytes))


@dataclass
class RpcStats:
    """Counters kept by an :class:`RpcClient`.

    ``bytes_sent`` and ``by_proc`` count every *attempt* (each
    retransmission puts the request on the wire again), so WAN traffic
    reports stay honest under retries.  ``calls`` counts logical calls
    that completed.
    """

    calls: int = 0
    attempts: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    time_waiting: float = 0.0
    retransmissions: int = 0
    fast_failures: int = 0
    by_proc: dict = field(default_factory=dict)

    def record_attempt(self, request: NfsRequest) -> None:
        """One transmission of the request hit the wire."""
        self.attempts += 1
        self.bytes_sent += request.wire_size()
        by_proc = self.by_proc
        name = request.proc.name
        by_proc[name] = by_proc.get(name, 0) + 1

    def record_completion(self, reply: NfsReply, elapsed: float) -> None:
        """The logical call finished with ``reply``."""
        self.calls += 1
        self.bytes_received += reply.wire_size()
        self.time_waiting += elapsed

    def record(self, request: NfsRequest, reply: NfsReply, elapsed: float) -> None:
        # Hot per-call bookkeeping for the single-attempt path:
        # wire_size() is memoized on the messages.
        self.record_attempt(request)
        self.record_completion(reply, elapsed)


class RpcCircuitBreaker:
    """Trips after consecutive timeouts so callers fail fast.

    Standard three-state breaker over simulated time: *closed* (normal),
    *open* (calls rejected immediately with :class:`RpcCircuitOpen`),
    *half-open* (after ``reset_after`` seconds one probe call is let
    through; success closes the breaker, failure re-opens it).  Failing
    fast matters when many dependent callers would otherwise each pay
    the full retransmission ladder against a dead upstream.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

    def __init__(self, env: Environment, failure_threshold: int = 3,
                 reset_after: float = 5.0):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_after <= 0:
            raise ValueError("reset_after must be positive")
        self.env = env
        self.failure_threshold = failure_threshold
        self.reset_after = reset_after
        self.state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        # Statistics
        self.trips = 0
        self.fast_failures = 0
        self.probes = 0

    def currently_open(self, now: float) -> bool:
        """Non-mutating check: would a call right now be rejected?"""
        return (self.state == self.OPEN
                and now - self._opened_at < self.reset_after)

    def allow(self) -> bool:
        """Gate one call; may transition open -> half-open (probe)."""
        if self.state == self.OPEN:
            if self.env.now - self._opened_at < self.reset_after:
                self.fast_failures += 1
                return False
            self.state = self.HALF_OPEN
            self.probes += 1
        return True

    def record_success(self) -> None:
        self._consecutive_failures = 0
        self.state = self.CLOSED

    def record_failure(self) -> None:
        self._consecutive_failures += 1
        if (self.state == self.HALF_OPEN
                or self._consecutive_failures >= self.failure_threshold):
            self.state = self.OPEN
            self._opened_at = self.env.now
            self.trips += 1


class RpcClient:
    """Issues NFS calls to a handler across a pair of transports.

    Parameters
    ----------
    out, back:
        Transports for the request and reply directions.  Pass the same
        :class:`LoopbackTransport` twice for a same-host hop, or the two
        directions of an SSH tunnel / route for a network hop.
    handler:
        The serving object (NFS server or proxy).
    """

    def __init__(self, env: Environment, handler: RpcHandler,
                 out: Transport, back: Transport, name: str = "rpc",
                 timeout: Optional[float] = None, max_retries: int = 3,
                 backoff: float = 2.0, max_timeout: float = 60.0,
                 breaker: Optional[RpcCircuitBreaker] = None,
                 call_deadline: Optional[float] = None):
        """``timeout``/``max_retries`` enable UDP-era retransmission: a
        call unanswered within ``timeout`` seconds is reissued (NFS ops
        are idempotent; real servers deduplicate via a request cache).
        With ``timeout=None`` (the default) calls wait indefinitely.

        The retransmission interval grows by ``backoff`` per retry,
        capped at ``max_timeout`` — the classic NFS minor-timeout ladder.
        ``call_deadline`` bounds a whole call (all attempts) in seconds;
        ``breaker``, if given, fail-fasts calls while the upstream is
        known-dead."""
        if backoff < 1.0:
            raise ValueError(f"backoff must be >= 1: {backoff}")
        self.env = env
        self.handler = handler
        self.out = out
        self.back = back
        self.name = name
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.max_timeout = max_timeout
        self.breaker = breaker
        self.call_deadline = call_deadline
        self.stats = RpcStats()

    def _attempt(self, request: NfsRequest) -> Generator:
        out, handler = self.out, self.handler
        absorbs = getattr(handler, "absorbs_hop", False)
        if absorbs and type(out) is LoopbackTransport:
            # Same-host hop into a proxy: nothing can happen between the
            # send and the proxy's admission, so the two sleeps are one.
            reply = yield from handler.handle(
                request, self.env.now + out.send(request.wire_size()))
        elif absorbs and hasattr(out, "carry"):
            # Tunnel hop into a proxy: the same for the decryption that
            # ends the hop (``SshTunnel.carry`` returns it unslept).
            tail = yield from out.carry(request.wire_size())
            reply = yield from handler.handle(request, self.env.now + tail)
        else:
            yield from out.transmit(request.wire_size())
            reply = yield from handler.handle(request)
        if not isinstance(reply, NfsReply):
            raise TypeError(
                f"handler {self.handler!r} returned {reply!r}, expected NfsReply")
        yield from self.back.transmit(reply.wire_size())
        return reply

    def call(self, request: NfsRequest,
             deadline: Optional[float] = None) -> Generator:
        """Process: send ``request``, wait for service, return the reply.

        With retransmission enabled, an unanswered attempt is cancelled
        (its server-side effects up to that point still stand —
        idempotence) and the call is reissued up to ``max_retries``
        times with exponential backoff.  ``deadline`` (seconds, from
        now) bounds the whole call, overriding the client default.
        """
        start = self.env.now
        breaker = self.breaker
        if breaker is not None and not breaker.allow():
            self.stats.fast_failures += 1
            raise RpcCircuitOpen(
                f"{self.name}: circuit open, {request.proc.name} rejected")
        if self.timeout is None:
            reply = yield from self._attempt(request)
            self.stats.record(request, reply, self.env.now - start)
            if breaker is not None:
                breaker.record_success()
            return reply
        budget = deadline if deadline is not None else self.call_deadline
        deadline_at = None if budget is None else start + budget
        interval = self.timeout
        attempts = 0
        while True:
            wait = interval
            if deadline_at is not None:
                wait = min(wait, deadline_at - self.env.now)
                if wait <= 0:
                    break
            attempts += 1
            self.stats.record_attempt(request)
            attempt = self.env.process(self._attempt(request),
                                       name=f"{self.name}.attempt")
            timer = self.env.timeout(wait, value=_TIMED_OUT)
            outcome = yield AnyOf(self.env, [attempt, timer])
            if outcome is not _TIMED_OUT:
                self.stats.record_completion(outcome, self.env.now - start)
                if breaker is not None:
                    breaker.record_success()
                return outcome
            self.stats.retransmissions += 1
            if attempt.is_alive:
                # Cancel the abandoned attempt so it stops scheduling
                # events (and releases any link/thread slot it queues
                # on); without this every timed-out call leaks a process
                # that runs forever.
                attempt.interrupt("rpc timeout")
            if attempts > self.max_retries:
                break
            if deadline_at is not None and self.env.now >= deadline_at:
                break
            interval = min(interval * self.backoff, self.max_timeout)
        if breaker is not None:
            breaker.record_failure()
        raise RpcTimeout(
            f"{self.name}: {request.proc.name} unanswered after "
            f"{attempts} attempt(s) over {self.env.now - start:.3f}s")


#: Sentinel distinguishing a timer firing from a (possibly None) reply.
_TIMED_OUT = object()
