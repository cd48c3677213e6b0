"""Point-to-point link and multi-hop route models.

A :class:`Link` is unidirectional and owns a transmit resource: a
message holds the transmitter for ``size / bandwidth`` seconds
(serialization, where contention and queueing arise), then propagates
for ``latency`` seconds without occupying the transmitter — so back-to-
back messages pipeline exactly as they do on a real wire.

A :class:`Route` is an ordered list of links crossed store-and-forward.
Both expose ``transmit(nbytes)`` as a process generator::

    yield env.process(route.transmit(32 * 1024))

Every message queues on the transmit resource.  One that finds the
transmitter free takes it synchronously and sleeps once, until its
arrival instant ``(grant + serialization) + latency``; one that has to
queue also costs its grant event, and the holder it waits behind one
hand-back timer.  This is the only link model: the paper's figures,
the goldens and the benchmark all run on it.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Generator, Iterable, List, Optional, Tuple

from repro.sim import Environment, FifoResource
from repro.sim.engine import Event

__all__ = ["Link", "Route", "duplex"]

#: Fixed per-message framing cost (Ethernet/IP/UDP/RPC headers), bytes.
HEADER_BYTES = 160


class Link:
    """A unidirectional network link.

    Parameters
    ----------
    latency:
        One-way propagation delay in seconds.
    bandwidth:
        Serialization rate in bytes/second.
    name:
        Label used in stats and repr.
    """

    def __init__(self, env: Environment, latency: float, bandwidth: float,
                 name: str = "link"):
        if latency < 0:
            raise ValueError(f"negative latency: {latency}")
        if bandwidth <= 0:
            raise ValueError(f"non-positive bandwidth: {bandwidth}")
        self.env = env
        self.latency = float(latency)
        self.bandwidth = float(bandwidth)
        self.name = name
        self._tx = FifoResource(env, capacity=1, name=f"{name}.tx")
        # The holder sleeps straight through to its arrival, so the
        # transmitter is handed back lazily once ``_tx_done`` has passed;
        # ``_tx_timer_for`` is the holder whose hand-back timer is set.
        self._tx_token: Optional[object] = None
        self._tx_done = 0.0
        self._tx_timer_for: Optional[object] = None
        # Fault state: a failed link either stalls traffic until
        # restore() (the default — models a routing blackout where the
        # retransmit eventually gets through) or drops it outright
        # (drop_on_fail=True: messages vanish; recovery relies on the
        # caller's RPC timeout).
        self.failed = False
        self.drop_on_fail = False
        self._repair_gates: List[Event] = []
        # Append-only fail/restore instants (odd length = down), read
        # on arrival: was the link up when serialization ended?
        self._outage_log: List[float] = []
        # Statistics
        self.bytes_sent = 0
        self.messages_sent = 0
        self.busy_time = 0.0
        self.outages = 0
        self.drops = 0

    def serialization_delay(self, nbytes: int) -> float:
        """Time the transmitter is held for a message of ``nbytes``."""
        return (nbytes + HEADER_BYTES) / self.bandwidth

    # -- fault injection ------------------------------------------------------
    def fail(self) -> None:
        """Take the link down; traffic stalls (or drops) until restore()."""
        if not self.failed:
            self.failed = True
            self.outages += 1
            self._outage_log.append(self.env.now)

    def restore(self) -> None:
        """Bring the link back up and release every stalled message."""
        if not self.failed:
            return
        self.failed = False
        self._outage_log.append(self.env.now)
        gates, self._repair_gates = self._repair_gates, []
        for gate in gates:
            gate.succeed()

    def _blocked(self) -> Generator:
        """Process step taken by a message that hits a down link."""
        if self.drop_on_fail:
            # The message is gone; park forever.  The caller's RPC
            # timeout (or an interrupt) is the only way out.
            self.drops += 1
            yield Event(self.env)
            return
        while self.failed:
            gate = Event(self.env)
            self._repair_gates.append(gate)
            yield gate

    def transmit(self, nbytes: int) -> Generator:
        """Process: queue for the transmitter, serialize, propagate.

        One wake-up per uncontended hop, at the very instants a grant,
        a serialization timeout and a propagation timeout would produce
        (``tests/net/reference_link.py`` is that model).
        """
        if nbytes < 0:
            raise ValueError(f"negative message size: {nbytes}")
        if self.failed:
            yield from self._blocked()
        env = self.env
        tx = self._tx
        if self._tx_token is not None and self._tx_done <= env.now:
            self._free_tx(self._tx_token)   # lazy hand-back
        token = tx.try_acquire()
        if token is None:
            if self._tx_token is not None:
                self._arm_hand_back()
            token = tx.request()
            try:
                yield token
            except BaseException:
                tx.release(token)   # left the queue, or granted and unused
                raise
        delay = self.serialization_delay(nbytes)
        done = env.now + delay
        uncharged = self.busy_time
        self.busy_time = uncharged + delay
        self._tx_token = token
        self._tx_done = done
        if tx.queue_length:
            self._arm_hand_back()
        try:
            yield env.timeout_at(done + self.latency)
        except BaseException:
            if env.now < done:
                # Interrupted mid-serialization: the wire frees up now
                # and the aborted message is never charged.
                self.busy_time = uncharged
                self._free_tx(token)
            elif self.drop_on_fail and self._outage_at(done):
                self.drops += 1     # lost on the wire before the interrupt
            raise
        repair = self._outage_at(done) if self._outage_log else 0
        if repair:
            # Down when serialization ended: the message was on the wire
            # when the outage hit, so it stalls (or is lost) like queued
            # traffic and propagates once the link is back.
            if repair == len(self._outage_log) or self.drop_on_fail:
                yield from self._blocked()
                yield env.timeout(self.latency)
            else:
                yield env.timeout_at(self._outage_log[repair] + self.latency)
        self.bytes_sent += nbytes
        self.messages_sent += 1

    def _outage_at(self, when: float) -> int:
        """Outage-log index of the repair ending the outage that covers
        ``when`` (the log's length while still down); 0 if the link was up."""
        k = bisect_right(self._outage_log, when)
        return k if k & 1 else 0

    def _free_tx(self, token: object) -> None:
        self._tx_token = None
        self._tx.release(token)

    def _arm_hand_back(self) -> None:
        """Set the holder's one timer that frees the transmitter for waiters."""
        if self._tx_timer_for is not self._tx_token:
            self._tx_timer_for = self._tx_token
            self.env.timeout_at(self._tx_done, self._tx_token) \
                .callbacks.append(self._hand_back)

    def _hand_back(self, timer: Event) -> None:
        # Stale if the holder was interrupted, or an arrival at this
        # very instant already handed the transmitter back.
        token = timer.value
        if self._tx_token is token:
            self._free_tx(token)

    @property
    def queue_length(self) -> int:
        """Messages currently waiting for the transmitter."""
        return self._tx.queue_length

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Link {self.name}: {self.latency * 1e3:.3f} ms, "
                f"{self.bandwidth / 1e6:.1f} MB/s>")


class Route:
    """An ordered multi-hop path; messages cross hops store-and-forward."""

    def __init__(self, links: Iterable[Link], name: str = ""):
        self.links: List[Link] = list(links)
        if not self.links:
            raise ValueError("route requires at least one link")
        self.name = name or "+".join(l.name for l in self.links)
        self.env = self.links[0].env

    @property
    def latency(self) -> float:
        """End-to-end propagation delay (sum of hop latencies)."""
        return sum(l.latency for l in self.links)

    @property
    def bottleneck_bandwidth(self) -> float:
        """Bandwidth of the slowest hop."""
        return min(l.bandwidth for l in self.links)

    def transmit(self, nbytes: int) -> Generator:
        """Process: carry one message of ``nbytes`` across every hop."""
        for link in self.links:
            yield from link.transmit(nbytes)

    def unloaded_transfer_time(self, nbytes: int) -> float:
        """Analytic no-contention time for one message (for tests)."""
        return sum(l.serialization_delay(nbytes) + l.latency for l in self.links)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Route {self.name}: {len(self.links)} hop(s)>"


def duplex(env: Environment, latency: float, bandwidth: float,
           name: str = "link") -> Tuple[Link, Link]:
    """Build a full-duplex link as an independent (forward, reverse) pair."""
    return (Link(env, latency, bandwidth, name=f"{name}.fwd"),
            Link(env, latency, bandwidth, name=f"{name}.rev"))
