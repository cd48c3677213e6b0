"""Point-to-point link and multi-hop route models.

A :class:`Link` is unidirectional and owns a transmit resource: a
message holds the transmitter for ``size / bandwidth`` seconds
(serialization, where contention and queueing arise), then propagates
for ``latency`` seconds without occupying the transmitter — so back-to-
back messages pipeline exactly as they do on a real wire.

A :class:`Route` is an ordered list of links crossed store-and-forward.
Both expose ``transmit(nbytes)`` as a process generator::

    yield env.process(route.transmit(32 * 1024))

Link modes
----------
``LinkMode.EXACT`` (the default) is the discrete model above: every
message queues on the transmit resource.  A message that finds the
transmitter free takes it synchronously and sleeps once, until its
arrival instant ``(grant + serialization) + latency``; a message that
has to queue also costs its grant event, and the holder it waits
behind one hand-back timer.  ``LinkMode.FLUID`` is an opt-in fast path
for fleet-scale runs: the transmitter becomes a scalar ``busy-until``
clock, and a message costs exactly one engine event.  Completion times
are identical to EXACT for FIFO traffic (``max(now, busy_until) +
serialization + latency`` is precisely what the FIFO resource
computes); drift appears only around faults and interrupts, which is
why fluid mode is opt-in and golden-checked against the exact DES (see
``repro.experiments.fleetbench``).
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from typing import Generator, Iterable, List, Optional, Tuple

from repro.sim import Environment, FifoResource
from repro.sim.engine import Event

__all__ = ["Link", "LinkMode", "Route", "duplex"]


class LinkMode(enum.Enum):
    """Transmit model of a :class:`Link` (see module docstring)."""

    EXACT = "exact"
    FLUID = "fluid"

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
                 name: str = "link", mode: LinkMode = LinkMode.EXACT):
        if latency < 0:
            raise ValueError(f"negative latency: {latency}")
        if bandwidth <= 0:
            raise ValueError(f"non-positive bandwidth: {bandwidth}")
        self.env = env
        self.latency = float(latency)
        self.bandwidth = float(bandwidth)
        self.name = name
        self.mode = mode
        self._tx = FifoResource(env, capacity=1, name=f"{name}.tx")
        # The holder sleeps straight through to its arrival, so the
        # transmitter is handed back lazily once ``_tx_done`` has passed;
        # ``_tx_timer_for`` is the holder whose hand-back timer is set.
        self._tx_token: Optional[object] = None
        self._tx_done = 0.0
        self._tx_timer_for: Optional[object] = None
        # Fluid-mode transmitter state: the instant the wire frees up.
        self._fluid_busy_until = 0.0
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

    @property
    def fluid_ready(self) -> bool:
        """True while this link may use the fluid fast path: fluid mode
        and no outage history.

        The scalar busy-until clock cannot represent traffic stalled
        behind an outage, so a link's first failure permanently demotes
        it to the exact store-and-forward path — accuracy around faults
        beats the event saving.  This is what lets the fault-injection
        benches run fluid: unfaulted links keep the fast path, faulted
        ones fall back.
        """
        return self.mode is LinkMode.FLUID and self.outages == 0

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

    def _transmit_fluid(self, nbytes: int) -> Generator:
        """Fluid-mode transmit: one engine event per message.

        ``max(now, busy_until) + serialization`` reproduces the FIFO
        transmitter's grant/serialize/release sequence without the
        resource bookkeeping; fault handling mirrors the exact path
        (stall or drop on entry, stall again if the link went down
        while the message was in flight).
        """
        if self.failed:
            yield from self._blocked()
        delay = self.serialization_delay(nbytes)
        now = self.env.now
        start = self._fluid_busy_until
        if start < now:
            start = now
        done = start + delay
        self._fluid_busy_until = done
        self.busy_time += delay
        yield self.env.timeout(done + self.latency - now)
        if self.failed:
            yield from self._blocked()
        self.bytes_sent += nbytes
        self.messages_sent += 1

    def transmit(self, nbytes: int) -> Generator:
        """Process: queue for the transmitter, serialize, propagate.

        One wake-up per uncontended hop, at the very instants a grant,
        a serialization timeout and a propagation timeout would produce
        (``tests/net/reference_link.py`` is that model).
        """
        if nbytes < 0:
            raise ValueError(f"negative message size: {nbytes}")
        if self.fluid_ready:
            yield from self._transmit_fluid(nbytes)
            return
        if self.failed:
            yield from self._blocked()
        env = self.env
        if self._fluid_busy_until > env.now:
            # A fluid link that just fell back to the exact path after
            # its first outage: traffic that entered fluid still owns
            # the wire until busy-until; queue behind it.  Zero-cost on
            # always-exact links (busy-until never moves off 0).
            yield env.timeout(self._fluid_busy_until - env.now)
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

    @property
    def mode(self) -> LinkMode:
        """FLUID when every hop is fluid, EXACT otherwise."""
        if all(l.mode is LinkMode.FLUID for l in self.links):
            return LinkMode.FLUID
        return LinkMode.EXACT

    def transmit(self, nbytes: int) -> Generator:
        """Process: carry one message of ``nbytes`` across every hop."""
        for link in self.links:
            yield from link.transmit(nbytes)

    def transmit_bulk(self, nbytes: int, pace: Optional[float] = None,
                      n_messages: int = 1) -> Generator:
        """Process: move a bulk stream across the route as one event.

        The fluid counterpart of a *chunked, pipelined* stream (an SCP
        transfer): each hop serializes the stream concurrently with the
        others (chunks pipeline across hops), so the stream completes
        when the busiest hop finishes serializing, plus end-to-end
        propagation; ``pace`` caps the sender's self-pacing rate (TCP
        window / cipher) and ``n_messages`` charges the per-chunk
        framing overhead the chunked path would pay.  Each hop's
        ``busy_until`` advances by the full serialization time, so
        concurrent bulk streams share a bottleneck link in arrival
        order exactly like queued chunks would.

        Falls back to per-hop store-and-forward when any hop is EXACT,
        down, or has ever been down (see :attr:`Link.fluid_ready`) —
        correctness (fault stalls, contention with discrete traffic)
        beats the event saving there.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        if any(not l.fluid_ready for l in self.links):
            yield from self.transmit(nbytes)
            return
        env = self.env
        t0 = env.now
        finish = t0
        wire_bytes = nbytes + max(n_messages, 1) * HEADER_BYTES
        for link in self.links:
            ser = wire_bytes / link.bandwidth
            start = link._fluid_busy_until
            if start < t0:
                start = t0
            link._fluid_busy_until = start + ser
            link.busy_time += ser
            link.bytes_sent += nbytes
            link.messages_sent += max(n_messages, 1)
            if start + ser > finish:
                finish = start + ser
        finish += self.latency
        if pace:
            paced = t0 + nbytes / pace
            if paced > finish:
                finish = paced
        yield env.timeout(finish - t0)

    def unloaded_transfer_time(self, nbytes: int) -> float:
        """Analytic no-contention time for one message (for tests)."""
        return sum(l.serialization_delay(nbytes) + l.latency for l in self.links)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Route {self.name}: {len(self.links)} hop(s)>"


def duplex(env: Environment, latency: float, bandwidth: float,
           name: str = "link",
           mode: LinkMode = LinkMode.EXACT) -> Tuple[Link, Link]:
    """Build a full-duplex link as an independent (forward, reverse) pair."""
    return (Link(env, latency, bandwidth, name=f"{name}.fwd", mode=mode),
            Link(env, latency, bandwidth, name=f"{name}.rev", mode=mode))
