"""SSH tunnel and SCP bulk-transfer models.

GVFS forwards NFS RPC traffic through SSH tunnels (private data
channels), and the file-based channel moves whole files with GSI-SCP.
Two era-accurate costs are modelled:

* **Cipher CPU** — each byte is encrypted at the sender and decrypted
  at the receiver at a finite rate (Pentium-III-class machines).
* **TCP window limiting** — a single 2003-era TCP stream over a long
  fat pipe is throttled to ``window / RTT`` regardless of raw link
  bandwidth; this is what makes SCP of a 1.9 GB VM image take ~19 min
  in the paper even over Abilene.
"""

from __future__ import annotations

from typing import Generator

from repro.net.link import Route
from repro.sim import Environment

__all__ = ["SshTunnel", "ScpTransfer", "DEFAULT_TCP_WINDOW"]

#: Default TCP receive window of 2003-era Linux stacks (64 KiB).
DEFAULT_TCP_WINDOW = 64 * 1024


class SshTunnel:
    """An established SSH tunnel over a route.

    ``transmit`` behaves like :meth:`repro.net.link.Route.transmit` with
    added per-byte cipher time at both endpoints.  The one-time
    connection setup (key exchange: a few round trips plus asymmetric
    crypto) is charged on first use unless the tunnel is pre-established.
    """

    #: Asymmetric-crypto CPU cost of the SSH handshake, seconds.
    HANDSHAKE_CPU = 0.15
    #: Round trips in the SSH/TCP connection setup.
    HANDSHAKE_ROUND_TRIPS = 4

    def __init__(self, env: Environment, route: Route,
                 cipher_bps: float = 35e6, pre_established: bool = True,
                 name: str = "ssh"):
        if cipher_bps <= 0:
            raise ValueError("cipher_bps must be positive")
        self.env = env
        self.route = route
        self.cipher_bps = float(cipher_bps)
        self.name = name
        self._established = bool(pre_established)
        self.bytes_tunnelled = 0

    @property
    def established(self) -> bool:
        return self._established

    @property
    def latency(self) -> float:
        """End-to-end propagation latency of the underlying route."""
        return self.route.latency

    def connect(self) -> Generator:
        """Process: establish the tunnel (idempotent)."""
        if self._established:
            return
        rtt = 2.0 * self.route.latency
        yield self.env.timeout(
            self.HANDSHAKE_ROUND_TRIPS * rtt + self.HANDSHAKE_CPU)
        self._established = True

    def carry(self, nbytes: int) -> Generator:
        """Process: encrypt one message and move it across the route;
        returns the decryption delay still owed (the hop's tail).

        Decryption is a pure delay at the receiving end — no resource,
        no fault port — so a handler that ``absorbs_hop`` may sleep it
        together with its own admission (``RpcClient._attempt``);
        everyone else calls :meth:`transmit`, which sleeps it here.
        """
        if not self._established:
            yield from self.connect()
        # Encryption happens before the wire, decryption after; both
        # serialize with the message itself.
        cipher = nbytes / self.cipher_bps
        yield self.env.timeout(cipher)
        yield from self.route.transmit(nbytes)
        self.bytes_tunnelled += nbytes
        return cipher

    def transmit(self, nbytes: int) -> Generator:
        """Process: push one message of ``nbytes`` through the tunnel."""
        yield self.env.timeout((yield from self.carry(nbytes)))


class ScpTransfer:
    """Whole-file SCP over an SSH connection.

    Effective streaming throughput is the minimum of the route's
    bottleneck bandwidth, the cipher rate, and the TCP window limit
    ``window / RTT``.  ``transfer`` is a process that completes when the
    last byte arrives.
    """

    def __init__(self, env: Environment, route: Route,
                 cipher_bps: float = 35e6,
                 tcp_window: int = DEFAULT_TCP_WINDOW,
                 name: str = "scp"):
        if tcp_window <= 0:
            raise ValueError("tcp_window must be positive")
        self.env = env
        self.route = route
        self.cipher_bps = float(cipher_bps)
        self.tcp_window = int(tcp_window)
        self.name = name
        self.bytes_transferred = 0

    @property
    def effective_bandwidth(self) -> float:
        """Streaming rate in bytes/second after all three limits."""
        rtt = 2.0 * self.route.latency
        limits = [self.route.bottleneck_bandwidth, self.cipher_bps]
        if rtt > 0:
            limits.append(self.tcp_window / rtt)
        return min(limits)

    def transfer_time(self, nbytes: int) -> float:
        """Analytic transfer time: setup round trip + streaming."""
        rtt = 2.0 * self.route.latency
        return rtt + nbytes / self.effective_bandwidth

    #: Chunk size used to interleave a stream with other traffic.
    CHUNK = 256 * 1024

    @property
    def per_stream_rate(self) -> float:
        """Rate one TCP stream can sustain, ignoring link contention."""
        rtt = 2.0 * self.route.latency
        limits = [self.cipher_bps]
        if rtt > 0:
            limits.append(self.tcp_window / rtt)
        return min(limits)

    def transfer(self, nbytes: int) -> Generator:
        """Process: move ``nbytes`` as a paced sequence of chunks.

        Each chunk crosses the route's shared links (contending with
        other traffic); between chunks the stream self-paces to its TCP
        window rate.  Under no contention the total time matches the
        analytic ``transfer_time``; under contention, concurrent streams
        share link bandwidth fairly at chunk granularity.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        rtt = 2.0 * self.route.latency
        yield self.env.timeout(rtt)  # scp/sftp session setup
        pace = self.per_stream_rate
        remaining = nbytes
        while remaining > 0:
            chunk = min(self.CHUNK, remaining)
            start = self.env.now
            yield from self.route.transmit(chunk)
            window_interval = chunk / pace
            elapsed = self.env.now - start
            if elapsed < window_interval:
                yield self.env.timeout(window_interval - elapsed)
            remaining -= chunk
        self.bytes_transferred += nbytes
