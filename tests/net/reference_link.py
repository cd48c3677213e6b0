"""Reference model for :class:`repro.net.link.Link`: the three-event
store-and-forward transmit (grant, serialization timeout, propagation
timeout), kept verbatim as the oracle the one-wake-up production body
is compared against in ``test_link_equivalence.py``.
"""

from __future__ import annotations

from typing import Generator

from repro.net.link import Link


class ReferenceLink(Link):
    """A link that costs three engine events per hop."""

    def transmit(self, nbytes: int) -> Generator:
        """Process: queue for the transmitter, serialize, propagate."""
        if nbytes < 0:
            raise ValueError(f"negative message size: {nbytes}")
        if self.failed:
            yield from self._blocked()
        req = self._tx.request()
        try:
            # ``yield req`` sits inside the try so an interrupt landing
            # while we queue (or hold) the transmitter still releases it
            # — FifoResource.release handles the not-yet-granted case.
            yield req
            delay = self.serialization_delay(nbytes)
            yield self.env.timeout(delay)
            self.busy_time += delay
        finally:
            self._tx.release(req)
        if self.failed:
            # Went down mid-flight: the message is on the wire when the
            # outage hits, so it stalls (or is lost) like queued traffic.
            yield from self._blocked()
        yield self.env.timeout(self.latency)
        self.bytes_sent += nbytes
        self.messages_sent += 1
