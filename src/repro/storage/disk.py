"""Rotating-disk timing model (2003-era SCSI/IDE).

Charges positioning time (seek + rotational latency) for
non-sequential accesses and media transfer time for every byte; a
single disk arm is a FIFO resource so concurrent requests queue.
Sequentiality is tracked per disk: a request that starts where the
previous one ended skips positioning, which is what makes warm proxy
cache banks (written and read back largely sequentially) fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.sim import Environment, FifoResource

__all__ = ["Disk", "DiskParams", "SCSI_2003", "IDE_2003"]


@dataclass(frozen=True)
class DiskParams:
    """Static performance characteristics of a disk."""

    #: Average positioning time (seek + half-rotation), seconds.
    positioning: float
    #: Sustained media transfer rate, bytes/second.
    bandwidth: float
    #: Per-request controller/driver overhead, seconds.
    overhead: float = 50e-6
    #: Cost of the arm hopping between two sequential streams — far
    #: below a full positioning because the elevator batches requests
    #: and the track cache absorbs short hops.
    stream_switch: float = 1.5e-3

    def access_time(self, nbytes: int, sequential: bool,
                    switched_stream: bool = False) -> float:
        """Service time for one request, excluding queueing."""
        t = self.overhead + nbytes / self.bandwidth
        if not sequential:
            t += self.positioning
        elif switched_stream:
            t += self.stream_switch
        return t


#: 10k-RPM SCSI disk of the paper's cluster nodes (18 GB Ultra160).
SCSI_2003 = DiskParams(positioning=5.5e-3, bandwidth=40e6)

#: Contemporary desktop IDE disk (for workstation scenarios).
IDE_2003 = DiskParams(positioning=9.0e-3, bandwidth=25e6)


class Disk:
    """A single-arm disk with FIFO queueing and sequential detection.

    A request is *sequential* when its offset continues where the last
    request **of the same stream** (file) ended — per-stream tracking
    models the elevator and per-file readahead keeping interleaved
    sequential streams efficient; hopping between streams costs only a
    small switch penalty, while a genuine discontinuity pays the full
    positioning time.
    """

    def __init__(self, env: Environment, params: DiskParams = SCSI_2003,
                 name: str = "disk"):
        self.env = env
        self.params = params
        self.name = name
        self._arm = FifoResource(env, capacity=1, name=f"{name}.arm")
        self._stream_pos: dict = {}        # id(stream) -> next seq offset
        self._last_served: Optional[int] = None
        # Statistics
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.busy_time = 0.0
        self.seeks = 0

    def _access(self, stream: object, offset: int, nbytes: int) -> Generator:
        if nbytes < 0 or offset < 0:
            raise ValueError(f"bad access offset={offset} nbytes={nbytes}")
        # An idle arm (the common case) is taken without a grant event.
        req = self._arm.try_acquire()
        try:
            if req is None:
                req = self._arm.request()
                yield req
            sid = id(stream)
            sequential = self._stream_pos.get(sid) == offset
            switched = self._last_served != sid
            if not sequential:
                self.seeks += 1
            t = self.params.access_time(nbytes, sequential, switched)
            yield self.env.timeout(t)
            self.busy_time += t
            self._stream_pos[sid] = offset + nbytes
            self._last_served = sid
        finally:
            self._arm.release(req)

    def read(self, stream: object, offset: int, nbytes: int) -> Generator:
        """Process: time a read of ``nbytes`` at ``offset`` of ``stream``."""
        yield from self._access(stream, offset, nbytes)
        self.reads += 1
        self.bytes_read += nbytes

    def write(self, stream: object, offset: int, nbytes: int) -> Generator:
        """Process: time a write of ``nbytes`` at ``offset`` of ``stream``."""
        yield from self._access(stream, offset, nbytes)
        self.writes += 1
        self.bytes_written += nbytes

    @property
    def queue_length(self) -> int:
        return self._arm.queue_length
