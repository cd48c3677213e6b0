"""Reference model for :class:`repro.storage.localfs.LocalFileSystem`'s
write-behind: a flusher *process* born with every burst of async
writes and finished when the dirty pool drains (bootstrap, disk timer,
a completion event nobody awaits), kept verbatim as the oracle the
parked one-process flusher is compared against in
``test_flusher_equivalence.py``.
"""

from __future__ import annotations

from typing import Generator

from repro.storage.localfs import LocalFileSystem


class ReferenceLocalFileSystem(LocalFileSystem):
    """A local file system that spawns a flusher per burst."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._flusher_running = False
        self.bursts = 0         # flusher processes spawned (test ledger)

    def _write_behind(self, nbytes: int) -> Generator:
        self._dirty_bytes += nbytes
        if not self._flusher_running:
            self._flusher_running = True
            self.bursts += 1
            self.env.process(self._flusher(), name=f"{self.fs.name}.flusher")
        while self._dirty_bytes > self.dirty_limit:
            gate = self.env.event()
            self._below_limit_waiters.append(gate)
            yield gate

    def _flusher(self) -> Generator:
        """Background process draining dirty bytes at disk speed."""
        batch = 1024 * 1024
        while self._dirty_bytes > 0:
            take = min(batch, self._dirty_bytes)
            offset = self._flush_seq
            self._flush_seq += take
            yield from self.disk.write(self, offset, take)
            self._dirty_bytes -= take
            if self._dirty_bytes <= self.dirty_limit and self._below_limit_waiters:
                waiters, self._below_limit_waiters = self._below_limit_waiters, []
                for gate in waiters:
                    gate.succeed()
        self._flusher_running = False
