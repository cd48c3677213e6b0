"""Reference model for :meth:`ReadaheadLayer._window`: a child process
per block of the window and an ``AllOf`` over them, however small the
window, and every gate fired on release — kept verbatim as the oracle
the fetch-the-first-block-yourself body is compared against in
``test_wakeup_budgets.py``.
"""

from __future__ import annotations

from typing import Dict, Generator, List

from repro.core.layers.readahead import ReadaheadLayer
from repro.nfs.protocol import FileHandle, NfsProc, NfsRequest
from repro.sim import AllOf


class ReferenceReadaheadLayer(ReadaheadLayer):
    """A readahead layer whose windows spawn one process per block."""

    #: Sizes of the windows launched (test ledger).  Set by the test
    #: that re-classes a built stack's layer to this oracle.
    window_sizes: List[int]

    def _window(self, fh: FileHandle, idxs: List[int]) -> Generator:
        self.window_sizes.append(len(idxs))
        block = self._block
        bs = self.stack.block_size()
        gates = {i: block.gates[(fh, i)] for i in idxs}
        fetched: Dict[int, bytes] = {}

        def fetch_one(i: int) -> Generator:
            try:
                reply = yield from self.next.handle(NfsRequest(
                    NfsProc.READ, fh=fh, offset=i * bs, count=bs,
                    credentials=self.config.identity or (0, 0)))
            except Exception:
                return
            if reply.ok and reply.data:
                fetched[i] = reply.data

        victims: List = []
        try:
            yield AllOf(self.env, [self.env.process(fetch_one(i))
                                   for i in idxs])
            items = []
            for i in sorted(fetched):
                key = (fh, i)
                self.prefetched.add(key)
                items.append((key, fetched[i]))
            if items:
                victims = yield from block.block_cache.insert_many(items)
        except Exception:
            pass
        finally:
            self.stats.prefetch_failed += len(idxs) - len(fetched)
            for i in idxs:
                gate = gates[i]
                if block.gates.get((fh, i)) is gate:
                    del block.gates[(fh, i)]
                if not gate.triggered:
                    gate.succeed()
        for victim in victims:
            try:
                yield from block.dispose_victim(victim)
            except Exception:
                pass   # contained: a prefetch must not crash the session
