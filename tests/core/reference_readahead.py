"""Reference model for :meth:`ReadaheadLayer.extend_readahead`: the
window always reaches ``readahead_depth`` blocks past the reader,
whatever the file's earlier runs looked like — the PR-1 body, kept
verbatim as the oracle the run-length bound is compared against in
``test_readahead_bound.py``.  Run detection and the window process are
the production layer's.
"""

from __future__ import annotations

from typing import Optional

from repro.core.layers.readahead import ReadaheadLayer
from repro.core.metadata import FileMetadata
from repro.nfs.protocol import FileHandle


class UnboundedReadaheadLayer(ReadaheadLayer):
    """A readahead layer that never learns where runs end."""

    def extend_readahead(self, fh: FileHandle, idx: int,
                         meta: Optional[FileMetadata]) -> None:
        block = self._block
        bs = self.stack.block_size()
        lo = idx + 1
        frontier = self.frontier.get(fh)
        if frontier is not None and frontier >= lo:
            lo = frontier + 1
        size_limit = None
        if meta is not None:
            size_limit = max(meta.file_size, self.stack.local_size(fh))
        idxs = []
        for i in range(lo, idx + 1 + self.config.readahead_depth):
            if size_limit is not None and i * bs >= size_limit:
                break
            key = (fh, i)
            if key in block.gates or key in block.block_cache:
                continue
            if meta is not None and meta.covers_read(i * bs, bs):
                continue   # zero-filled: answered locally, nothing to fetch
            idxs.append(i)
        if not idxs:
            return
        self.frontier[fh] = idxs[-1]
        for i in idxs:
            block.gates[(fh, i)] = self.env.event()
        self.stats.prefetch_issued += len(idxs)
        self.stats.readahead_windows += 1
        self.env.process(self._window(fh, idxs),
                         name=f"{self.config.name}.readahead")
