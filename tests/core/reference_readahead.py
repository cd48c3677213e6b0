"""Reference model for :class:`ReadaheadLayer`'s rules: PR 20's
``note_demand_miss`` and ``extend_readahead`` kept verbatim (comments
aside) — armed by ``readahead_min_run`` adjacent blocks only, never
past ``readahead_depth``, the history used only to stop.  The oracle
for ``test_readahead_bound.py`` and ``test_readahead_vouched.py``."""

from collections import deque

from repro.core.layers.readahead import RUN_HISTORY, ReadaheadLayer


class Pr20ReadaheadLayer(ReadaheadLayer):
    def note_demand_miss(self, fh, idx, meta) -> None:
        self.prefetched.discard((fh, idx))
        if self.config.readahead_depth <= 0 or self._block is None:
            return
        last = self.run_last.get(fh)
        if last != idx - 1:
            if last is not None:
                self.run_history.setdefault(
                    fh, deque(maxlen=RUN_HISTORY)).append(
                        last - self.run_start[fh] + 1)
            self.run_start[fh] = idx
            self.frontier.pop(fh, None)
        self.run_last[fh] = idx
        if idx - self.run_start[fh] + 1 >= self.config.readahead_min_run:
            self.extend_readahead(fh, idx, meta)

    def extend_readahead(self, fh, idx, meta) -> None:
        block = self._block
        bs = self.stack.block_size()
        lo = idx + 1
        frontier = self.frontier.get(fh)
        if frontier is not None and frontier >= lo:
            lo = frontier + 1
        size_limit = None
        if meta is not None:
            size_limit = max(meta.file_size, self.stack.local_size(fh))
        hi = idx + self.config.readahead_depth
        history = self.run_history.get(fh)
        if history:
            start, longest = self.run_start[fh], max(history)
            if self.run_last[fh] - start < longest:
                hi = min(hi, start + longest - 1)
        idxs = []
        for i in range(lo, hi + 1):
            if size_limit is not None and i * bs >= size_limit:
                break
            key = (fh, i)
            if key in block.gates or key in block.block_cache:
                continue
            if meta is not None and meta.covers_read(i * bs, bs):
                continue
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
