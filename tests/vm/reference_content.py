"""Reference model for :class:`repro.vm.image.RandomContent`: the
generator that built a ``numpy.random.Generator`` per chunk and asked
it for 4096 ``uint8`` draws, kept verbatim as the oracle the raw
bit-generator body is compared against in
``test_content_equivalence.py``.
"""

from __future__ import annotations

import numpy as np

from repro.storage.vfs import CHUNK_SIZE
from repro.vm.image import _mix


def reference_chunk(seed: int, zero_fraction: float, index: int) -> bytes:
    """Chunk ``index`` of a ``(seed, zero_fraction)`` source, unmemoised."""
    if _mix(seed, index) < int(zero_fraction * 2**64):
        return bytes(CHUNK_SIZE)
    rng = np.random.default_rng(_mix(seed, index))
    half = rng.integers(0, 256, CHUNK_SIZE // 2, dtype=np.uint8).tobytes()
    return half + half


def reference_write_payload(vm_seed: int, block: int, block_size: int) -> bytes:
    """What the guest writes into block ``block`` of any guest file."""
    return reference_chunk(vm_seed ^ 0x5EED, 0.0, block)[:block_size]

