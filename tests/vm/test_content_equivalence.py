"""Reference-model equivalence for ``RandomContent`` and the guest's
write payload.

The production generator reads a chunk's 4 KB half straight off the
PCG64 raw stream; the oracle in ``reference_content.py`` is the
``default_rng(...).integers(...)`` body it replaced.  The bytes must
compare equal with ``==`` for any ``(seed, zero_fraction, index)``,
and a VM must generate each payload chunk once however many guest
files it writes — with the bytes reaching the virtual disk unchanged.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.storage.vfs import CHUNK_SIZE
from repro.vm.image import GuestFile, RandomContent, _mix

from tests.vm.reference_content import reference_chunk, reference_write_payload
from tests.vm.test_monitor_redolog import SMALL_PERSISTENT, Rig


@given(seed=st.integers(0, 2**64 - 1),
       zero_fraction=st.floats(0.0, 1.0),
       index=st.integers(0, 2**40))
@settings(max_examples=300, deadline=None)
def test_chunk_matches_reference_generator(seed, zero_fraction, index):
    source = RandomContent(seed, zero_fraction)
    want = reference_chunk(seed, zero_fraction, index)
    got = source.chunk(index)
    assert got == want and len(got) == CHUNK_SIZE
    assert source.is_zero(index) == (want.count(0) == CHUNK_SIZE)
    assert source.chunk(index) is got       # the memo hands back the object


def test_nonzero_chunks_match_reference_over_a_dense_range():
    """Hypothesis samples; this walks: every chunk a small image has."""
    for seed, zero_fraction in ((0, 0.0), (42, 0.82), (7 ^ 0x5EED, 0.0),
                                (43, 0.55), (3 ^ 0xD1E, 0.85)):
        source = RandomContent(seed, zero_fraction)
        for index in range(400):
            assert source.chunk(index) == reference_chunk(
                seed, zero_fraction, index)


def test_half_is_the_raw_stream_little_endian():
    """The byte order is part of the contract: word k of the PCG64 raw
    stream lands in bytes 8k..8k+7, least significant byte first, on
    any host."""
    seed, index = 42, 5
    words = np.random.PCG64(_mix(seed, index)).random_raw(CHUNK_SIZE // 16)
    half = b"".join(int(w).to_bytes(8, "little") for w in words)
    assert RandomContent(seed).chunk(index) == half + half
    assert words.astype("<u8").tobytes() == half
    assert words.astype(">u8").tobytes() != half


def _count_generations(monkeypatch) -> Counter:
    """Count bit-generator constructions by seed, whichever way the
    generator under test builds them."""
    seen: Counter = Counter()
    for name in ("PCG64", "default_rng"):
        real = getattr(np.random, name)

        def counting(seed, _real=real):
            seen[seed] += 1
            return _real(seed)

        monkeypatch.setattr(np.random, name, counting)
    return seen


def test_vm_generates_each_payload_chunk_once_across_guest_files(monkeypatch):
    rig = Rig(SMALL_PERSISTENT)
    vm, _ = rig.run(rig.monitor.resume(rig.mount, "/vm"))
    first, second = GuestFile("out/a.o", 64 * 1024), GuestFile("out/b.o", 96 * 1024)
    bs = vm.block_size

    def proc(env):
        yield env.process(vm.write_guest_file(first))
        yield env.process(vm.write_guest_file(second))

    seen = _count_generations(monkeypatch)
    rig.run(proc(rig.env))
    monkeypatch.undo()

    # 8 + 12 blocks written, payload indices 0..11: twelve generations.
    payload_seed = SMALL_PERSISTENT.seed ^ 0x5EED
    assert seen == {_mix(payload_seed, i): 1 for i in range(12)}

    # ... and the disk holds what the per-file sources used to write.
    expected = {}
    for gf in (first, second):
        offsets = gf.block_offsets(SMALL_PERSISTENT.disk_bytes, bs,
                                   SMALL_PERSISTENT.seed)
        for i, offset in enumerate(offsets):
            expected[offset] = reference_write_payload(
                SMALL_PERSISTENT.seed, i, bs)
    assert len(expected) > 12
    disk = rig.image.disk_inode.data
    for offset, want in expected.items():
        assert disk.read(offset, bs) == want
    assert vm.disk_bytes_written == 20 * bs
