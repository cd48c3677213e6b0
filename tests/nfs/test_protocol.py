"""Unit tests for NFS protocol messages."""

import pytest

from repro.nfs.protocol import (
    RPC_OVERHEAD_BYTES,
    FileHandle,
    NfsError,
    NfsProc,
    NfsReply,
    NfsRequest,
    NfsStatus,
)


def test_filehandle_value_semantics():
    a = FileHandle("fs", 7)
    b = FileHandle("fs", 7)
    c = FileHandle("fs", 8)
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2


def test_request_wire_size_includes_write_payload():
    fh = FileHandle("fs", 1)
    small = NfsRequest(NfsProc.GETATTR, fh=fh)
    big = NfsRequest(NfsProc.WRITE, fh=fh, data=b"x" * 8192)
    assert small.wire_size() == RPC_OVERHEAD_BYTES
    assert big.wire_size() == RPC_OVERHEAD_BYTES + 8192


def test_request_wire_size_includes_names():
    fh = FileHandle("fs", 1)
    req = NfsRequest(NfsProc.LOOKUP, fh=fh, name="abcde")
    assert req.wire_size() == RPC_OVERHEAD_BYTES + 5


def test_reply_wire_size_includes_read_payload_and_entries():
    read = NfsReply(NfsProc.READ, NfsStatus.OK, data=b"y" * 100)
    assert read.wire_size() == RPC_OVERHEAD_BYTES + 100
    listing = NfsReply(NfsProc.READDIR, NfsStatus.OK, entries=("a", "bb"))
    assert listing.wire_size() == RPC_OVERHEAD_BYTES + (1 + 8) + (2 + 8)


def test_reply_ok_and_raise_for_status():
    ok = NfsReply(NfsProc.NULL, NfsStatus.OK)
    assert ok.ok
    assert ok.raise_for_status() is ok
    bad = NfsReply(NfsProc.READ, NfsStatus.STALE)
    assert not bad.ok
    with pytest.raises(NfsError) as e:
        bad.raise_for_status("ctx")
    assert e.value.status is NfsStatus.STALE
    assert "ctx" in str(e.value)


def test_request_replace_rewrites_fields():
    fh1, fh2 = FileHandle("a", 1), FileHandle("b", 2)
    req = NfsRequest(NfsProc.READ, fh=fh1, offset=0, count=10)
    rewritten = req.replace(fh=fh2, credentials=(500, 500))
    assert rewritten.fh == fh2
    assert rewritten.credentials == (500, 500)
    assert rewritten.count == 10
    assert req.fh == fh1  # original untouched


def test_request_replace_is_a_fresh_frozen_equal_copy():
    req = NfsRequest(NfsProc.WRITE, fh=FileHandle("a", 1), data=b"x" * 100)
    sized = req.wire_size()                     # memoised on the original
    longer = req.replace(data=b"y" * 300)
    assert longer.wire_size() == sized + 200    # ... not on the copy
    assert req.replace() == req and hash(req.replace()) == hash(req)
    assert req.replace(credentials=(7, 7)) == NfsRequest(
        NfsProc.WRITE, fh=FileHandle("a", 1), data=b"x" * 100,
        credentials=(7, 7))
    with pytest.raises(Exception):
        longer.data = b""                       # still frozen
    with pytest.raises(TypeError):
        req.replace(offest=0)
