"""Reference-model equivalence for the NFS message plane.

``NfsRequest``/``NfsReply``/``Fattr`` are frozen dataclasses with a
hand-written ``__init__`` (and ``wire_size``/``replace`` working on the
instance dict).  Each is built here beside its twin from
``reference_messages.py`` — the generated constructor — out of random
field values, and everything a caller can see must agree: fields,
``==``, ``hash``, ``repr``, ``replace``, ``wire_size`` for every
``NfsProc``, and the refusal to be mutated.  ``FileHandle`` is a
tuple-backed value type; its value semantics are pinned below.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.nfs import protocol
from repro.nfs.protocol import FileHandle, NfsProc, NfsStatus

from tests.nfs import reference_messages as reference

ints = st.integers(min_value=0, max_value=1 << 40)
texts = st.text(max_size=12)
maybe_text = st.none() | texts
handles = st.builds(FileHandle, st.sampled_from(("images", "test", "")), ints)
maybe_handle = st.none() | handles

FATTR_FIELDS = {
    "kind": st.sampled_from(("file", "dir", "symlink")), "size": ints,
    "fileid": ints, "mtime": st.floats(allow_nan=False), "mode": ints,
    "uid": ints, "gid": ints}
REQUEST_FIELDS = {
    "proc": st.sampled_from(NfsProc), "fh": maybe_handle, "name": maybe_text,
    "offset": ints, "count": ints, "data": st.binary(max_size=64),
    "target": maybe_text, "to_fh": maybe_handle, "to_name": maybe_text,
    "stable": st.booleans(), "exclusive": st.booleans(),
    "size": st.none() | ints, "credentials": st.tuples(ints, ints)}


def field_values(fields, required):
    """Keyword arguments naming every required field and a random
    subset of the others (so defaults are exercised too)."""
    return st.fixed_dictionaries(
        {k: fields[k] for k in required},
        optional={k: v for k, v in fields.items() if k not in required})


REPLY_FIELDS = {
    "proc": st.sampled_from(NfsProc), "status": st.sampled_from(NfsStatus),
    "fh": maybe_handle,
    "attrs": st.none() | st.builds(protocol.Fattr, **FATTR_FIELDS),
    "data": st.binary(max_size=64), "count": ints,
    "eof": st.booleans(), "target": maybe_text,
    "entries": st.lists(texts, max_size=4).map(tuple)}
fattr_values = field_values(FATTR_FIELDS, ("kind", "size", "fileid", "mtime"))
request_values = field_values(REQUEST_FIELDS, ("proc",))
reply_values = field_values(REPLY_FIELDS, ("proc", "status"))

CASES = [("Fattr", fattr_values), ("NfsRequest", request_values),
         ("NfsReply", reply_values)]


def state(message):
    return tuple(getattr(message, f.name)
                 for f in dataclasses.fields(message))


def assert_same(ours, twin):
    """Everything observable on one message agrees with its twin."""
    assert state(ours) == state(twin)
    assert hash(ours) == hash(twin)
    assert repr(ours) == repr(twin)
    if hasattr(ours, "wire_size"):
        assert ours.wire_size() == twin.wire_size()
        assert ours.wire_size() == twin.wire_size()     # the memo
        # The memo sits beside the fields and never shows.
        assert repr(ours) == repr(twin) and hash(ours) == hash(twin)


@pytest.mark.parametrize("name,values", CASES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_construction_equality_hash_repr(name, values, data):
    ours_cls, twin_cls = getattr(protocol, name), getattr(reference, name)
    a, b = data.draw(values), data.draw(values)
    ours_a, ours_b = ours_cls(**a), ours_cls(**b)
    twin_a, twin_b = twin_cls(**a), twin_cls(**b)
    assert_same(ours_a, twin_a)
    assert_same(ours_b, twin_b)
    assert ours_a == ours_cls(**a) and hash(ours_a) == hash(ours_cls(**a))
    assert (ours_a == ours_b) == (twin_a == twin_b)
    assert (ours_a != ours_b) == (twin_a != twin_b)
    assert ours_a != twin_a             # a dataclass equals only its class
    # Positional construction binds in declaration order.
    names = [f.name for f in dataclasses.fields(ours_cls)]
    k = data.draw(st.integers(min_value=0, max_value=len(names)))
    full = {n: getattr(ours_a, n) for n in names}
    positional = [full.pop(n) for n in names[:k]]
    assert_same(ours_cls(*positional, **full), twin_cls(*positional, **full))


@pytest.mark.parametrize("name,values", CASES)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_replace(name, values, data):
    ours_cls, twin_cls = getattr(protocol, name), getattr(reference, name)
    base, other = data.draw(values), data.draw(values)
    ours, twin = ours_cls(**base), twin_cls(**base)
    if hasattr(ours, "wire_size"):
        ours.wire_size()                # a stale memo must not survive
    changes = {k: other[k] for k in data.draw(
        st.lists(st.sampled_from(sorted(other)), unique=True))}
    assert_same(dataclasses.replace(ours, **changes),
                dataclasses.replace(twin, **changes))
    with pytest.raises(TypeError):
        dataclasses.replace(ours, no_such_field=1)
    if name == "NfsRequest":            # the proxies' dict-to-dict copy
        assert_same(ours.replace(**changes), twin.replace(**changes))
        assert ours.replace(**changes) == dataclasses.replace(ours, **changes)
        with pytest.raises(TypeError):
            ours.replace(offest=0)
        with pytest.raises(TypeError):
            twin.replace(offest=0)
    assert_same(ours, twin)             # the original is untouched


@pytest.mark.parametrize("proc", list(NfsProc))
@settings(max_examples=40, deadline=None)
@given(request=request_values, reply=reply_values)
def test_wire_size_for_every_proc(proc, request, reply):
    request["proc"] = reply["proc"] = proc
    assert (protocol.NfsRequest(**request).wire_size()
            == reference.NfsRequest(**request).wire_size())
    assert (protocol.NfsReply(**reply).wire_size()
            == reference.NfsReply(**reply).wire_size())


@pytest.mark.parametrize("name,values", CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_messages_are_frozen(name, values, data):
    ours = getattr(protocol, name)(**data.draw(values))
    twin = getattr(reference, name)(**data.draw(values))
    field = data.draw(st.sampled_from(
        [f.name for f in dataclasses.fields(ours)] + ["brand_new"]))
    for message in (ours, twin):
        before = repr(message)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(message, field, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(message, field)
        assert repr(message) == before


def test_constructor_rejects_bad_arguments_like_the_generated_one():
    for module in (protocol, reference):
        with pytest.raises(TypeError):
            module.NfsRequest()                         # proc is required
        with pytest.raises(TypeError):
            module.NfsRequest(NfsProc.READ, offest=0)
        with pytest.raises(TypeError):
            module.NfsReply(NfsProc.READ)               # status is required
        with pytest.raises(TypeError):
            module.Fattr("file", 1, 2)                  # mtime is required
    assert protocol.NfsRequest.offset == 0              # class-level defaults
    assert protocol.NfsReply.entries == () and protocol.Fattr.mode == 0o644


# ------------------------------------------------------------------ FileHandle

@given(a=handles, b=handles)
def test_filehandle_equality_and_hash_follow_the_value(a, b):
    same = (a.fsid, a.fileid) == (b.fsid, b.fileid)
    assert (a == b) == same and (a != b) == (not same)
    if same:
        assert hash(a) == hash(b)
    assert len({a, b}) == (1 if same else 2)
    table = {a: "a"}
    table[b] = "b"
    assert table[a] == ("b" if same else "a")
    assert FileHandle(a.fsid, a.fileid) in table
    assert (a, 3) == (FileHandle(a.fsid, a.fileid), 3)  # nested cache keys


def test_filehandle_is_an_immutable_value():
    fh = FileHandle("images", 3)
    assert isinstance(fh, FileHandle)
    assert (fh.fsid, fh.fileid) == ("images", 3)
    assert FileHandle(fsid="images", fileid=3) == fh
    for name in ("fsid", "fileid", "brand_new"):
        with pytest.raises(AttributeError):
            setattr(fh, name, 1)
    with pytest.raises(AttributeError):
        del fh.fsid
    assert (fh.fsid, fh.fileid) == ("images", 3)
    assert str(fh) == "images:3"
    assert repr(fh) == "FileHandle(fsid='images', fileid=3)"
    with pytest.raises(TypeError):
        FileHandle("images")


@given(fh=handles)
def test_filehandle_survives_pickle(fh):
    for protocol_version in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(fh, protocol_version))
        assert type(copy) is FileHandle and copy == fh
        assert hash(copy) == hash(fh) and str(copy) == str(fh)
