"""Event budgets of the block path's background work, pinned next to
PR 13's "a proxy-answered READ costs exactly 2 events"
(``tests/nfs/test_rpc_equivalence.py``): a readahead window is a
process that fetches its first block itself, a miss gate nobody
waits on is dropped instead of fired, and a request crossing a tunnel
into the next proxy up is decrypted and admitted in one sleep.  The
oracles are the parent's bodies: the process-per-block window of
``reference_window.py``, gates that always fire — recreated by giving
each gate a listener — and the two-sleep ``ReferenceRpcClient``.
Over seeded schedules every completion instant, tie, reply and counter
must compare equal with ``==``; only the event count may differ, by
exactly the wake-ups removed.
"""

import random

import pytest

from repro.core.config import ProxyCacheConfig, ProxyConfig
from repro.nfs.protocol import NfsProc, NfsReply, NfsRequest, NfsStatus

from tests.core.harness import NO_READAHEAD, SMALL_CACHE, Rig
from tests.core.reference_window import ReferenceReadaheadLayer
from tests.core.test_coop import make_peer_rig, read_block, run
from tests.core.test_pipelined_io import BS, fh_for
from tests.nfs.reference_rpc import ReferenceRpcClient
from tests.nfs.test_rpc_equivalence import events_of

SCHEDULES = 32

#: 32 frames: streaming readers evict each other's windows.
SNUG_CACHE = ProxyCacheConfig(capacity_bytes=32 * BS, n_banks=2,
                              associativity=4)


def block_bytes(index: int) -> bytes:
    return bytes([index % 251 + 1]) * BS


class OneEventUpstream:
    """Stands below the readahead layer: every READ costs one timer."""

    def __init__(self, env):
        self.env = env
        self.reads = []

    def handle(self, request):
        self.reads.append((self.env.now, request.offset // BS))
        yield self.env.timeout(1e-3)
        return NfsReply(NfsProc.READ, NfsStatus.OK, fh=request.fh,
                        data=block_bytes(request.offset // BS), count=BS)


def window_rig(depth: int):
    rig = Rig(metadata=False, proxy_config=ProxyConfig(readahead_depth=depth))
    proxy = rig.session.client_proxy
    readahead = proxy.layer("readahead")
    readahead.next = upstream = OneEventUpstream(rig.env)
    return rig, proxy, readahead, upstream


def install_events(n: int) -> int:
    """What landing an n-block window in the bank files costs by itself
    (placement plus the node's write-behind), measured, not assumed."""
    rig, proxy, _, _ = window_rig(n)
    fh = fh_for(rig)
    before = rig.env.events_scheduled
    rig.run(proxy.block_cache.insert_many(
        [((fh, i), block_bytes(i)) for i in range(1, n + 1)]))
    return rig.env.events_scheduled - before - 4    # two processes of rig.run


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_window_costs_its_fetches_plus_a_process_per_extra_block(n):
    rig, proxy, readahead, upstream = window_rig(n)
    env, fh = rig.env, fh_for(rig)
    before = env.events_scheduled
    readahead.extend_readahead(fh, 0, None)        # blocks 1..n, one window
    env.run()
    spent = env.events_scheduled - before
    # n = 1, the common case (93 % of windows on the compile workload):
    # exactly 2 events more than the upstream fetch and the install.
    fetches = n                                     # one timer each
    window = 2                                      # bootstrap + completion
    extra = 2 * (n - 1) + (1 if n > 1 else 0)       # children + their AllOf
    assert spent == fetches + window + extra + install_events(n)
    # All n fetches left at the same instant, first block first, and
    # the gates nobody waited on were dropped without an event.
    assert upstream.reads == [(0.0, i) for i in range(1, n + 1)]
    assert all((fh, i) in proxy.block_cache for i in range(1, n + 1))
    assert not proxy.layer("block-cache").gates
    assert readahead.stats.prefetch_issued == n
    assert readahead.stats.prefetch_failed == 0


def test_crash_mid_window_releases_only_the_gates_the_window_owns():
    rig, proxy, readahead, _ = window_rig(3)
    env, fh = rig.env, fh_for(rig)
    block = proxy.layer("block-cache")
    readahead.extend_readahead(fh, 0, None)
    owned = dict(block.gates)
    assert sorted(owned) == [(fh, 1), (fh, 2), (fh, 3)]
    env.run(until=5e-4)                  # every fetch is on the wire
    proxy.crash()
    assert not block.gates and all(g.triggered for g in owned.values())
    # Recovery traffic misses on block 2 again before the window ends.
    block.gates[(fh, 2)] = fresh = env.event()
    env.run()
    assert block.gates == {(fh, 2): fresh} and not fresh.triggered


def test_cascade_hop_over_a_tunnel_costs_one_wake_up_less():
    """Client proxy -> SSH tunnel -> server-side proxy -> kernel server:
    the request is encrypted, crosses the WAN route, and is decrypted
    and admitted by the far proxy in one sleep (``SshTunnel.carry``);
    the reference sleeps the two apart.  Same reply, same instant."""
    seen = []
    for reference in (True, False):
        rig = Rig(metadata=False, proxy_config=NO_READAHEAD)
        upstream = rig.session.client_proxy.upstream
        if reference:
            upstream.__class__ = ReferenceRpcClient
        events, reply = events_of(rig.env, upstream, NfsRequest(
            NfsProc.READ, fh=fh_for(rig), offset=0, count=BS))
        assert reply.ok and len(reply.data) == BS
        assert rig.endpoint.proxy.front_stats.requests == 1
        seen.append((events, rig.env.now, reply))
    (before, *theirs), (after, *ours) = seen
    assert ours == theirs
    assert (before, after) == (15, 14)


# -- the block path against the parent's bodies ---------------------------------

class RecordedGates(dict):
    """The block layer's gate table, remembering every gate it held."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def __setitem__(self, key, gate):
        self.seen.append(gate)
        super().__setitem__(key, gate)


class ListenedGates(RecordedGates):
    """The parent's behaviour: every released gate fires — here because
    something always listens."""

    def __setitem__(self, key, gate):
        gate.callbacks.append(lambda event: None)
        super().__setitem__(key, gate)


def run_reads(reference: bool, proxy_config, script,
              cache_config=SMALL_CACHE) -> dict:
    """Replay ``script`` — a list of (start, reader, blocks) — through
    a caching client proxy and report what every reader saw, and when.
    ``reference`` swaps in the parent's window body and gate firing."""
    rig = Rig(metadata=False, proxy_config=proxy_config,
              cache_config=cache_config)
    env, proxy, fh = rig.env, rig.session.client_proxy, fh_for(rig)
    block, readahead = proxy.layer("block-cache"), proxy.layer("readahead")
    gates = block.gates = ListenedGates() if reference else RecordedGates()
    if reference:
        readahead.__class__ = ReferenceReadaheadLayer
        readahead.window_sizes = []
    done = []

    def reader(start, tag, blocks):
        yield env.timeout(start)
        for b in blocks:
            reply = yield from proxy.handle(NfsRequest(
                NfsProc.READ, fh=fh, offset=b * BS, count=BS))
            done.append((tag, b, env.now, reply.status, reply.data))

    for start, tag, blocks in script:
        env.process(reader(start, tag, blocks))
    env.run()
    assert not gates
    disk = rig.testbed.compute[0].local.disk
    out = {"done": sorted(done, key=lambda d: d[:2]), "end": env.now,
           "order": [d[:2] for d in done],          # ties included
           "layers": proxy.stats_snapshot(deep=True),
           "disk": (disk.reads, disk.writes, disk.bytes_read,
                    disk.bytes_written, disk.busy_time, disk.seeks),
           "events": env.events_scheduled,
           "fired": sum(1 for g in gates.seen if g.triggered),
           "gates": len(gates.seen)}
    if reference:
        out["windows"] = readahead.window_sizes
    return out


def assert_matches_parent(proxy_config, script, **kwargs) -> dict:
    """Every instant, tie, reply and counter as the parent's bodies
    produce them; fewer events by exactly the wake-ups removed."""
    ours = run_reads(False, proxy_config, script, **kwargs)
    reference = run_reads(True, proxy_config, script, **kwargs)
    assert reference["fired"] == reference["gates"] == ours["gates"]
    dropped = ours["gates"] - ours.pop("fired")
    del reference["fired"]
    windows = reference.pop("windows")
    assert len(windows) == ours["layers"]["readahead"]["readahead_windows"]
    # Per window: the first block's child process (bootstrap and
    # completion), and the condition too when it was the only block.
    saved = dropped + sum(2 + (size == 1) for size in windows)
    assert reference.pop("events") - ours.pop("events") == saved
    assert ours == reference
    return dict(ours, dropped=dropped, windows=windows)


def test_demand_miss_nobody_coalesces_on_schedules_no_gate_event():
    out = assert_matches_parent(NO_READAHEAD, [(0.0, "a", [0, 5, 9])])
    assert out["gates"] == 3 and out["dropped"] == 3 and not out["windows"]


def test_coalesced_waiter_resumes_at_the_same_instant_as_before():
    script = [(0.0, "a", [4]), (0.0, "b", [4]), (1e-3, "c", [4])]
    out = assert_matches_parent(NO_READAHEAD, script)
    assert out["gates"] == 1 and out["dropped"] == 0
    blocks = out["layers"]["block-cache"]
    assert blocks["coalesced_misses"] == 2 and blocks["block_cache_misses"] == 1
    instants = {tag: when for tag, _, when, _, _ in out["done"]}
    assert instants["a"] == instants["b"] == instants["c"] > 1e-3
    assert out["order"] == [("a", 4), ("b", 4), ("c", 4)]


def make_script(seed: int) -> list:
    """Readers streaming, chasing each other and hopping about one file
    (1,310 blocks), some starting at the same instant."""
    rng = random.Random(seed)
    script = []
    for tag in range(rng.randint(2, 4)):
        blocks = []
        for _ in range(rng.randint(2, 6)):
            start = rng.choice((0, 0, 64, rng.randrange(1200)))
            if rng.random() < 0.7:
                blocks += range(start, start + rng.randint(2, 40),
                                rng.choice((1, 1, 1, 2)))
            else:
                blocks += [rng.randrange(1300) for _ in range(rng.randint(1, 6))]
        script.append((rng.uniform(0.0, 0.05), tag, blocks))
    return script


def schedule(seed: int):
    rng = random.Random(1000 + seed)
    config = ProxyConfig(readahead_depth=rng.choice((1, 2, 8, 8)))
    cache = rng.choice((SMALL_CACHE, SMALL_CACHE, SNUG_CACHE))
    return config, make_script(seed), cache


def test_block_path_matches_the_parent_over_seeded_schedules():
    one_block = wide = dropped = fired = coalesced = evictions = vouched = 0
    for seed in range(SCHEDULES):
        config, script, cache = schedule(seed)
        try:
            out = assert_matches_parent(config, script, cache_config=cache)
        except AssertionError as exc:
            raise AssertionError(f"schedule {seed} diverged") from exc
        one_block += sum(1 for size in out["windows"] if size == 1)
        wide += sum(1 for size in out["windows"] if size > 1)
        dropped += out["dropped"]
        fired += out["gates"] - out["dropped"]
        coalesced += out["layers"]["block-cache"]["coalesced_misses"]
        evictions += out["layers"]["block-cache"]["cache_evictions"]
        vouched += out["layers"]["readahead"]["vouched_windows"]
    # Not vacuous: windows of one block and of many (some launched on
    # the run history alone), gates dropped and gates fired into
    # waiters, and a cache small enough to evict.
    assert one_block > 300 and wide > 30 and vouched
    assert dropped > 500 and fired > 100 and coalesced > 100
    assert evictions > 100


def test_windows_launched_in_one_instant_send_their_first_blocks_first():
    """The one place the order of same-instant work moves, stated so it
    is a decision and not an accident: a window's first fetch leaves
    when the window starts, no longer one queue turn later with its
    siblings — so two windows launched in the *same* instant interleave
    (first blocks, then the rest) where the parent sent window by
    window.  Intervals and counts are untouched; which of two equal
    instants goes first was never part of the model (the link and RPC
    oracles make the same reservation)."""
    def upstream_order(reference: bool):
        rig, proxy, readahead, upstream = window_rig(3)
        if reference:
            readahead.__class__ = ReferenceReadaheadLayer
            readahead.window_sizes = []
        fh = fh_for(rig)
        readahead.extend_readahead(fh, 100, None)
        readahead.extend_readahead(fh, 500, None)
        rig.env.run()
        assert {when for when, _ in upstream.reads} == {0.0}
        return [index for _, index in upstream.reads]

    assert upstream_order(True) == [101, 102, 103, 501, 502, 503]
    assert upstream_order(False) == [101, 501, 102, 103, 502, 503]


def test_unawaited_publication_gate_is_dropped_not_fired():
    """Peer directory: a designated fetcher publishes (or dies) with no
    asker parked on its gate — nothing to wake, nothing scheduled."""
    testbed, endpoint, image, directory, sessions = make_peer_rig()
    env = testbed.env
    s0, s1 = sessions
    member0 = s0.client_proxy.layer("peer-cache").member
    fh = run(testbed, read_block(s0, 0)(env))["value"][0]

    for release in (lambda key: directory._publish(member0, key),
                    lambda key: directory.retire(member0)):
        key = (fh, 9)
        got = run(testbed, directory.borrow(member0, key))["value"]
        assert got == (None, False)           # s0 is the designated fetcher
        gate = directory._pending[key][1]
        before = env.events_scheduled
        release(key)
        assert env.events_scheduled == before
        assert key not in directory._pending and not gate.triggered
        directory._retract(member0, key)
