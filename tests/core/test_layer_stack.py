"""The composable proxy stack: composition equivalence of a hand-wired
second level against ``build_cascade``, lifecycle propagation through every
layer, uniform reset, stack reports, and the quiesce/invalidate coverage
of file-channel fetch gates."""

import pytest

from repro.core.config import ProxyConfig
from repro.core.layers import (
    ProxyLayer,
    ProxyStack,
    disable_stack_reports,
    enable_stack_reports,
    format_stack_reports,
    registered_stacks,
)
from repro.core.session import (
    GvfsSession,
    Scenario,
    ServerEndpoint,
    build_cascade,
)
from repro.net.topology import Testbed
from repro.nfs.protocol import FileHandle, NfsProc, NfsReply, NfsRequest, NfsStatus
from repro.sim import Environment
from repro.vm.image import VmConfig, VmImage
from tests.core.harness import SMALL_CACHE, ComposedSecondLevel, Rig

BS = 8192
PATH = "/images/golden/disk.vmdk"


# --------------------------------------------------------------------------
# Composition equivalence: a hand-composed two-level ProxyStack must be
# byte- and time-identical to the depth-2 cascade build_cascade wires.
# --------------------------------------------------------------------------

def _built_second_level(testbed, endpoint, cache_config):
    return build_cascade(testbed, endpoint, [cache_config])[0]


def _two_level_universe(second_level_cls):
    testbed = Testbed(Environment(), n_compute=2)
    endpoint = ServerEndpoint(testbed.env, testbed.wan_server)
    image = VmImage.create(endpoint.export.fs, "/images/golden",
                           VmConfig(name="golden", memory_mb=2, disk_gb=0.01,
                                    seed=47))
    second = second_level_cls(testbed, endpoint, SMALL_CACHE)
    sessions = [GvfsSession.build(testbed, Scenario.WAN_CACHED,
                                  endpoint=endpoint, compute_index=i,
                                  cache_config=SMALL_CACHE, via=second)
                for i in range(2)]
    return testbed, image, second, sessions


def _drive_two_level(testbed, sessions):
    """A workload spanning both compute nodes: cold reads, shared-block
    hits, absorbed writes, and a flush through both levels."""
    trace = []

    def job(env):
        f0 = yield env.process(sessions[0].mount.open(PATH))
        for b in (0, 1, 2, 7):
            data = yield env.process(f0.read(b * BS, BS))
            trace.append(("s0-read", b, data, env.now))
        f1 = yield env.process(sessions[1].mount.open(PATH))
        for b in (0, 2, 9):
            data = yield env.process(f1.read(b * BS, BS))
            trace.append(("s1-read", b, data, env.now))
        yield env.process(f0.write(3 * BS, bytes([7]) * BS))
        trace.append(("s0-write", 3, None, env.now))
        yield env.process(sessions[0].flush())
        trace.append(("s0-flush", None, None, env.now))

    testbed.env.process(job(testbed.env))
    testbed.env.run()
    return trace


def test_composed_two_level_stack_matches_second_level_cache():
    t_ref, img_ref, second_ref, sess_ref = _two_level_universe(
        _built_second_level)
    t_new, img_new, second_new, sess_new = _two_level_universe(
        ComposedSecondLevel)

    trace_ref = _drive_two_level(t_ref, sess_ref)
    trace_new = _drive_two_level(t_new, sess_new)

    # Byte- and simulated-time-identical, step for step.
    assert trace_new == trace_ref
    assert t_new.env.now == t_ref.env.now

    # The raw composed stack and the wrapper agree on every counter of
    # both proxy levels.
    for new, ref in ((second_new.proxy, second_ref.proxy),
                     (sess_new[0].client_proxy, sess_ref[0].client_proxy),
                     (sess_new[1].client_proxy, sess_ref[1].client_proxy)):
        assert new.stats_snapshot() == ref.stats_snapshot()
    assert (second_new.block_cache.cached_blocks
            == second_ref.block_cache.cached_blocks)


# --------------------------------------------------------------------------
# Lifecycle propagation order
# --------------------------------------------------------------------------

class RecordingLayer(ProxyLayer):
    """Pass-through layer that records every hook invocation."""

    def __init__(self, name, log, reply=None):
        self.ROLE = name
        super().__init__()
        self.name = name
        self.log = log
        self.reply = reply

    def handle(self, request):
        self.log.append((self.name, "handle"))
        if self.reply is not None:
            return self.reply
            yield  # pragma: no cover
        return (yield from self.next.handle(request))

    def flush(self):
        self.log.append((self.name, "flush"))
        return
        yield  # pragma: no cover

    def crash(self):
        self.log.append((self.name, "crash"))

    def recover(self):
        self.log.append((self.name, "recover"))
        return [self.name]
        yield  # pragma: no cover

    def quiesce(self):
        self.log.append((self.name, "quiesce"))
        return
        yield  # pragma: no cover

    def invalidate(self):
        self.log.append((self.name, "invalidate"))


def _recording_stack():
    env = Environment()
    log = []
    reply = NfsReply(NfsProc.GETATTR, NfsStatus.OK)
    layers = [RecordingLayer("top", log), RecordingLayer("mid", log),
              RecordingLayer("bottom", log, reply=reply)]
    stack = ProxyStack(env, upstream=None, config=ProxyConfig(name="t"),
                       layers=layers)
    return env, log, stack, reply


def _run(env, gen):
    box = {}

    def wrapper(env):
        box["value"] = yield from gen

    env.process(wrapper(env))
    env.run()
    return box.get("value")


def test_handle_flows_top_down_through_every_layer():
    env, log, stack, reply = _recording_stack()
    got = _run(env, stack.handle(NfsRequest(NfsProc.GETATTR)))
    assert got is reply
    assert log == [("top", "handle"), ("mid", "handle"),
                   ("bottom", "handle")]
    assert stack.front_stats.requests == 1


def test_lifecycle_hooks_propagate_bottom_up_through_every_layer():
    env, log, stack, _ = _recording_stack()
    bottom_up = [("bottom", None), ("mid", None), ("top", None)]

    stack.crash()
    assert log == [(n, "crash") for n, _ in bottom_up]

    log.clear()
    _run(env, stack.flush())
    assert log == [(n, "flush") for n, _ in bottom_up]

    log.clear()
    recovered = _run(env, stack.recover())
    assert log == [(n, "recover") for n, _ in bottom_up]
    assert recovered == ["bottom", "mid", "top"]   # results concatenated

    log.clear()
    _run(env, stack.quiesce())
    assert log == [(n, "quiesce") for n, _ in bottom_up]

    log.clear()
    stack.invalidate_caches()
    assert log == [(n, "invalidate") for n, _ in bottom_up]


def test_invalidate_guard_vetoes_before_any_layer_mutates():
    env, log, stack, _ = _recording_stack()
    stack.layers[0].invalidate_guard = lambda: "top layer is busy"
    with pytest.raises(RuntimeError, match="top layer is busy"):
        stack.invalidate_caches()
    assert log == []          # no layer was touched


# --------------------------------------------------------------------------
# Uniform reset and stack reports
# --------------------------------------------------------------------------

def test_stack_reset_zeroes_every_layer_and_component():
    rig = Rig(metadata=False)
    proxy = rig.session.client_proxy

    def job(env):
        f = yield env.process(rig.mount.open(PATH))
        for b in range(4):
            yield env.process(f.read(b * BS, BS))
        yield env.process(f.write(0, b"x" * BS))

    rig.run(job(rig.env))
    assert proxy.front_stats.requests > 0
    assert proxy.block_cache.hits + proxy.block_cache.misses > 0

    proxy.reset()
    assert proxy.front_stats.requests == 0
    assert proxy.layer("upstream-rpc").stats.forwarded == 0
    assert proxy.layer("block-cache").stats.block_cache_misses == 0
    assert proxy.block_cache.hits == 0
    assert proxy.block_cache.misses == 0
    assert proxy.channel.fetches == 0


def test_stack_report_registry_and_format():
    enable_stack_reports()
    try:
        rig = Rig(metadata=False)
        proxy = rig.session.client_proxy
        assert proxy in registered_stacks()

        def job(env):
            f = yield env.process(rig.mount.open(PATH))
            yield env.process(f.read(0, BS))

        rig.run(job(rig.env))
        text = format_stack_reports()
    finally:
        disable_stack_reports()
    assert ".client-proxy" in text
    assert "block-cache" in text and "upstream-rpc" in text
    # Registry off: new stacks are not recorded.
    rig2 = Rig(metadata=False)
    assert rig2.session.client_proxy not in registered_stacks()


def test_stats_snapshot_groups_counters_by_layer():
    rig = Rig(metadata=False)
    proxy = rig.session.client_proxy

    def job(env):
        f = yield env.process(rig.mount.open(PATH))
        yield env.process(f.read(0, BS))

    rig.run(job(rig.env))
    snap = proxy.stats_snapshot()
    assert snap["front"]["requests"] == proxy.front_stats.requests
    assert snap["block-cache"]["block_cache_misses"] >= 1
    assert snap["upstream-rpc"]["forwarded"] == proxy.layer("upstream-rpc").stats.forwarded


# --------------------------------------------------------------------------
# Gate symmetry: quiesce/invalidate cover file-channel fetches too
# --------------------------------------------------------------------------

def _nonzero_block(rig):
    """First non-zero block of mem.vmss — a read there must use the
    file channel (the zero filter would short-circuit a zero block)."""
    mem = rig.image.memory_inode.data
    return next(i for i in range(mem.n_chunks()) if not mem.chunk_is_zero(i))


def test_cold_caches_waits_for_inflight_file_channel_fetch():
    rig = Rig()
    rig.image.generate_metadata()         # mem.vmss routes via the channel
    proxy = rig.session.client_proxy
    fh = FileHandle("images", rig.image.memory_inode.fileid)
    block = _nonzero_block(rig)

    def job(env):
        f = yield env.process(rig.mount.open("/images/golden/mem.vmss"))
        reader = env.process(f.read(block * BS, BS))
        while not proxy.layer("file-channel").fetching:        # let the channel fetch start
            yield env.timeout(0.0005)
        yield env.process(rig.session.cold_caches())
        yield reader

    rig.run(job(rig.env))
    # The fetch was waited out (quiesce) and its install dropped
    # (invalidate): the cache really is cold, nothing repopulated it.
    assert proxy.layer("file-channel").stats.channel_fetches == 1
    assert not proxy.layer("file-channel").fetching
    assert fh not in proxy.channel.file_cache


def test_invalidate_refuses_while_file_fetch_in_flight():
    rig = Rig()
    rig.image.generate_metadata()
    proxy = rig.session.client_proxy
    block = _nonzero_block(rig)

    def job(env):
        f = yield env.process(rig.mount.open("/images/golden/mem.vmss"))
        reader = env.process(f.read(block * BS, BS))
        while not proxy.layer("file-channel").fetching:
            yield env.timeout(0.0005)
        with pytest.raises(RuntimeError, match="quiesce first"):
            proxy.invalidate_caches()
        yield reader

    rig.run(job(rig.env))
