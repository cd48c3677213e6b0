"""Tests for the MOUNT daemon, RPC retransmission, and NFSv2 mode."""

import pytest

from repro.nfs.client import MountOptions
from repro.nfs.mountd import Export, MountDaemon, MountError
from repro.nfs.protocol import NfsProc, NfsReply, NfsRequest, NfsStatus
from repro.nfs.rpc import LoopbackTransport, RpcClient, RpcTimeout
from repro.sim import Environment
from tests.nfs.harness import Stack


# -- MountDaemon ---------------------------------------------------------------

def make_mountd():
    s = Stack()
    s.server_fs.fs.mkdir("/exports")
    s.server_fs.fs.mkdir("/exports/images")
    s.server_fs.fs.create("/exports/images/file")
    mountd = MountDaemon(s.env, s.server)
    return s, mountd


def test_export_and_showmount():
    s, mountd = make_mountd()
    mountd.add_export("/exports", clients=("localhost", "compute0"))
    listing = mountd.exports()
    assert len(listing) == 1
    assert listing[0].path == "/exports"
    assert listing[0].admits("compute0")
    assert not listing[0].admits("evil-host")


def test_export_requires_existing_directory():
    s, mountd = make_mountd()
    with pytest.raises(MountError):
        mountd.add_export("/nope")
    with pytest.raises(MountError):
        mountd.add_export("/exports/images/file")  # not a directory


def test_mount_authorized_host_gets_handle():
    s, mountd = make_mountd()
    mountd.add_export("/exports", clients=("compute0",))
    fh, _ = s.run(mountd.mount("compute0", "/exports/images"))
    assert fh == s.server.fh_for_path("/exports/images")
    assert ("compute0", "/exports") in mountd.active_mounts()


def test_mount_refuses_unknown_export_and_host():
    s, mountd = make_mountd()
    mountd.add_export("/exports", clients=("compute0",))

    def attempt(host, path):
        def proc(env):
            try:
                yield env.process(mountd.mount(host, path))
                return "granted"
            except MountError as exc:
                return exc.code
        value, _ = s.run(proc(s.env))
        return value

    assert attempt("evil", "/exports") == "EACCES"
    assert attempt("compute0", "/private") == "EACCES"
    assert attempt("compute0", "/exports/missing") == "ENOENT"


def test_wildcard_export_admits_everyone():
    s, mountd = make_mountd()
    mountd.add_export("/exports", clients=("*",))
    fh, _ = s.run(mountd.mount("anyone", "/exports"))
    assert fh == s.server.fh_for_path("/exports")


def test_longest_prefix_export_wins():
    s, mountd = make_mountd()
    mountd.add_export("/exports", clients=("a",))
    mountd.add_export("/exports/images", clients=("b",))
    # /exports/images is governed by the more specific export.
    def attempt(host):
        def proc(env):
            try:
                yield env.process(mountd.mount(host, "/exports/images"))
                return "granted"
            except MountError as exc:
                return exc.code
        value, _ = s.run(proc(s.env))
        return value
    assert attempt("b") == "granted"
    assert attempt("a") == "EACCES"


def test_unmount_clears_record():
    s, mountd = make_mountd()
    mountd.add_export("/exports", clients=("c0",))
    s.run(mountd.mount("c0", "/exports"))
    s.run(mountd.unmount("c0", "/exports"))
    assert mountd.active_mounts() == []


def test_remove_export():
    s, mountd = make_mountd()
    mountd.add_export("/exports")
    mountd.remove_export("/exports")
    assert mountd.exports() == []
    with pytest.raises(MountError):
        mountd.remove_export("/exports")


# -- RPC retransmission -----------------------------------------------------------

class SlowHandler:
    """Handler whose first ``slow_calls`` services take ``delay`` seconds."""

    def __init__(self, env, delay, slow_calls=10**9):
        self.env = env
        self.delay = delay
        self.slow_calls = slow_calls
        self.served = 0

    def handle(self, request):
        self.served += 1
        if self.served <= self.slow_calls:
            yield self.env.timeout(self.delay)
        else:
            yield self.env.timeout(0.001)
        return NfsReply(request.proc, NfsStatus.OK)


def test_fast_call_no_retransmission():
    env = Environment()
    handler = SlowHandler(env, delay=0.01)
    loop = LoopbackTransport(env)
    rpc = RpcClient(env, handler, loop, loop, timeout=1.0)
    box = {}

    def proc(env):
        box["reply"] = yield from rpc.call(NfsRequest(NfsProc.NULL))

    env.process(proc(env))
    env.run()
    assert box["reply"].ok
    assert rpc.stats.retransmissions == 0


def test_slow_server_triggers_retransmit_then_succeeds():
    env = Environment()
    handler = SlowHandler(env, delay=5.0, slow_calls=1)  # only 1st is slow
    loop = LoopbackTransport(env)
    rpc = RpcClient(env, handler, loop, loop, timeout=1.0, max_retries=3)
    box = {}

    def proc(env):
        box["reply"] = yield from rpc.call(NfsRequest(NfsProc.NULL))
        box["t"] = env.now

    env.process(proc(env))
    env.run()
    assert box["reply"].ok
    assert rpc.stats.retransmissions == 1
    assert 1.0 < box["t"] < 2.0  # 1 timeout + quick second attempt


def test_unresponsive_server_raises_rpc_timeout():
    env = Environment()
    handler = SlowHandler(env, delay=100.0)
    loop = LoopbackTransport(env)
    rpc = RpcClient(env, handler, loop, loop, timeout=0.5, max_retries=2)
    box = {}

    def proc(env):
        try:
            yield from rpc.call(NfsRequest(NfsProc.NULL))
        except RpcTimeout as exc:
            box["err"] = str(exc)
            box["t"] = env.now

    env.process(proc(env))
    env.run(until=200)
    assert "unanswered" in box["err"]
    # Exponential backoff: 0.5 + 1.0 + 2.0 (initial + 2 retries, x2 each).
    assert box["t"] == pytest.approx(0.5 + 1.0 + 2.0)
    assert rpc.stats.retransmissions == 3
    # Satellite: every attempt's wire bytes are counted, not just one.
    assert rpc.stats.attempts == 3
    assert rpc.stats.by_proc["NULL"] == 3
    req_bytes = NfsRequest(NfsProc.NULL).wire_size()
    assert rpc.stats.bytes_sent == 3 * req_bytes


def test_backoff_interval_is_capped():
    env = Environment()
    handler = SlowHandler(env, delay=1000.0)
    loop = LoopbackTransport(env)
    rpc = RpcClient(env, handler, loop, loop, timeout=1.0, max_retries=4,
                    backoff=4.0, max_timeout=5.0)
    box = {}

    def proc(env):
        try:
            yield from rpc.call(NfsRequest(NfsProc.NULL))
        except RpcTimeout:
            box["t"] = env.now

    env.process(proc(env))
    env.run()
    # Intervals 1, 4, then clamped to the 5 s cap: 1 + 4 + 5 + 5 + 5.
    assert box["t"] == pytest.approx(1 + 4 + 5 + 5 + 5)


def test_call_deadline_bounds_total_wait():
    env = Environment()
    handler = SlowHandler(env, delay=1000.0)
    loop = LoopbackTransport(env)
    rpc = RpcClient(env, handler, loop, loop, timeout=1.0, max_retries=100,
                    backoff=1.0)
    box = {}

    def proc(env):
        try:
            yield from rpc.call(NfsRequest(NfsProc.NULL), deadline=2.5)
        except RpcTimeout:
            box["t"] = env.now

    env.process(proc(env))
    env.run()
    # Attempts at 0, 1, 2; the last timer is clamped to the deadline.
    assert box["t"] == pytest.approx(2.5)
    assert rpc.stats.attempts == 3


def test_circuit_breaker_trips_then_recovers():
    from repro.nfs.rpc import RpcCircuitBreaker, RpcCircuitOpen

    env = Environment()
    handler = SlowHandler(env, delay=1000.0, slow_calls=2)
    loop = LoopbackTransport(env)
    breaker = RpcCircuitBreaker(env, failure_threshold=2, reset_after=10.0)
    rpc = RpcClient(env, handler, loop, loop, timeout=0.25, max_retries=0,
                    breaker=breaker)
    box = {"fast": 0}

    def proc(env):
        for _ in range(2):          # two timed-out calls trip the breaker
            try:
                yield from rpc.call(NfsRequest(NfsProc.NULL))
            except RpcTimeout:
                pass
        assert breaker.state == breaker.OPEN
        t_open = env.now
        try:
            yield from rpc.call(NfsRequest(NfsProc.NULL))
        except RpcCircuitOpen:
            box["fast"] += 1
        # Fail-fast costs zero simulated time and no attempt.
        assert env.now == t_open
        yield env.timeout(10.1)     # past reset_after: half-open probe
        reply = yield from rpc.call(NfsRequest(NfsProc.NULL))
        assert reply.ok
        assert breaker.state == breaker.CLOSED

    env.process(proc(env))
    env.run()
    assert box["fast"] == 1
    assert breaker.trips == 1
    assert breaker.fast_failures == 1
    assert breaker.probes == 1
    assert rpc.stats.fast_failures == 1
    assert rpc.stats.attempts == 3  # 2 failed + 1 probe; fast-fail sent none


def test_timed_out_attempts_are_cancelled():
    """Satellite regression: abandoned attempts must not keep running.

    Without cancellation every timed-out attempt's process lives on
    inside the handler (here: a 10000 s service), eventually resuming,
    finishing service and transmitting a reply nobody wants — leaked
    work that grows the engine's event count per failed call.  With
    cancellation no abandoned attempt ever reaches the reply leg, and
    each failed call schedules the same bounded number of events.
    """
    env = Environment()
    handler = SlowHandler(env, delay=10000.0)
    loop = LoopbackTransport(env)
    rpc = RpcClient(env, handler, loop, loop, timeout=0.1, max_retries=1,
                    backoff=1.0)
    deltas = []

    def proc(env):
        prev = None
        for _ in range(6):
            try:
                yield from rpc.call(NfsRequest(NfsProc.NULL))
            except RpcTimeout:
                pass
            if prev is not None:
                deltas.append(env.events_scheduled - prev)
            prev = env.events_scheduled

    env.process(proc(env))
    events_at_last_failure = []

    def watcher(env):
        # Sample the event count right after the workload finishes; the
        # run itself drains to t=10000 because the engine does not
        # deschedule the cancelled attempts' pending timeouts (they
        # fire with no callbacks attached).
        yield env.timeout(5.0)
        events_at_last_failure.append(env.events_scheduled)

    env.process(watcher(env))
    env.run()
    # 12 attempts issued (6 calls x 2): 12 request transmits, and not a
    # single reply transmit from a cancelled attempt's service.
    assert rpc.stats.attempts == 12
    assert loop.messages == 12
    assert len(set(deltas)) == 1, f"per-call event cost drifted: {deltas}"
    # Nothing but the leftover no-op timer pops happens after the calls:
    # the leaked-process version would do CPU + transmit work out here.
    assert env.events_scheduled - events_at_last_failure[0] <= 12


def test_loopback_is_a_pure_delay_and_rejects_negative_sizes():
    env = Environment()
    loop = LoopbackTransport(env, per_message=30e-6, per_byte=1e-9)
    with pytest.raises(ValueError, match="negative message size"):
        loop.send(-1)
    with pytest.raises(ValueError, match="negative message size"):
        next(loop.transmit(-1))
    assert loop.messages == 0
    assert loop.send(1000) == 30e-6 + 1000 * 1e-9 and loop.messages == 1

    def hop(env):
        yield from loop.transmit(1000)
        return env.now

    proc = env.process(hop(env))
    env.run()
    # transmit() is send() plus the sleep the caller would owe.
    assert proc.value == 30e-6 + 1000 * 1e-9 and loop.messages == 2


def test_timeout_none_waits_forever():
    env = Environment()
    handler = SlowHandler(env, delay=50.0)
    loop = LoopbackTransport(env)
    rpc = RpcClient(env, handler, loop, loop)  # no timeout
    box = {}

    def proc(env):
        box["reply"] = yield from rpc.call(NfsRequest(NfsProc.NULL))
        box["t"] = env.now

    env.process(proc(env))
    env.run()
    assert box["reply"].ok
    assert box["t"] > 50


# -- NFSv2 mode --------------------------------------------------------------------

def test_nfs_version_validation():
    with pytest.raises(ValueError):
        MountOptions(nfs_version=4)


def test_v2_writes_are_stable_and_commit_free():
    s = Stack(options=MountOptions(nfs_version=2))
    s.server_fs.fs.create("/f")

    def proc(env):
        f = yield env.process(s.mount.open("/f"))
        yield env.process(f.write(0, b"v2-data"))
        yield env.process(f.close())

    s.run(proc(s.env))
    assert s.server_fs.fs.read("/f") == b"v2-data"
    assert s.rpc.stats.by_proc.get("COMMIT", 0) == 0
    assert s.rpc.stats.by_proc.get("WRITE", 0) >= 1


def test_v3_close_issues_commit():
    s = Stack(options=MountOptions(nfs_version=3))
    s.server_fs.fs.create("/f")

    def proc(env):
        f = yield env.process(s.mount.open("/f"))
        yield env.process(f.write(0, b"v3-data"))
        yield env.process(f.close())

    s.run(proc(s.env))
    assert s.rpc.stats.by_proc.get("COMMIT", 0) == 1


def test_v2_writes_slower_over_wan():
    """Stable v2 writes pay the server disk's positioning on every
    scattered RPC; v3 stages them unstable and the server's write-behind
    coalesces — so v2 is strictly slower on a scattered burst."""
    def write_time(version):
        s = Stack(latency=0.019, bandwidth=12.5e6,
                  options=MountOptions(nfs_version=version))
        s.server_fs.fs.create("/f")

        def proc(env):
            f = yield env.process(s.mount.open("/f"))
            t0 = env.now
            for i in range(32):  # scattered 8 KB writes across the file
                yield env.process(f.write(i * 1024 * 1024, b"w" * 8192))
            yield env.process(f.close())
            return env.now - t0

        value, _ = s.run(proc(s.env))
        return value

    v2, v3 = write_time(2), write_time(3)
    assert v2 > v3 * 1.1
