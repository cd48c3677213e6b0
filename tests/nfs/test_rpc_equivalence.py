"""Reference-model equivalence for the fused same-host RPC hop.

A production :class:`RpcClient` whose ``out`` is a
:class:`LoopbackTransport` and whose handler is a :class:`ProxyStack`
sleeps once for the request leg plus the stack's ``OP_CPU`` admission;
the oracle in ``reference_rpc.py`` sleeps twice.  Both replay the same
seeded schedules against a full caching session stack — several
clients on one stack, mixed procedures and sizes, hardened clients
whose time-outs land inside the fused sleep (and retransmit), a proxy
crash with requests in flight — and every completion instant, reply,
``RpcStats`` field and stack counter must compare equal with ``==``;
only the event count may differ, by exactly one per request admitted.
An SSH tunnel into a stack is fused the same way (its decryption is
the pure delay) and replays the same plans.  The last tests pin the
event budget of a proxied RPC so a later change cannot quietly put the
wake-up back.
"""

import dataclasses
import random

import pytest

from repro.core.config import ProxyConfig
from repro.core.layers.stack import ProxyStack
from repro.net.link import Link, Route
from repro.net.ssh import SshTunnel
from repro.nfs.protocol import FileHandle, NfsProc, NfsRequest
from repro.nfs.rpc import LoopbackTransport, RpcClient, RpcTimeout
from repro.nfs.server import NfsServer
from repro.sim import Environment
from repro.storage.localfs import LocalFileSystem

from tests.core.harness import Rig
from tests.nfs.reference_rpc import ReferenceRpcClient

BS = 8192
FILES = ("mem.vmss", "disk.vmdk", "vm.cfg")
SCHEDULES = 40
#: Retransmission ladders that start inside the request leg (< 30 us),
#: inside the admission (30-60 us), mid-service, and after it.
TIMEOUTS = (20e-6, 45e-6, 2e-3, 0.5)


class TaggedLoopback(LoopbackTransport):
    """A subclass may override ``transmit``: never fused."""


def make_plan(seed: int) -> dict:
    """One random schedule as plain data, so both models replay it."""
    rng = random.Random(seed)
    clients = []
    for _ in range(rng.randint(2, 4)):
        hardened = rng.random() < 0.5
        ops = []
        for _ in range(rng.randint(10, 30)):
            kind = rng.choice(("read", "read", "read", "getattr", "write",
                               "lookup"))
            ops.append({
                "gap": rng.choice((0.0, 0.0, rng.uniform(0.0, 2e-3))),
                "kind": kind, "file": rng.randrange(len(FILES)),
                "block": rng.randrange(0, 48),
                "count": rng.choice((BS, BS, 512, 4 * BS)),
                "fill": rng.randrange(256)})
        clients.append({
            "rpc": ({"timeout": rng.choice(TIMEOUTS), "max_retries": 6,
                     "backoff": 4.0} if hardened else {}),
            "start": rng.choice((0.0, rng.uniform(0.0, 5e-3))),
            "ops": ops})
    crash = rng.uniform(1e-4, 0.05) if rng.random() < 0.4 else None
    return {"clients": clients, "crash": crash}


def build_request(op, handles, root):
    file_fh = handles[op["file"]]
    if op["kind"] == "read":
        return NfsRequest(NfsProc.READ, fh=file_fh,
                          offset=op["block"] * BS, count=op["count"])
    if op["kind"] == "write":
        return NfsRequest(NfsProc.WRITE, fh=file_fh, offset=op["block"] * BS,
                          data=bytes([op["fill"]]) * op["count"])
    if op["kind"] == "getattr":
        return NfsRequest(NfsProc.GETATTR, fh=file_fh)
    return NfsRequest(NfsProc.LOOKUP, fh=root, name=FILES[op["file"]])


def run_plan(client_cls, plan: dict, transports=None) -> dict:
    rig = Rig(image_mb=2)
    rig.image.generate_metadata()
    env, proxy = rig.env, rig.session.client_proxy
    loop = LoopbackTransport(env)
    outcome = {"calls": []}
    handles = {}
    box = {}

    def learn_names(client):
        # The attr layer learns (directory, name) per handle from
        # LOOKUPs; the zero-map layer needs them to find meta-data.
        fh = rig.endpoint.root_fh
        for part in ("images", "golden"):
            fh = (yield from client.call(
                NfsRequest(NfsProc.LOOKUP, fh=fh, name=part))).fh
        box["dir"] = fh
        for i, name in enumerate(FILES):
            handles[i] = (yield from client.call(
                NfsRequest(NfsProc.LOOKUP, fh=fh, name=name))).fh
            assert isinstance(handles[i], FileHandle)

    def worker(index, client, spec):
        yield env.timeout(spec["start"])
        for k, op in enumerate(spec["ops"]):
            yield env.timeout(op["gap"])
            try:
                result = yield from client.call(
                    build_request(op, handles, box["dir"]))
            except RpcTimeout as exc:
                result = str(exc)
            outcome["calls"].append((index, k, env.now, result))

    def crasher(when):
        yield env.timeout(when)
        proxy.crash()
        outcome["recovered"] = yield from proxy.recover()
        outcome["recovered_at"] = env.now

    def main():
        yield from learn_names(client_cls(env, proxy, loop, loop, name="boot"))
        outcome["booted"] = (env.now, proxy.front_stats.requests)
        for index, spec in enumerate(plan["clients"]):
            out, back = (loop, loop) if transports is None \
                else transports(env, index)
            client = client_cls(env, proxy, out, back, name=f"c{index}",
                                **spec["rpc"])
            clients.append(client)
            env.process(worker(index, client, spec))
        if plan["crash"] is not None:
            env.process(crasher(plan["crash"]))

    clients = []
    env.process(main())
    env.run()
    outcome["calls"].sort(key=lambda call: call[:2])
    outcome["rpc_stats"] = [dataclasses.asdict(c.stats) for c in clients]
    outcome["requests"] = proxy.front_stats.requests
    outcome["messages"] = loop.messages
    outcome["layers"] = proxy.stats_snapshot(deep=True)
    outcome["end"] = env.now
    outcome["events"] = env.events_scheduled
    return outcome


def assert_equivalent(plan, transports=None, fused=True):
    ours = run_plan(RpcClient, plan, transports)
    reference = run_plan(ReferenceRpcClient, plan, transports)
    saved = reference.pop("events") - ours.pop("events")
    assert ours == reference
    # One event per request admitted through a fused hop (the boot
    # client's LOOKUPs always are), and nothing else.
    assert saved == (ours["requests"] if fused else ours["booted"][1])
    return ours


@pytest.mark.parametrize("seed", range(SCHEDULES))
def test_fused_hop_matches_the_two_sleep_reference(seed):
    ours = assert_equivalent(make_plan(seed))
    assert ours["requests"] > 0 and ours["calls"]


def test_schedules_cover_timeouts_retransmissions_and_crashes():
    """The seeded plans above are only evidence if they reach the
    cases the fusion could get wrong."""
    retransmissions = timeouts = crashes = 0
    for seed in range(SCHEDULES):
        plan = make_plan(seed)
        ours = run_plan(RpcClient, plan)
        retransmissions += sum(s["retransmissions"]
                               for s in ours["rpc_stats"])
        timeouts += sum(isinstance(c[3], str) for c in ours["calls"])
        crashes += plan["crash"] is not None
    assert retransmissions > 50 and timeouts > 0 and crashes >= 3


def test_other_transports_keep_the_two_sleep_path():
    """A bare network route or a loopback *subclass* into the same
    stack is not a pure delay the stack knows about: the production
    client and the reference behave — and cost — exactly the same."""
    def routes(env, index):
        if index % 2:
            tagged = TaggedLoopback(env)
            return tagged, tagged
        return (Route([Link(env, 1e-4, 1e8, name=f"c{index}.out")]),
                Route([Link(env, 1e-4, 1e8, name=f"c{index}.back")]))

    for seed in (3, 4):
        assert_equivalent(make_plan(seed), routes, fused=False)


def test_tunnel_hop_into_a_stack_is_fused_like_the_loopback():
    """An SSH tunnel's last leg is the decryption, a pure delay at the
    far end: ``carry`` hands it to the stack, which sleeps it with its
    admission.  The reference sleeps it in ``SshTunnel.transmit`` —
    same instants, time-outs inside the leg included, one event more
    per request admitted."""
    def tunnels(env, index):
        return tuple(
            SshTunnel(env, Route([Link(env, 1e-4, 1e8,
                                       name=f"c{index}.{way}")]),
                      pre_established=index % 2 == 0, name=f"c{index}.{way}")
            for way in ("out", "back"))

    timeouts = 0
    for seed in (3, 4, 5, 6):
        ours = assert_equivalent(make_plan(seed), tunnels, fused=True)
        timeouts += sum(s["retransmissions"] for s in ours["rpc_stats"])
    assert timeouts > 10


@pytest.mark.parametrize("timeout,admitted", [(20e-6, 0), (45e-6, 1)])
def test_timeout_inside_the_fused_sleep_counts_like_two_sleeps(timeout,
                                                               admitted):
    """An attempt cancelled during the request leg never reached the
    front door; one cancelled during the admission did."""
    seen = []
    for client_cls in (RpcClient, ReferenceRpcClient):
        rig = Rig(image_mb=1)
        loop = LoopbackTransport(rig.env)
        client = client_cls(rig.env, rig.session.client_proxy, loop, loop,
                            timeout=timeout, max_retries=0)

        def job():
            with pytest.raises(RpcTimeout):
                yield from client.call(NfsRequest(
                    NfsProc.GETATTR, fh=rig.endpoint.root_fh))
            return rig.env.now

        _, at = rig.run(job())
        seen.append((at, rig.session.client_proxy.front_stats.requests,
                     loop.messages, dataclasses.asdict(client.stats)))
    assert seen[0] == seen[1]
    assert seen[0][:3] == (timeout, admitted, 1)


# --------------------------------------------------------------- event budget

def events_of(env, client, request):
    """Engine events one call schedules, counted from inside a running
    process (so no bootstrap event is charged to it)."""
    box = {}

    def job():
        before = env.events_scheduled
        box["reply"] = yield from client.call(request)
        box["events"] = env.events_scheduled - before

    env.process(job())
    env.run()
    return box["events"], box["reply"]


def test_a_proxy_answered_read_costs_two_events():
    """A zero-filtered READ is answered at the front of the client
    proxy: one sleep for request leg + admission, one for the reply."""
    rig = Rig(image_mb=2)
    meta = rig.image.generate_metadata()
    zero_block = min(meta.zero_blocks)
    mount = rig.session.mount
    (fh, _), _ = rig.run(mount.resolve(rig.image.memory_path))
    read = NfsRequest(NfsProc.READ, fh=fh, offset=zero_block * BS, count=BS)
    proxy = rig.session.client_proxy
    events_of(rig.env, mount.rpc, read)        # resolves the meta-data
    filtered = proxy.layer("metadata").stats.zero_filtered_reads
    events, reply = events_of(rig.env, mount.rpc, read)
    assert reply.ok and reply.data == bytes(BS)
    assert proxy.layer("metadata").stats.zero_filtered_reads == filtered + 1
    assert events == 2


def test_a_getattr_forwarded_one_level_up_costs_six_events():
    """kernel client -> forwarding proxy -> kernel server, all on one
    host: fused leg + admission, upstream request leg, nfsd CPU, the
    server's zero-delay dispatch yield, upstream reply leg, reply leg.
    The reference pays one more."""
    costs = []
    for client_cls in (RpcClient, ReferenceRpcClient):
        env = Environment()
        server = NfsServer(env, LocalFileSystem(env, name="srv"), fsid="t")
        loop = LoopbackTransport(env)
        stack = ProxyStack(env, RpcClient(env, server, loop, loop),
                           ProxyConfig(name="fwd", metadata=False))
        client = client_cls(env, stack, loop, loop)
        events, reply = events_of(
            env, client, NfsRequest(NfsProc.GETATTR, fh=server.root_fh))
        assert reply.ok and stack.front_stats.requests == 1
        costs.append(events)
    assert costs == [6, 7]
