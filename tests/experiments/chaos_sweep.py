"""Chaos sweep: layer-targeted faults with end-to-end integrity.

Whole links, servers and proxies fail in ``scenarios/fault_smoke.yaml``
and ``tests/core/test_fault_recovery.py``.  This sweep aims smaller:
one cached frame garbled inside one named cache, one RPC procedure
blackholed at one layer of one cascade level, one upload dropped on
the floor — and ``test_chaosbench.py`` asserts three properties the
coarse faults cannot:

* **zero corrupted bytes served** — every read is compared against the
  written payload; the verify-mode :class:`~repro.core.layers.checksum
  .ChecksumLayer` must catch injected corruption wherever the bytes
  came from (own frame, cascade level, peer borrow) and repair it by
  refetching from the upstream of record;
* **zero lost acknowledged writes** — once a write is acknowledged,
  dropped uploads and blackholed WRITEs may delay durability but never
  lose it;
* **layer-local blast radius** — the fault markers (frames corrupted,
  procs blackholed/delayed/duplicated, uploads stalled/dropped) light
  up *only* on the targeted layer of the targeted stack.

Each cell of the (layer x fault x workload) matrix is an independent
seeded run on a depth-2 cascade (tiny client cache -> LAN second level
-> WAN origin) with a cooperative peer, so every provenance path a
block can take is in play.  Cells run twice, and the two runs must be
bit-identical, fault timelines included.

Two controls anchor the sweep:

* the **negative control** repeats a corruption cell with the checksum
  layer absent and must show corrupted bytes reaching the reader —
  proof the sweep's zeros are earned by the layer, not by luck;
* the **golden check** runs the clean workload with and without the
  checksum layer and requires bit-identical elapsed time — recording
  and verifying are synchronous crc32 calls, so integrity costs zero
  simulation events on the happy path.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.core.config import ProxyCacheConfig, ProxyConfig
from repro.core.layers.checksum import ChecksumRegistry
from repro.core.session import (
    GvfsSession,
    Scenario,
    ServerEndpoint,
    build_cascade,
)
from repro.net.topology import make_paper_testbed
from repro.sim import Environment
from repro.sim.chaos import attach_stack, layer_fault, layer_outage
from repro.sim.faults import FaultInjector, FaultKind
from repro.vm.image import VmConfig, VmImage

SEED = 17

#: Client cache: 8 frames, so reads thrash and evict constantly.
TINY_CACHE = ProxyCacheConfig(capacity_bytes=8 * 8192,
                              n_banks=4, associativity=2)
#: Peer / second-level cache: holds the whole working set.
BIG_CACHE = ProxyCacheConfig(capacity_bytes=64 * 1024 * 1024,
                             n_banks=32, associativity=4)
#: Block-path sessions: no zero maps, no file channel.
NO_METADATA = ProxyConfig(metadata=False)

#: A faulted run may be slower than its clean baseline by at most this
#: many simulated seconds (outages are <= 3 s; the retry ladder adds
#: bounded backoff on top).
RECOVERY_BOUND_S = 20.0

#: Blocks the read workloads stream, and blocks the write phase writes.
N_BLOCKS = 24
N_WRITE_BLOCKS = 12

#: Fault-marker counters: each is bumped only by its layer's fault
#: port, so "markers light up off-target" means the blast radius leaked.
_MARKERS = ("frames_corrupted", "procs_blackholed", "procs_delayed",
            "procs_duplicated", "stalled_uploads", "dropped_uploads")


def _payload(seed: int, size: int) -> bytes:
    return random.Random(seed).randbytes(size)


def _lost_blocks(server: bytes, written: bytes, block_size: int) -> int:
    n = (len(written) + block_size - 1) // block_size
    return sum(1 for i in range(n)
               if server[i * block_size:(i + 1) * block_size]
               != written[i * block_size:(i + 1) * block_size])


def _mismatch_bytes(got: bytes, want: bytes) -> int:
    return (sum(1 for a, b in zip(got, want) if a != b)
            + abs(len(got) - len(want)))


def _fault_markers(stacks: Dict[str, object]) -> Dict[str, int]:
    """Nonzero fault markers as ``{"stack/role.counter": n}``."""
    out: Dict[str, int] = {}
    for sname, stack in stacks.items():
        for lay in stack.layers:
            for field in _MARKERS:
                value = getattr(lay.stats, field, 0)
                if value:
                    out[f"{sname}/{lay.ROLE}.{field}"] = value
    return out


def _checksum_totals(stacks: Dict[str, object]) -> Dict[str, int]:
    totals = {"corruptions_caught": 0, "corruptions_repaired": 0,
              "verify_unrepaired": 0, "crcs_verified": 0}
    for stack in stacks.values():
        lay = stack.layer("checksum")
        if lay is None:
            continue
        for field in totals:
            totals[field] += getattr(lay.stats, field)
    return totals


def _outcome(workload: str, cell: Optional[Dict], stacks, injector,
             elapsed: float, bad: int, **extra) -> Dict:
    """The per-run record every cell is judged on."""
    markers = _fault_markers(stacks)
    target = cell["target"] if cell is not None else None
    engaged = {k: v for k, v in markers.items()
               if target is not None and k.startswith(target + ".")}
    result = {
        "workload": workload,
        "kind": cell["kind"].value if cell else None,
        "target": target,
        "elapsed_s": elapsed,
        "corrupted_bytes_served": bad,
        "engaged_markers": engaged,
        "offtarget_markers": {k: v for k, v in markers.items()
                              if k not in engaged},
        "timeline": [list(entry) for entry in injector.timeline],
        **extra,
    }
    result.update(_checksum_totals(stacks))
    return result


# --------------------------------------------------------------------------
# The cell matrix
# --------------------------------------------------------------------------

def cells(seed: int = SEED) -> List[Dict]:
    """The (layer x fault x workload) matrix, 20 cells.

    ``arg`` picks which frame to corrupt: ``-1`` is the newest clean
    frame of the tiny client cache (probed first by the backward
    re-read, so the corruption is served from the client's own cache),
    while a seeded draw from the lower half of the blob picks a block
    the thrashing client has certainly evicted — so the corrupt copy
    is served sideways, from the peer or the second level.
    """
    def low_block(name: str) -> int:
        return random.Random(f"{seed}:{name}").randrange(N_BLOCKS // 2)

    def cell(name, workload, kind, target, phase,
             arg=None, down_for=None) -> Dict:
        return {"name": name, "workload": workload, "kind": kind,
                "target": target, "phase": phase, "arg": arg,
                "down_for": down_for}

    return [
        # -- cold read: everything misses, so the forwarding path is hot.
        cell("cold:blackhole-read@l2-rpc", "cold_read",
             FaultKind.BLACKHOLE_PROC, "l2/upstream-rpc", "start",
             arg="READ", down_for=2.0),
        cell("cold:delay-read@l2-rpc", "cold_read",
             FaultKind.DELAY_PROC, "l2/upstream-rpc", "start",
             arg=("READ", 0.05)),
        cell("cold:duplicate-read@l2-rpc", "cold_read",
             FaultKind.DUPLICATE_PROC, "l2/upstream-rpc", "start",
             arg="READ"),
        cell("cold:blackhole-read@c0-rpc", "cold_read",
             FaultKind.BLACKHOLE_PROC, "c0/upstream-rpc", "start",
             arg="READ", down_for=1.5),
        cell("cold:delay-read@c0-peer", "cold_read",
             FaultKind.DELAY_PROC, "c0/peer-cache", "start",
             arg=("READ", 0.02)),
        cell("cold:blackhole-read@c0-peer", "cold_read",
             FaultKind.BLACKHOLE_PROC, "c0/peer-cache", "start",
             arg="READ", down_for=1.5),
        cell("cold:blackhole-write@origin-rpc", "cold_read",
             FaultKind.BLACKHOLE_PROC, "origin/upstream-rpc", "pre_push",
             arg="WRITE", down_for=2.0),
        cell("cold:delay-write@origin-rpc", "cold_read",
             FaultKind.DELAY_PROC, "origin/upstream-rpc", "pre_push",
             arg=("WRITE", 0.05)),

        # -- warm peer: the neighbour holds the blob; borrows are hot.
        cell("peer:corrupt@c1-cache", "warm_peer",
             FaultKind.CORRUPT_FRAME, "c1/block-cache", "pre_probe",
             arg=low_block("peer:corrupt@c1-cache")),
        cell("peer:corrupt2@c1-cache", "warm_peer",
             FaultKind.CORRUPT_FRAME, "c1/block-cache", "pre_probe",
             arg=low_block("peer:corrupt2@c1-cache") + 1),
        cell("peer:corrupt@c0-cache", "warm_peer",
             FaultKind.CORRUPT_FRAME, "c0/block-cache", "pre_probe",
             arg=-1),
        cell("peer:delay-read@c0-peer", "warm_peer",
             FaultKind.DELAY_PROC, "c0/peer-cache", "pre_probe",
             arg=("READ", 0.02)),
        cell("peer:blackhole-read@c0-peer", "warm_peer",
             FaultKind.BLACKHOLE_PROC, "c0/peer-cache", "pre_probe",
             arg="READ", down_for=1.5),
        cell("peer:duplicate-write@origin-rpc", "warm_peer",
             FaultKind.DUPLICATE_PROC, "origin/upstream-rpc", "pre_push",
             arg="WRITE"),

        # -- warm second level: the peer is cold; misses fall to l2.
        cell("l2:corrupt@l2-cache", "warm_l2",
             FaultKind.CORRUPT_FRAME, "l2/block-cache", "pre_probe",
             arg=low_block("l2:corrupt@l2-cache")),
        cell("l2:corrupt@c0-cache", "warm_l2",
             FaultKind.CORRUPT_FRAME, "c0/block-cache", "pre_probe",
             arg=-1),
        cell("l2:delay-read@c0-rpc", "warm_l2",
             FaultKind.DELAY_PROC, "c0/upstream-rpc", "pre_probe",
             arg=("READ", 0.03)),
        cell("l2:duplicate-read@c0-rpc", "warm_l2",
             FaultKind.DUPLICATE_PROC, "c0/upstream-rpc", "pre_probe",
             arg="READ"),

        # -- whole-file channel: uploads stalled and dropped.
        cell("upload:stall@c0-channel", "upload",
             FaultKind.STALL_UPLOADS, "c0/file-channel", "pre_write",
             down_for=1.0),
        cell("upload:drop@c0-channel", "upload",
             FaultKind.DROP_UPLOAD, "c0/file-channel", "pre_write",
             arg=1),
    ]


# --------------------------------------------------------------------------
# The cascade rig and workload drivers
# --------------------------------------------------------------------------

class _Rig:
    """Depth-2 cascade + cooperative peer, instrumented for chaos.

    Stacks are attached to the injector under stable names: ``c0`` (the
    session under test, tiny cache), ``c1`` (its LAN peer, big cache),
    ``l2`` (the second-level cache) and ``origin`` (the server-side
    forwarding proxy, where checksums are recorded).
    """

    def __init__(self, seed: int, integrity: bool):
        env = Environment()
        self.env = env
        self.testbed = make_paper_testbed(env, n_compute=2)
        self.registry = ChecksumRegistry() if integrity else None
        self.endpoint = ServerEndpoint(env, self.testbed.wan_server,
                                       integrity=self.registry)
        self.fs = self.endpoint.export.fs
        self.bs = TINY_CACHE.block_size
        self.payload = _payload(seed, N_BLOCKS * self.bs)
        self.wpayload = _payload(seed + 1, N_WRITE_BLOCKS * self.bs)
        self.fs.mkdir("/data")
        self.fs.create("/data/blob")
        self.fs.write("/data/blob", self.payload)
        self.fs.create("/data/wfile")

        self.cascade = build_cascade(
            self.testbed, self.endpoint,
            [BIG_CACHE])
        peers = self.testbed.peer_directory()
        self.s0 = GvfsSession.build(
            self.testbed, Scenario.WAN_CACHED, endpoint=self.endpoint,
            compute_index=0, cache_config=TINY_CACHE, via=self.cascade[0],
            peer_directory=peers, proxy_config=NO_METADATA)
        self.s1 = GvfsSession.build(
            self.testbed, Scenario.WAN_CACHED, endpoint=self.endpoint,
            compute_index=1, cache_config=BIG_CACHE, via=self.cascade[0],
            peer_directory=peers, proxy_config=NO_METADATA)
        for session in (self.s0, self.s1):
            session.harden_rpc(timeout=0.5, max_retries=10, backoff=2.0,
                               max_timeout=8.0)

        self.injector = FaultInjector(env)
        self.stacks = {"c0": self.s0.client_proxy,
                       "c1": self.s1.client_proxy,
                       "l2": self.cascade[0].proxy,
                       "origin": self.endpoint.proxy}
        for name, stack in self.stacks.items():
            attach_stack(self.injector, name, stack)


def _fire(env, injector, cell: Optional[Dict], phase: str) -> bool:
    if cell is None or cell["phase"] != phase:
        return False
    at = env.now + 1e-3
    if cell["down_for"] is not None:
        plan = layer_outage(cell["kind"], cell["target"], at,
                            cell["down_for"], cell["arg"])
    else:
        plan = layer_fault(cell["kind"], cell["target"], at, cell["arg"])
    injector.schedule(plan)
    return True


def _read_span(env, f, payload: bytes, bs: int, order) -> object:
    """Process: read the listed blocks, counting bytes that differ from
    the payload of record (the zero-corruption metric)."""
    bad = 0
    for idx in order:
        data = yield env.process(f.read(idx * bs, bs))
        bad += _mismatch_bytes(data, payload[idx * bs:(idx + 1) * bs])
    return bad


def _run_cascade_cell(workload: str, cell: Optional[Dict], seed: int,
                      integrity: bool) -> Dict:
    """One sweep cell (or, with ``cell=None``, its clean baseline)."""
    rig = _Rig(seed, integrity)
    env, injector = rig.env, rig.injector
    bs = rig.bs
    fwd = list(range(N_BLOCKS))
    box: Dict = {}

    def driver(env):
        bad = 0
        if _fire(env, injector, cell, "start"):
            yield env.timeout(0.002)
        if workload == "warm_peer":
            f1 = yield env.process(rig.s1.mount.open("/data/blob"))
            bad += yield from _read_span(env, f1, rig.payload, bs, fwd)
            f0 = yield env.process(rig.s0.mount.open("/data/blob"))
            bad += yield from _read_span(env, f0, rig.payload, bs, fwd)
        elif workload == "warm_l2":
            f0 = yield env.process(rig.s0.mount.open("/data/blob"))
            bad += yield from _read_span(env, f0, rig.payload, bs, fwd)
        else:                                   # cold_read
            f0 = yield env.process(rig.s0.mount.open("/data/blob"))
        if _fire(env, injector, cell, "pre_probe"):
            yield env.timeout(0.002)
        if workload == "cold_read":
            bad += yield from _read_span(env, f0, rig.payload, bs, fwd)
        # Drop the *kernel* client's page cache so every probe read
        # crosses the proxy stack; the proxy/cascade/peer caches stay
        # warm — their contents are exactly what is under test.
        rig.s0.mount.drop_caches()
        bad += yield from _read_span(env, f0, rig.payload, bs, fwd[::-1])

        # Write phase: absorb, then push the full depth of the cascade.
        if _fire(env, injector, cell, "pre_write"):
            yield env.timeout(0.002)
        w = yield env.process(rig.s0.mount.open("/data/wfile"))
        yield env.process(w.write(0, rig.wpayload))
        yield env.process(rig.s0.mount.flush_all())
        if _fire(env, injector, cell, "pre_push"):
            yield env.timeout(0.002)
        yield env.process(rig.s0.client_proxy.flush())
        for level in rig.cascade:
            yield env.process(level.proxy.flush())
        box["bad"] = bad
        box["elapsed"] = env.now

    env.process(driver(env))
    env.run()
    return _outcome(workload, cell, rig.stacks, injector, box["elapsed"],
                    box["bad"],
                    lost_writes=_lost_blocks(rig.fs.read("/data/wfile"),
                                             rig.wpayload, bs))


def _run_upload_cell(cell: Optional[Dict], seed: int,
                     integrity: bool) -> Dict:
    """The whole-file data-channel workload: modify a memory-state file
    pulled through the file channel, then flush it back upstream."""
    env = Environment()
    testbed = make_paper_testbed(env)
    registry = ChecksumRegistry() if integrity else None
    endpoint = ServerEndpoint(env, testbed.wan_server, integrity=registry)
    image = VmImage.create(endpoint.export.fs, "/images/golden",
                           VmConfig(name="golden", memory_mb=2,
                                    disk_gb=0.01, seed=7))
    image.generate_metadata()
    mem = image.memory_inode
    nonzero = next(i for i in range(mem.data.n_chunks())
                   if not mem.data.chunk_is_zero(i))
    off = nonzero * 8192
    marker = _payload(seed + 3, 64)

    session = GvfsSession.build(testbed, Scenario.WAN_CACHED,
                                endpoint=endpoint, cache_config=BIG_CACHE)
    session.harden_rpc(timeout=0.5, max_retries=10, backoff=2.0,
                       max_timeout=8.0)
    injector = FaultInjector(env)
    stacks = {"c0": session.client_proxy, "origin": endpoint.proxy}
    for name, stack in stacks.items():
        attach_stack(injector, name, stack)
    box: Dict = {}

    def driver(env):
        f = yield env.process(session.mount.open("/images/golden/mem.vmss"))
        yield env.process(f.read(off, 8192))        # pull via the channel
        if _fire(env, injector, cell, "pre_write"):
            yield env.timeout(0.002)
        yield env.process(f.write_sync(off, marker))
        yield env.process(session.client_proxy.flush())
        # A dropped upload leaves the entry dirty; the middleware's next
        # flush retries it — that retry is the zero-lost-writes story.
        yield env.process(session.client_proxy.flush())
        after = yield env.process(f.read(off, len(marker)))
        box["bad"] = _mismatch_bytes(after, marker)
        box["elapsed"] = env.now

    env.process(driver(env))
    env.run()
    return _outcome("upload", cell, stacks, injector, box["elapsed"],
                    box["bad"],
                    lost_writes=int(mem.data.read(off, len(marker))
                                    != marker),
                    uploads=session.client_proxy.channel.uploads)


def run_cell(cell: Optional[Dict], workload: str, seed: int = SEED,
             integrity: bool = True) -> Dict:
    if workload == "upload":
        return _run_upload_cell(cell, seed, integrity)
    return _run_cascade_cell(workload, cell, seed, integrity)


# --------------------------------------------------------------------------
# The sweep and its controls
# --------------------------------------------------------------------------

def run_sweep(seed: int = SEED) -> Dict[str, Dict]:
    """Every cell, run twice in a seeded order; each record carries
    ``replay_identical`` and its ``slowdown_s`` over the workload's
    clean baseline."""
    matrix = cells(seed)
    order = list(matrix)
    random.Random(seed).shuffle(order)
    baselines = {wl: run_cell(None, wl, seed)["elapsed_s"]
                 for wl in ("cold_read", "warm_peer", "warm_l2", "upload")}
    results: Dict[str, Dict] = {}
    for cell in order:
        first = run_cell(cell, cell["workload"], seed)
        first["replay_identical"] = first == run_cell(
            cell, cell["workload"], seed)
        first["slowdown_s"] = first["elapsed_s"] - baselines[cell["workload"]]
        results[cell["name"]] = first
    return {cell["name"]: results[cell["name"]] for cell in matrix}


def run_negative_control(seed: int = SEED) -> Dict:
    """A corruption cell with the checksum layer absent: the garbled
    frame must demonstrably reach the reader, or the sweep's zeros
    prove nothing about the layer."""
    cell = {"name": "control:corrupt@c0-cache", "workload": "warm_l2",
            "kind": FaultKind.CORRUPT_FRAME, "target": "c0/block-cache",
            "phase": "pre_probe", "arg": -1, "down_for": None}
    return run_cell(cell, "warm_l2", seed, integrity=False)


def run_golden_check(seed: int = SEED) -> Dict:
    """Happy-path timing with and without the checksum layer."""
    with_layer = run_cell(None, "cold_read", seed, integrity=True)
    without = run_cell(None, "cold_read", seed, integrity=False)
    return {"identical": with_layer["elapsed_s"] == without["elapsed_s"],
            "crcs_verified": with_layer["crcs_verified"],
            "corrupted_bytes_served": (with_layer["corrupted_bytes_served"]
                                       + without["corrupted_bytes_served"])}
