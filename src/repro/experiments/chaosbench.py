"""Chaos sweep: layer-targeted faults with end-to-end integrity (PR 8).

The fault benchmark (:mod:`repro.experiments.faultbench`) kills whole
links, servers and proxies.  This sweep aims smaller: one cached frame
garbled inside one named cache, one RPC procedure blackholed at one
layer of one cascade level, one upload dropped on the floor — and
asserts three properties the coarse scenarios cannot:

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
block can take is in play.  Cells run twice; ``replay_identical``
asserts bit-identical metrics and fault timelines.

Two control runs anchor the sweep:

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

from repro.core.config import ProxyCacheConfig
from repro.core.layers.checksum import ChecksumRegistry
from repro.core.session import (
    CascadeLevelSpec,
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

__all__ = ["DEFAULT_SEED", "check_report", "format_report",
           "run_chaosbench", "run_golden_check", "run_negative_control"]

DEFAULT_SEED = 17

#: Client cache: 8 frames, so reads thrash and evict constantly.
TINY_CACHE = ProxyCacheConfig(capacity_bytes=8 * 8192,
                              n_banks=4, associativity=2)
#: Peer / second-level cache: holds the whole working set.
BIG_CACHE = ProxyCacheConfig(capacity_bytes=64 * 1024 * 1024,
                             n_banks=32, associativity=4)

#: A faulted run may be slower than its clean baseline by at most this
#: many simulated seconds (outages are <= 3 s; the retry ladder adds
#: bounded backoff on top).
RECOVERY_BOUND_S = 20.0

#: Fault-marker counters: each is bumped only by its layer's fault
#: port, so "markers light up off-target" means the blast radius leaked.
_MARKERS = ("frames_corrupted", "procs_blackholed", "procs_delayed",
            "procs_duplicated", "stalled_uploads", "dropped_uploads")


def _n_blocks(quick: bool) -> int:
    return 24 if quick else 48


def _n_write_blocks(quick: bool) -> int:
    return 12 if quick else 24


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


# --------------------------------------------------------------------------
# The cell matrix
# --------------------------------------------------------------------------

def _cells(quick: bool, seed: int) -> List[Dict]:
    """The (layer x fault x workload) matrix, 20 cells.

    ``arg`` picks which frame to corrupt: ``-1`` is the newest clean
    frame of the tiny client cache (probed first by the backward
    re-read, so the corruption is served from the client's own cache),
    while a seeded draw from the lower half of the blob picks a block
    the thrashing client has certainly evicted — so the corrupt copy
    is served sideways, from the peer or the second level.
    """
    n = _n_blocks(quick)

    def low_block(name: str) -> int:
        return random.Random(f"{seed}:{name}").randrange(max(1, n // 2))

    def cell(name, workload, kind, target, phase,
             arg=None, down_for=None) -> Dict:
        return {"name": name, "workload": workload, "kind": kind,
                "target": target, "phase": phase, "arg": arg,
                "down_for": down_for}

    cells = [
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
    return cells


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

    def __init__(self, quick: bool, seed: int, integrity: bool):
        env = Environment()
        self.env = env
        self.testbed = make_paper_testbed(env, n_compute=2)
        self.registry = ChecksumRegistry() if integrity else None
        self.endpoint = ServerEndpoint(env, self.testbed.wan_server,
                                       integrity=self.registry)
        self.fs = self.endpoint.export.fs
        self.bs = TINY_CACHE.block_size
        self.n_blocks = _n_blocks(quick)
        self.payload = _payload(seed, self.n_blocks * self.bs)
        self.wpayload = _payload(seed + 1,
                                 _n_write_blocks(quick) * self.bs)
        self.fs.mkdir("/data")
        self.fs.create("/data/blob")
        self.fs.write("/data/blob", self.payload)
        self.fs.create("/data/wfile")

        self.cascade = build_cascade(
            self.testbed, self.endpoint,
            [CascadeLevelSpec(cache_config=BIG_CACHE, name="l2")])
        peers = self.testbed.peer_directory()
        self.s0 = GvfsSession.build(
            self.testbed, Scenario.WAN_CACHED, endpoint=self.endpoint,
            compute_index=0, cache_config=TINY_CACHE, metadata=False,
            via=self.cascade, peer_directory=peers,
            integrity=self.registry)
        self.s1 = GvfsSession.build(
            self.testbed, Scenario.WAN_CACHED, endpoint=self.endpoint,
            compute_index=1, cache_config=BIG_CACHE, metadata=False,
            via=self.cascade, peer_directory=peers,
            integrity=self.registry)
        for session in (self.s0, self.s1):
            session.harden_rpc(timeout=0.5, max_retries=10, backoff=2.0,
                               max_timeout=8.0)

        self.injector = FaultInjector(env)
        self.stacks = {"c0": self.s0.client_proxy,
                       "c1": self.s1.client_proxy,
                       "l2": self.cascade.levels[0].proxy,
                       "origin": self.endpoint.proxy}
        for name, stack in self.stacks.items():
            attach_stack(self.injector, name, stack)


def _fire(rig, cell: Optional[Dict], phase: str) -> bool:
    if cell is None or cell["phase"] != phase:
        return False
    at = rig.env.now + 1e-3
    if cell["down_for"] is not None:
        plan = layer_outage(cell["kind"], cell["target"], at,
                            cell["down_for"], cell["arg"])
    else:
        plan = layer_fault(cell["kind"], cell["target"], at, cell["arg"])
    rig.injector.schedule(plan)
    return True


def _read_span(env, f, payload: bytes, bs: int, order) -> object:
    """Process: read the listed blocks, counting bytes that differ from
    the payload of record (the zero-corruption metric)."""
    bad = 0
    for idx in order:
        data = yield env.process(f.read(idx * bs, bs))
        bad += _mismatch_bytes(data, payload[idx * bs:(idx + 1) * bs])
    return bad


def _run_cascade_cell(workload: str, cell: Optional[Dict], quick: bool,
                      seed: int, integrity: bool = True) -> Dict:
    """One sweep cell (or, with ``cell=None``, its clean baseline)."""
    rig = _Rig(quick, seed, integrity)
    env = rig.env
    bs, n = rig.bs, rig.n_blocks
    fwd = list(range(n))
    back = fwd[::-1]
    box: Dict = {}

    def driver(env):
        bad = 0
        if _fire(rig, cell, "start"):
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
        if _fire(rig, cell, "pre_probe"):
            yield env.timeout(0.002)
        if workload == "cold_read":
            bad += yield from _read_span(env, f0, rig.payload, bs, fwd)
        # Drop the *kernel* client's page cache so every probe read
        # crosses the proxy stack; the proxy/cascade/peer caches stay
        # warm — their contents are exactly what is under test.
        rig.s0.mount.drop_caches()
        bad += yield from _read_span(env, f0, rig.payload, bs, back)

        # Write phase: absorb, then push the full depth of the cascade.
        if _fire(rig, cell, "pre_write"):
            yield env.timeout(0.002)
        w = yield env.process(rig.s0.mount.open("/data/wfile"))
        yield env.process(w.write(0, rig.wpayload))
        yield env.process(rig.s0.mount.flush_all())
        if _fire(rig, cell, "pre_push"):
            yield env.timeout(0.002)
        yield env.process(rig.s0.client_proxy.flush())
        for level in rig.cascade.levels:
            yield env.process(level.proxy.flush())
        box["bad"] = bad
        box["elapsed"] = env.now

    env.process(driver(env))
    env.run()

    markers = _fault_markers(rig.stacks)
    target = cell["target"] if cell is not None else None
    engaged = {k: v for k, v in markers.items()
               if target is not None and k.startswith(target + ".")}
    offtarget = {k: v for k, v in markers.items() if k not in engaged}
    result = {
        "workload": workload,
        "kind": cell["kind"].value if cell else None,
        "target": target,
        "phase": cell["phase"] if cell else None,
        "elapsed_s": box["elapsed"],
        "corrupted_bytes_served": box["bad"],
        "lost_writes": _lost_blocks(rig.fs.read("/data/wfile"),
                                    rig.wpayload, bs),
        "blocks_written": len(rig.wpayload) // bs,
        "engaged_markers": engaged,
        "offtarget_markers": offtarget,
        "timeline": [list(entry) for entry in rig.injector.timeline],
    }
    result.update(_checksum_totals(rig.stacks))
    return result


def _run_upload_cell(cell: Optional[Dict], quick: bool, seed: int,
                     integrity: bool = True) -> Dict:
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
                                endpoint=endpoint, cache_config=BIG_CACHE,
                                metadata=True, integrity=registry)
    session.harden_rpc(timeout=0.5, max_retries=10, backoff=2.0,
                       max_timeout=8.0)
    injector = FaultInjector(env)
    stacks = {"c0": session.client_proxy, "origin": endpoint.proxy}
    for name, stack in stacks.items():
        attach_stack(injector, name, stack)
    rig_view = type("_V", (), {"env": env, "injector": injector})()
    box: Dict = {}

    def driver(env):
        f = yield env.process(session.mount.open("/images/golden/mem.vmss"))
        yield env.process(f.read(off, 8192))        # pull via the channel
        if _fire(rig_view, cell, "pre_write"):
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

    markers = _fault_markers(stacks)
    target = cell["target"] if cell is not None else None
    engaged = {k: v for k, v in markers.items()
               if target is not None and k.startswith(target + ".")}
    offtarget = {k: v for k, v in markers.items() if k not in engaged}
    server_after = mem.data.read(off, len(marker))
    result = {
        "workload": "upload",
        "kind": cell["kind"].value if cell else None,
        "target": target,
        "phase": cell["phase"] if cell else None,
        "elapsed_s": box["elapsed"],
        "corrupted_bytes_served": box["bad"],
        "lost_writes": 0 if server_after == marker else 1,
        "blocks_written": 1,
        "uploads": session.client_proxy.channel.uploads,
        "engaged_markers": engaged,
        "offtarget_markers": offtarget,
        "timeline": [list(entry) for entry in injector.timeline],
    }
    result.update(_checksum_totals(stacks))
    return result


def _run_cell(cell: Optional[Dict], workload: str, quick: bool,
              seed: int, integrity: bool = True) -> Dict:
    if workload == "upload":
        return _run_upload_cell(cell, quick, seed, integrity)
    return _run_cascade_cell(workload, cell, quick, seed, integrity)


# --------------------------------------------------------------------------
# Controls
# --------------------------------------------------------------------------

def run_negative_control(quick: bool = False,
                         seed: int = DEFAULT_SEED) -> Dict:
    """A corruption cell with the checksum layer absent: the garbled
    frame must demonstrably reach the reader, or the sweep's zeros
    prove nothing about the layer."""
    cell = {"name": "control:corrupt@c0-cache", "workload": "warm_l2",
            "kind": FaultKind.CORRUPT_FRAME, "target": "c0/block-cache",
            "phase": "pre_probe", "arg": -1, "down_for": None}
    result = _run_cell(cell, "warm_l2", quick, seed, integrity=False)
    result["checksum_layer"] = "absent"
    return result


def run_golden_check(quick: bool = False, seed: int = DEFAULT_SEED) -> Dict:
    """Happy-path timing with and without the checksum layer must be
    bit-identical: integrity adds zero simulation events when nothing
    is corrupt."""
    with_layer = _run_cell(None, "cold_read", quick, seed, integrity=True)
    without = _run_cell(None, "cold_read", quick, seed, integrity=False)
    return {
        "elapsed_with_checksum_s": with_layer["elapsed_s"],
        "elapsed_without_checksum_s": without["elapsed_s"],
        "identical": with_layer["elapsed_s"] == without["elapsed_s"],
        "crcs_verified": with_layer["crcs_verified"],
        "corrupted_bytes_served": (with_layer["corrupted_bytes_served"]
                                   + without["corrupted_bytes_served"]),
    }


# --------------------------------------------------------------------------
# Driver / report
# --------------------------------------------------------------------------

def run_chaosbench(quick: bool = False, seed: int = DEFAULT_SEED) -> Dict:
    """Run the full sweep plus controls and collect the report."""
    cells = _cells(quick, seed)
    order = list(cells)
    random.Random(seed).shuffle(order)

    baselines = {
        wl: {"elapsed_s": _run_cell(None, wl, quick, seed)["elapsed_s"]}
        for wl in ("cold_read", "warm_peer", "warm_l2", "upload")}

    results: Dict[str, Dict] = {}
    for cell in order:
        first = _run_cell(cell, cell["workload"], quick, seed)
        rerun = _run_cell(cell, cell["workload"], quick, seed)
        first["replay_identical"] = first == rerun
        first["slowdown_s"] = (first["elapsed_s"]
                               - baselines[cell["workload"]]["elapsed_s"])
        results[cell["name"]] = first

    return {
        "benchmark": "chaosbench",
        "seed": seed,
        "quick": quick,
        "n_cells": len(cells),
        "recovery_bound_s": RECOVERY_BOUND_S,
        "baselines": baselines,
        "cells": {cell["name"]: results[cell["name"]] for cell in cells},
        "negative_control": run_negative_control(quick, seed),
        "golden": run_golden_check(quick, seed),
    }


def check_report(report: Dict) -> List[str]:
    """Acceptance checks; returns human-readable failures (empty = pass)."""
    failures: List[str] = []
    if report["n_cells"] < 20:
        failures.append(f"sweep has only {report['n_cells']} cells (< 20)")
    bound = report.get("recovery_bound_s", RECOVERY_BOUND_S)
    for name, cell in report["cells"].items():
        if cell["corrupted_bytes_served"]:
            failures.append(f"{name}: served "
                            f"{cell['corrupted_bytes_served']} corrupted "
                            "byte(s)")
        if cell["lost_writes"]:
            failures.append(f"{name}: lost {cell['lost_writes']} "
                            "acknowledged write(s)")
        if not cell["engaged_markers"]:
            failures.append(f"{name}: fault never engaged the target "
                            f"({cell['target']})")
        if cell["offtarget_markers"]:
            failures.append(f"{name}: blast radius leaked off-target: "
                            f"{sorted(cell['offtarget_markers'])}")
        if cell["kind"] == "corrupt-frame":
            if cell["corruptions_caught"] == 0:
                failures.append(f"{name}: injected corruption was never "
                                "caught")
            if cell["corruptions_repaired"] != cell["corruptions_caught"]:
                failures.append(
                    f"{name}: caught {cell['corruptions_caught']} but "
                    f"repaired {cell['corruptions_repaired']}")
        elif cell["corruptions_caught"]:
            failures.append(f"{name}: unexpected corruption caught in a "
                            "non-corruption cell")
        if cell["verify_unrepaired"]:
            failures.append(f"{name}: {cell['verify_unrepaired']} read(s) "
                            "returned IO instead of repaired data")
        if cell["slowdown_s"] > bound:
            failures.append(f"{name}: recovery unbounded "
                            f"({cell['slowdown_s']:.2f}s > {bound}s)")
        if not cell["replay_identical"]:
            failures.append(f"{name}: replay with the same seed diverged")
    neg = report["negative_control"]
    if neg["corrupted_bytes_served"] == 0:
        failures.append("negative control: corruption never reached the "
                        "reader with the checksum layer absent — the "
                        "sweep is not exercising the integrity path")
    if not report["golden"]["identical"]:
        failures.append("golden: happy-path timing changed with the "
                        "checksum layer present")
    return failures


def format_report(report: Dict) -> str:
    lines = [f"chaosbench (seed={report['seed']}"
             f"{', quick' if report['quick'] else ''}): "
             f"{report['n_cells']} cells"]
    for name, cell in report["cells"].items():
        caught = (f", caught/repaired {cell['corruptions_caught']}/"
                  f"{cell['corruptions_repaired']}"
                  if cell["kind"] == "corrupt-frame" else "")
        lines.append(
            f"  {name:34s} +{cell['slowdown_s']:5.2f}s  "
            f"bad_bytes {cell['corrupted_bytes_served']}, "
            f"lost {cell['lost_writes']}{caught}, "
            f"replay {'OK' if cell['replay_identical'] else 'DIVERGED'}")
    neg = report["negative_control"]
    lines.append(f"  negative control (no checksum layer): "
                 f"{neg['corrupted_bytes_served']} corrupted byte(s) "
                 "reached the reader")
    g = report["golden"]
    lines.append(f"  golden timing: {g['elapsed_with_checksum_s']:.4f}s "
                 f"with layer vs {g['elapsed_without_checksum_s']:.4f}s "
                 f"without ({'identical' if g['identical'] else 'DRIFT'})")
    return "\n".join(lines)
