"""Clone-storm benchmark for the sharded image-server farm.

PR 6's fleet storm scaled the *client* side (sites, sessions, engine
throughput); the origin tier stayed a single image server per site.
This benchmark scales the origin: one site absorbs a staggered
clone storm against a :class:`~repro.middleware.farm.ImageFarm` of
1, 4 or 16 replicated data servers, with and without a data-server
crash mid-storm.  Each session clones the golden image (block-wise
demand traffic through the farm's origin selector), writes a small
checkpoint through the mount (acknowledged replicated writes), and
flushes on teardown.

Measured per cell: storm completion (simulated seconds), per-clone
latency, per-server request counts, failover/abort counters, the
re-replication record and the acknowledged-write audit.  The driver
also runs one control, **placement determinism**: two farms built from
the same seed must produce byte-identical placement snapshots.  (That
the origin-selector seams are inert when no farm is wired is the
tier-1 golden test's job: ``cold_clone@quick`` runs farm-disabled.)

``run_farmbench`` produces the ``results/BENCH_pr9.json`` document;
``check_report`` turns it into the CI ``farm-smoke`` gates: measurable
storm speedup at 4 and 16 servers vs 1, zero lost acknowledged writes
and zero unrepaired corruption under the mid-storm crash, observed
failovers (the crash must actually be survived, not dodged), bounded
recovery and deterministic placement.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

__all__ = [
    "CHECKPOINT_BLOCKS",
    "FULL_CELLS",
    "MIN_SPEEDUP",
    "QUICK_CELLS",
    "check_report",
    "format_report",
    "run_farm_storm",
    "run_farmbench",
    "run_placement_determinism",
]

#: Storm cells ``(n_servers, crash_mid_storm)``.  A crash cell needs a
#: surviving replica, so there is no 1-server crash cell.
FULL_CELLS: List[Tuple[int, bool]] = [
    (1, False), (4, False), (16, False), (4, True), (16, True)]
QUICK_CELLS: List[Tuple[int, bool]] = [(1, False), (4, False), (4, True)]

#: Storm completion speedup floors for the 4- and 16-server cells
#: against the single-server cell.
MIN_SPEEDUP = 1.1

# Storm geometry: the acceptance workload is the 1,000-session storm.
FULL_SESSIONS = 1000
QUICK_SESSIONS = 48
#: Arrival stagger, simulated seconds.  Dense enough to saturate the
#: single-server cell (the farm's reason to exist).
STORM_STAGGER = 0.05
#: Compute servers (sessions round-robin).  Sized so the client side
#: can absorb what 16 site-attached data servers can source.
STORM_COMPUTE = 16
#: Per-session golden image: small but fully wire-visible.
STORM_MEMORY_MB = 4
STORM_DISK_GB = 0.01
STORM_ZERO_FRACTION = 0.5
#: Block-aligned checkpoint blocks each session writes through the
#: mount — the storm's acknowledged replicated writes.
CHECKPOINT_BLOCKS = 4
_BLOCK = 8192


def _crash_at(sessions: int, stagger: float) -> float:
    """Mid-arrival: half the storm has arrived, transfers are dense."""
    return sessions * stagger * 0.5 + 0.5


def run_farm_storm(n_servers: int, sessions: int,
                   crash: bool = False, seed: int = 0,
                   stagger: float = STORM_STAGGER,
                   n_compute: int = STORM_COMPUTE) -> dict:
    """One storm cell: ``sessions`` staggered clones against a farm of
    ``n_servers`` data servers, optionally crashing one mid-storm."""
    if crash and n_servers < 2:
        raise ValueError("a crash cell needs a surviving replica")
    from repro.middleware.farm import ImageFarm
    from repro.middleware.imageserver import ImageRequirements
    from repro.middleware.sessions import VmSessionManager
    from repro.net.topology import make_paper_testbed
    from repro.sim import AllOf
    from repro.sim.chaos import attach_data_servers
    from repro.sim.faults import FaultInjector, FaultPlan
    from repro.vm.image import VmConfig

    testbed = make_paper_testbed(n_compute=n_compute)
    env = testbed.env
    farm = ImageFarm(testbed, n_servers=n_servers, seed=seed)
    manager = VmSessionManager(testbed, origin=farm,
                               account_pool_size=sessions)
    farm.register_image(
        "storm-golden",
        VmConfig(name="storm-golden", memory_mb=STORM_MEMORY_MB,
                 disk_gb=STORM_DISK_GB, persistent=False, seed=17),
        zero_fraction=STORM_ZERO_FRACTION,
        # No meta-data: reads stay block-wise, so the storm's traffic
        # actually exercises the replica selection per block range.
        generate_metadata=False)
    farm.provision_dir("/checkpoints")
    requirements = ImageRequirements(min_memory_mb=STORM_MEMORY_MB)
    clone_seconds: List[float] = []

    def one_user(env, index):
        yield env.timeout(index * stagger)
        session = yield env.process(manager.create_session(
            f"user{index}", requirements))
        clone_seconds.append(session.clone.total_seconds)
        # Checkpoint: block-aligned writes through the GVFS mount; the
        # flush in end_session pushes them upstream as replicated,
        # acknowledged WRITEs (what the crash audit then verifies).
        ckpt = yield from session.gvfs.mount.create(
            f"/checkpoints/user{index}.ckpt")
        payload = bytes([index % 251]) * _BLOCK
        for b in range(CHECKPOINT_BLOCKS):
            yield from ckpt.write(b * _BLOCK, payload)
        yield from ckpt.close()
        yield env.process(manager.end_session(session))

    def driver(env):
        users = [env.process(one_user(env, i)) for i in range(sessions)]
        yield AllOf(env, users)

    crash_time = None
    if crash:
        injector = FaultInjector(env)
        names = attach_data_servers(injector, "farm", farm)
        crash_time = _crash_at(sessions, stagger)
        # Crash a non-primary replica (index 1): the namespace stream
        # keeps its serialization point while block reads fail over.
        injector.schedule(FaultPlan.server_crash(names[1], at=crash_time))

    env.process(driver(env))
    t0 = time.perf_counter()
    env.run()
    wall = time.perf_counter() - t0

    snapshot = farm.farm_snapshot()
    audit = farm.audit_acknowledged_writes()
    layer_totals = manager.fleet_snapshot(deep=False)["layer_totals"]
    checksum = layer_totals.get("checksum", {})
    clone_sorted = sorted(clone_seconds)
    clients = snapshot["clients"]
    return {
        "n_servers": n_servers,
        "crash": crash,
        "crash_at": crash_time,
        "sessions": sessions,
        "completed_sessions": len(clone_seconds),
        "sim_seconds": env.now,
        "wall_seconds": wall,
        "events": env.events_scheduled,
        "clone_mean_seconds": (sum(clone_seconds) / len(clone_seconds)
                               if clone_seconds else 0.0),
        "clone_p50_seconds": (clone_sorted[len(clone_sorted) // 2]
                              if clone_sorted else 0.0),
        "clone_max_seconds": clone_sorted[-1] if clone_sorted else 0.0,
        "server_calls": {name: s["calls"]
                         for name, s in snapshot["servers"].items()},
        "clients": clients,
        "failover_events": (clients["failovers"]
                            + clients["aborted_attempts"]
                            + clients["degraded_reads"]
                            + clients["channel_failovers"]
                            + clients["aborted_fetches"]),
        "recovery": snapshot["recovery"],
        "recovery_complete": farm.recovery_complete(),
        "audit": audit,
        "corruptions_caught": checksum.get("corruptions_caught", 0),
        "corruptions_repaired": checksum.get("corruptions_repaired", 0),
        "placements": snapshot["placements"],
        "entries_retracted": snapshot["entries_retracted"],
    }


def run_placement_determinism(seed: int = 7,
                              n_servers: int = 4) -> dict:
    """Two farms, same seed: their eager placement maps must be
    byte-identical (the namenode is a pure function of the seed)."""
    from repro.middleware.farm import ImageFarm
    from repro.net.topology import make_paper_testbed
    from repro.vm.image import VmConfig

    def build_snapshot() -> Dict[str, List[str]]:
        testbed = make_paper_testbed(n_compute=1)
        farm = ImageFarm(testbed, n_servers=n_servers, seed=seed)
        farm.register_image(
            "det-golden",
            VmConfig(name="det-golden", memory_mb=STORM_MEMORY_MB,
                     disk_gb=STORM_DISK_GB, persistent=False, seed=17),
            zero_fraction=STORM_ZERO_FRACTION, generate_metadata=False)
        return farm.metadata.placement_snapshot()

    first, second = build_snapshot(), build_snapshot()
    return {"seed": seed, "n_servers": n_servers,
            "entries": len(first), "identical": first == second}


def run_farmbench(quick: bool = False,
                  sessions: Optional[int] = None,
                  cells: Optional[List[Tuple[int, bool]]] = None,
                  seed: int = 0) -> dict:
    """The full PR-9 benchmark document (``results/BENCH_pr9.json``)."""
    sessions = sessions or (QUICK_SESSIONS if quick else FULL_SESSIONS)
    cells = list(cells if cells is not None
                 else (QUICK_CELLS if quick else FULL_CELLS))
    for n_servers, crash in cells:
        if n_servers < 1 or (crash and n_servers < 2):
            raise ValueError(f"invalid cell ({n_servers}, crash={crash})")
    report: dict = {
        "bench": "pr9",
        "quick": quick,
        "created_unix": time.time(),
        "sessions": sessions,
        "stagger": STORM_STAGGER,
        "n_compute": STORM_COMPUTE,
        "seed": seed,
        "checkpoint_blocks": CHECKPOINT_BLOCKS,
        "cells": {},
    }
    for n_servers, crash in cells:
        key = f"s{n_servers}" + ("-crash" if crash else "")
        report["cells"][key] = run_farm_storm(
            n_servers, sessions=sessions, crash=crash, seed=seed)
    baseline = report["cells"].get("s1")
    speedups: Dict[str, float] = {}
    if baseline:
        for key, cell in report["cells"].items():
            if key == "s1" or cell["crash"]:
                continue
            speedups[key] = (baseline["sim_seconds"] / cell["sim_seconds"]
                             if cell["sim_seconds"] else 0.0)
    report["speedups"] = speedups
    report["placement_determinism"] = run_placement_determinism()
    return report


def check_report(report: dict,
                 baseline: Optional[dict] = None) -> List[str]:
    """CI gates over a farmbench report ([] = all good).

    * every crash-free multi-server cell beats the single-server storm
      by at least :data:`MIN_SPEEDUP`;
    * every cell completed all its sessions and acknowledged all its
      checkpoint writes;
    * every crash cell: zero lost acknowledged blocks, at least one
      observed failover (the crash landed mid-traffic), re-replication
      ran to completion with nothing unrecoverable, and no unrepaired
      corruption reached a reader;
    * same-seed placement maps are identical.

    ``baseline`` (an earlier report at the same scale) adds a storm
    regression bound: no cell may be more than 25% slower in simulated
    time than the same cell in the baseline.
    """
    failures: List[str] = []
    cells = report.get("cells", {})
    for key, speedup in report.get("speedups", {}).items():
        if speedup < MIN_SPEEDUP:
            failures.append(
                f"{key}: storm speedup vs one server is {speedup:.2f}x "
                f"(floor: {MIN_SPEEDUP}x)")
    for key, cell in cells.items():
        expected = cell["sessions"]
        if cell["completed_sessions"] != expected:
            failures.append(
                f"{key}: only {cell['completed_sessions']}/{expected} "
                "sessions completed")
        expected_acked = expected * report.get("checkpoint_blocks",
                                               CHECKPOINT_BLOCKS)
        if cell["audit"]["acked_blocks"] < expected_acked:
            failures.append(
                f"{key}: only {cell['audit']['acked_blocks']} of "
                f"{expected_acked} checkpoint blocks were acknowledged")
        unrepaired = (cell.get("corruptions_caught", 0)
                      - cell.get("corruptions_repaired", 0))
        if unrepaired:
            failures.append(
                f"{key}: {unrepaired} caught corruption(s) were never "
                "repaired")
        if not cell["crash"]:
            continue
        if cell["audit"]["lost_blocks"]:
            failures.append(
                f"{key}: {cell['audit']['lost_blocks']} acknowledged "
                f"block(s) lost after the crash "
                f"(examples: {cell['audit']['lost_examples']})")
        if cell["failover_events"] == 0:
            failures.append(
                f"{key}: the mid-storm crash produced zero failover "
                "events — it was never actually survived")
        if not cell["recovery_complete"]:
            failures.append(f"{key}: re-replication never completed")
        for rec in cell["recovery"]:
            if rec.get("ranges_unrecoverable"):
                failures.append(
                    f"{key}: {rec['ranges_unrecoverable']} range(s) of "
                    f"{rec['server']} were unrecoverable")
    det = report.get("placement_determinism", {})
    if not det.get("identical", False):
        failures.append("same-seed farms produced different placement maps")
    if baseline is not None and baseline.get("quick") == report.get("quick"):
        for key, cell in cells.items():
            ref = baseline.get("cells", {}).get(key)
            if ref and cell["sim_seconds"] > 1.25 * ref["sim_seconds"]:
                failures.append(
                    f"{key}: storm is {cell['sim_seconds']:.1f}s simulated "
                    f"vs {ref['sim_seconds']:.1f}s in the baseline "
                    "(bound: +25%)")
    return failures


def format_report(report: dict) -> str:
    lines: List[str] = [
        f"farm clone storm: {report['sessions']} sessions, "
        f"stagger {report['stagger']}s, {report['n_compute']} compute hosts"]
    lines.append(f"{'cell':<10} {'sim s':>8} {'clone s':>8} {'events':>10} "
                 f"{'failover':>9} {'acked':>6} {'lost':>5} {'wall s':>7}")
    for key, cell in report.get("cells", {}).items():
        lines.append(
            f"{key:<10} {cell['sim_seconds']:>8.1f} "
            f"{cell['clone_mean_seconds']:>8.2f} {cell['events']:>10} "
            f"{cell['failover_events']:>9} "
            f"{cell['audit']['acked_blocks']:>6} "
            f"{cell['audit']['lost_blocks']:>5} "
            f"{cell['wall_seconds']:>7.1f}")
    for key, speedup in report.get("speedups", {}).items():
        lines.append(f"speedup {key} vs s1: {speedup:.2f}x")
    for key, cell in report.get("cells", {}).items():
        for rec in cell.get("recovery", []):
            lines.append(
                f"{key}: {rec['server']} crashed, "
                f"{rec['ranges_rebuilt']}/{rec['ranges_lost']} ranges "
                f"re-replicated in {rec.get('seconds', 0.0):.2f}s "
                f"({rec['bytes_copied']} bytes, "
                f"{rec['blocks_verified']} blocks verified)")
    det = report.get("placement_determinism", {})
    if det:
        lines.append(f"placement determinism: "
                     f"{'identical' if det.get('identical') else 'DIVERGED'} "
                     f"({det.get('entries', 0)} entries, seed {det.get('seed')})")
    return "\n".join(lines)
