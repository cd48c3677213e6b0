"""Cooperative peer caching vs exclusive cascades: the PR 7 sweep.

BENCH_pr5 left two questions open.  First, proxies on one LAN site are
*siloed*: N compute nodes cloning the same golden image each pull every
block over the WAN even though an identical copy sits one cheap hop
away on a neighbour ("distributed file system" cuts both ways — §3.2.3
puts a shared second-level cache on the LAN, but peers' own disks are
a second-level cache that is already paid for).  Second, stacked
cascade levels are *inclusive*: every level holds the same hot blocks,
so a depth-d cascade buys far less than d× the capacity, and depth 4
measurably regressed.

This benchmark sweeps the three proxy-organization modes the PR adds —

``inclusive``
    The PR-5 baseline: siloed client proxies over a plain cascade.
``exclusive``
    Same topology, demotion armed (:meth:`ProxyCascade.arm_exclusive` +
    ``GvfsSession.build(exclusive=True)``): clean eviction victims hand
    upstream as DEMOTE calls instead of being dropped, so stacked
    levels stop duplicating each other.
``cooperative``
    Same per-node cache budget, plus the site peer directory
    (:meth:`Testbed.peer_directory`): proxies answer each other's
    misses over the LAN before they escalate to the WAN.

— across cascade depth × peer count, over a four-phase workload per
cell: a staggered cold-clone storm of one hot image (A), per-peer
distinct scan clones that pressure the client caches into eviction
(B), a client-cold hot re-clone storm (C), and a golden-image rollout
(D): every cache level is invalidated mid-run (the middleware pushes a
new image version; the peer directory empties itself through the
observer protocol) and the storm repeats on v2, with an end-to-end
integrity check of the cloned bytes.

An ``adaptive`` section exercises :mod:`repro.core.adaptive` on the
depth-4 regression: warm the cascade, plan from one deep snapshot,
bypass the levels that stopped paying, and require the adapted probe
clone to be no slower than the unadapted control.

``check_report`` encodes the PR's guarantees: every cooperative cell
serves peer hits; the multi-peer cooperative cold storm strictly beats
the siloed storm on time *and* WAN bytes at the same cache budget;
exclusive never loses to inclusive at depth 2 and demotes on every
deep cell; depth-1 exclusive is bit-identical to inclusive (arming
against a cacheless upstream is a no-op); replay is deterministic.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Optional, Sequence

from repro.core.adaptive import apply_cascade_sizing, plan_cascade_sizing
from repro.core.config import ProxyCacheConfig
from repro.core.session import (
    GvfsSession,
    LocalMount,
    Scenario,
    ServerEndpoint,
    build_cascade,
)
from repro.experiments.cascadebench import (
    _CLONE_SCALE,
    _ISOLATED,
    _client_config,
    _level_configs,
    _level_rows,
    _make_image,
)
from repro.net.topology import make_paper_testbed
from repro.sim import AllOf
from repro.vm.cloning import CloneManager
from repro.vm.image import VmImage
from repro.vm.monitor import VmMonitor

__all__ = ["MODES", "DEPTHS", "PEERS", "check_report", "format_report",
           "run_coopbench"]

MB = 1024 * 1024

MODES = ("inclusive", "exclusive", "cooperative")
DEPTHS = (1, 2, 3)
PEERS = (1, 2, 4)

#: Storm stagger between peers (sim seconds) — a real clone storm's
#: requests arrive over time, not in one instant.  Sized to a visible
#: fraction of a solo cold clone, so a late-arriving peer finds a
#: meaningful published prefix at its neighbours; once it catches the
#: leader's fetch frontier it convoys behind the in-flight-fetch
#: coalescing (each block crosses the WAN once per site).
_STAGGER = {False: 30.0, True: 10.0}


def _wan_bytes(testbed) -> int:
    return sum(link.bytes_sent for link in testbed.wan_segment)


def _peer_stats(sessions) -> Dict[str, int]:
    totals = {"peer_hits": 0, "peer_misses": 0, "peer_stale": 0,
              "peer_bytes": 0}
    for session in sessions:
        layer = session.client_proxy.layer("peer-cache")
        if layer is None:
            continue
        for key in totals:
            totals[key] += getattr(layer.stats, key)
    return totals


def _demotion_stats(sessions, levels) -> Dict[str, int]:
    totals = {"demotions_out": 0, "demotions_in": 0, "demotion_drops": 0}
    stacks = [s.client_proxy for s in sessions] + [l.proxy for l in levels]
    for stack in stacks:
        layer = stack.layer("block-cache")
        if layer is None:
            continue
        for key in totals:
            totals[key] += getattr(layer.stats, key)
    return totals


# --------------------------------------------------------------------------
# One sweep cell
# --------------------------------------------------------------------------

def _run_coop_cell(mode: str, depth: int, n_peers: int,
                   quick: bool) -> Dict:
    hot_mb, scan_mb, _ = _CLONE_SCALE[quick]
    stagger = _STAGGER[quick]
    testbed = make_paper_testbed(n_compute=n_peers)
    env = testbed.env
    endpoint = ServerEndpoint(env, testbed.wan_server)
    fs = endpoint.export.fs
    hot = _make_image(fs, "hot", hot_mb, seed=700)
    hot_v2 = _make_image(fs, "hot-v2", hot_mb, seed=701)
    scans = [_make_image(fs, f"scan{i}", scan_mb, seed=710 + i)
             for i in range(n_peers)]

    cascade = build_cascade(testbed, endpoint,
                            _level_configs(depth, "lru", quick),
                            name=f"coop-d{depth}", proxy_config=_ISOLATED)
    directory = (testbed.peer_directory()
                 if mode == "cooperative" else None)
    sessions = [GvfsSession.build(
        testbed, Scenario.WAN_CACHED, endpoint=endpoint,
        compute_index=i, cache_config=_client_config("lru", quick),
        via=cascade, peer_directory=directory,
        exclusive=(mode == "exclusive"), proxy_config=_ISOLATED)
        for i in range(n_peers)]
    if mode == "exclusive":
        cascade.arm_exclusive()
    managers = [CloneManager(env, VmMonitor(env, testbed.compute[i]),
                             sessions[i].mount,
                             LocalMount(testbed.compute[i].local))
                for i in range(n_peers)]

    phases: List[Dict] = []

    def storm(tag: str, images: List[VmImage]):
        """Staggered parallel clone: peer i clones images[i]."""
        t0, w0 = env.now, _wan_bytes(testbed)

        def one(i: int):
            yield env.timeout(i * stagger)
            yield env.process(managers[i].clone(
                images[i].directory, f"/clones/{tag}-p{i}",
                clone_name=f"{tag}-p{i}"))

        yield AllOf(env, [env.process(one(i)) for i in range(n_peers)])
        phases.append({"phase": tag, "makespan_s": env.now - t0,
                       "wan_bytes": _wan_bytes(testbed) - w0})

    def restart_clients():
        for session in sessions:
            yield env.process(session.cold_caches())

    def invalidate_everything():
        """Golden-image rollout: the middleware drops every cache level
        (clients, cascade levels — the peer directory follows through
        the cache-cleared observer callbacks)."""
        yield from restart_clients()
        for level in cascade.levels:
            yield env.process(level.proxy.quiesce())
            level.proxy.invalidate_caches()

    def driver(env):
        # A: cold storm — every peer clones the same hot image.
        yield from storm("cold_storm", [hot] * n_peers)
        # B: scan pressure — each peer clones its own one-shot image,
        # evicting hot blocks from the client caches (the demotion
        # source in exclusive mode).
        yield from storm("scan_pressure", scans)
        # C: hot re-storm with cold clients; upstream levels stay warm.
        yield from restart_clients()
        yield from storm("hot_restorm", [hot] * n_peers)
        # D: rollout — invalidate mid-run, storm on the new version.
        yield from invalidate_everything()
        yield from storm("rollout_storm", [hot_v2] * n_peers)

    env.process(driver(env))
    env.run()

    origin_v2 = fs.read(hot_v2.memory_path)
    integrity_ok = all(
        testbed.compute[i].local.fs.read(
            f"/clones/rollout_storm-p{i}/{VmImage.MEMORY_NAME}")
        == origin_v2
        for i in range(n_peers))

    cell = {
        "mode": mode,
        "depth": depth,
        "peers": n_peers,
        "phases": phases,
        "total_sim_seconds": env.now,
        "wan_bytes_total": _wan_bytes(testbed),
        "integrity_ok": integrity_ok,
        "levels": _level_rows(sessions[0], cascade.levels),
    }
    cell.update(_peer_stats(sessions))
    cell.update(_demotion_stats(sessions, cascade.levels))
    served = cell["peer_hits"] + cell["peer_misses"] + cell["peer_stale"]
    cell["peer_hit_ratio"] = cell["peer_hits"] / served if served else 0.0
    if directory is not None:
        cell["directory"] = directory.stats_snapshot()
    return cell


# --------------------------------------------------------------------------
# Adaptive sizing on the depth-4 regression
# --------------------------------------------------------------------------

def _run_adaptive_once(adapt: bool, quick: bool) -> Dict:
    """Depth-4 cascade with a deliberately undersized client cache.

    Warm with two back-to-back hot clones: the client thrashes (the
    image exceeds its capacity, so even the second pass misses nearly
    everything), the first intermediate level absorbs those misses, and
    the two deep levels reveal themselves as pure pass-through — the
    BENCH_pr5 depth-4 shape.  The planner then reads one deep snapshot:
    it grows the thrashing client to its measured working set and
    bypasses the dead levels.  The probe (two more hot clones) shows
    the payoff: the grown client holds the image after the first pass,
    so the second runs from local disk instead of re-crossing the LAN.
    Shrinking is disabled for this in-flight pass — a resize swaps in
    an empty cache, and mid-run the slack level's warm contents are
    worth more than the reclaimed disk.
    """
    hot_mb, _, _ = _CLONE_SCALE[quick]
    testbed = make_paper_testbed()
    env = testbed.env
    endpoint = ServerEndpoint(env, testbed.wan_server)
    fs = endpoint.export.fs
    hot = _make_image(fs, "hot", hot_mb, seed=700)
    small = ProxyCacheConfig(capacity_bytes=(4 if quick else 16) * MB,
                             n_banks=8, associativity=4, eviction="lru")

    cascade = build_cascade(testbed, endpoint,
                            _level_configs(4, "lru", quick),
                            name="adapt-d4", proxy_config=_ISOLATED)
    session = GvfsSession.build(
        testbed, Scenario.WAN_CACHED, endpoint=endpoint,
        cache_config=small, via=cascade, proxy_config=_ISOLATED)
    compute = testbed.compute[0]
    manager = CloneManager(env, VmMonitor(env, compute), session.mount,
                           LocalMount(compute.local))
    box: Dict = {}

    def driver(env):
        # Kernel-cache drops between clones (unmount/mount discipline)
        # without touching the proxy tiers: the client proxy must keep
        # thrashing in plain view of the planner, not hide behind the
        # NFS page cache.
        for tag in ("w0", "w1"):
            session.mount.drop_caches()
            yield env.process(manager.clone(hot.directory, f"/clones/{tag}",
                                            clone_name=tag))
        plans = plan_cascade_sizing(
            session.client_proxy.stats_snapshot(deep=True),
            shrink_slack=0.0)
        box["plans"] = [asdict(p) for p in plans]
        # Write-back safety for replace_cache, charged in both arms so
        # the probe comparison stays like-for-like.
        yield env.process(session.client_proxy.flush())
        if adapt:
            applied = apply_cascade_sizing(session.client_proxy, plans)
            box["applied"] = [p.level for p, ok in applied if ok]
        t0 = env.now
        for tag in ("p0", "p1"):
            session.mount.drop_caches()
            yield env.process(manager.clone(hot.directory, f"/clones/{tag}",
                                            clone_name=tag))
        box["probe_seconds"] = env.now - t0

    env.process(driver(env))
    env.run()
    return {"adapted": adapt, "probe_seconds": box["probe_seconds"],
            "plans": box["plans"], "applied_levels": box.get("applied", []),
            "total_sim_seconds": env.now}


def _run_adaptive(quick: bool) -> Dict:
    control = _run_adaptive_once(False, quick)
    adapted = _run_adaptive_once(True, quick)
    return {
        "what": "depth-4 probe clone, planner-bypassed vs control",
        "control_probe_s": control["probe_seconds"],
        "adapted_probe_s": adapted["probe_seconds"],
        "speedup": (control["probe_seconds"] / adapted["probe_seconds"]
                    if adapted["probe_seconds"] else 0.0),
        "plans": adapted["plans"],
        "applied_levels": adapted["applied_levels"],
    }


# --------------------------------------------------------------------------
# Driver / report
# --------------------------------------------------------------------------

def run_coopbench(modes: Optional[Sequence[str]] = None,
                  depths: Optional[Sequence[int]] = None,
                  peers: Optional[Sequence[int]] = None,
                  quick: bool = False) -> Dict:
    """Sweep proxy organization × cascade depth × peer count; each cell
    is an independent deterministic simulation."""
    modes = list(modes or MODES)
    depths = list(depths or DEPTHS)
    peers = list(peers or PEERS)
    unknown = [m for m in modes if m not in MODES]
    if unknown:
        raise ValueError(f"unknown mode(s) {unknown}; "
                         f"choose from {list(MODES)}")
    bad = [d for d in depths if d < 1] + [p for p in peers if p < 1]
    if bad:
        raise ValueError(f"depths and peers must be >= 1, got {bad}")
    cells = [_run_coop_cell(mode, depth, n, quick)
             for mode in modes
             for depth in depths
             for n in peers]
    replay = None
    if cells:
        first = cells[0]
        replay = _run_coop_cell(first["mode"], first["depth"],
                                first["peers"], quick) == first
    return {
        "benchmark": "coopbench",
        "quick": quick,
        "modes": modes,
        "depths": depths,
        "peers": peers,
        "cells": cells,
        "replay_identical": replay,
        "adaptive": _run_adaptive(quick),
    }


def _cell_index(report: Dict) -> Dict:
    return {(c["mode"], c["depth"], c["peers"]): c
            for c in report["cells"]}


def check_report(report: Dict) -> List[str]:
    """Acceptance checks; returns human-readable failures (empty = pass)."""
    failures = []
    cells = _cell_index(report)
    for cell in report["cells"]:
        tag = (f"{cell['mode']} depth={cell['depth']} "
               f"peers={cell['peers']}")
        if not cell["integrity_ok"]:
            failures.append(f"{tag}: rollout clone bytes diverged from "
                            "the v2 origin image")
        if (cell["mode"] == "cooperative" and cell["peers"] >= 2
                and cell["peer_hits"] == 0):
            failures.append(f"{tag}: zero peer hits — the directory "
                            "never answered a miss")
        if (cell["mode"] == "exclusive" and cell["depth"] >= 2
                and cell["demotions_out"] == 0):
            failures.append(f"{tag}: demotion armed but no clean victim "
                            "ever demoted")
    for (mode, depth, n), coop in cells.items():
        if mode != "cooperative" or n < 2:
            continue
        base = cells.get(("inclusive", depth, n))
        if base is None:
            continue
        tag = f"cooperative depth={depth} peers={n}"
        cp = next(p for p in coop["phases"] if p["phase"] == "cold_storm")
        bp = next(p for p in base["phases"] if p["phase"] == "cold_storm")
        if depth == 1:
            # Peers talk straight to the WAN: the directory must turn
            # per-peer origin fetches into one fetch plus LAN borrows.
            if cp["makespan_s"] >= bp["makespan_s"]:
                failures.append(
                    f"{tag}: cold_storm not faster than siloed "
                    f"({cp['makespan_s']:.2f}s vs {bp['makespan_s']:.2f}s)")
            if cp["wan_bytes"] >= bp["wan_bytes"]:
                failures.append(
                    f"{tag}: cold_storm moved no less WAN traffic than "
                    f"siloed ({cp['wan_bytes']} vs {bp['wan_bytes']} B)")
        else:
            # A shared intermediate level already deduplicates WAN
            # fetches across peers, so the directory cannot reduce WAN
            # bytes further; require its query overhead to stay small
            # and the WAN traffic to never grow.
            if cp["makespan_s"] > bp["makespan_s"] * 1.02:
                failures.append(
                    f"{tag}: directory overhead above 2% on cold_storm "
                    f"({cp['makespan_s']:.2f}s vs {bp['makespan_s']:.2f}s)")
            if cp["wan_bytes"] > bp["wan_bytes"]:
                failures.append(
                    f"{tag}: cold_storm moved more WAN traffic than "
                    f"siloed ({cp['wan_bytes']} vs {bp['wan_bytes']} B)")
    for (mode, depth, n), excl in cells.items():
        if mode != "exclusive":
            continue
        base = cells.get(("inclusive", depth, n))
        if base is None:
            continue
        tag = f"exclusive depth={depth} peers={n}"
        if depth == 1:
            # Arming against the cacheless origin proxy is a no-op, so
            # depth-1 exclusive must be bit-identical to inclusive.
            if (excl["total_sim_seconds"] != base["total_sim_seconds"]
                    or excl["phases"] != base["phases"]):
                failures.append(f"{tag}: depth-1 no-op arming changed "
                                "timing vs inclusive")
        else:
            ep = next(p for p in excl["phases"]
                      if p["phase"] == "hot_restorm")
            bp = next(p for p in base["phases"]
                      if p["phase"] == "hot_restorm")
            if depth == 2:
                # The BENCH_pr5 headline case: after scan pressure,
                # demoted hot blocks must make the L2 refill faster.
                if ep["makespan_s"] > bp["makespan_s"]:
                    failures.append(
                        f"{tag}: hot re-storm slower than inclusive "
                        f"({ep['makespan_s']:.2f}s vs "
                        f"{bp['makespan_s']:.2f}s)")
            elif ep["makespan_s"] > bp["makespan_s"] * 1.25:
                # Deeper cascades retain the hot set inclusively anyway;
                # exclusivity only pays extra hops there.  Bound the
                # regression rather than demand a win.
                failures.append(
                    f"{tag}: hot re-storm regression above 25% "
                    f"({ep['makespan_s']:.2f}s vs {bp['makespan_s']:.2f}s)")
    if report["replay_identical"] is not True:
        failures.append("replay with identical parameters diverged")
    adaptive = report.get("adaptive")
    if adaptive is not None:
        if adaptive["adapted_probe_s"] > adaptive["control_probe_s"]:
            failures.append(
                "adaptive: bypassing dead levels slowed the probe "
                f"({adaptive['adapted_probe_s']:.2f}s vs "
                f"{adaptive['control_probe_s']:.2f}s)")
        if not adaptive["applied_levels"]:
            failures.append("adaptive: the planner proposed nothing "
                            "actionable on the depth-4 cascade")
    return failures


def format_report(report: Dict) -> str:
    lines = [f"coopbench (modes {report['modes']}, depths "
             f"{report['depths']}, peers {report['peers']}"
             f"{', quick' if report['quick'] else ''})"]
    lines.append("    mode         d  N   cold(s)   re-storm(s)  "
                 "rollout(s)   WAN-MB  peer-hit  demoted")
    for c in report["cells"]:
        by = {p["phase"]: p for p in c["phases"]}
        lines.append(
            f"    {c['mode']:<11} {c['depth']:>2} {c['peers']:>2}"
            f"  {by['cold_storm']['makespan_s']:>8.2f}"
            f"  {by['hot_restorm']['makespan_s']:>11.2f}"
            f"  {by['rollout_storm']['makespan_s']:>10.2f}"
            f"  {c['wan_bytes_total'] / (1024 * 1024):>7.1f}"
            f"  {c['peer_hit_ratio']:>8.3f}"
            f"  {c['demotions_out']:>7}")
    adaptive = report["adaptive"]
    lines.append(
        f"  adaptive: probe {adaptive['control_probe_s']:.2f}s -> "
        f"{adaptive['adapted_probe_s']:.2f}s "
        f"({adaptive['speedup']:.2f}x) after bypassing levels "
        f"{adaptive['applied_levels']}")
    lines.append(f"  replay determinism: "
                 f"{'OK' if report['replay_identical'] else 'DIVERGED'}")
    return "\n".join(lines)
