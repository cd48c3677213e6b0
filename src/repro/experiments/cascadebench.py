"""Cache-cascade benchmark: depth x eviction-policy sweep (PR 5).

§3.2.3 motivates a second-level proxy cache on a LAN server;
:func:`repro.core.session.build_cascade` generalizes that to N levels
(compute node -> rack cache -> ... -> site cache -> origin).  This
benchmark answers the quantitative questions the generalization
raises: where do hits concentrate as the cascade deepens, and how much
does the within-set victim-selection policy (LRU / LFU / 2Q,
:mod:`repro.core.eviction`) matter at a capacity-constrained level?

Two workloads, both on the calibrated WAN testbed:

``cold_clone``
    VM cloning through the cascade.  One *hot* golden image is cloned
    repeatedly with the client cold-restarted between clonings (the
    paper's cold-clone discipline), interleaved with distinct one-shot
    *scan* images that pressure the first intermediate level — sized to
    hold the hot image plus only part of a scan, so the eviction policy
    decides whether scans displace the hot set (LRU) or stay
    probationary (2Q) / low-count (LFU).  A tiered-restart sweep first
    cold-restarts progressively deeper prefixes of the cascade
    (client; client+rack; ...) so every level serves at least one
    refill: a depth-d cascade absorbs a tier-j restart from tier j+1.

``kernel_compile``
    Figure 5's kernel build run twice through the cascade with the
    client cold-restarted between runs; the warm run's read traffic
    lands on the first intermediate level.

Each (depth, policy, workload) cell is an independent deterministic
simulation.  The report also carries an *equivalence* check that the
cascade machinery is pure generalization, compared bit-identically on
simulated clone times: depth 1 (``build_cascade(levels=[])``) against
a plain WAN+C session.  ``check_report`` turns violated guarantees (a
starved level, an equivalence mismatch) into failures — the CI
cascade-smoke gate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import ProxyCacheConfig, ProxyConfig
from repro.core.eviction import POLICIES
from repro.core.session import (
    CascadeLevel,
    GvfsSession,
    LocalMount,
    Scenario,
    ServerEndpoint,
    build_cascade,
)
from repro.net.topology import make_paper_testbed
from repro.vm.cloning import CloneManager
from repro.vm.image import VmConfig, VmImage
from repro.vm.monitor import VmMonitor
from repro.workloads.kernelcompile import KernelCompile

__all__ = ["DEPTHS", "WORKLOADS", "check_report", "format_report",
           "run_cascadebench"]

MB = 1024 * 1024

DEPTHS = (1, 2, 3, 4)
WORKLOADS = ("cold_clone", "kernel_compile")

#: Cloning-image scale: (hot MB, scan MB, steady-state hot/scan pairs).
_CLONE_SCALE = {False: (48, 24, 3), True: (12, 6, 2)}

#: Memory-state zero fraction for the cascade images: lower than the
#: post-boot 0.92 so enough nonzero blocks flow to exercise the caches.
_ZERO_FRACTION = 0.5


class _QuickKernelCompile(KernelCompile):
    """CI-scale kernel build: same phase structure, ~1/8 the bytes."""

    SOURCE_GROUPS = 20
    GROUP_BYTES = 1 * MB
    OBJECT_GROUPS = 16
    OBJECT_BYTES = 256 * 1024


# --------------------------------------------------------------------------
# Cascade geometry
# --------------------------------------------------------------------------

#: Every proxy of a cell runs with sequential readahead disabled.
#: Prefetch fills satisfy most lookups at every level regardless of
#: what the victim selector evicted, masking the very effect the policy
#: sweep measures; with readahead off, per-level hit ratios reflect
#: retention alone.
_ISOLATED = ProxyConfig(readahead_depth=0)


def _client_config(policy: str, quick: bool) -> ProxyCacheConfig:
    return ProxyCacheConfig(capacity_bytes=(16 if quick else 64) * MB,
                            n_banks=32, associativity=4, eviction=policy)


def _level_configs(depth: int, policy: str,
                   quick: bool) -> List[ProxyCacheConfig]:
    """Intermediate-level cache geometries, client-ward first.

    The first intermediate level is capacity-constrained (it holds the
    hot image plus only part of a scan, so victim selection matters);
    deeper levels grow origin-ward and comfortably hold the full
    working set, serving refills after deep tier restarts.
    """
    if depth < 2:
        return []
    # The constrained level holds the hot image with little to spare:
    # hot + one scan overshoots capacity, so victim selection decides
    # whether scans displace the hot set.
    constrained = ProxyCacheConfig(
        capacity_bytes=(16 if quick else 64) * MB,
        n_banks=8 if quick else 16, associativity=4, eviction=policy)
    generous = ProxyCacheConfig(
        capacity_bytes=(64 if quick else 256) * MB,
        n_banks=32, associativity=8, eviction=policy)
    return [constrained] + [generous] * (depth - 2)


def _level_rows(session: GvfsSession,
                levels: Sequence[CascadeLevel]) -> List[Dict]:
    """Per-level block-cache stats, client first (level 1)."""
    stacks: List[Tuple[str, object]] = [("client", session.client_proxy)]
    stacks += [(level.name, level.proxy) for level in levels]
    rows = []
    for tier, (name, stack) in enumerate(stacks, start=1):
        counters = stack.stats_snapshot().get("block-cache", {})
        hits = counters.get("block_cache_hits", 0)
        misses = counters.get("block_cache_misses", 0)
        cache = getattr(stack, "block_cache", None)
        rows.append({
            "level": tier,
            "name": name,
            "eviction": cache.policy.name if cache is not None else None,
            "hits": hits,
            "misses": misses,
            "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        })
    return rows


# --------------------------------------------------------------------------
# Workload: cold cloning through the cascade
# --------------------------------------------------------------------------

def _make_image(fs, name: str, memory_mb: int, seed: int) -> VmImage:
    config = VmConfig(name=name, memory_mb=memory_mb, disk_gb=0.125,
                      persistent=False, seed=seed)
    # No VM metadata: clone reads then flow block-wise through the
    # cascade's block caches (the subject of the sweep) instead of as
    # whole-file data-channel transfers.
    return VmImage.create(fs, f"/images/{name}", config,
                          zero_fraction=_ZERO_FRACTION)


def _run_cold_clone(depth: int, policy: str, quick: bool,
                    plain: bool = False) -> Dict:
    """One cold-clone cell.  ``plain`` skips cascade construction
    altogether (the depth-1 equivalence check's reference session)."""
    hot_mb, scan_mb, steady = _CLONE_SCALE[quick]
    testbed = make_paper_testbed()
    env = testbed.env
    endpoint = ServerEndpoint(env, testbed.wan_server)
    fs = endpoint.export.fs
    hot = _make_image(fs, "hot", hot_mb, seed=300)
    scans = [_make_image(fs, f"scan{k}", scan_mb, seed=310 + k)
             for k in range(steady)]

    if plain:
        via, levels = None, []
    else:
        via = build_cascade(testbed, endpoint,
                            _level_configs(depth, policy, quick),
                            name=f"cc-d{depth}", proxy_config=_ISOLATED)
        levels = via.levels
    session = GvfsSession.build(
        testbed, Scenario.WAN_CACHED, endpoint=endpoint,
        cache_config=_client_config(policy, quick), via=via,
        proxy_config=_ISOLATED)
    compute = testbed.compute[0]
    manager = CloneManager(env, VmMonitor(env, compute), session.mount,
                           LocalMount(compute.local))
    clone_seconds: List[Tuple[str, float]] = []

    def clone(tag: str, image: VmImage, record: bool = True):
        res = yield env.process(manager.clone(
            image.directory, f"/clones/{tag}", clone_name=tag))
        if record:
            clone_seconds.append((tag, res.total_seconds))

    def restart_tiers(n: int):
        """Cold-restart the client and the first ``n - 1`` cascade
        levels; deeper levels keep their warm state."""
        yield env.process(session.cold_caches())
        for level in levels[:n - 1]:
            yield env.process(level.proxy.quiesce())
            level.proxy.invalidate_caches()

    def driver(env):
        # Warm the whole cascade, then measure from clean counters.
        yield env.process(clone("warm", hot, record=False))
        session.client_proxy.reset(deep=True)
        # Tiered-restart sweep: tier j's refill is served by tier j+1,
        # so every level of the cascade registers hits.
        for j in range(1, depth):
            yield env.process(restart_tiers(j))
            yield env.process(clone(f"tier{j}", hot))
        # Steady state: hot re-clones under one-shot scan pressure.
        for k in range(steady):
            yield env.process(restart_tiers(1))
            yield env.process(clone(f"scan{k}", scans[k]))
            yield env.process(restart_tiers(1))
            yield env.process(clone(f"hot{k}", hot))

    env.process(driver(env))
    env.run()
    return {
        "workload": "cold_clone",
        "depth": depth,
        "policy": policy,
        "clone_seconds": clone_seconds,
        "total_sim_seconds": env.now,
        "levels": _level_rows(session, levels),
    }


# --------------------------------------------------------------------------
# Workload: kernel compilation through the cascade
# --------------------------------------------------------------------------

def _run_kernel_compile(depth: int, policy: str, quick: bool) -> Dict:
    from repro.experiments.appbench import run_application_benchmark
    testbed = make_paper_testbed()
    endpoint = ServerEndpoint(testbed.env, testbed.wan_server)
    workload = _QuickKernelCompile if quick else KernelCompile
    cascade = build_cascade(testbed, endpoint,
                            _level_configs(depth, policy, quick),
                            name=f"kc-d{depth}", proxy_config=_ISOLATED)
    result = run_application_benchmark(
        Scenario.WAN_CACHED, workload, runs=2, testbed=testbed,
        endpoint=endpoint, via=cascade,
        cache_config=_client_config(policy, quick), cold_between=True,
        proxy_config=_ISOLATED)
    return {
        "workload": "kernel_compile",
        "depth": depth,
        "policy": policy,
        "run_seconds": [run.total_seconds for run in result.runs],
        "total_sim_seconds": testbed.env.now,
        "levels": _level_rows(result.session, cascade.levels),
    }


_RUNNERS = {"cold_clone": _run_cold_clone,
            "kernel_compile": _run_kernel_compile}


# --------------------------------------------------------------------------
# Equivalence: the cascade machinery is pure generalization
# --------------------------------------------------------------------------

def _equivalence_depth1(quick: bool) -> Dict:
    """``build_cascade(levels=[])`` == a plain WAN+C client session."""
    cascaded = _run_cold_clone(1, "lru", quick)
    direct = _run_cold_clone(1, "lru", quick, plain=True)
    return {
        "what": "depth-1 cascade vs plain caching proxy",
        "clone_seconds_identical":
            cascaded["clone_seconds"] == direct["clone_seconds"],
        "total_identical":
            cascaded["total_sim_seconds"] == direct["total_sim_seconds"],
        "cascade_total_s": cascaded["total_sim_seconds"],
        "plain_total_s": direct["total_sim_seconds"],
    }


# --------------------------------------------------------------------------
# Driver / report
# --------------------------------------------------------------------------

def run_cascadebench(depths: Optional[Sequence[int]] = None,
                     policies: Optional[Sequence[str]] = None,
                     workloads: Optional[Sequence[str]] = None,
                     quick: bool = False) -> Dict:
    """Sweep cascade depth x eviction policy x workload; each cell is
    an independent deterministic simulation."""
    depths = list(depths or DEPTHS)
    policies = list(policies or POLICIES)
    workloads = list(workloads or WORKLOADS)
    bad = [d for d in depths if d < 1]
    if bad:
        raise ValueError(f"depths must be >= 1, got {bad}")
    unknown = [p for p in policies if p not in POLICIES]
    if unknown:
        raise ValueError(f"unknown eviction policy(ies) {unknown}; "
                         f"choose from {sorted(POLICIES)}")
    unknown = [w for w in workloads if w not in _RUNNERS]
    if unknown:
        raise ValueError(f"unknown workload(s) {unknown}; "
                         f"choose from {sorted(_RUNNERS)}")
    cells = [_RUNNERS[workload](depth, policy, quick)
             for workload in workloads
             for depth in depths
             for policy in policies]
    return {
        "benchmark": "cascadebench",
        "quick": quick,
        "depths": depths,
        "policies": policies,
        "workloads": workloads,
        "cells": cells,
        "equivalence": {"depth1": _equivalence_depth1(quick)},
    }


def check_report(report: Dict) -> List[str]:
    """Acceptance checks; returns human-readable failures (empty = pass).

    * Every cascade level (tier >= 2) of every cold-clone cell must
      register hits — a 0 ratio means a level is dead weight (the
      tiered-restart sweep guarantees each serves at least one refill).
    * The depth-1 equivalence run must match its reference session
      bit-identically on simulated time — drift means the cascade
      machinery changed timing, not just structure.
    """
    failures = []
    for cell in report["cells"]:
        if cell["workload"] != "cold_clone" or cell["depth"] < 2:
            continue
        tag = f"cold_clone depth={cell['depth']} policy={cell['policy']}"
        for row in cell["levels"]:
            if row["level"] >= 2 and row["hit_ratio"] == 0.0:
                failures.append(
                    f"{tag}: level {row['level']} ({row['name']}) "
                    "registered no hits")
    for key, eq in report["equivalence"].items():
        wrong = [k for k, v in eq.items()
                 if k.endswith("identical") and v is not True]
        if wrong:
            failures.append(f"equivalence {key} ({eq['what']}): "
                            + ", ".join(wrong))
    return failures


def format_report(report: Dict) -> str:
    lines = [f"cascadebench (depths {report['depths']}, policies "
             f"{report['policies']}{', quick' if report['quick'] else ''})"]
    for workload in report["workloads"]:
        lines.append(f"  {workload}:")
        lines.append("    depth  policy  sim-total(s)  per-level hit ratio")
        for cell in report["cells"]:
            if cell["workload"] != workload:
                continue
            ratios = "  ".join(f"L{row['level']}={row['hit_ratio']:.3f}"
                               for row in cell["levels"])
            lines.append(f"    {cell['depth']:>5}  {cell['policy']:<6}"
                         f"  {cell['total_sim_seconds']:>12.2f}  {ratios}")
    for eq in report["equivalence"].values():
        flags = all(v is True for k, v in eq.items()
                    if k.endswith("identical"))
        lines.append(f"  equivalence: {eq['what']}: "
                     f"{'identical' if flags else 'DIVERGED'}")
    return "\n".join(lines)
